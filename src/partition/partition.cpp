#include "partition/partition.hpp"

namespace fhp {

Bipartition::Bipartition(const Hypergraph& h)
    : Bipartition(h, std::vector<std::uint8_t>(h.num_vertices(), 0)) {}

Bipartition::Bipartition(const Hypergraph& h, std::vector<std::uint8_t> sides)
    : h_(&h), sides_(std::move(sides)) {
  require_sides(h, sides_);
  rebuild();
}

void Bipartition::rebuild() {
  const Hypergraph& h = *h_;
  pins_on_side_[0].assign(h.num_edges(), 0);
  pins_on_side_[1].assign(h.num_edges(), 0);
  counts_[0] = counts_[1] = 0;
  weights_[0] = weights_[1] = 0;
  cut_edges_ = 0;
  cut_weight_ = 0;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    const std::uint8_t s = sides_[v];
    ++counts_[s];
    weights_[s] += h.vertex_weight(v);
  }
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    for (VertexId v : h.pins(e)) ++pins_on_side_[sides_[v]][e];
    if (is_cut(e)) {
      ++cut_edges_;
      cut_weight_ += h.edge_weight(e);
    }
  }
}

void Bipartition::flip(VertexId v) {
  FHP_REQUIRE(v < sides_.size(), "vertex out of range");
  const Hypergraph& h = *h_;
  const std::uint8_t from = sides_[v];
  const std::uint8_t to = static_cast<std::uint8_t>(1 - from);
  sides_[v] = to;
  --counts_[from];
  ++counts_[to];
  weights_[from] -= h.vertex_weight(v);
  weights_[to] += h.vertex_weight(v);
  for (EdgeId e : h.nets_of(v)) {
    const bool was_cut = is_cut(e);
    --pins_on_side_[from][e];
    ++pins_on_side_[to][e];
    const bool now_cut = is_cut(e);
    if (was_cut != now_cut) {
      if (now_cut) {
        ++cut_edges_;
        cut_weight_ += h.edge_weight(e);
      } else {
        --cut_edges_;
        cut_weight_ -= h.edge_weight(e);
      }
    }
  }
}

void Bipartition::move_to(VertexId v, std::uint8_t to) {
  FHP_REQUIRE(to == 0 || to == 1, "side must be 0 or 1");
  if (side(v) != to) flip(v);
}

void Bipartition::validate() const {
  Bipartition fresh(*h_, sides_);
  FHP_ASSERT(fresh.cut_edges_ == cut_edges_, "stale cut edge count");
  FHP_ASSERT(fresh.cut_weight_ == cut_weight_, "stale cut weight");
  FHP_ASSERT(fresh.counts_[0] == counts_[0] && fresh.counts_[1] == counts_[1],
             "stale side counts");
  FHP_ASSERT(
      fresh.weights_[0] == weights_[0] && fresh.weights_[1] == weights_[1],
      "stale side weights");
  for (int s = 0; s < 2; ++s) {
    FHP_ASSERT(fresh.pins_on_side_[s] == pins_on_side_[s],
               "stale pin distribution");
  }
}

void require_sides(const Hypergraph& h, std::span<const std::uint8_t> sides) {
  FHP_REQUIRE(sides.size() == h.num_vertices(),
              "one side per module expected");
  for (std::uint8_t s : sides) {
    FHP_REQUIRE(s == 0 || s == 1, "sides must be 0 or 1");
  }
}

Weight cut_weight_of(const Hypergraph& h, std::span<const std::uint8_t> sides) {
  require_sides(h, sides);
  Weight cut = 0;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    bool on[2] = {false, false};
    for (VertexId v : h.pins(e)) {
      on[sides[v]] = true;
      if (on[0] && on[1]) {
        cut += h.edge_weight(e);
        break;
      }
    }
  }
  return cut;
}

}  // namespace fhp
