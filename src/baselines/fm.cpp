#include "baselines/fm.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace fhp {

FmCore::FmCore(const Hypergraph& h, std::vector<std::uint8_t> sides)
    : p_(h, std::move(sides)),
      by_weight_(h.num_vertices()),
      locked_(h.num_vertices()),
      gain_(h.num_vertices()),
      touched_mark_(h.num_vertices()) {
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    max_vertex_weight_ = std::max(max_vertex_weight_, h.vertex_weight(v));
  }
  std::iota(by_weight_.begin(), by_weight_.end(), VertexId{0});
  std::sort(by_weight_.begin(), by_weight_.end(), [&](VertexId a, VertexId b) {
    return h.vertex_weight(a) < h.vertex_weight(b);
  });
}

int FmCore::run(Weight max_weight_imbalance, int max_passes,
                std::span<const std::uint8_t> fixed) {
  FHP_TRACE_SCOPE("fm");
  FHP_COUNTER_ADD("fm/runs", 1);
  FHP_REQUIRE(fixed.empty() || fixed.size() == p_.hypergraph().num_vertices(),
              "fixed mask must be empty or cover every module");
  constexpr Weight kMaxWeight = std::numeric_limits<Weight>::max();
  Weight tolerance = max_weight_imbalance;
  if (tolerance <= 0) {
    tolerance = max_vertex_weight_ > kMaxWeight / 2 ? kMaxWeight
                                                    : 2 * max_vertex_weight_;
  }
  // Never demand a tighter balance than the starting partition satisfies,
  // or no move could ever be rolled into a legal prefix.
  tolerance = std::max(tolerance, p_.weight_imbalance());

  kept_.clear();
  int passes = 0;
  while (passes < max_passes && pass(tolerance, fixed)) ++passes;
  FHP_COUNTER_ADD("fm/passes", passes);
  return passes;
}

void FmCore::undo_last_run() {
  for (; !kept_.empty(); kept_.pop_back()) p_.flip(kept_.back());
}

bool FmCore::pass(Weight tolerance, std::span<const std::uint8_t> fixed) {
  const VertexId n = p_.hypergraph().num_vertices();
  if (fixed.empty()) {
    std::fill(locked_.begin(), locked_.end(), std::uint8_t{0});
  } else {
    std::copy(fixed.begin(), fixed.end(), locked_.begin());
  }
  heap_[0].clear();
  heap_[1].clear();
  for (VertexId v = 0; v < n; ++v) {
    if (locked_[v]) continue;
    gain_[v] = p_.move_gain(v);
    heap_[p_.side(v)].emplace_back(gain_[v], v);
  }
  for (std::vector<HeapEntry>& heap : heap_) {
    std::make_heap(heap.begin(), heap.end());
  }
  lightest_[0] = lightest_[1] = 0;

  const Weight start_cut = p_.cut_weight();
  const Weight start_imbalance = p_.weight_imbalance();
  Weight best_cut = start_cut;
  Weight best_imbalance = start_imbalance;
  std::size_t best_prefix = 0;
  moves_.clear();
  for (VertexId v = pick_move(tolerance); v != kInvalidVertex;
       v = pick_move(tolerance)) {
    apply_move(v);
    moves_.push_back(v);
    const Weight cut = p_.cut_weight();
    const Weight imbalance = p_.weight_imbalance();
    if (cut < best_cut || (cut == best_cut && imbalance < best_imbalance)) {
      best_cut = cut;
      best_imbalance = imbalance;
      best_prefix = moves_.size();
    }
  }

  FHP_COUNTER_ADD("fm/moves", static_cast<long long>(moves_.size()));
  FHP_COUNTER_ADD("fm/moves_rolled_back",
                  static_cast<long long>(moves_.size() - best_prefix));

  // Roll back to the best prefix; the run keeps what is left.
  for (; moves_.size() > best_prefix; moves_.pop_back()) {
    p_.flip(moves_.back());
  }
  kept_.insert(kept_.end(), moves_.begin(), moves_.end());
  return best_cut < start_cut ||
         (best_cut == start_cut && best_imbalance < start_imbalance &&
          best_prefix > 0);
}

bool FmCore::legal(std::uint8_t side, Weight w, Weight tolerance) const {
  const Weight from = p_.weight(side) - w;
  const Weight to = p_.weight(static_cast<std::uint8_t>(1 - side)) + w;
  return std::max(from, to) - std::min(from, to) <= tolerance;
}

bool FmCore::side_can_move(std::uint8_t side, Weight tolerance) {
  const Hypergraph& h = p_.hypergraph();
  for (std::size_t& i = lightest_[side]; i < by_weight_.size(); ++i) {
    const VertexId v = by_weight_[i];
    if (!locked_[v] && p_.side(v) == side) {
      return legal(side, h.vertex_weight(v), tolerance);
    }
  }
  return false;
}

VertexId FmCore::pick_move(Weight tolerance) {
  const Hypergraph& h = p_.hypergraph();
  HeapEntry best{0, kInvalidVertex};
  bool have = false;
  for (std::uint8_t s = 0; s < 2; ++s) {
    if (!side_can_move(s, tolerance)) continue;
    std::vector<HeapEntry>& heap = heap_[s];
    // The lightest free module is legal, so this finds a move; heavier
    // entries above it that are valid but illegal wait in the stash.
    stash_.clear();
    while (!heap.empty()) {
      const HeapEntry top = heap.front();
      const VertexId v = top.second;
      const bool stale = locked_[v] || gain_[v] != top.first;
      if (!stale && legal(s, h.vertex_weight(v), tolerance)) {
        if (!have || top.first > best.first) {
          best = top;
          have = true;
        }
        break;
      }
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
      if (!stale) stash_.push_back(top);
    }
    for (const HeapEntry& entry : stash_) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end());
    }
  }
  return have ? best.second : kInvalidVertex;
}

void FmCore::bump(VertexId u, Weight delta) {
  if (locked_[u]) return;
  if (!touched_mark_[u]) {
    touched_mark_[u] = 1;
    touched_.emplace_back(u, gain_[u]);
  }
  gain_[u] += delta;
}

void FmCore::apply_move(VertexId v) {
  const Hypergraph& h = p_.hypergraph();
  const std::uint8_t from = p_.side(v);
  const auto to = static_cast<std::uint8_t>(1 - from);
  locked_[v] = 1;
  // Classic FM deltas, before the move: a net with no pin on `to` is
  // about to be cut, so moving a free pin no longer cuts it (+w); the lone
  // `to` pin of a net can no longer uncut it alone (-w).
  for (EdgeId e : h.nets_of(v)) {
    const Weight w = h.edge_weight(e);
    const Count on_to = p_.pins_on_side(e, to);
    if (on_to == 0) {
      for (VertexId u : h.pins(e)) bump(u, w);
    } else if (on_to == 1) {
      for (VertexId u : h.pins(e)) {
        if (p_.side(u) == to) {
          bump(u, -w);
          break;
        }
      }
    }
  }
  p_.flip(v);
  // After the move: a net with no pin left on `from` is uncut, so moving
  // a free pin cuts it again (-w); the lone `from` pin left on a net can
  // now uncut it alone (+w).
  for (EdgeId e : h.nets_of(v)) {
    const Weight w = h.edge_weight(e);
    const Count on_from = p_.pins_on_side(e, from);
    if (on_from == 0) {
      for (VertexId u : h.pins(e)) bump(u, -w);
    } else if (on_from == 1) {
      for (VertexId u : h.pins(e)) {
        if (p_.side(u) == from) {
          bump(u, w);
          break;
        }
      }
    }
  }
  for (const auto& [u, before] : touched_) {
    touched_mark_[u] = 0;
    if (gain_[u] == before) continue;
    std::vector<HeapEntry>& heap = heap_[p_.side(u)];
    heap.emplace_back(gain_[u], u);
    std::push_heap(heap.begin(), heap.end());
  }
  touched_.clear();
}

BaselineResult fiduccia_mattheyses(const Hypergraph& h,
                                   const FmOptions& options) {
  FHP_REQUIRE(options.max_passes >= 1, "need at least one pass");
  if (is_degenerate_instance(h)) {
    FHP_COUNTER_ADD("fm/runs", 1);
    return trivial_baseline_result(h);
  }
  FmCore fm(h, options.initial.has_value()
                   ? *options.initial
                   : random_bisection(h, options.seed).sides);
  BaselineResult result;
  result.iterations = fm.run(options.max_weight_imbalance, options.max_passes);
  result.sides = fm.partition().sides();
  result.metrics = compute_metrics(fm.partition());
  return result;
}

}  // namespace fhp
