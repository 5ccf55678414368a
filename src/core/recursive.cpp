#include "core/recursive.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "hypergraph/transform.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace fhp {

void rebalance_bipartition(Bipartition& p, double target_frac0,
                           double tolerance) {
  const Hypergraph& h = p.hypergraph();
  const VertexId n = h.num_vertices();
  const auto total = static_cast<double>(h.total_vertex_weight());
  if (total <= 0) return;
  const double target0 = target_frac0 * total;
  const double tol_abs = std::max(1.0, tolerance * total);

  double dev0 = static_cast<double>(p.weight(0)) - target0;
  if (std::abs(dev0) <= tol_abs) return;

  // Gains for every module, one O(pins) sweep up front and kept current
  // incrementally: a flip only changes the gains of modules sharing a
  // net with the flipped one, so per-move work is O(deg · log n) instead
  // of the full-rescan O(n · pins) the legacy loop paid.
  std::vector<Weight> gain(n);
  for (VertexId v = 0; v < n; ++v) gain[v] = p.move_gain(v);

  // Per-side lazy max-heaps of (gain, id) snapshots. A popped snapshot is
  // live only if the module is still on that side with that gain;
  // anything else was superseded by a later push. Ordering reproduces the
  // legacy scan exactly: highest gain wins, lowest id on ties.
  using Entry = std::pair<Weight, VertexId>;
  struct EntryLess {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.first != b.first) return a.first < b.first;
      return a.second > b.second;
    }
  };
  using Heap = std::priority_queue<Entry, std::vector<Entry>, EntryLess>;
  Heap heaps[2];
  for (VertexId v = 0; v < n; ++v) heaps[p.side(v)].emplace(gain[v], v);

  std::vector<VertexId> touched;
  std::vector<std::uint8_t> touched_mark(n, 0);
  for (VertexId guard = 0; guard < n && std::abs(dev0) > tol_abs; ++guard) {
    const std::uint8_t heavy = dev0 > 0 ? 0 : 1;
    const double limit = 2.0 * std::abs(dev0);

    VertexId best = kInvalidVertex;
    Heap& heap = heaps[heavy];
    while (!heap.empty()) {
      const auto [g, v] = heap.top();
      heap.pop();
      if (p.side(v) != heavy || g != gain[v]) continue;  // stale snapshot
      if (static_cast<double>(h.vertex_weight(v)) >= limit) {
        // Would overshoot past the target. |dev0| never grows, so the
        // limit only shrinks: inadmissible now means inadmissible for
        // the rest of the run — dropping the snapshot is safe.
        continue;
      }
      best = v;
      break;
    }
    if (best == kInvalidVertex) break;

    p.flip(best);
    dev0 = static_cast<double>(p.weight(0)) - target0;
    gain[best] = p.move_gain(best);
    heaps[1 - heavy].emplace(gain[best], best);

    // Refresh the gains the flip invalidated: exactly the modules
    // sharing a net with `best` (deduplicated via the scratch mark).
    touched.clear();
    for (EdgeId e : h.nets_of(best)) {
      for (VertexId u : h.pins(e)) {
        if (u == best || touched_mark[u]) continue;
        touched_mark[u] = 1;
        touched.push_back(u);
      }
    }
    for (VertexId u : touched) {
      touched_mark[u] = 0;
      const Weight g = p.move_gain(u);
      if (g != gain[u]) {
        gain[u] = g;
        heaps[p.side(u)].emplace(g, u);
      }
    }
  }
}

namespace {

/// Recursively assigns parts [first_part, first_part + k) to the modules
/// listed in `vertices` (ids of the original hypergraph).
void recurse(const Hypergraph& h, const std::vector<VertexId>& vertices,
             std::uint32_t k, std::uint32_t first_part,
             const RecursiveOptions& options, std::uint64_t path_seed,
             std::vector<std::uint32_t>& part) {
  if (k <= 1 || vertices.size() <= 1) {
    for (VertexId v : vertices) part[v] = first_part;
    return;
  }

  // Build the sub-netlist induced by this block.
  std::vector<std::uint8_t> keep(h.num_vertices(), 0);
  for (VertexId v : vertices) keep[v] = 1;
  const InducedResult sub = induced_subhypergraph(h, keep);

  // Split k proportionally: left gets floor(k/2) parts.
  const std::uint32_t k_left = k / 2;
  const std::uint32_t k_right = k - k_left;

  Algorithm1Options sub_options = options.algorithm1;
  sub_options.seed = path_seed;
  std::vector<std::uint8_t> sides;
  if (sub.hypergraph.num_vertices() >= 2) {
    const Algorithm1Result result = algorithm1(sub.hypergraph, sub_options);
    sides = result.sides;
    if (options.rebalance) {
      Bipartition p(sub.hypergraph, std::move(sides));
      rebalance_bipartition(
          p, static_cast<double>(k_left) / static_cast<double>(k),
          options.balance_tolerance / 2.0);
      sides = p.sides();
    }
  } else {
    sides.assign(sub.hypergraph.num_vertices(), 0);
  }

  std::vector<VertexId> left;
  std::vector<VertexId> right;
  for (VertexId u = 0; u < sub.hypergraph.num_vertices(); ++u) {
    const VertexId original = sub.kept_vertices[u];
    if (sides[u] == 0) {
      left.push_back(original);
    } else {
      right.push_back(original);
    }
  }
  std::uint64_t sm = path_seed;
  recurse(h, left, k_left, first_part, options, splitmix64(sm), part);
  recurse(h, right, k_right, first_part + k_left, options, splitmix64(sm),
          part);
}

}  // namespace

KWayResult recursive_partition(const Hypergraph& h, std::uint32_t k,
                               const Algorithm1Options& options) {
  RecursiveOptions recursive;
  recursive.algorithm1 = options;
  return recursive_partition(h, k, recursive);
}

KWayResult recursive_partition(const Hypergraph& h, std::uint32_t k,
                               const RecursiveOptions& options) {
  FHP_REQUIRE(k >= 1, "need at least one part");
  FHP_REQUIRE(k <= h.num_vertices(), "more parts than modules");
  KWayResult result;
  result.part.assign(h.num_vertices(), 0);

  std::vector<VertexId> all(h.num_vertices());
  for (VertexId v = 0; v < h.num_vertices(); ++v) all[v] = v;
  recurse(h, all, k, 0, options, options.algorithm1.seed, result.part);

  result.cut_edges = kway_cut_edges(h, result.part);
  std::vector<Weight> weights(k, 0);
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    weights[result.part[v]] += h.vertex_weight(v);
  }
  result.max_part_weight = *std::max_element(weights.begin(), weights.end());
  result.min_part_weight = *std::min_element(weights.begin(), weights.end());
  return result;
}

EdgeId kway_cut_edges(const Hypergraph& h,
                      const std::vector<std::uint32_t>& part) {
  FHP_REQUIRE(part.size() == h.num_vertices(), "one part id per module");
  EdgeId cut = 0;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    const auto pins = h.pins(e);
    if (pins.empty()) continue;
    const std::uint32_t first = part[pins.front()];
    for (VertexId v : pins) {
      if (part[v] != first) {
        ++cut;
        break;
      }
    }
  }
  return cut;
}

}  // namespace fhp
