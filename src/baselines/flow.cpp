#include "baselines/flow.hpp"

#include <algorithm>

#include "graph/maxflow.hpp"
#include "multilevel/flow_refine.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace fhp {

namespace {

/// BFS over the hypergraph itself (module → nets → modules); returns the
/// farthest module from \p source (modules in other components excluded).
VertexId farthest_module(const Hypergraph& h, VertexId source) {
  std::vector<std::uint8_t> seen_vertex(h.num_vertices(), 0);
  std::vector<std::uint8_t> seen_edge(h.num_edges(), 0);
  std::vector<VertexId> queue{source};
  seen_vertex[source] = 1;
  VertexId last = source;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    last = u;
    for (EdgeId e : h.nets_of(u)) {
      if (seen_edge[e]) continue;
      seen_edge[e] = 1;
      for (VertexId w : h.pins(e)) {
        if (seen_vertex[w]) continue;
        seen_vertex[w] = 1;
        queue.push_back(w);
      }
    }
  }
  return last;
}

/// One min-cut solve with collapsed terminal sets: the modules marked in
/// \p in_s (\p in_t) are the corridor exterior at side 0 (1), contracted
/// into the super source (sink); every other module is movable. Returns
/// the sides of the minimal minimum cut (source side = 0).
std::vector<std::uint8_t> solve_cut(const Hypergraph& h,
                                    const std::vector<std::uint8_t>& in_s,
                                    const std::vector<std::uint8_t>& in_t) {
  FHP_TRACE_SCOPE("maxflow_solve");
  FHP_COUNTER_ADD("flow/maxflow_solves", 1);
  const VertexId n = h.num_vertices();
  std::vector<std::uint8_t> sides(n, 1);
  std::vector<std::uint8_t> movable(n, 1);
  for (VertexId v = 0; v < n; ++v) {
    if (in_s[v]) sides[v] = 0;
    if (in_s[v] || in_t[v]) movable[v] = 0;
  }
  return ml::solve_corridor(h, sides, movable).sides;
}

/// A module outside \p region (and outside \p forbidden) sharing a net
/// with it, or any unclaimed module as a fallback; kInvalidVertex if all
/// modules are claimed.
VertexId pick_adjacent(const Hypergraph& h,
                       const std::vector<std::uint8_t>& region,
                       const std::vector<std::uint8_t>& forbidden) {
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (!region[v]) continue;
    for (EdgeId e : h.nets_of(v)) {
      for (VertexId w : h.pins(e)) {
        if (!region[w] && !forbidden[w]) return w;
      }
    }
  }
  for (VertexId w = 0; w < h.num_vertices(); ++w) {
    if (!region[w] && !forbidden[w]) return w;
  }
  return kInvalidVertex;
}

/// Flow-Balanced-Bipartition loop for one terminal pair: repeatedly solve
/// the min cut and, while the source side is outside the target occupancy
/// band, collapse it (plus one adjacent module, forcing progress) into
/// its terminal. Returns the final sides (source side = 0).
std::vector<std::uint8_t> fbb(const Hypergraph& h, VertexId s, VertexId t,
                              VertexId lo, VertexId hi) {
  const VertexId n = h.num_vertices();
  std::vector<std::uint8_t> in_s(n, 0);
  std::vector<std::uint8_t> in_t(n, 0);
  in_s[s] = 1;
  in_t[t] = 1;

  std::vector<std::uint8_t> sides;
  for (VertexId round = 0; round < n; ++round) {
    sides = solve_cut(h, in_s, in_t);
    const auto source_count =
        static_cast<VertexId>(std::count(sides.begin(), sides.end(), 0));
    if (source_count >= lo && source_count <= hi) break;

    if (source_count < lo) {
      // Source side too small: absorb it into S and grab one neighbor.
      for (VertexId v = 0; v < n; ++v) {
        if (sides[v] == 0) in_s[v] = 1;
      }
      const VertexId extra = pick_adjacent(h, in_s, in_t);
      if (extra == kInvalidVertex) break;
      in_s[extra] = 1;
    } else {
      // Sink side too small: absorb it into T and grab one neighbor.
      for (VertexId v = 0; v < n; ++v) {
        if (sides[v] == 1) in_t[v] = 1;
      }
      const VertexId extra = pick_adjacent(h, in_t, in_s);
      if (extra == kInvalidVertex) break;
      in_t[extra] = 1;
    }
  }
  return sides;
}

}  // namespace

BaselineResult flow_bipartition(const Hypergraph& h,
                                const FlowOptions& options) {
  FHP_TRACE_SCOPE("flow");
  FHP_COUNTER_ADD("flow/runs", 1);
  FHP_REQUIRE(h.num_vertices() >= 2, "need at least two modules");
  FHP_REQUIRE(options.pairs >= 1, "need at least one terminal pair");
  FHP_REQUIRE(options.balance_fraction > 0.0 &&
                  options.balance_fraction <= 1.0,
              "balance fraction must be in (0, 1]");
  // A net with a movable pin is a finite arc of a solve's gadget, so the
  // summed net weight must stay below the uncuttable-arc capacity
  // (graph/maxflow.hpp, "Arithmetic"). Checking every net up front fails
  // such an instance typed before the first solve, whichever nets the
  // solves take in.
  FHP_REQUIRE(h.total_edge_weight() < FlowNetwork::kInfiniteCapacity,
              "flow gadget capacity overflow: summed net weight reaches "
              "the uncuttable-arc capacity");
  Rng rng(options.seed);

  const VertexId n = h.num_vertices();
  const auto slack = static_cast<VertexId>(
      options.balance_fraction * static_cast<double>(n) / 2.0);
  const VertexId lo = (n / 2 > slack) ? n / 2 - slack : 1;
  const VertexId hi = std::min<VertexId>(n - 1, (n + 1) / 2 + slack);

  BaselineResult best;
  bool have_best = false;
  int solved = 0;
  for (int attempt = 0; attempt < options.pairs; ++attempt) {
    const auto s = static_cast<VertexId>(rng.next_below(n));
    VertexId t = farthest_module(h, s);
    if (t == s) t = (s == 0) ? 1 : 0;
    ++solved;

    BaselineResult candidate;
    candidate.sides = fbb(h, s, t, lo, hi);
    candidate.metrics = compute_metrics(Bipartition(h, candidate.sides));
    if (!candidate.metrics.proper) continue;

    const bool take =
        !have_best ||
        candidate.metrics.cut_weight < best.metrics.cut_weight ||
        (candidate.metrics.cut_weight == best.metrics.cut_weight &&
         candidate.metrics.cardinality_imbalance <
             best.metrics.cardinality_imbalance);
    if (take) {
      best = std::move(candidate);
      have_best = true;
    }
  }

  if (!have_best) {
    // Only reachable on degenerate inputs; fall back to a random bisection.
    best = random_bisection(h, options.seed);
  }
  FHP_COUNTER_ADD("flow/terminal_pairs", solved);
  best.iterations = solved;
  return best;
}

}  // namespace fhp
