#include "baselines/flow.hpp"

#include <algorithm>

#include "graph/maxflow.hpp"
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

/// One min-cut solve with collapsed terminal sets: every module marked in
/// \p in_s (\p in_t) is wired to the super source (sink) with uncuttable
/// arcs. Returns the source-side marker per module and the cut weight.
struct CutResult {
  std::vector<std::uint8_t> source_side;
  FlowNetwork::Capacity cut = 0;
};

CutResult solve_cut(const Hypergraph& h, const std::vector<std::uint8_t>& in_s,
                    const std::vector<std::uint8_t>& in_t) {
  FHP_TRACE_SCOPE("maxflow_solve");
  FHP_COUNTER_ADD("flow/maxflow_solves", 1);
  // Gadget sizing in 64-bit so a node count past the index range fails
  // typed in FlowNetwork's admission instead of wrapping on the way there.
  const std::uint64_t nodes64 = static_cast<std::uint64_t>(h.num_vertices()) +
                                2 * static_cast<std::uint64_t>(h.num_edges()) +
                                2;
  FHP_REQUIRE(nodes64 <= kMaxIndexCount,
              "flow gadget node count exceeds the index range");
  const Count n = h.num_vertices();
  const Count super_s = n + 2 * h.num_edges();
  const Count super_t = super_s + 1;
  FlowNetwork net(super_t + 1);
  // Standard hyperedge gadget: cutting net e costs edge_weight(e) once.
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    const Count in = n + 2 * e;
    const Count out = in + 1;
    net.add_arc(in, out, h.edge_weight(e));
    for (VertexId v : h.pins(e)) {
      net.add_arc(v, in, FlowNetwork::kInfiniteCapacity);
      net.add_arc(out, v, FlowNetwork::kInfiniteCapacity);
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (in_s[v]) net.add_arc(super_s, v, FlowNetwork::kInfiniteCapacity);
    if (in_t[v]) net.add_arc(v, super_t, FlowNetwork::kInfiniteCapacity);
  }
  CutResult result;
  result.cut = net.max_flow(super_s, super_t);
  const std::vector<std::uint8_t> reach = net.min_cut_side();
  result.source_side.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) result.source_side[v] = reach[v];
  return result;
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

  std::vector<std::uint8_t> sides(n, 1);
  for (VertexId round = 0; round < n; ++round) {
    const CutResult cut = solve_cut(h, in_s, in_t);
    VertexId source_count = 0;
    for (VertexId v = 0; v < n; ++v) {
      sides[v] = cut.source_side[v] ? 0 : 1;
      source_count += cut.source_side[v];
    }
    if (source_count >= lo && source_count <= hi) break;

    if (source_count < lo) {
      // Source side too small: absorb it into S and grab one neighbor.
      for (VertexId v = 0; v < n; ++v) {
        if (cut.source_side[v]) in_s[v] = 1;
      }
      const VertexId extra = pick_adjacent(h, in_s, in_t);
      if (extra == kInvalidVertex) break;
      in_s[extra] = 1;
    } else {
      // Sink side too small: absorb it into T and grab one neighbor.
      std::vector<std::uint8_t> sink_side(n, 0);
      for (VertexId v = 0; v < n; ++v) sink_side[v] = !cut.source_side[v];
      for (VertexId v = 0; v < n; ++v) {
        if (sink_side[v]) in_t[v] = 1;
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
  // Every net is a finite arc of each solve's gadget, so their summed
  // weight must stay below the uncuttable-arc capacity (graph/maxflow.hpp,
  // "Arithmetic"), as solve_corridor() requires of its relevant nets.
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
