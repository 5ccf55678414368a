/// Deep invariant sweeps that cut across modules: dual-construction
/// identities, matching/cover duality at scale, partition accounting
/// under long random move sequences, and baseline behavioral contracts.
#include <gtest/gtest.h>

#include <numeric>

#include "baselines/fm.hpp"
#include "baselines/kl.hpp"
#include "baselines/sa.hpp"
#include "core/intersection.hpp"
#include "gen/circuit.hpp"
#include "gen/random_hypergraph.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "graph/matching.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace fhp {
namespace {

// ---------------------------------------------------------------------
// Dual-construction identities.
// ---------------------------------------------------------------------

TEST(Invariants, IntersectionDegreeSumBound) {
  // Sum of G-degrees <= sum over modules of d(v)*(d(v)-1): each module of
  // degree d contributes at most a d-clique.
  RandomHypergraphParams params;
  params.num_vertices = 60;
  params.num_edges = 90;
  params.max_degree = 7;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Hypergraph h = random_hypergraph(params, seed);
    const Graph g = intersection_graph(h);
    std::size_t clique_bound = 0;
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      const std::size_t d = h.degree(v);
      clique_bound += d * (d > 0 ? d - 1 : 0);
    }
    std::size_t degree_sum = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) degree_sum += g.degree(u);
    EXPECT_LE(degree_sum, clique_bound) << "seed " << seed;
  }
}

TEST(Invariants, ModuleConnectivityMatchesDualConnectivity) {
  // Nets e1, e2 are in the same G-component iff they are pin-connected in
  // H (walk alternating modules and nets).
  RandomHypergraphParams params;
  params.num_vertices = 40;
  params.num_edges = 50;
  params.num_edges = 45;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Hypergraph h = random_hypergraph(params, seed);
    if (h.num_edges() == 0) continue;
    const Graph g = intersection_graph(h);
    const Components comps = connected_components(g);
    // BFS in H from net 0's pins: all reached nets must share a label.
    std::vector<std::uint8_t> edge_seen(h.num_edges(), 0);
    std::vector<std::uint8_t> vertex_seen(h.num_vertices(), 0);
    std::vector<EdgeId> queue{0};
    edge_seen[0] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (VertexId v : h.pins(queue[head])) {
        if (vertex_seen[v]) continue;
        vertex_seen[v] = 1;
        for (EdgeId e : h.nets_of(v)) {
          if (!edge_seen[e]) {
            edge_seen[e] = 1;
            queue.push_back(e);
          }
        }
      }
    }
    for (EdgeId e = 0; e < h.num_edges(); ++e) {
      EXPECT_EQ(edge_seen[e] == 1, comps.label[e] == comps.label[0])
          << "net " << e << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------
// Matching / cover duality at scale.
// ---------------------------------------------------------------------

TEST(Invariants, KoenigDualityAtScale) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto [g, side] = test::random_bipartite_graph(80, 90, 0.05, seed);
    const MatchingResult m = max_bipartite_matching(g, side);
    const auto cover = minimum_vertex_cover(g, side, m);
    VertexId cover_size = 0;
    for (std::uint8_t c : cover) cover_size += c;
    EXPECT_EQ(cover_size, m.size);
    // Cover covers every edge.
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v : g.neighbors(u)) {
        if (v < u) continue;
        EXPECT_TRUE(cover[u] || cover[v]);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Partition accounting under long random walks.
// ---------------------------------------------------------------------

TEST(Invariants, PartitionAccountingSurvivesLongWalks) {
  const Hypergraph h = generate_circuit(
      table2_params(120, 200, Technology::kStandardCell), 9);
  Rng rng(9);
  Bipartition p(h, random_bisection(h, 9).sides);
  Weight min_cut_seen = p.cut_weight();
  for (int step = 0; step < 3000; ++step) {
    p.flip(static_cast<VertexId>(rng.next_below(h.num_vertices())));
    min_cut_seen = std::min(min_cut_seen, p.cut_weight());
  }
  p.validate();  // incremental state must equal a fresh rebuild
  EXPECT_GE(p.cut_weight(), 0);
  EXPECT_EQ(p.count(0) + p.count(1), h.num_vertices());
  EXPECT_EQ(p.weight(0) + p.weight(1), h.total_vertex_weight());
}

// ---------------------------------------------------------------------
// Baseline behavioral contracts.
// ---------------------------------------------------------------------

TEST(Invariants, FmPassesMonotoneOnCut) {
  // Running FM again from its own output must not increase the cut.
  const Hypergraph h =
      generate_circuit(table2_params(150, 260, Technology::kGateArray), 3);
  FmOptions first;
  first.seed = 3;
  const BaselineResult once = fiduccia_mattheyses(h, first);
  FmOptions second;
  second.initial = once.sides;
  const BaselineResult twice = fiduccia_mattheyses(h, second);
  EXPECT_LE(twice.metrics.cut_weight, once.metrics.cut_weight);
}

TEST(Invariants, KlSwapCountsConserveSides) {
  const Hypergraph h =
      generate_circuit(table2_params(100, 170, Technology::kPcb), 5);
  std::vector<std::uint8_t> initial(h.num_vertices(), 0);
  for (VertexId v = 0; v < h.num_vertices() / 2; ++v) initial[v] = 1;
  VertexId ones = 0;
  for (std::uint8_t s : initial) ones += s;
  KlOptions options;
  options.initial = initial;
  const BaselineResult r = kernighan_lin(h, options);
  VertexId ones_after = 0;
  for (std::uint8_t s : r.sides) ones_after += s;
  EXPECT_EQ(ones, ones_after);  // pair swaps preserve cardinalities exactly
}

TEST(Invariants, SaBestStateNeverWorseThanFinal) {
  // The annealer reports the best state it visited, which can only be at
  // least as good as any single random bisection with the same seed.
  const Hypergraph h =
      generate_circuit(table2_params(90, 150, Technology::kHybrid), 13);
  SaOptions options;
  options.seed = 13;
  options.moves_per_temperature = 300;
  options.max_temperatures = 30;
  const BaselineResult annealed = simulated_annealing(h, options);
  const BaselineResult start = random_bisection(h, 13);
  EXPECT_LE(annealed.metrics.cut_edges, start.metrics.cut_edges);
}

TEST(Invariants, BfsDistanceTriangleInequality) {
  const Graph g = test::connected_random_graph(60, 0.06, 21);
  Workspace from0;
  Workspace from5;
  static_cast<void>(bfs_scan(g, 0, from0));
  static_cast<void>(bfs_scan(g, 5, from5));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // d(0, v) <= d(0, 5) + d(5, v)
    EXPECT_LE(from0.distance.get(v),
              from0.distance.get(5) + from5.distance.get(v));
  }
}

}  // namespace
}  // namespace fhp
