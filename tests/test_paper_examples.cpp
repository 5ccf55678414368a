/// Golden tests for the paper's worked examples.
///
/// Figure 1 shows an 8-module / 5-net hypergraph with its intersection
/// graph; Figure 4 and the §2 walkthrough show a 12-module netlist whose
/// partition finishes with exactly signals c and h crossing (cut 2). The
/// source text of the netlist is partially illegible, so
/// test_helpers.hpp reconstructs an instance satisfying every stated
/// property (see DESIGN.md); these tests pin the whole pipeline to that
/// reconstruction.
#include <gtest/gtest.h>

#include "core/algorithm1.hpp"
#include "core/boundary.hpp"
#include "core/intersection.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "test_helpers.hpp"

namespace fhp {
namespace {

// Signal indices of the reconstructed Figure 4 netlist.
enum Signal : EdgeId { A, B, C, D, E, F, G, H, I, J, K, L };

TEST(PaperFigure1, IntersectionGraphShape) {
  // Figure 1's hypergraph: 8 modules, 5 nets A..E. We reconstruct one with
  // the same counts and verify the duality property the figure
  // illustrates: G-vertices = nets, adjacency = shared module.
  HypergraphBuilder b;
  b.add_vertices(8);
  b.add_edge({0, 1, 2});     // A
  b.add_edge({2, 3});        // B
  b.add_edge({3, 4, 5});     // C
  b.add_edge({5, 6});        // D
  b.add_edge({6, 7, 0});     // E
  const Hypergraph h = std::move(b).build();
  const Graph g = intersection_graph(h);
  EXPECT_EQ(g.num_vertices(), 5U);
  // Ring of overlaps: A-B (module 2), B-C (3), C-D (5), D-E (6), E-A (0).
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_TRUE(g.has_edge(4, 0));
  EXPECT_EQ(g.num_edges(), 5U);
}

TEST(PaperFigure4, IntersectionGraphAdjacency) {
  const Hypergraph h = test::figure4_hypergraph();
  ASSERT_EQ(h.num_vertices(), 12U);
  ASSERT_EQ(h.num_edges(), 12U);
  const Graph g = intersection_graph(h);
  // Hand-checked adjacencies.
  EXPECT_TRUE(g.has_edge(A, B));   // share modules 2, 11
  EXPECT_TRUE(g.has_edge(A, K));   // share 1, 2
  EXPECT_TRUE(g.has_edge(C, D));   // share 3
  EXPECT_TRUE(g.has_edge(E, F));   // share 6, 7
  EXPECT_TRUE(g.has_edge(G, L));   // share 9, 10
  EXPECT_TRUE(g.has_edge(H, J));   // share 8
  EXPECT_FALSE(g.has_edge(K, L));  // far ends share nothing
  EXPECT_FALSE(g.has_edge(A, E));
  EXPECT_FALSE(g.has_edge(B, I));
  EXPECT_TRUE(is_connected(g));
}

TEST(PaperFigure4, FarEndsAreDistant) {
  // The walkthrough picks signals k, l as a furthest-removed pair.
  const Graph g = intersection_graph(test::figure4_hypergraph());
  Workspace ws;
  const BfsSummary from_k = bfs_scan(g, K, ws);
  const std::uint32_t dist_kl = ws.distance.get(L);
  EXPECT_GE(dist_kl, 3U);
  EXPECT_EQ(dist_kl, from_k.depth);  // l realizes k's eccentricity
}

TEST(PaperFigure4, AlgorithmFindsCutTwo) {
  const Hypergraph h = test::figure4_hypergraph();
  Algorithm1Options options;
  options.large_edge_threshold = 0;
  const Algorithm1Result r = algorithm1(h, options);
  EXPECT_EQ(r.metrics.cut_edges, 2U);
  EXPECT_EQ(r.metrics.cardinality_imbalance, 0U);
  // The achieved partition matches the paper's (up to side naming).
  const auto expected = test::figure4_expected_sides();
  bool same = true;
  bool flipped = true;
  for (VertexId v = 0; v < 12; ++v) {
    same = same && (r.sides[v] == expected[v]);
    flipped = flipped && (r.sides[v] != expected[v]);
  }
  EXPECT_TRUE(same || flipped);
}

TEST(PaperFigure4, CrossingSignalsAreCAndH) {
  const Hypergraph h = test::figure4_hypergraph();
  const auto sides = test::figure4_expected_sides();
  const Bipartition p(h, sides);
  EXPECT_EQ(p.cut_edges(), 2U);
  EXPECT_TRUE(p.is_cut(C));
  EXPECT_TRUE(p.is_cut(H));
  for (EdgeId e = 0; e < 12; ++e) {
    if (e != C && e != H) {
      EXPECT_FALSE(p.is_cut(e)) << "signal " << e;
    }
  }
}

TEST(PaperFigure4, ExpectedPartitionIsOptimal) {
  // Brute force: no proper near-balanced partition beats cut 2.
  const Hypergraph h = test::figure4_hypergraph();
  EXPECT_EQ(test::brute_force_min_cut(h, 2), 2U);
}

TEST(PaperFigure4, BoundaryPipelineFromKL) {
  // Running the dual-cut pipeline from the (k, l) pair reproduces the
  // walkthrough's shape: a nonempty bipartite boundary whose completion
  // loses at most 2 nets.
  const Hypergraph h = test::figure4_hypergraph();
  const Graph g = intersection_graph(h);
  Workspace ws;
  BidirectionalCut cut;
  bidirectional_bfs_cut(g, K, L, ws, cut);
  BoundaryStructure boundary;
  extract_boundary(g, cut.side, ws, boundary);
  EXPECT_GT(boundary.size(), 0U);
  CompletionResult completion;
  complete_cut_greedy(boundary.boundary_graph, ws, completion);
  validate_completion(boundary.boundary_graph, completion);
  EXPECT_LE(completion.loser_count, 2U);
}

}  // namespace
}  // namespace fhp
