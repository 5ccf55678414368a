/// Edge-case battery across the whole stack: degenerate shapes (empty,
/// singleton, star, complete), extreme weights, adversarial nets — the
/// inputs that break partitioners in the field.
#include <gtest/gtest.h>

#include "baselines/fm.hpp"
#include "baselines/kl.hpp"
#include "baselines/multilevel.hpp"
#include "baselines/sa.hpp"
#include "core/algorithm1.hpp"
#include "core/intersection.hpp"
#include "core/recursive.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "hypergraph/transform.hpp"
#include "test_helpers.hpp"

namespace fhp {
namespace {

// ---------------------------------------------------------------------
// Degenerate netlist shapes.
// ---------------------------------------------------------------------

TEST(EdgeCases, TwoModulesOneNet) {
  const Hypergraph h = Hypergraph::from_edges(2, {{0, 1}});
  const Algorithm1Result r = algorithm1(h);
  EXPECT_TRUE(r.metrics.proper);
  EXPECT_EQ(r.metrics.cut_edges, 1U);  // the only proper cut severs it
}

TEST(EdgeCases, TwoModulesNoNets) {
  HypergraphBuilder b;
  b.add_vertices(2);
  const Hypergraph h = std::move(b).build();
  const Algorithm1Result r = algorithm1(h);
  EXPECT_TRUE(r.metrics.proper);
  EXPECT_EQ(r.metrics.cut_edges, 0U);
  EXPECT_TRUE(r.disconnected_shortcut);
}

TEST(EdgeCases, DuplicateNets) {
  // Five copies of the same net: cut them all or none.
  HypergraphBuilder b;
  b.add_vertices(4);
  for (int i = 0; i < 5; ++i) b.add_edge({0, 1});
  b.add_edge({2, 3});
  const Hypergraph h = std::move(b).build();
  const Algorithm1Result r = algorithm1(h);
  EXPECT_TRUE(r.metrics.proper);
  EXPECT_EQ(r.metrics.cut_edges, 0U);  // split {0,1} | {2,3}
}

TEST(EdgeCases, StarNetlistHubForcesCuts) {
  // Hub on every net: any proper cut severs at least one spoke.
  const Hypergraph h = test::star_hypergraph(12);
  const Algorithm1Result r = algorithm1(h);
  EXPECT_TRUE(r.metrics.proper);
  EXPECT_GE(r.metrics.cut_edges, 1U);
  // Intersection graph of a star is complete: BFS depth (eccentricity) 1.
  const Graph g = intersection_graph(h);
  Workspace ws;
  EXPECT_EQ(bfs_scan(g, 0, ws).depth, 1U);
}

TEST(EdgeCases, NetCoveringAllModules) {
  HypergraphBuilder b;
  b.add_vertices(8);
  b.add_edge({0, 1, 2, 3, 4, 5, 6, 7});
  for (VertexId i = 0; i + 1 < 8; ++i) b.add_edge({i, i + 1});
  const Hypergraph h = std::move(b).build();
  Algorithm1Options options;
  options.large_edge_threshold = 6;  // the big net gets filtered
  const Algorithm1Result r = algorithm1(h, options);
  EXPECT_EQ(r.filtered_edges, 1U);
  // The big net crosses any proper cut; the chain should contribute 1.
  EXPECT_LE(r.metrics.cut_edges, 2U);
}

// ---------------------------------------------------------------------
// Extreme weights.
// ---------------------------------------------------------------------

TEST(EdgeCases, OneGiantModule) {
  HypergraphBuilder b;
  b.add_vertex(1000000);
  for (int i = 0; i < 9; ++i) b.add_vertex(1);
  for (VertexId i = 0; i + 1 < 10; ++i) b.add_edge({i, i + 1});
  const Hypergraph h = std::move(b).build();
  const Algorithm1Result r = algorithm1(h);
  EXPECT_TRUE(r.metrics.proper);
  // The giant must sit alone-ish: weight imbalance is unavoidable but
  // the cut should stay minimal.
  EXPECT_LE(r.metrics.cut_edges, 2U);
}

TEST(EdgeCases, ZeroWeightModulesEverywhere) {
  HypergraphBuilder b;
  for (int i = 0; i < 8; ++i) b.add_vertex(0);
  for (VertexId i = 0; i + 1 < 8; ++i) b.add_edge({i, i + 1});
  const Hypergraph h = std::move(b).build();
  const Algorithm1Result r = algorithm1(h);
  EXPECT_TRUE(r.metrics.proper);
  EXPECT_EQ(r.metrics.cut_edges, 1U);
}

TEST(EdgeCases, HeavyNetWeightsDominateFm) {
  HypergraphBuilder b;
  b.add_vertices(6);
  b.add_edge({0, 1, 2}, 1000);
  b.add_edge({3, 4, 5}, 1000);
  b.add_edge({2, 3}, 1);
  const Hypergraph h = std::move(b).build();
  FmOptions options;
  options.seed = 3;
  const BaselineResult r = fiduccia_mattheyses(h, options);
  EXPECT_EQ(r.metrics.cut_weight, 1);
}

// ---------------------------------------------------------------------
// Transform edge cases.
// ---------------------------------------------------------------------

TEST(EdgeCases, FilterEverything) {
  HypergraphBuilder b;
  b.add_vertices(6);
  b.add_edge({0, 1, 2});
  b.add_edge({3, 4, 5});
  const Hypergraph h = std::move(b).build();
  const EdgeFilterResult r = filter_large_edges(h, 2);
  EXPECT_EQ(r.hypergraph.num_edges(), 0U);
  // Algorithm I must still split the netlist (degenerate path).
  Algorithm1Options options;
  options.large_edge_threshold = 2;
  const Algorithm1Result result = algorithm1(h, options);
  EXPECT_TRUE(result.metrics.proper);
}

TEST(EdgeCases, GranularizeSingleHeavyModule) {
  HypergraphBuilder b;
  b.add_vertex(100);
  const Hypergraph h = std::move(b).build();
  const GranularizeResult g = granularize(h, 10);
  EXPECT_EQ(g.hypergraph.num_vertices(), 10U);
  EXPECT_EQ(g.hypergraph.num_edges(), 9U);  // the chain
  EXPECT_EQ(g.hypergraph.total_vertex_weight(), 100);
}

// ---------------------------------------------------------------------
// Recursive / baseline edge cases.
// ---------------------------------------------------------------------

TEST(EdgeCases, RecursiveOnDisconnectedNetlist) {
  HypergraphBuilder b;
  b.add_vertices(16);
  for (VertexId i = 0; i + 1 < 8; ++i) b.add_edge({i, i + 1});
  for (VertexId i = 8; i + 1 < 16; ++i) b.add_edge({i, i + 1});
  const Hypergraph h = std::move(b).build();
  const KWayResult r = recursive_partition(h, 4);
  std::vector<VertexId> counts(4, 0);
  for (std::uint32_t part : r.part) ++counts[part];
  for (VertexId c : counts) EXPECT_GT(c, 0U);
}

TEST(EdgeCases, SaOnTinyInstance) {
  const Hypergraph h = Hypergraph::from_edges(2, {{0, 1}});
  SaOptions options;
  options.moves_per_temperature = 50;
  options.max_temperatures = 10;
  const BaselineResult r = simulated_annealing(h, options);
  EXPECT_TRUE(r.metrics.proper);
}

TEST(EdgeCases, KlOnOddModuleCount) {
  const Hypergraph h = test::path_hypergraph(9);
  const BaselineResult r = kernighan_lin(h);
  EXPECT_TRUE(r.metrics.proper);
  EXPECT_LE(r.metrics.cardinality_imbalance, 1U);
}

TEST(EdgeCases, MultilevelOnStarStallsGracefully) {
  // Matching stalls on stars (every merge goes through the hub, capped by
  // cluster weight); the V-cycle must fall back cleanly.
  const Hypergraph h = test::star_hypergraph(200);
  const BaselineResult r = multilevel_bipartition(h);
  EXPECT_TRUE(r.metrics.proper);
}

TEST(EdgeCases, DisconnectedIntersectionGraphDetected) {
  HypergraphBuilder b;
  b.add_vertices(8);
  b.add_edge({0, 1});
  b.add_edge({2, 3});
  b.add_edge({4, 5, 6, 7});
  const Hypergraph h = std::move(b).build();
  const Graph g = intersection_graph(h);
  EXPECT_EQ(connected_components(g).count(), 3U);
  const Algorithm1Result r = algorithm1(h);
  EXPECT_TRUE(r.disconnected_shortcut);
  EXPECT_EQ(r.metrics.cut_edges, 0U);
}

TEST(EdgeCases, LevelSweepOnTwoNetInstance) {
  const Hypergraph h = test::path_hypergraph(3);  // G = two adjacent nets
  Algorithm1Options options;
  options.initial_cut = InitialCutStrategy::kLevelSweep;
  const Algorithm1Result r = algorithm1(h, options);
  EXPECT_TRUE(r.metrics.proper);
  EXPECT_EQ(r.metrics.cut_edges, 1U);
}

}  // namespace
}  // namespace fhp
