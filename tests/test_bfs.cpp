#include "graph/bfs.hpp"

#include <gtest/gtest.h>

#include "core/intersection.hpp"
#include "gen/circuit.hpp"
#include "gen/grid.hpp"
#include "gen/planted.hpp"
#include "test_helpers.hpp"

namespace fhp {
namespace {

Graph path_graph(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::from_edges(n, edges);
}

/// The bidirectional cut between \p s and \p t on a fresh workspace.
BidirectionalCut cut_between(const Graph& g, VertexId s, VertexId t,
                             const BfsKernelOptions& kernel = {}) {
  Workspace ws;
  BidirectionalCut cut;
  bidirectional_bfs_cut(g, s, t, ws, cut, kernel);
  return cut;
}

BfsKernelOptions top_down_only() {
  BfsKernelOptions kernel;
  kernel.direction_optimizing = false;
  return kernel;
}

TEST(Bfs, DistancesOnPath) {
  const Graph g = path_graph(6);
  Workspace ws;
  const BfsSummary r = bfs_scan(g, 0, ws);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(ws.distance.get(v), v);
  EXPECT_EQ(r.farthest, 5U);
  EXPECT_EQ(r.depth, 5U);
  EXPECT_EQ(r.reached, 6U);
}

TEST(Bfs, MidpointSource) {
  const Graph g = path_graph(7);
  Workspace ws;
  const BfsSummary r = bfs_scan(g, 3, ws);
  EXPECT_EQ(r.depth, 3U);
  EXPECT_TRUE(r.farthest == 0U || r.farthest == 6U);
}

TEST(Bfs, UnreachableMarked) {
  const Graph g = Graph::from_edges(4, {{0, 1}});
  Workspace ws;
  const BfsSummary r = bfs_scan(g, 0, ws);
  EXPECT_EQ(ws.distance.get(2), kUnreachable);
  EXPECT_EQ(ws.distance.get(3), kUnreachable);
  EXPECT_EQ(r.reached, 2U);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  const Graph g = path_graph(3);
  Workspace ws;
  EXPECT_THROW((void)bfs_scan(g, 3, ws), PreconditionError);
}

TEST(Bfs, SingleVertex) {
  const Graph g = Graph::from_edges(1, {});
  Workspace ws;
  const BfsSummary r = bfs_scan(g, 0, ws);
  EXPECT_EQ(r.depth, 0U);
  EXPECT_EQ(r.farthest, 0U);
}

TEST(LongestPath, FindsPathDiameterFromAnyStart) {
  const Graph g = path_graph(10);
  Workspace ws;
  for (VertexId start = 0; start < 10; ++start) {
    const DiameterPair pair = longest_path_from(g, start, 2, ws);
    EXPECT_EQ(pair.distance, 9U) << "start " << start;
    EXPECT_TRUE((pair.s == 0U && pair.t == 9U) ||
                (pair.s == 9U && pair.t == 0U));
  }
}

TEST(LongestPath, SingleSweepFromEndpoint) {
  const Graph g = path_graph(8);
  Workspace ws;
  const DiameterPair pair = longest_path_from(g, 0, 1, ws);
  EXPECT_EQ(pair.s, 0U);
  EXPECT_EQ(pair.t, 7U);
  EXPECT_EQ(pair.distance, 7U);
}

TEST(LongestPath, RandomizedLowerBoundsDiameter) {
  Rng rng(5);
  const Graph g = test::connected_random_graph(60, 0.05, 11);
  Workspace ws;
  const auto start = static_cast<VertexId>(rng.next_below(g.num_vertices()));
  const DiameterPair pair = longest_path_from(g, start, 2, ws);
  // d(s, t) is always a valid distance, so it lower-bounds the diameter
  // and the endpoints must realize it.
  static_cast<void>(bfs_scan(g, pair.s, ws));
  EXPECT_EQ(ws.distance.get(pair.t), pair.distance);
}

TEST(LongestPath, RequiresPositiveSweeps) {
  const Graph g = path_graph(3);
  Workspace ws;
  EXPECT_THROW((void)longest_path_from(g, 0, 0, ws), PreconditionError);
}

TEST(BidirectionalCut, SplitsPathInHalf) {
  const Graph g = path_graph(10);
  const BidirectionalCut cut = cut_between(g, 0, 9);
  EXPECT_EQ(cut.reached_s + cut.reached_t, 10U);
  EXPECT_EQ(cut.reached_s, 5U);
  EXPECT_EQ(cut.reached_t, 5U);
  // Sides are contiguous on a path.
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(cut.side[v], 0);
  for (VertexId v = 5; v < 10; ++v) EXPECT_EQ(cut.side[v], 1);
}

TEST(BidirectionalCut, EveryVertexOfComponentClaimed) {
  const Graph g = test::connected_random_graph(80, 0.04, 17);
  const BidirectionalCut cut = cut_between(g, 0, 79);
  for (VertexId v = 0; v < 80; ++v) EXPECT_NE(cut.side[v], 2);
  EXPECT_EQ(cut.reached_s + cut.reached_t, 80U);
}

TEST(BidirectionalCut, OtherComponentsUnclaimed) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {2, 3}});
  const BidirectionalCut cut = cut_between(g, 0, 1);
  EXPECT_EQ(cut.side[0], 0);
  EXPECT_EQ(cut.side[1], 1);
  EXPECT_EQ(cut.side[2], 2);
  EXPECT_EQ(cut.side[4], 2);
}

TEST(BidirectionalCut, RegionsStayBalancedOnStar) {
  // Star with long tail: seeds at tail end and a leaf. The smaller-region-
  // first rule keeps counts within a factor instead of one side swallowing
  // everything.
  std::vector<std::pair<VertexId, VertexId>> edges;
  // hub = 0, leaves 1..20, tail 21..25
  for (VertexId l = 1; l <= 20; ++l) edges.emplace_back(0, l);
  edges.emplace_back(0, 21);
  for (VertexId t = 21; t < 25; ++t) edges.emplace_back(t, t + 1);
  const Graph g = Graph::from_edges(26, edges);
  const BidirectionalCut cut = cut_between(g, 25, 1);
  EXPECT_EQ(cut.reached_s + cut.reached_t, 26U);
  EXPECT_GT(cut.reached_s, 0U);
  EXPECT_GT(cut.reached_t, 0U);
}

TEST(BidirectionalCut, Preconditions) {
  const Graph g = path_graph(4);
  EXPECT_THROW((void)cut_between(g, 0, 0), PreconditionError);
  EXPECT_THROW((void)cut_between(g, 0, 4), PreconditionError);
}

TEST(BidirectionalCut, DirectionOptimizingMatchesTopDown) {
  // Bottom-up steps claim exactly the unclaimed neighbors of the frontier,
  // so the direction-optimizing cut must equal the top-down reference
  // bit for bit, on dense planted graphs (wide frontiers, where bottom-up
  // steps actually run), standard-cell circuits and grids alike.
  std::vector<std::pair<const char*, Hypergraph>> shapes;
  for (const std::uint64_t seed : {3ULL, 7ULL}) {
    PlantedParams params;
    params.num_vertices = 500;
    params.num_edges = 1500;
    params.planted_cut = 8;
    params.min_edge_size = 2;
    params.max_edge_size = 4;
    params.max_degree = 0;
    shapes.emplace_back("planted", planted_instance(params, seed).hypergraph);
    shapes.emplace_back(
        "stdcell",
        generate_circuit(table2_params(400, 600, Technology::kStandardCell),
                         seed));
  }
  shapes.emplace_back("grid", grid_circuit({16, 16, 0.3, false}, 3));
  for (const auto& [name, h] : shapes) {
    const Graph g = intersection_graph(h);
    ASSERT_GE(g.num_vertices(), 2U) << name;
    Workspace ws;
    for (const VertexId start : {VertexId{0}, g.num_vertices() / 2}) {
      const DiameterPair pair = longest_path_from(g, start, 2, ws);
      if (pair.s == pair.t) continue;
      const BidirectionalCut dopt = cut_between(g, pair.s, pair.t);
      const BidirectionalCut td =
          cut_between(g, pair.s, pair.t, top_down_only());
      EXPECT_EQ(dopt.side, td.side) << name << " start " << start;
      EXPECT_EQ(dopt.reached_s, td.reached_s) << name;
      EXPECT_EQ(dopt.reached_t, td.reached_t) << name;
    }
  }
}

}  // namespace
}  // namespace fhp
