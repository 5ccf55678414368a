#include "core/boundary.hpp"

#include <gtest/gtest.h>

#include "core/intersection.hpp"
#include "graph/bfs.hpp"
#include "graph/bipartite.hpp"
#include "test_helpers.hpp"

namespace fhp {
namespace {

Graph path_graph(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::from_edges(n, edges);
}

BoundaryStructure boundary_of(const Graph& g,
                              const std::vector<std::uint8_t>& side) {
  Workspace ws;
  BoundaryStructure b;
  extract_boundary(g, side, ws, b);
  return b;
}

/// Algorithm I's initial cut: the bidirectional BFS cut between the
/// double-sweep pseudo-diameter pair found from \p start.
std::vector<std::uint8_t> initial_cut(const Graph& g, VertexId start) {
  Workspace ws;
  const DiameterPair pair = longest_path_from(g, start, 2, ws);
  BidirectionalCut cut;
  bidirectional_bfs_cut(g, pair.s, pair.t, ws, cut);
  return cut.side;
}

TEST(Boundary, PathCutHasTwoBoundaryNodes) {
  const Graph g = path_graph(6);
  std::vector<std::uint8_t> side{0, 0, 0, 1, 1, 1};
  const BoundaryStructure b = boundary_of(g, side);
  EXPECT_EQ(b.size(), 2U);
  EXPECT_EQ(b.boundary_nodes, (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(b.boundary_graph.num_edges(), 1U);
  EXPECT_EQ(b.boundary_side[0], 0);
  EXPECT_EQ(b.boundary_side[1], 1);
}

TEST(Boundary, NonBoundaryIndicesInvalid) {
  const Graph g = path_graph(4);
  const BoundaryStructure b = boundary_of(g, {0, 0, 1, 1});
  EXPECT_EQ(b.boundary_index[0], kInvalidVertex);
  EXPECT_NE(b.boundary_index[1], kInvalidVertex);
  EXPECT_NE(b.boundary_index[2], kInvalidVertex);
  EXPECT_EQ(b.boundary_index[3], kInvalidVertex);
}

TEST(Boundary, AllOneSideGivesEmptyBoundary) {
  const Graph g = path_graph(5);
  const BoundaryStructure b = boundary_of(g, {0, 0, 0, 0, 0});
  EXPECT_EQ(b.size(), 0U);
  EXPECT_EQ(b.boundary_graph.num_vertices(), 0U);
}

TEST(Boundary, SameSideEdgesDropped) {
  // Square 0-1-2-3-0 with sides 0,0,1,1: cross edges (1,2) and (3,0);
  // the same-side edges (0,1) and (2,3) must not appear in G'.
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const BoundaryStructure b = boundary_of(g, {0, 0, 1, 1});
  EXPECT_EQ(b.size(), 4U);  // every vertex touches the cut
  EXPECT_EQ(b.boundary_graph.num_edges(), 2U);
  for (VertexId u = 0; u < b.boundary_graph.num_vertices(); ++u) {
    for (VertexId w : b.boundary_graph.neighbors(u)) {
      EXPECT_NE(b.boundary_side[u], b.boundary_side[w]);
    }
  }
}

TEST(Boundary, BoundaryGraphAlwaysBipartite) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Graph g = test::connected_random_graph(50, 0.06, seed);
    const BoundaryStructure b = boundary_of(g, initial_cut(g, 0));
    EXPECT_TRUE(is_bipartite(b.boundary_graph)) << "seed " << seed;
    // boundary_side must itself be a proper coloring of G'.
    for (VertexId u = 0; u < b.boundary_graph.num_vertices(); ++u) {
      for (VertexId w : b.boundary_graph.neighbors(u)) {
        EXPECT_NE(b.boundary_side[u], b.boundary_side[w]);
      }
    }
  }
}

TEST(Boundary, DefinitionMatchesNeighborScan) {
  const Graph g = test::connected_random_graph(40, 0.08, 3);
  Workspace ws;
  BidirectionalCut cut;
  bidirectional_bfs_cut(g, 0, 39, ws, cut);
  const BoundaryStructure b = boundary_of(g, cut.side);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    bool crosses = false;
    for (VertexId w : g.neighbors(u)) {
      if (b.g_side[w] != b.g_side[u]) crosses = true;
    }
    EXPECT_EQ(static_cast<bool>(b.is_boundary[u]), crosses);
  }
}

TEST(Boundary, NonBoundaryNetsPartitionModulesConsistently) {
  // The partial-bipartition guarantee: two non-boundary nets on opposite
  // sides never share a module.
  const Hypergraph h = test::figure4_hypergraph();
  const Graph g = intersection_graph(h);
  const BoundaryStructure b = boundary_of(g, initial_cut(g, 0));
  for (EdgeId e1 = 0; e1 < h.num_edges(); ++e1) {
    if (b.is_boundary[e1]) continue;
    for (EdgeId e2 = e1 + 1; e2 < h.num_edges(); ++e2) {
      if (b.is_boundary[e2] || b.g_side[e1] == b.g_side[e2]) continue;
      for (VertexId v : h.pins(e1)) {
        for (VertexId w : h.pins(e2)) {
          EXPECT_NE(v, w) << "module shared across the partial bipartition";
        }
      }
    }
  }
}

TEST(Boundary, RejectsBadInput) {
  const Graph g = path_graph(3);
  EXPECT_THROW((void)boundary_of(g, {0, 1}), PreconditionError);
  EXPECT_THROW((void)boundary_of(g, {0, 1, 2}), PreconditionError);
}

}  // namespace
}  // namespace fhp
