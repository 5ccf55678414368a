#include "core/intersection.hpp"

#include <gtest/gtest.h>

#include "gen/circuit.hpp"
#include "gen/grid.hpp"
#include "gen/planted.hpp"
#include "gen/random_hypergraph.hpp"
#include "hypergraph/transform.hpp"
#include "test_helpers.hpp"

namespace fhp {
namespace {

/// Exact CSR equality: same vertex count and, row by row, the same sorted
/// neighbor list. Stricter than isomorphism on purpose — the counting build
/// promises the reference builder's bytes.
void expect_same_csr(const Graph& got, const Graph& expect,
                     const char* context) {
  ASSERT_EQ(got.num_vertices(), expect.num_vertices()) << context;
  ASSERT_EQ(got.num_edges(), expect.num_edges()) << context;
  for (VertexId v = 0; v < expect.num_vertices(); ++v) {
    const auto got_row = got.neighbors(v);
    const auto expect_row = expect.neighbors(v);
    ASSERT_EQ(got_row.size(), expect_row.size()) << context << " row " << v;
    for (std::size_t i = 0; i < expect_row.size(); ++i) {
      ASSERT_EQ(got_row[i], expect_row[i]) << context << " row " << v;
    }
  }
}

TEST(Intersection, PathHypergraphGivesPathGraph) {
  // Chain nets {i, i+1}: consecutive nets share a module.
  const Hypergraph h = test::path_hypergraph(6);
  const Graph g = intersection_graph(h);
  EXPECT_EQ(g.num_vertices(), 5U);
  EXPECT_EQ(g.num_edges(), 4U);
  for (EdgeId e = 0; e + 1 < 5; ++e) {
    EXPECT_TRUE(g.has_edge(e, e + 1));
  }
  EXPECT_FALSE(g.has_edge(0, 2));
  g.validate();
}

TEST(Intersection, StarHypergraphGivesClique) {
  // All nets share the hub: G is complete.
  const Hypergraph h = test::star_hypergraph(5);
  const Graph g = intersection_graph(h);
  EXPECT_EQ(g.num_vertices(), 5U);
  EXPECT_EQ(g.num_edges(), 10U);
}

TEST(Intersection, EmptyAndEdgeless) {
  EXPECT_EQ(intersection_graph(Hypergraph{}).num_vertices(), 0U);
  HypergraphBuilder b;
  b.add_vertices(3);
  const Graph g = intersection_graph(std::move(b).build());
  EXPECT_EQ(g.num_vertices(), 0U);
}

TEST(Intersection, DisjointNetsGiveNoEdges) {
  const Hypergraph h = Hypergraph::from_edges(6, {{0, 1}, {2, 3}, {4, 5}});
  const Graph g = intersection_graph(h);
  EXPECT_EQ(g.num_vertices(), 3U);
  EXPECT_EQ(g.num_edges(), 0U);
}

TEST(Intersection, AdjacencyIffSharedModule) {
  // Property check on random hypergraphs: G has edge (e1, e2) iff the nets
  // share a pin.
  RandomHypergraphParams params;
  params.num_vertices = 40;
  params.num_edges = 60;
  params.max_edge_size = 5;
  params.max_degree = 6;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Hypergraph h = random_hypergraph(params, seed);
    const Graph g = intersection_graph(h);
    ASSERT_EQ(g.num_vertices(), h.num_edges());
    for (EdgeId e1 = 0; e1 < h.num_edges(); ++e1) {
      for (EdgeId e2 = e1 + 1; e2 < h.num_edges(); ++e2) {
        const auto p1 = h.pins(e1);
        const auto p2 = h.pins(e2);
        bool shared = false;
        for (VertexId v : p1) {
          for (VertexId w : p2) {
            if (v == w) shared = true;
          }
        }
        EXPECT_EQ(g.has_edge(e1, e2), shared)
            << "nets " << e1 << ", " << e2 << " seed " << seed;
      }
    }
  }
}

TEST(Intersection, MultipleSharedModulesStillOneEdge) {
  const Hypergraph h = Hypergraph::from_edges(4, {{0, 1, 2}, {0, 1, 3}});
  const Graph g = intersection_graph(h);
  EXPECT_EQ(g.num_edges(), 1U);
}

TEST(Intersection, DegreeBoundedByNeighbors) {
  // A net of size s whose pins have degree <= d intersects at most
  // s * (d - 1) other nets.
  RandomHypergraphParams params;
  params.num_vertices = 60;
  params.num_edges = 90;
  params.max_edge_size = 4;
  params.max_degree = 5;
  const Hypergraph h = random_hypergraph(params, 9);
  const Graph g = intersection_graph(h);
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    EXPECT_LE(g.degree(e), h.edge_size(e) * (params.max_degree - 1));
  }
}

TEST(Intersection, CountingBuildMatchesReferenceAcrossGenerators) {
  // Differential gate for the two-pass counting construction: on planted,
  // grid and circuit instances, with and without the large-net threshold,
  // serially and on a pool, the CSR must equal the reference builder's
  // exactly.
  std::vector<std::pair<const char*, Hypergraph>> instances;
  {
    PlantedParams p;
    p.num_vertices = 80;
    p.num_edges = 140;
    p.planted_cut = 4;
    instances.emplace_back("planted", planted_instance(p, 3).hypergraph);
  }
  instances.emplace_back("grid", grid_circuit({8, 7, 0.4, false}, 5));
  instances.emplace_back(
      "circuit",
      generate_circuit(table2_params(120, 210, Technology::kStandardCell), 9));

  ThreadPool pool(3);
  for (const auto& [name, unfiltered] : instances) {
    // Algorithm I builds G from the large-net-filtered hypergraph.
    for (const std::uint32_t threshold : {0U, 4U, 10U}) {
      const Hypergraph h =
          threshold == 0
              ? unfiltered
              : filter_large_edges(unfiltered, threshold).hypergraph;
      const Graph expect = intersection_graph_reference(h);
      expect_same_csr(intersection_graph(h), expect, name);
      expect_same_csr(intersection_graph(h, &pool), expect, name);
      expect_same_csr(intersection_graph_reference(h, &pool), expect, name);
    }
  }
}

TEST(Intersection, CountingBuildMatchesReferenceOnRandomHypergraphs) {
  RandomHypergraphParams params;
  params.num_vertices = 50;
  params.num_edges = 80;
  params.max_edge_size = 6;
  params.max_degree = 7;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Hypergraph h = random_hypergraph(params, seed);
    expect_same_csr(intersection_graph(h), intersection_graph_reference(h),
                    "random");
  }
}

TEST(Intersection, CountingBuildHandlesEmptyAndIsolatedNets) {
  EXPECT_EQ(intersection_graph_reference(Hypergraph{}).num_vertices(), 0U);
  // Nets sharing no module: all G-vertices isolated, zero edges.
  const Hypergraph h = Hypergraph::from_edges(6, {{0, 1}, {2, 3}, {4, 5}});
  const Graph g = intersection_graph(h);
  EXPECT_EQ(g.num_vertices(), 3U);
  EXPECT_EQ(g.num_edges(), 0U);
  expect_same_csr(g, intersection_graph_reference(h), "isolated");
}

}  // namespace
}  // namespace fhp
