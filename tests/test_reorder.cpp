/// \file test_reorder.cpp
/// Cache-locality layer tests: Permutation bijection contract,
/// Graph::permuted structural invariants (via the validate auditor), the
/// ordering construction, and the end-to-end property that Algorithm I's
/// permuted traversal never changes a partition — 50 seeded generator
/// instances at threads {1, 2, 8}, each against the unpermuted reference
/// (validate/reference.hpp).
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithm1.hpp"
#include "gen/circuit.hpp"
#include "gen/planted.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "util/error.hpp"
#include "validate/audit.hpp"
#include "validate/reference.hpp"

namespace fhp {
namespace {

Graph path_graph(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Graph::from_edges(n, edges);
}

// ---------------------------------------------------------------------
// Permutation: bijection + round-trip contract.
// ---------------------------------------------------------------------

TEST(Permutation, IdentityIsIdentity) {
  const Permutation p = Permutation::identity(5);
  p.validate();
  EXPECT_TRUE(p.is_identity());
  EXPECT_EQ(p.size(), 5U);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(p.to_new[v], v);
    EXPECT_EQ(p.to_old[v], v);
  }
}

TEST(Permutation, FromOrderRoundTrips) {
  const Permutation p = Permutation::from_order({3, 1, 4, 0, 2});
  p.validate();
  EXPECT_FALSE(p.is_identity());
  // to_old is the order itself; to_new is its inverse.
  for (VertexId fresh = 0; fresh < p.size(); ++fresh) {
    EXPECT_EQ(p.to_new[p.to_old[fresh]], fresh);
  }
  for (VertexId old = 0; old < p.size(); ++old) {
    EXPECT_EQ(p.to_old[p.to_new[old]], old);
  }
  EXPECT_EQ(p.to_new[3], 0U);  // first visited -> new id 0
}

TEST(Permutation, EmptyIsIdentity) {
  const Permutation p = Permutation::from_order({});
  p.validate();
  EXPECT_TRUE(p.is_identity());
  EXPECT_EQ(p.size(), 0U);
}

TEST(Permutation, FromOrderRejectsDuplicates) {
  EXPECT_THROW(static_cast<void>(Permutation::from_order({0, 0, 1})),
               PreconditionError);
}

TEST(Permutation, FromOrderRejectsOutOfRange) {
  EXPECT_THROW(static_cast<void>(Permutation::from_order({0, 3})),
               PreconditionError);
}

// ---------------------------------------------------------------------
// Graph::permuted: relabeled CSR keeps every structural invariant and is
// isomorphic to the original.
// ---------------------------------------------------------------------

Graph sample_graph() {
  // Two components: a 6-cycle with a chord, plus a triangle.
  return Graph::from_edges(9, {{0, 1},
                               {1, 2},
                               {2, 3},
                               {3, 4},
                               {4, 5},
                               {5, 0},
                               {1, 4},
                               {6, 7},
                               {7, 8},
                               {8, 6}});
}

TEST(GraphPermuted, KeepsAuditInvariants) {
  const Graph g = sample_graph();
  for (const Permutation& perm :
       {degree_bucketed_bfs_order(g),
        Permutation::from_order({8, 7, 6, 5, 4, 3, 2, 1, 0})}) {
    perm.validate();
    const Graph h = g.permuted(perm);
    const validate::AuditReport report = validate::audit_graph(h);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(h.num_vertices(), g.num_vertices());
    EXPECT_EQ(h.num_edges(), g.num_edges());
  }
}

TEST(GraphPermuted, RowsAreRelabeledNeighborSets) {
  const Graph g = sample_graph();
  const Permutation perm = degree_bucketed_bfs_order(g);
  const Graph h = g.permuted(perm);
  for (VertexId old = 0; old < g.num_vertices(); ++old) {
    std::vector<VertexId> expected;
    for (VertexId w : g.neighbors(old)) expected.push_back(perm.to_new[w]);
    std::sort(expected.begin(), expected.end());
    const auto row = h.neighbors(perm.to_new[old]);
    ASSERT_EQ(row.size(), expected.size());
    EXPECT_TRUE(std::equal(row.begin(), row.end(), expected.begin()));
    // Rows of the permuted CSR are sorted (required by bsearch users and
    // the auditor's adjacency_sorted predicate).
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  }
}

TEST(GraphPermuted, PreservesBfsDistances) {
  const Graph g = sample_graph();
  const Permutation perm = degree_bucketed_bfs_order(g);
  const Graph h = g.permuted(perm);
  Workspace orig_ws;
  Workspace relab_ws;
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const BfsSummary orig = bfs_scan(g, s, orig_ws);
    const BfsSummary relab = bfs_scan(h, perm.to_new[s], relab_ws);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(relab_ws.distance.get(perm.to_new[v]),
                orig_ws.distance.get(v));
    }
    EXPECT_EQ(relab.depth, orig.depth);
    EXPECT_EQ(relab.reached, orig.reached);
  }
}

// ---------------------------------------------------------------------
// Ordering constructions.
// ---------------------------------------------------------------------

TEST(Orderings, AreValidPermutations) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Hypergraph hg = generate_circuit(
        table2_params(120, 210, Technology::kStandardCell), seed);
    // A quick proxy graph: nets sharing a module.
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId v = 0; v < hg.num_vertices(); ++v) {
      const auto nets = hg.nets_of(v);
      for (std::size_t i = 0; i + 1 < nets.size(); ++i) {
        edges.emplace_back(nets[i], nets[i + 1]);
      }
    }
    const Graph g = Graph::from_edges(hg.num_edges(), edges);
    degree_bucketed_bfs_order(g).validate();
  }
}

TEST(Orderings, PathGraphBecomesSequential) {
  // On a path, the ordering renumbers one end to 0 and walks to the other
  // end: the permuted adjacency is perfectly banded (bandwidth 1).
  const Graph g = path_graph(16);
  const Graph h = g.permuted(degree_bucketed_bfs_order(g));
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    for (VertexId w : h.neighbors(v)) {
      EXPECT_LE(v > w ? v - w : w - v, 1U);
    }
  }
}

TEST(Orderings, ComponentsStayContiguous) {
  const Graph g = sample_graph();  // 6-cycle+chord, then a triangle
  const Permutation perm = degree_bucketed_bfs_order(g);
  // First component (vertices 0..5) occupies new ids 0..5; the triangle
  // occupies 6..8.
  for (VertexId v = 0; v < 6; ++v) EXPECT_LT(perm.to_new[v], 6U);
  for (VertexId v = 6; v < 9; ++v) EXPECT_GE(perm.to_new[v], 6U);
}

TEST(Orderings, ReduceProfileOnCircuitGraphs) {
  // The point of the layer: the relabeled intersection graph should have
  // a (weakly) smaller mean absolute id gap across edges than the
  // input numbering on every generated instance.
  for (std::uint64_t seed : {3ULL, 7ULL, 11ULL}) {
    const Hypergraph hg = generate_circuit(
        table2_params(200, 350, Technology::kStandardCell), seed);
    Algorithm1Options options;
    const Algorithm1Context ctx(hg, options);
    if (ctx.is_degenerate()) continue;
    const Graph& g = ctx.intersection();
    auto profile = [](const Graph& graph) {
      double total = 0;
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        for (VertexId w : graph.neighbors(v)) {
          total += v > w ? v - w : w - v;
        }
      }
      return total;
    };
    const Permutation perm = degree_bucketed_bfs_order(g);
    EXPECT_LE(profile(g.permuted(perm)), profile(g))
        << "seed " << seed << ": reordering widened the profile";
  }
}

// ---------------------------------------------------------------------
// End-to-end property: the permuted traversal is bit-identical to the
// unpermuted reference — 50 seeded instances x threads {1, 2, 8}.
// ---------------------------------------------------------------------

class ReorderIdentity : public testing::TestWithParam<int> {};

TEST_P(ReorderIdentity, PartitionUnchangedAcrossInstances) {
  const int threads = GetParam();
  int exercised = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Hypergraph h;
    if (seed % 3 == 0) {
      PlantedParams params;
      params.num_vertices = 60 + static_cast<VertexId>(seed * 4);
      params.num_edges = 100 + static_cast<EdgeId>(seed * 6);
      params.planted_cut = 2 + static_cast<EdgeId>(seed % 5);
      params.min_edge_size = 2;
      params.max_edge_size = 3;
      params.max_degree = 0;
      h = planted_instance(params, seed).hypergraph;
    } else {
      h = generate_circuit(
          table2_params(60 + static_cast<VertexId>(seed * 5),
                        100 + static_cast<EdgeId>(seed * 8),
                        seed % 2 == 0 ? Technology::kStandardCell
                                      : Technology::kPcb),
          seed);
    }
    Algorithm1Options options;
    options.num_starts = 6;
    options.seed = seed;
    options.threads = threads;
    const Algorithm1Context context(h, options);
    if (context.is_degenerate() || context.intersection().num_vertices() < 2) {
      continue;
    }
    const Algorithm1Result got = algorithm1(h, options);
    const Algorithm1Result want =
        validate::unpermuted_reference(context, options);
    ASSERT_EQ(got.sides, want.sides)
        << "seed " << seed << " threads " << threads;
    ASSERT_EQ(got.metrics.cut_edges, want.metrics.cut_edges) << "seed " << seed;
    ASSERT_EQ(got.metrics.weight_imbalance, want.metrics.weight_imbalance)
        << "seed " << seed;
    ++exercised;
  }
  EXPECT_GE(exercised, 40);
}

INSTANTIATE_TEST_SUITE_P(Threads, ReorderIdentity, testing::Values(1, 2, 8));

}  // namespace
}  // namespace fhp
