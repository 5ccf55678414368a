#include "hypergraph/contract.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "gen/random_hypergraph.hpp"
#include "partition/partition.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "validate/audit.hpp"

namespace fhp {
namespace {

/// The side of each fine vertex: the side of its cluster.
std::vector<std::uint8_t> project(const std::vector<VertexId>& cluster,
                                  const std::vector<std::uint8_t>& coarse) {
  std::vector<std::uint8_t> fine(cluster.size());
  for (std::size_t v = 0; v < cluster.size(); ++v) {
    fine[v] = coarse[cluster[v]];
  }
  return fine;
}

TEST(Contract, PairMergeOnChain) {
  // Chain of 6 modules; contract pairs (0,1), (2,3), (4,5).
  const Hypergraph h = test::path_hypergraph(6);
  const ContractionResult r = contract(h, {0, 0, 1, 1, 2, 2}, 3);
  EXPECT_EQ(r.hypergraph.num_vertices(), 3U);
  // Intra-pair nets vanish; the two inter-pair nets remain.
  EXPECT_EQ(r.hypergraph.num_edges(), 2U);
  EXPECT_EQ(r.hypergraph.vertex_weight(0), 2);
  r.hypergraph.validate();
}

TEST(Contract, ParallelNetsMergeWithSummedWeight) {
  HypergraphBuilder b;
  b.add_vertices(4);
  b.add_edge({0, 2}, 3);
  b.add_edge({1, 3}, 4);  // becomes parallel to the first after contraction
  const Hypergraph h = std::move(b).build();
  const ContractionResult r = contract(h, {0, 0, 1, 1}, 2);
  ASSERT_EQ(r.hypergraph.num_edges(), 1U);
  EXPECT_EQ(r.hypergraph.edge_weight(0), 7);
}

TEST(Contract, InternalNetsDropped) {
  const Hypergraph h = Hypergraph::from_edges(3, {{0, 1, 2}});
  const ContractionResult r = contract(h, {0, 0, 0}, 1);
  EXPECT_EQ(r.hypergraph.num_edges(), 0U);
  EXPECT_EQ(r.hypergraph.num_vertices(), 1U);
}

TEST(Contract, IdentityContractionPreservesStructure) {
  const Hypergraph h = test::figure4_hypergraph();
  std::vector<VertexId> identity(h.num_vertices());
  for (VertexId v = 0; v < h.num_vertices(); ++v) identity[v] = v;
  const ContractionResult r = contract(h, identity, h.num_vertices());
  EXPECT_EQ(r.hypergraph.num_vertices(), h.num_vertices());
  EXPECT_EQ(r.hypergraph.num_edges(), h.num_edges());
  EXPECT_EQ(r.hypergraph.num_pins(), h.num_pins());
}

TEST(Contract, CutIsPreservedUnderProjection) {
  // Any coarse cut, projected to the fine level, has the same cut weight
  // (parallel-net merging keeps weights honest).
  const Hypergraph h = test::two_cluster_hypergraph(6, 3);
  // Contract within clusters: 3 clusters per side.
  std::vector<VertexId> cluster(h.num_vertices());
  for (VertexId v = 0; v < h.num_vertices(); ++v) cluster[v] = v / 2;
  const ContractionResult r = contract(h, cluster, 6);
  std::vector<std::uint8_t> coarse_sides{0, 0, 0, 1, 1, 1};
  const Bipartition coarse(r.hypergraph, coarse_sides);
  const auto fine_sides = project(r.cluster, coarse_sides);
  const Bipartition fine(h, fine_sides);
  EXPECT_EQ(coarse.cut_weight(), fine.cut_weight());
}

TEST(Contract, Preconditions) {
  const Hypergraph h = test::path_hypergraph(3);
  EXPECT_THROW((void)contract(h, {0, 1}, 2), PreconditionError);
  EXPECT_THROW((void)contract(h, {0, 1, 2}, 2), PreconditionError);
  EXPECT_THROW((void)contract(h, {0, 0, 0}, 0), PreconditionError);
}

TEST(Contract, NetCollapsingToSinglePinIsDropped) {
  // A net whose pins all land in one cluster — but which is NOT internal
  // to the whole contraction — must be dropped, not kept as a single-pin
  // net: single-pin nets can never be cut, so keeping them would inflate
  // pin counts and skew size-based ratings at the coarse level.
  HypergraphBuilder b;
  b.add_vertices(4);
  b.add_edge({0, 1});     // collapses to the single pin {c0}
  b.add_edge({0, 1, 2});  // survives as {c0, c1}
  b.add_edge({2, 3});     // survives as {c1, c2}
  const Hypergraph h = std::move(b).build();
  const ContractionResult r = contract(h, {0, 0, 1, 2}, 3);
  EXPECT_EQ(r.hypergraph.num_vertices(), 3U);
  EXPECT_EQ(r.hypergraph.num_edges(), 2U);
  for (EdgeId e = 0; e < r.hypergraph.num_edges(); ++e) {
    EXPECT_GE(r.hypergraph.pins(e).size(), 2U);
  }
  EXPECT_TRUE(validate::audit_hypergraph(r.hypergraph).ok());
}

TEST(Contract, ClusterWeightsNearWeightOverflowSumExactly) {
  // Three vertices each carrying ~max/3: their cluster weight lands one
  // unit below the Weight ceiling. The sum must be exact — a narrowing
  // intermediate (int/double) would corrupt it silently.
  constexpr Weight kThird = std::numeric_limits<Weight>::max() / 3;
  HypergraphBuilder b;
  b.add_vertex(kThird);
  b.add_vertex(kThird);
  b.add_vertex(kThird);
  b.add_vertex(1);
  b.add_edge({0, 1, 2, 3});
  const Hypergraph h = std::move(b).build();
  const ContractionResult r = contract(h, {0, 0, 0, 1}, 2);
  EXPECT_EQ(r.hypergraph.vertex_weight(0), 3 * kThird);
  EXPECT_EQ(r.hypergraph.vertex_weight(1), 1);
  EXPECT_EQ(r.hypergraph.total_vertex_weight(), 3 * kThird + 1);
  EXPECT_TRUE(validate::audit_hypergraph(r.hypergraph).ok());
}

TEST(Contract, ParallelNetWeightsNearWeightOverflowSumExactly) {
  // Two nets that become parallel after contraction, each weighing
  // ~max/2: the merged net's weight is their exact sum.
  constexpr Weight kHalf = std::numeric_limits<Weight>::max() / 2;
  HypergraphBuilder b;
  b.add_vertices(4);
  b.add_edge({0, 2}, kHalf);
  b.add_edge({1, 3}, kHalf);
  const Hypergraph h = std::move(b).build();
  const ContractionResult r = contract(h, {0, 0, 1, 1}, 2);
  ASSERT_EQ(r.hypergraph.num_edges(), 1U);
  EXPECT_EQ(r.hypergraph.edge_weight(0), 2 * kHalf);
  EXPECT_TRUE(validate::audit_hypergraph(r.hypergraph).ok());
}

TEST(Contract, FuzzedContractionsAreAuditCleanAndCutPreserving) {
  // 50 random hypergraphs from varied H(n, d, r) corners × random cluster
  // maps (unused cluster ids allowed — they become zero-weight coarse
  // vertices). Every contraction must produce an audit-clean hypergraph,
  // and every coarse cut must project to an identical fine cut weight.
  Rng rng(0xC0117AC7ULL);
  for (int instance = 0; instance < 50; ++instance) {
    RandomHypergraphParams params;
    params.num_vertices =
        static_cast<VertexId>(2 + rng.next_below(60));
    params.num_edges = static_cast<EdgeId>(1 + rng.next_below(120));
    params.min_edge_size = 2;
    params.max_edge_size =
        static_cast<std::uint32_t>(2 + rng.next_below(7));
    params.max_degree = static_cast<std::uint32_t>(rng.next_below(9));
    const Hypergraph h = random_hypergraph(params, rng());

    const auto num_clusters =
        static_cast<VertexId>(1 + rng.next_below(h.num_vertices()));
    std::vector<VertexId> cluster(h.num_vertices());
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      cluster[v] = static_cast<VertexId>(rng.next_below(num_clusters));
    }

    const ContractionResult r = contract(h, cluster, num_clusters);
    const validate::AuditReport report =
        validate::audit_hypergraph(r.hypergraph);
    ASSERT_TRUE(report.ok())
        << "instance " << instance << ":\n" << report.to_string();
    ASSERT_EQ(r.hypergraph.total_vertex_weight(), h.total_vertex_weight())
        << "instance " << instance;

    std::vector<std::uint8_t> coarse_sides(r.hypergraph.num_vertices());
    for (auto& side : coarse_sides) {
      side = static_cast<std::uint8_t>(rng.next_below(2));
    }
    const Bipartition coarse(r.hypergraph, coarse_sides);
    const Bipartition fine(h, project(r.cluster, coarse_sides));
    ASSERT_EQ(coarse.cut_weight(), fine.cut_weight())
        << "instance " << instance;
  }
}

}  // namespace
}  // namespace fhp
