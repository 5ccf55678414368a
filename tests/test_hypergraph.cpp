#include "hypergraph/hypergraph.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "test_helpers.hpp"

namespace fhp {
namespace {

TEST(Hypergraph, EmptyByDefault) {
  Hypergraph h;
  EXPECT_EQ(h.num_vertices(), 0U);
  EXPECT_EQ(h.num_edges(), 0U);
  EXPECT_EQ(h.num_pins(), 0U);
  EXPECT_EQ(h.max_edge_size(), 0U);
  EXPECT_EQ(h.max_degree(), 0U);
  h.validate();
}

TEST(Hypergraph, FromEdgesBuildsIncidence) {
  const Hypergraph h = Hypergraph::from_edges(4, {{0, 1, 2}, {2, 3}});
  EXPECT_EQ(h.num_vertices(), 4U);
  EXPECT_EQ(h.num_edges(), 2U);
  EXPECT_EQ(h.num_pins(), 5U);
  EXPECT_EQ(h.edge_size(0), 3U);
  EXPECT_EQ(h.edge_size(1), 2U);
  EXPECT_EQ(h.degree(2), 2U);
  EXPECT_EQ(h.degree(3), 1U);
  const auto nets2 = h.nets_of(2);
  ASSERT_EQ(nets2.size(), 2U);
  EXPECT_EQ(nets2[0], 0U);
  EXPECT_EQ(nets2[1], 1U);
  h.validate();
}

TEST(Hypergraph, PinsAreSortedAndDeduped) {
  HypergraphBuilder b;
  b.add_vertices(5);
  b.add_edge({4, 2, 2, 0, 4});
  const Hypergraph h = std::move(b).build();
  const auto pins = h.pins(0);
  ASSERT_EQ(pins.size(), 3U);
  EXPECT_EQ(pins[0], 0U);
  EXPECT_EQ(pins[1], 2U);
  EXPECT_EQ(pins[2], 4U);
  h.validate();
}

TEST(Hypergraph, WeightsDefaultToOne) {
  const Hypergraph h = test::path_hypergraph(4);
  EXPECT_EQ(h.total_vertex_weight(), 4);
  EXPECT_EQ(h.total_edge_weight(), 3);
  EXPECT_EQ(h.vertex_weight(0), 1);
  EXPECT_EQ(h.edge_weight(0), 1);
}

TEST(Hypergraph, CustomWeightsTracked) {
  HypergraphBuilder b;
  b.add_vertex(10);
  b.add_vertex(20);
  b.add_edge({0, 1}, 7);
  b.set_vertex_weight(0, 5);
  const Hypergraph h = std::move(b).build();
  EXPECT_EQ(h.vertex_weight(0), 5);
  EXPECT_EQ(h.vertex_weight(1), 20);
  EXPECT_EQ(h.edge_weight(0), 7);
  EXPECT_EQ(h.total_vertex_weight(), 25);
  EXPECT_EQ(h.total_edge_weight(), 7);
  h.validate();
}

TEST(Hypergraph, MaxStatsMaintained) {
  HypergraphBuilder b;
  b.add_vertices(6);
  b.add_edge({0, 1, 2, 3});
  b.add_edge({0, 1});
  b.add_edge({0, 4});
  const Hypergraph h = std::move(b).build();
  EXPECT_EQ(h.max_edge_size(), 4U);
  EXPECT_EQ(h.max_degree(), 3U);  // vertex 0 on three nets
}

TEST(Hypergraph, IsGraphDetection) {
  EXPECT_TRUE(test::path_hypergraph(5).is_graph());
  const Hypergraph h = Hypergraph::from_edges(3, {{0, 1, 2}});
  EXPECT_FALSE(h.is_graph());
  EXPECT_TRUE(Hypergraph().is_graph());  // vacuously
}

TEST(Hypergraph, EmptyAndSingletonEdgesRepresentable) {
  HypergraphBuilder b;
  b.add_vertices(2);
  b.allow_empty_edges();  // zero-pin nets are opt-in (docs/formats.md)
  b.add_edge(std::span<const VertexId>{});
  b.add_edge({1});
  const Hypergraph h = std::move(b).build();
  EXPECT_EQ(h.num_edges(), 2U);
  EXPECT_EQ(h.edge_size(0), 0U);
  EXPECT_EQ(h.edge_size(1), 1U);
  h.validate();
}

TEST(HypergraphBuilder, RejectsUnknownPin) {
  HypergraphBuilder b;
  b.add_vertices(2);
  EXPECT_THROW(b.add_edge({0, 2}), PreconditionError);
}

TEST(HypergraphBuilder, RejectsNegativeWeights) {
  HypergraphBuilder b;
  EXPECT_THROW(b.add_vertex(-1), PreconditionError);
  b.add_vertices(2);
  EXPECT_THROW(b.add_edge({0, 1}, -3), PreconditionError);
  EXPECT_THROW(b.set_vertex_weight(0, -2), PreconditionError);
}

TEST(HypergraphBuilder, RejectsWeightTotalsPastTheWeightRange) {
  constexpr Weight kMax = std::numeric_limits<Weight>::max();
  {
    HypergraphBuilder b;
    b.add_vertex(kMax);
    b.add_vertex(1);
    EXPECT_THROW((void)std::move(b).build(), PreconditionError);
  }
  {
    HypergraphBuilder b;
    b.add_vertices(3);
    b.add_edge({0, 1}, kMax);
    b.add_edge({1, 2}, 1);
    EXPECT_THROW((void)std::move(b).build(), PreconditionError);
  }
  EXPECT_THROW((void)Hypergraph::from_csr({0, 2, 4}, {0, 1, 0, 1}, {1, 1},
                                          {kMax, 1}),
               PreconditionError);
  // A total of exactly kMax still fits.
  HypergraphBuilder b;
  b.add_vertex(kMax - 1);
  b.add_vertex(1);
  b.add_edge({0, 1}, kMax);
  const Hypergraph h = std::move(b).build();
  EXPECT_EQ(h.total_vertex_weight(), kMax);
  EXPECT_EQ(h.total_edge_weight(), kMax);
}

TEST(HypergraphBuilder, SetWeightRejectsUnknownVertex) {
  HypergraphBuilder b;
  EXPECT_THROW(b.set_vertex_weight(0, 1), PreconditionError);
}

TEST(HypergraphBuilder, IdsAreSequential) {
  HypergraphBuilder b;
  EXPECT_EQ(b.add_vertex(), 0U);
  EXPECT_EQ(b.add_vertex(), 1U);
  EXPECT_EQ(b.add_vertices(3), 2U);
  EXPECT_EQ(b.num_vertices(), 5U);
  EXPECT_EQ(b.add_edge({0, 1}), 0U);
  EXPECT_EQ(b.add_edge({1, 2}), 1U);
  EXPECT_EQ(b.num_edges(), 2U);
}

TEST(Hypergraph, VertexNetListsSorted) {
  // Vertex 0 appears in nets 0, 2, 3 — list must come back sorted.
  const Hypergraph h =
      Hypergraph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}, {0, 1, 2}});
  const auto nets = h.nets_of(0);
  ASSERT_EQ(nets.size(), 3U);
  EXPECT_EQ(nets[0], 0U);
  EXPECT_EQ(nets[1], 2U);
  EXPECT_EQ(nets[2], 3U);
  h.validate();
}

TEST(Hypergraph, LargeChainValidates) {
  const Hypergraph h = test::path_hypergraph(1000);
  EXPECT_EQ(h.num_edges(), 999U);
  EXPECT_EQ(h.max_degree(), 2U);
  h.validate();
}

TEST(HypergraphBuilder, RejectsZeroPinEdgesByDefault) {
  HypergraphBuilder b;
  b.add_vertices(3);
  EXPECT_THROW((void)b.add_edge({}), PreconditionError);
}

/// The fixed 4-vertex, 3-net instance the fingerprint tests perturb.
Hypergraph fingerprint_base() {
  HypergraphBuilder b;
  b.add_vertices(4);
  b.add_edge({0, 1, 2}, 2);
  b.add_edge({2, 3});
  b.add_edge({0, 3}, 5);
  return std::move(b).build();
}

TEST(HypergraphFingerprint, EqualStructuresAgreeAcrossBuildPaths) {
  const Hypergraph via_builder = fingerprint_base();
  // Same structure assembled through from_csr instead of the builder.
  const Hypergraph via_csr = Hypergraph::from_csr(
      {0, 3, 5, 7}, {0, 1, 2, 2, 3, 0, 3}, {1, 1, 1, 1}, {2, 1, 5});
  EXPECT_EQ(via_builder.fingerprint(), via_csr.fingerprint());
  // And it is a pure function: recomputing agrees with itself.
  EXPECT_EQ(via_builder.fingerprint(), via_builder.fingerprint());
}

TEST(HypergraphFingerprint, EveryPerturbationChangesIt) {
  const Hypergraph::Fingerprint base = fingerprint_base().fingerprint();

  {  // different pin in one net
    HypergraphBuilder b;
    b.add_vertices(4);
    b.add_edge({0, 1, 3}, 2);
    b.add_edge({2, 3});
    b.add_edge({0, 3}, 5);
    EXPECT_NE(std::move(b).build().fingerprint(), base);
  }
  {  // different edge weight
    HypergraphBuilder b;
    b.add_vertices(4);
    b.add_edge({0, 1, 2}, 3);
    b.add_edge({2, 3});
    b.add_edge({0, 3}, 5);
    EXPECT_NE(std::move(b).build().fingerprint(), base);
  }
  {  // different vertex weight
    HypergraphBuilder b;
    b.add_vertices(4);
    b.set_vertex_weight(1, 7);
    b.add_edge({0, 1, 2}, 2);
    b.add_edge({2, 3});
    b.add_edge({0, 3}, 5);
    EXPECT_NE(std::move(b).build().fingerprint(), base);
  }
  {  // extra isolated vertex (same nets)
    HypergraphBuilder b;
    b.add_vertices(5);
    b.add_edge({0, 1, 2}, 2);
    b.add_edge({2, 3});
    b.add_edge({0, 3}, 5);
    EXPECT_NE(std::move(b).build().fingerprint(), base);
  }
  {  // extra net
    HypergraphBuilder b;
    b.add_vertices(4);
    b.add_edge({0, 1, 2}, 2);
    b.add_edge({2, 3});
    b.add_edge({0, 3}, 5);
    b.add_edge({1, 3});
    EXPECT_NE(std::move(b).build().fingerprint(), base);
  }
  // Empty hypergraphs fingerprint too (and differ from non-empty).
  EXPECT_NE(Hypergraph().fingerprint(), base);
}

TEST(HypergraphBuilder, AllowEmptyEdgesOptsIn) {
  HypergraphBuilder b;
  b.add_vertices(3);
  b.allow_empty_edges();
  const EdgeId e = b.add_edge({});
  b.add_edge({0, 2});
  const Hypergraph h = std::move(b).build();
  EXPECT_EQ(h.num_edges(), 2U);
  EXPECT_EQ(h.edge_size(e), 0U);
  h.validate();
}

}  // namespace
}  // namespace fhp
