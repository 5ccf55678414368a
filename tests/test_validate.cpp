#include "validate/audit.hpp"

#include <gtest/gtest.h>

#include "core/intersection.hpp"
#include "gen/random_hypergraph.hpp"
#include "test_helpers.hpp"

namespace fhp {
namespace {

using validate::AuditReport;
using validate::HypergraphAuditPolicy;

Hypergraph small_random(std::uint64_t seed) {
  RandomHypergraphParams params;
  params.num_vertices = 30;
  params.num_edges = 45;
  return random_hypergraph(params, seed);
}

TEST(AuditHypergraph, GeneratorOutputIsClean) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const AuditReport report = validate::audit_hypergraph(small_random(seed));
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(AuditHypergraph, FlagsEmptyEdgeUnderDefaultPolicy) {
  HypergraphBuilder b;
  b.add_vertices(3);
  b.allow_empty_edges();
  b.add_edge({});
  b.add_edge({0, 1});
  const Hypergraph h = std::move(b).build();

  const AuditReport strict = validate::audit_hypergraph(h);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.findings[0].predicate, "no_empty_edges");

  HypergraphAuditPolicy relaxed;
  relaxed.allow_empty_edges = true;
  EXPECT_TRUE(validate::audit_hypergraph(h, relaxed).ok());
}

TEST(AuditHypergraph, FlagsSinglePinEdgesWhenAsked) {
  HypergraphBuilder b;
  b.add_vertices(2);
  b.add_edge({0});
  const Hypergraph h = std::move(b).build();
  EXPECT_TRUE(validate::audit_hypergraph(h).ok());
  HypergraphAuditPolicy policy;
  policy.allow_single_pin_edges = false;
  const AuditReport report = validate::audit_hypergraph(h, policy);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.findings[0].predicate, "no_single_pin_edges");
}

TEST(AuditGraph, IntersectionGraphIsClean) {
  const Graph g = intersection_graph(small_random(7));
  EXPECT_TRUE(validate::audit_graph(g).ok());
}

TEST(AuditPartition, FlagsSizeAndValueViolations) {
  const Hypergraph h = test::path_hypergraph(4);
  const std::vector<std::uint8_t> short_sides = {0, 1};
  EXPECT_FALSE(validate::audit_partition(h, short_sides).ok());
  const std::vector<std::uint8_t> bad_value = {0, 1, 2, 0};
  const AuditReport report = validate::audit_partition(h, bad_value);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.findings[0].predicate, "sides_binary");
  const std::vector<std::uint8_t> good = {0, 1, 0, 1};
  EXPECT_TRUE(validate::audit_partition(h, good).ok());
}

TEST(AuditMetrics, AcceptsComputedMetricsAndFlagsTampering) {
  const Hypergraph h = small_random(11);
  std::vector<std::uint8_t> sides(h.num_vertices(), 0);
  for (VertexId v = 0; v < h.num_vertices() / 2; ++v) sides[v] = 1;
  PartitionMetrics metrics = compute_metrics(Bipartition(h, sides));
  EXPECT_TRUE(validate::audit_metrics(h, sides, metrics).ok());

  metrics.cut_weight += 1;
  const AuditReport report = validate::audit_metrics(h, sides, metrics);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.findings[0].predicate, "cut_weight_match");
}

TEST(AuditBoundary, RealExtractionPassesTamperedOneFails) {
  const Graph g = intersection_graph(test::two_cluster_hypergraph(4, 2));
  ASSERT_GE(g.num_vertices(), 4U);
  std::vector<std::uint8_t> g_side(g.num_vertices(), 0);
  for (VertexId v = g.num_vertices() / 2; v < g.num_vertices(); ++v) {
    g_side[v] = 1;
  }
  Workspace ws;
  BoundaryStructure b;
  extract_boundary(g, g_side, ws, b);
  EXPECT_TRUE(validate::audit_boundary(g, b).ok());

  ASSERT_FALSE(b.boundary_nodes.empty());
  b.is_boundary[b.boundary_nodes[0]] = 0;  // lie about one boundary member
  EXPECT_FALSE(validate::audit_boundary(g, b).ok());
}

TEST(AuditAlgorithm1, EndToEndResultPassesTamperedSidesFail) {
  const Hypergraph h = small_random(13);
  Algorithm1Options options;
  options.num_starts = 4;
  options.threads = 1;
  Algorithm1Result result = algorithm1(h, options);
  EXPECT_TRUE(validate::audit_algorithm1(h, options, result).ok())
      << validate::audit_algorithm1(h, options, result).to_string();

  result.sides[0] ^= 1;  // metrics no longer match the sides
  EXPECT_FALSE(validate::audit_algorithm1(h, options, result).ok());
}

TEST(AuditGraphsIdentical, DistinguishesDifferentGraphs) {
  const Graph a = Graph::from_edges(3, {{0, 1}, {1, 2}});
  const Graph b = Graph::from_edges(3, {{0, 1}, {0, 2}});
  EXPECT_TRUE(validate::audit_graphs_identical(a, a).ok());
  EXPECT_FALSE(validate::audit_graphs_identical(a, b).ok());
  const Graph c = Graph::from_edges(4, {{0, 1}, {1, 2}});
  EXPECT_FALSE(validate::audit_graphs_identical(a, c).ok());
}

TEST(AuditReportApi, MergeAndToString) {
  AuditReport a;
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.to_string(), "ok");
  a.fail("p1", "m1");
  AuditReport b;
  b.fail("p2", "m2");
  a.merge(std::move(b));
  ASSERT_EQ(a.findings.size(), 2U);
  EXPECT_NE(a.to_string().find("p2: m2"), std::string::npos);
}

}  // namespace
}  // namespace fhp
