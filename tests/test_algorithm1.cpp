#include "core/algorithm1.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/circuit.hpp"
#include "gen/planted.hpp"
#include "test_helpers.hpp"

namespace fhp {
namespace {

/// Checks structural validity of any Algorithm I result.
void check_result(const Hypergraph& h, const Algorithm1Result& r) {
  ASSERT_EQ(r.sides.size(), h.num_vertices());
  for (std::uint8_t s : r.sides) EXPECT_TRUE(s == 0 || s == 1);
  EXPECT_TRUE(r.metrics.proper);
  EXPECT_EQ(r.metrics.cut_edges, test::count_cut_edges(h, r.sides));
}

TEST(Algorithm1, RequiresTwoModules) {
  HypergraphBuilder b;
  b.add_vertex();
  const Hypergraph h = std::move(b).build();
  EXPECT_THROW((void)algorithm1(h), PreconditionError);
}

TEST(Algorithm1, PathHypergraphCutOne) {
  const Hypergraph h = test::path_hypergraph(20);
  const Algorithm1Result r = algorithm1(h);
  check_result(h, r);
  EXPECT_EQ(r.metrics.cut_edges, 1U);  // any contiguous split cuts one net
  EXPECT_LE(r.metrics.cardinality_imbalance, 2U);
}

TEST(Algorithm1, TwoClustersFindsBridges) {
  const Hypergraph h = test::two_cluster_hypergraph(8, 3);
  const Algorithm1Result r = algorithm1(h);
  check_result(h, r);
  EXPECT_EQ(r.metrics.cut_edges, 3U);
  EXPECT_EQ(r.metrics.cardinality_imbalance, 0U);
}

TEST(Algorithm1, MatchesBruteForceOnSmallInstances) {
  // On tiny instances the multi-start heuristic should find the true
  // minimum proper cut most of the time; require it within +1 always.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    PlantedParams params;
    params.num_vertices = 12;
    params.num_edges = 16;
    params.planted_cut = 2;
    params.max_edge_size = 3;
    const PlantedInstance inst = planted_instance(params, seed);
    if (inst.hypergraph.num_edges() < 4) continue;
    Algorithm1Options options;
    options.num_starts = 50;
    options.large_edge_threshold = 0;
    options.consider_floating_split = true;  // hunt the true minimum
    const Algorithm1Result r = algorithm1(inst.hypergraph, options);
    check_result(inst.hypergraph, r);
    const EdgeId best = test::brute_force_min_cut(inst.hypergraph);
    EXPECT_LE(r.metrics.cut_edges, best + 1) << "seed " << seed;
  }
}

TEST(Algorithm1, DisconnectedInstanceZeroCut) {
  // Two disjoint chains: c = 0 pathological case.
  HypergraphBuilder b;
  b.add_vertices(12);
  for (VertexId i = 0; i + 1 < 6; ++i) b.add_edge({i, i + 1});
  for (VertexId i = 6; i + 1 < 12; ++i) b.add_edge({i, i + 1});
  const Hypergraph h = std::move(b).build();
  const Algorithm1Result r = algorithm1(h);
  check_result(h, r);
  EXPECT_TRUE(r.disconnected_shortcut);
  EXPECT_EQ(r.metrics.cut_edges, 0U);
  EXPECT_EQ(r.metrics.cardinality_imbalance, 0U);
}

TEST(Algorithm1, DegenerateGiantBlockGetsBisected) {
  // One dominant connected block (30 modules in a chain) plus a tiny
  // satellite pair: packing whole blocks cannot balance, so the giant
  // block must be split internally.
  HypergraphBuilder b;
  b.add_vertices(32);
  for (VertexId i = 0; i + 1 < 30; ++i) b.add_edge({i, i + 1});
  b.add_edge({30, 31});
  const Hypergraph h = std::move(b).build();
  const Algorithm1Result r = algorithm1(h);
  check_result(h, r);
  EXPECT_TRUE(r.disconnected_shortcut);
  // Balanced despite the dominant block; the split costs one chain net.
  EXPECT_LE(r.metrics.cardinality_imbalance, 4U);
  EXPECT_LE(r.metrics.cut_edges, 1U);
}

TEST(Algorithm1, DegenerateEqualBlocksZeroCut) {
  // The true pathological c = 0 case: two equal blocks, no split needed.
  HypergraphBuilder b;
  b.add_vertices(20);
  for (VertexId i = 0; i + 1 < 10; ++i) b.add_edge({i, i + 1});
  for (VertexId i = 10; i + 1 < 20; ++i) b.add_edge({i, i + 1});
  const Hypergraph h = std::move(b).build();
  const Algorithm1Result r = algorithm1(h);
  check_result(h, r);
  EXPECT_EQ(r.metrics.cut_edges, 0U);
  EXPECT_EQ(r.metrics.cardinality_imbalance, 0U);
}

TEST(Algorithm1, ContextAccessorsConsistent) {
  const Hypergraph h = test::two_cluster_hypergraph(6, 2);
  Algorithm1Options options;
  options.large_edge_threshold = 0;
  Algorithm1Context ctx(h, options);
  EXPECT_EQ(&ctx.original(), &h);
  EXPECT_EQ(ctx.filtered().num_edges(), h.num_edges());
  EXPECT_EQ(ctx.intersection().num_vertices(), h.num_edges());
  EXPECT_EQ(ctx.filtered_edge_count(), 0U);
  EXPECT_FALSE(ctx.is_degenerate());
}

TEST(Algorithm1, IsolatedModulesBalanced) {
  HypergraphBuilder b;
  b.add_vertices(10);
  b.add_edge({0, 1});
  b.add_edge({1, 2});
  const Hypergraph h = std::move(b).build();
  const Algorithm1Result r = algorithm1(h);
  check_result(h, r);
  EXPECT_LE(r.metrics.cardinality_imbalance, 1U);
}

TEST(Algorithm1, SingleNetInstance) {
  // One net covering some of the modules: the rest can take the other
  // side, cut 0.
  HypergraphBuilder b;
  b.add_vertices(6);
  b.add_edge({0, 1, 2});
  const Hypergraph h = std::move(b).build();
  const Algorithm1Result r = algorithm1(h);
  check_result(h, r);
  EXPECT_EQ(r.metrics.cut_edges, 0U);
}

TEST(Algorithm1, SingleNetCoveringEverythingSplitsIt) {
  HypergraphBuilder b;
  b.add_vertices(4);
  b.add_edge({0, 1, 2, 3});
  const Hypergraph h = std::move(b).build();
  const Algorithm1Result r = algorithm1(h);
  check_result(h, r);
  EXPECT_EQ(r.metrics.cut_edges, 1U);
  EXPECT_EQ(r.metrics.cardinality_imbalance, 0U);
}

TEST(Algorithm1, DeterministicForSeed) {
  const Hypergraph h =
      generate_circuit(table2_params(103, 211, Technology::kPcb), 5);
  Algorithm1Options options;
  options.seed = 99;
  const Algorithm1Result a = algorithm1(h, options);
  const Algorithm1Result b = algorithm1(h, options);
  EXPECT_EQ(a.sides, b.sides);
  EXPECT_EQ(a.metrics.cut_edges, b.metrics.cut_edges);
}

TEST(Algorithm1, MoreStartsNeverWorse) {
  const Hypergraph h =
      generate_circuit(table2_params(150, 260, Technology::kStandardCell), 7);
  Algorithm1Options one;
  one.num_starts = 1;
  one.seed = 3;
  Algorithm1Options many;
  many.num_starts = 50;
  many.seed = 3;
  const Algorithm1Result r1 = algorithm1(h, one);
  const Algorithm1Result r50 = algorithm1(h, many);
  EXPECT_LE(r50.metrics.cut_edges, r1.metrics.cut_edges);
}

TEST(Algorithm1, LargeEdgeFilterCountsDropped) {
  HypergraphBuilder b;
  b.add_vertices(30);
  for (VertexId i = 0; i + 1 < 30; ++i) b.add_edge({i, i + 1});
  std::vector<VertexId> bus;
  for (VertexId i = 0; i < 20; ++i) bus.push_back(i);
  b.add_edge(std::span<const VertexId>(bus));
  const Hypergraph h = std::move(b).build();
  Algorithm1Options options;
  options.large_edge_threshold = 10;
  const Algorithm1Result r = algorithm1(h, options);
  check_result(h, r);
  EXPECT_EQ(r.filtered_edges, 1U);
  // The bus is ignored during partitioning but still scored: a chain split
  // inside the first 20 modules cuts the bus too.
  EXPECT_LE(r.metrics.cut_edges, 2U);
}

TEST(Algorithm1, ExactCompletionNeverWorseThanGreedy) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Hypergraph h = generate_circuit(
        table2_params(120, 220, Technology::kGateArray), seed);
    Algorithm1Context greedy_ctx(h, {});
    Algorithm1Options exact_options;
    exact_options.completion = CompletionStrategy::kExact;
    Algorithm1Context exact_ctx(h, exact_options);
    if (greedy_ctx.is_degenerate()) continue;
    // Same start → same boundary; exact completion cannot lose more nets.
    Algorithm1Context::StartScratch scratch;
    const Algorithm1Result g = greedy_ctx.run_single(0, scratch);
    const Algorithm1Result e = exact_ctx.run_single(0, scratch);
    EXPECT_LE(e.loser_count, g.loser_count) << "seed " << seed;
  }
}

TEST(Algorithm1, LoserCountBoundsRealizedBoundaryCut) {
  // The loser count is an upper bound on how many *filtered* nets cross.
  const Hypergraph h =
      generate_circuit(table2_params(200, 350, Technology::kStandardCell), 11);
  Algorithm1Options options;
  options.large_edge_threshold = 0;  // no filtering: bound applies to all
  Algorithm1Context ctx(h, options);
  if (ctx.is_degenerate()) GTEST_SKIP() << "degenerate instance";
  Algorithm1Context::StartScratch scratch;
  const Algorithm1Result r = ctx.run_single(0, scratch);
  EXPECT_LE(r.metrics.cut_edges, r.loser_count);
}

TEST(Algorithm1, QuotientObjectivePicksFiniteQuotient) {
  const Hypergraph h =
      generate_circuit(table2_params(100, 180, Technology::kPcb), 13);
  Algorithm1Options options;
  options.objective = Objective::kQuotient;
  const Algorithm1Result r = algorithm1(h, options);
  check_result(h, r);
  EXPECT_TRUE(std::isfinite(r.metrics.quotient_cut));
}

TEST(Algorithm1, WeightedCompletionImprovesWeightBalance) {
  // Heavily skewed module weights: the engineer's rule should not blow up
  // the weight imbalance relative to total weight.
  CircuitParams params = standard_cell_params(0.5);
  params.weight_geometric_p = 0.3;
  const Hypergraph h = generate_circuit(params, 17);
  Algorithm1Options weighted;
  weighted.completion = CompletionStrategy::kWeightedGreedy;
  const Algorithm1Result r = algorithm1(h, weighted);
  check_result(h, r);
  EXPECT_LT(static_cast<double>(r.metrics.weight_imbalance),
            0.25 * static_cast<double>(h.total_vertex_weight()));
}

TEST(Algorithm1, LevelSweepValidAndCompetitive) {
  const Hypergraph h =
      generate_circuit(table2_params(200, 350, Technology::kStandardCell), 23);
  Algorithm1Options bidi;
  bidi.seed = 5;
  bidi.num_starts = 5;
  Algorithm1Options sweep = bidi;
  sweep.initial_cut = InitialCutStrategy::kLevelSweep;
  const Algorithm1Result a = algorithm1(h, bidi);
  const Algorithm1Result b = algorithm1(h, sweep);
  check_result(h, a);
  check_result(h, b);
  // The sweep examines a superset of cut positions per start; it should
  // be at least competitive on the same seed.
  EXPECT_LE(b.metrics.cut_edges, a.metrics.cut_edges + 5);
}

TEST(Algorithm1, LevelSweepOnChainFindsCutOne) {
  const Hypergraph h = test::path_hypergraph(30);
  Algorithm1Options options;
  options.initial_cut = InitialCutStrategy::kLevelSweep;
  options.num_starts = 3;
  const Algorithm1Result r = algorithm1(h, options);
  check_result(h, r);
  EXPECT_EQ(r.metrics.cut_edges, 1U);
}

TEST(Algorithm1, CompleteFromCutCustomSplit) {
  // Drive steps 3-5 directly with a hand-made G cut.
  const Hypergraph h = test::path_hypergraph(10);  // G = path of 9 nets
  Algorithm1Options options;
  options.large_edge_threshold = 0;
  Algorithm1Context ctx(h, options);
  ASSERT_FALSE(ctx.is_degenerate());
  std::vector<std::uint8_t> g_side(ctx.intersection().num_vertices(), 0);
  for (VertexId e = 5; e < g_side.size(); ++e) g_side[e] = 1;
  Algorithm1Context::StartScratch scratch;
  const Algorithm1Result r = ctx.complete_from_cut(g_side, scratch);
  check_result(h, r);
  EXPECT_EQ(r.metrics.cut_edges, 1U);
  EXPECT_EQ(r.boundary_size, 2U);
}

TEST(Algorithm1, CompleteFromCutRejectsBadInput) {
  const Hypergraph h = test::path_hypergraph(6);
  Algorithm1Context ctx(h, {});
  Algorithm1Context::StartScratch scratch;
  const std::vector<std::uint8_t> too_short = {0, 1};
  EXPECT_THROW((void)ctx.complete_from_cut(too_short, scratch),
               PreconditionError);
}

TEST(Algorithm1, MemoOwnersKeyOnTheOrderedPair) {
  // Repeats point at their first occurrence; (s, t) and (t, s) stay
  // distinct keys (the bidirectional cut's tie-breaking is
  // orientation-sensitive), and the distance plays no part in the key.
  const std::vector<DiameterPair> pairs = {
      {3, 7, 4}, {7, 3, 4}, {3, 7, 4}, {1, 2, 9}, {7, 3, 4}, {3, 7, 5}};
  const std::vector<std::size_t> owner = memo_owners(pairs);
  EXPECT_EQ(owner, (std::vector<std::size_t>{0, 1, 0, 3, 1, 0}));
  EXPECT_TRUE(memo_owners({}).empty());
}

TEST(Algorithm1, SingleNetCaseCountsOneStart) {
  // G has one vertex: every start is the same, so the lone net goes to
  // one side and the rest of the modules to the other (cut 0).
  HypergraphBuilder b;
  b.add_vertices(5);
  b.add_edge({0, 1, 2});
  const Hypergraph h = std::move(b).build();
  const Algorithm1Context ctx(h, {});
  ASSERT_FALSE(ctx.is_degenerate());
  ASSERT_EQ(ctx.intersection().num_vertices(), 1U);
  const Algorithm1Result single = ctx.run_single_net();
  EXPECT_EQ(single.metrics.cut_edges, 0U);
  EXPECT_EQ(single.starts_run, 1);
  Algorithm1Context::StartScratch scratch;
  EXPECT_EQ(ctx.run_single(0, scratch).sides, single.sides);
  EXPECT_EQ(algorithm1(h).sides, single.sides);
}

TEST(Algorithm1, DiagnosticsPopulated) {
  const Hypergraph h = test::two_cluster_hypergraph(10, 2);
  const Algorithm1Result r = algorithm1(h);
  EXPECT_GT(r.starts_run, 0);
  EXPECT_GT(r.pseudo_diameter, 0U);
  EXPECT_GT(r.boundary_size, 0U);
  EXPECT_EQ(r.winner_count + r.loser_count, r.boundary_size);
}

}  // namespace
}  // namespace fhp
