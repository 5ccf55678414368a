#include "baselines/fm.hpp"

#include <gtest/gtest.h>

#include "baselines/random_cut.hpp"
#include "gen/circuit.hpp"
#include "test_helpers.hpp"

namespace fhp {
namespace {

TEST(Fm, SolvesTwoClusters) {
  const Hypergraph h = test::two_cluster_hypergraph(8, 2);
  const BaselineResult r = fiduccia_mattheyses(h);
  EXPECT_EQ(r.metrics.cut_edges, 2U);
  EXPECT_TRUE(r.metrics.proper);
}

TEST(Fm, NeverWorseThanItsStart) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Hypergraph h =
        generate_circuit(table2_params(100, 180, Technology::kPcb), seed);
    const BaselineResult start = random_bisection(h, seed);
    FmOptions options;
    options.seed = seed;
    options.initial = start.sides;
    const BaselineResult r = fiduccia_mattheyses(h, options);
    EXPECT_LE(r.metrics.cut_weight, start.metrics.cut_weight)
        << "seed " << seed;
  }
}

TEST(Fm, RespectsBalanceTolerance) {
  const Hypergraph h =
      generate_circuit(table2_params(120, 200, Technology::kGateArray), 3);
  FmOptions options;
  options.max_weight_imbalance = 4;
  const BaselineResult r = fiduccia_mattheyses(h, options);
  EXPECT_LE(r.metrics.weight_imbalance, 4);
}

TEST(Fm, AcceptsInitialPartition) {
  const Hypergraph h = test::path_hypergraph(12);
  std::vector<std::uint8_t> initial(12, 0);
  for (VertexId v = 6; v < 12; ++v) initial[v] = 1;
  FmOptions options;
  options.initial = initial;
  const BaselineResult r = fiduccia_mattheyses(h, options);
  // The chain's optimal contiguous split is already optimal: cut 1.
  EXPECT_EQ(r.metrics.cut_edges, 1U);
}

TEST(Fm, RejectsBadInitial) {
  const Hypergraph h = test::path_hypergraph(4);
  FmOptions options;
  options.initial = std::vector<std::uint8_t>{0, 1};
  EXPECT_THROW((void)fiduccia_mattheyses(h, options), PreconditionError);
}

TEST(Fm, ImprovesRandomStartOnPath) {
  const Hypergraph h = test::path_hypergraph(40);
  FmOptions options;
  options.seed = 11;
  const BaselineResult r = fiduccia_mattheyses(h, options);
  // Random bisections of a chain cut ~half the nets; FM should get far
  // below that even if not always to the optimum of 1.
  EXPECT_LT(r.metrics.cut_edges, 8U);
}

TEST(Fm, DeterministicPerSeed) {
  const Hypergraph h =
      generate_circuit(table2_params(80, 150, Technology::kStandardCell), 5);
  FmOptions options;
  options.seed = 42;
  const BaselineResult a = fiduccia_mattheyses(h, options);
  const BaselineResult b = fiduccia_mattheyses(h, options);
  EXPECT_EQ(a.sides, b.sides);
}

TEST(Fm, HandlesWeightedNets) {
  HypergraphBuilder b;
  b.add_vertices(4);
  b.add_edge({0, 1}, 10);
  b.add_edge({1, 2}, 1);
  b.add_edge({2, 3}, 10);
  const Hypergraph h = std::move(b).build();
  FmOptions options;
  options.seed = 2;
  const BaselineResult r = fiduccia_mattheyses(h, options);
  // Optimal: cut the cheap middle net only.
  EXPECT_EQ(r.metrics.cut_weight, 1);
}

TEST(Fm, FixedModulesNeverMove) {
  const Hypergraph h =
      generate_circuit(table2_params(80, 140, Technology::kPcb), 8);
  std::vector<std::uint8_t> initial(h.num_vertices(), 0);
  for (VertexId v = h.num_vertices() / 2; v < h.num_vertices(); ++v) {
    initial[v] = 1;
  }
  std::vector<std::uint8_t> fixed(h.num_vertices(), 0);
  fixed[0] = 1;
  fixed[h.num_vertices() - 1] = 1;
  FmCore fm(h, initial);
  fm.run(0, FmOptions{}.max_passes, fixed);
  EXPECT_EQ(fm.partition().side(0), initial[0]);
  EXPECT_EQ(fm.partition().side(h.num_vertices() - 1),
            initial[h.num_vertices() - 1]);
}

TEST(Fm, AllFixedIsIdentity) {
  const Hypergraph h = test::path_hypergraph(8);
  std::vector<std::uint8_t> initial{0, 1, 0, 1, 0, 1, 0, 1};
  FmCore fm(h, initial);
  EXPECT_EQ(fm.run(0, FmOptions{}.max_passes,
                   std::vector<std::uint8_t>(8, 1)),
            0);
  EXPECT_EQ(fm.partition().sides(), initial);
}

TEST(Fm, FixedMaskSizeChecked) {
  const Hypergraph h = test::path_hypergraph(4);
  FmCore fm(h, random_bisection(h, 1).sides);
  EXPECT_THROW(fm.run(0, 1, std::vector<std::uint8_t>{1}), PreconditionError);
  // The core checks its sides the way Bipartition does.
  EXPECT_THROW(FmCore(h, {0, 1}), PreconditionError);
  EXPECT_THROW(FmCore(h, {0, 1, 7, 0}), PreconditionError);
}

TEST(Fm, ReportsPassCount) {
  const Hypergraph h = test::two_cluster_hypergraph(6, 1);
  const BaselineResult r = fiduccia_mattheyses(h);
  EXPECT_GE(r.iterations, 1);
  EXPECT_LE(r.iterations, 32);
}

}  // namespace
}  // namespace fhp
