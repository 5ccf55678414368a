#include "baselines/flow.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/exact.hpp"
#include "gen/circuit.hpp"
#include "gen/grid.hpp"
#include "gen/planted.hpp"
#include "test_helpers.hpp"

namespace fhp {
namespace {

TEST(FlowBaseline, SolvesTwoClusters) {
  const Hypergraph h = test::two_cluster_hypergraph(8, 2);
  const BaselineResult r = flow_bipartition(h);
  EXPECT_EQ(r.metrics.cut_edges, 2U);
  EXPECT_TRUE(r.metrics.proper);
}

TEST(FlowBaseline, ChainMinCutIsOne) {
  const Hypergraph h = test::path_hypergraph(30);
  const BaselineResult r = flow_bipartition(h);
  EXPECT_EQ(r.metrics.cut_edges, 1U);
}

TEST(FlowBaseline, PerPairOptimalityOnSmallInstances) {
  // A flow cut can never beat the unconstrained exact optimum, and for a
  // far-apart pair on these instances it should reach it.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Hypergraph h =
        generate_circuit(table2_params(18, 26, Technology::kPcb), seed);
    FlowOptions options;
    options.seed = seed;
    options.pairs = 6;
    options.balance_fraction = 1.0;  // accept any proper cut
    const BaselineResult flow = flow_bipartition(h, options);
    const BaselineResult exact = exact_bipartition(h);
    EXPECT_GE(flow.metrics.cut_weight, exact.metrics.cut_weight);
    EXPECT_LE(flow.metrics.cut_weight, exact.metrics.cut_weight + 2)
        << "seed " << seed;
  }
}

TEST(FlowBaseline, RespectsBalancePreference) {
  // Dumbbell with a cheap pendant: the globally minimum cut slices off
  // one module; with a balance tolerance the flow partitioner must prefer
  // the 2-net bridge cut between the clusters.
  const Hypergraph h = test::two_cluster_hypergraph(6, 2);
  FlowOptions options;
  options.balance_fraction = 0.34;
  options.pairs = 10;
  const BaselineResult r = flow_bipartition(h, options);
  EXPECT_LE(r.metrics.cardinality_imbalance, 4U);
}

TEST(FlowBaseline, WeightedNetsRespected) {
  HypergraphBuilder b;
  b.add_vertices(4);
  b.add_edge({0, 1}, 10);
  b.add_edge({1, 2}, 1);
  b.add_edge({2, 3}, 10);
  const Hypergraph h = std::move(b).build();
  FlowOptions options;
  options.balance_fraction = 1.0;
  const BaselineResult r = flow_bipartition(h, options);
  EXPECT_EQ(r.metrics.cut_weight, 1);
}

TEST(FlowBaseline, HandlesIsolatedModules) {
  HypergraphBuilder b;
  b.add_vertices(6);
  b.add_edge({0, 1});
  b.add_edge({1, 2});
  const Hypergraph h = std::move(b).build();
  const BaselineResult r = flow_bipartition(h);
  EXPECT_TRUE(r.metrics.proper);
}

TEST(FlowBaseline, DeterministicPerSeed) {
  const Hypergraph h =
      generate_circuit(table2_params(60, 110, Technology::kHybrid), 4);
  FlowOptions options;
  options.seed = 9;
  EXPECT_EQ(flow_bipartition(h, options).sides,
            flow_bipartition(h, options).sides);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t b : v) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

Hypergraph pinned_instance(const std::string& name) {
  if (name == "circuit150") {
    return generate_circuit(table2_params(150, 260, Technology::kStandardCell),
                            7);
  }
  if (name == "planted120") {
    PlantedParams p;
    p.num_vertices = 120;
    p.num_edges = 200;
    p.planted_cut = 4;
    p.min_edge_size = 2;
    p.max_edge_size = 2;
    p.max_degree = 0;
    return planted_instance(p, 5).hypergraph;
  }
  if (name == "grid9x9") return grid_circuit({9, 9, 0.3, false}, 3);
  EXPECT_EQ(name, "weighted90");
  CircuitParams p;
  p.num_modules = 90;
  p.num_nets = 150;
  p.weight_geometric_p = 0.4;
  return generate_circuit(p, 13);
}

/// Sides hash and cut of flow_bipartition, captured before the max-flow
/// solver was replaced. Every maximum flow leaves the same minimal minimum
/// cut, so no max-flow algorithm may move these.
struct FbbPin {
  const char* instance;
  int pairs;
  double balance_fraction;
  std::uint64_t sides_hash;
  Weight cut;
};

constexpr FbbPin kFbbPins[] = {
    {"circuit150", 8, 0.5, 0xe06bd5ed746ae53cULL, 6},
    {"circuit150", 3, 0.2, 0x3534d769c376147cULL, 11},
    {"planted120", 8, 0.5, 0xe6b72110efabb26dULL, 4},
    {"grid9x9", 8, 0.5, 0xbe1cd906d821dd28ULL, 10},
    {"weighted90", 8, 0.5, 0xa55445b282d3c7b7ULL, 6},
    {"weighted90", 4, 1.0, 0x45f2cbd3cff7a5c5ULL, 1},
};

TEST(FlowBaseline, PinnedAnswers) {
  for (const FbbPin& pin : kFbbPins) {
    FlowOptions options;
    options.pairs = pin.pairs;
    options.balance_fraction = pin.balance_fraction;
    const BaselineResult r =
        flow_bipartition(pinned_instance(pin.instance), options);
    EXPECT_EQ(fnv1a(r.sides), pin.sides_hash)
        << pin.instance << " pairs " << pin.pairs << ": {0x" << std::hex
        << fnv1a(r.sides) << std::dec << "ULL, " << r.metrics.cut_weight
        << "}";
    EXPECT_EQ(r.metrics.cut_weight, pin.cut) << pin.instance;
  }
}

TEST(FlowBaseline, DeepChainDoesNotOverflowTheStack) {
  // One terminal pair at the ends of a 50,000-module chain: the gadget is
  // a path ~150,000 nodes long.
  const Hypergraph h = test::path_hypergraph(50'000);
  FlowOptions options;
  options.pairs = 1;
  options.balance_fraction = 1.0;
  const BaselineResult r = flow_bipartition(h, options);
  EXPECT_TRUE(r.metrics.proper);
  EXPECT_EQ(r.metrics.cut_weight, 1);
}

TEST(FlowBaseline, NetWeightsSummingPastTheCapacityFailTyped) {
  // Each net is below the uncuttable capacity; together they pass it.
  constexpr Weight kHeavy = (Weight{1} << 59) + 1;
  HypergraphBuilder b;
  b.add_vertices(4);
  b.add_edge({0, 1}, kHeavy);
  b.add_edge({1, 2}, kHeavy);
  b.add_edge({2, 3}, 1);
  const Hypergraph h = std::move(b).build();
  EXPECT_THROW((void)flow_bipartition(h), PreconditionError);
}

TEST(FlowBaseline, Preconditions) {
  HypergraphBuilder b;
  b.add_vertex();
  const Hypergraph one = std::move(b).build();
  EXPECT_THROW((void)flow_bipartition(one), PreconditionError);
  const Hypergraph h = test::path_hypergraph(4);
  FlowOptions options;
  options.pairs = 0;
  EXPECT_THROW((void)flow_bipartition(h, options), PreconditionError);
}

}  // namespace
}  // namespace fhp
