/// \file test_flow_refine.cpp
/// The corridor flow refiner (src/multilevel/flow_refine.*): gadget
/// exactness against brute force, the never-worsens refiner contract over
/// a fuzz zoo, typed capacity-overflow failures, engine/flat wiring, and
/// the FlowRefineIdentity determinism matrix (threads {1, 2, 8}) the TSAN
/// job runs.
#include "multilevel/flow_refine.hpp"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/circuit.hpp"
#include "gen/grid.hpp"
#include "gen/planted.hpp"
#include "gen/random_hypergraph.hpp"
#include "graph/maxflow.hpp"
#include "multilevel/engine.hpp"
#include "partition/partition.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "validate/audit.hpp"

namespace fhp {
namespace {

Weight weighted_cut(const Hypergraph& h,
                    const std::vector<std::uint8_t>& sides) {
  Weight cut = 0;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    bool on[2] = {false, false};
    for (VertexId v : h.pins(e)) on[sides[v]] = true;
    if (on[0] && on[1]) cut += h.edge_weight(e);
  }
  return cut;
}

Weight imbalance_of(const Hypergraph& h,
                    const std::vector<std::uint8_t>& sides) {
  Weight w0 = 0;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (sides[v] == 0) w0 += h.vertex_weight(v);
  }
  const Weight w1 = h.total_vertex_weight() - w0;
  return w0 > w1 ? w0 - w1 : w1 - w0;
}

/// Minimum cut weight over every reassignment of the corridor vertices
/// (exterior vertices stay put) — the quantity solve_corridor promises to
/// reach exactly. Exponential in the corridor size; keep it <= ~16.
Weight brute_force_corridor_min_cut(
    const Hypergraph& h, const std::vector<std::uint8_t>& sides,
    const std::vector<std::uint8_t>& in_corridor) {
  std::vector<VertexId> movable;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (in_corridor[v] != 0) movable.push_back(v);
  }
  std::vector<std::uint8_t> trial = sides;
  Weight best = std::numeric_limits<Weight>::max();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << movable.size());
       ++mask) {
    for (std::size_t i = 0; i < movable.size(); ++i) {
      trial[movable[i]] = static_cast<std::uint8_t>((mask >> i) & 1);
    }
    best = std::min(best, weighted_cut(h, trial));
  }
  return best;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t b : v) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

Hypergraph golden_instance(const std::string& name) {
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
  EXPECT_EQ(name, "grid9x9");
  return grid_circuit({9, 9, 0.3, false}, 3);
}

const char* const kGoldenInstances[] = {"circuit150", "planted120", "grid9x9"};

// ---------------------------------------------------------------------------
// solve_corridor: gadget exactness

TEST(SolveCorridor, RecoversThePathMinCut) {
  // Alternating sides on a 6-chain cut every net; with the endpoints as
  // anchors the corridor min cut is a single net.
  const Hypergraph h = test::path_hypergraph(6);
  const std::vector<std::uint8_t> sides = {0, 1, 0, 1, 0, 1};
  std::vector<std::uint8_t> in_corridor = {0, 1, 1, 1, 1, 0};
  const ml::CorridorSolve solve = ml::solve_corridor(h, sides, in_corridor);
  ASSERT_TRUE(solve.solved);
  EXPECT_EQ(solve.cut_weight, 1);
  EXPECT_EQ(solve.cut_weight, weighted_cut(h, solve.sides));
  EXPECT_EQ(solve.flow_value, 1);
  // Exterior vertices never move.
  EXPECT_EQ(solve.sides[0], 0);
  EXPECT_EQ(solve.sides[5], 1);
  EXPECT_GT(solve.gadget_arcs, 0U);
}

TEST(SolveCorridor, MatchesBruteForceOnHandInstances) {
  // Figure 4 with two modules flipped away from the optimum; the corridor
  // covers everything except one anchor per side, so the solve must land
  // exactly on the constrained brute-force optimum.
  const Hypergraph h = test::figure4_hypergraph();
  std::vector<std::uint8_t> sides = test::figure4_expected_sides();
  sides[2] = 1 - sides[2];
  sides[6] = 1 - sides[6];
  std::vector<std::uint8_t> in_corridor(h.num_vertices(), 1);
  in_corridor[0] = 0;  // side-0 anchor
  in_corridor[4] = 0;  // side-1 anchor
  ASSERT_EQ(sides[0], 0);
  ASSERT_EQ(sides[4], 1);
  const ml::CorridorSolve solve = ml::solve_corridor(h, sides, in_corridor);
  ASSERT_TRUE(solve.solved);
  EXPECT_EQ(solve.cut_weight, weighted_cut(h, solve.sides));
  EXPECT_EQ(solve.cut_weight,
            brute_force_corridor_min_cut(h, sides, in_corridor));
  EXPECT_EQ(solve.sides[0], 0);
  EXPECT_EQ(solve.sides[4], 1);
}

TEST(SolveCorridor, MatchesBruteForceOnWeightedNets) {
  // Weighted chain 0-1-2-3-4: the cheapest net is in the middle, so the
  // min cut must pick it over the boundary-adjacent heavy nets.
  HypergraphBuilder b;
  b.add_vertices(5);
  b.add_edge({0, 1}, 7);
  b.add_edge({1, 2}, 5);
  b.add_edge({2, 3}, 2);
  b.add_edge({3, 4}, 9);
  const Hypergraph h = std::move(b).build();
  const std::vector<std::uint8_t> sides = {0, 1, 0, 1, 1};
  const std::vector<std::uint8_t> in_corridor = {0, 1, 1, 1, 0};
  const ml::CorridorSolve solve = ml::solve_corridor(h, sides, in_corridor);
  ASSERT_TRUE(solve.solved);
  EXPECT_EQ(solve.cut_weight, 2);
  EXPECT_EQ(solve.cut_weight,
            brute_force_corridor_min_cut(h, sides, in_corridor));
  EXPECT_EQ(solve.cut_weight, weighted_cut(h, solve.sides));
}

TEST(SolveCorridor, MatchesBruteForceOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed);
    RandomHypergraphParams params;
    params.num_vertices = static_cast<VertexId>(6 + rng.next_below(5));
    params.num_edges = static_cast<EdgeId>(8 + rng.next_below(12));
    params.max_edge_size = 4;
    const Hypergraph h = random_hypergraph(params, rng());
    const VertexId n = h.num_vertices();
    std::vector<std::uint8_t> sides(n);
    for (VertexId v = 0; v < n; ++v) sides[v] = rng.next_bool(0.5) ? 1 : 0;
    // Random corridor, then force one exterior anchor per side so the
    // solve is never degenerate.
    std::vector<std::uint8_t> in_corridor(n);
    for (VertexId v = 0; v < n; ++v) {
      in_corridor[v] = rng.next_bool(0.6) ? 1 : 0;
    }
    VertexId anchor0 = kInvalidVertex;
    VertexId anchor1 = kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      if (sides[v] == 0 && anchor0 == kInvalidVertex) anchor0 = v;
      if (sides[v] == 1 && anchor1 == kInvalidVertex) anchor1 = v;
    }
    if (anchor0 == kInvalidVertex || anchor1 == kInvalidVertex) continue;
    in_corridor[anchor0] = 0;
    in_corridor[anchor1] = 0;
    const ml::CorridorSolve solve = ml::solve_corridor(h, sides, in_corridor);
    if (!solve.solved) {
      EXPECT_EQ(solve.sides, sides) << "seed " << seed;
      continue;
    }
    EXPECT_EQ(solve.cut_weight, weighted_cut(h, solve.sides))
        << "seed " << seed;
    EXPECT_EQ(solve.cut_weight,
              brute_force_corridor_min_cut(h, sides, in_corridor))
        << "seed " << seed;
    for (VertexId v = 0; v < n; ++v) {
      if (in_corridor[v] == 0) {
        ASSERT_EQ(solve.sides[v], sides[v]) << "seed " << seed;
      }
    }
  }
}

TEST(SolveCorridor, DegenerateCorridorsReturnUnsolved) {
  const Hypergraph h = test::path_hypergraph(4);
  const std::vector<std::uint8_t> sides = {0, 0, 1, 1};
  // Empty corridor: nothing to move.
  EXPECT_FALSE(ml::solve_corridor(h, sides, {0, 0, 0, 0}).solved);
  // Whole instance in the corridor: a side has no anchor left.
  EXPECT_FALSE(ml::solve_corridor(h, sides, {1, 1, 1, 1}).solved);
  // One side fully absorbed: its terminal has no module behind it.
  EXPECT_FALSE(ml::solve_corridor(h, sides, {1, 1, 0, 0}).solved);
  // Unsolved solves leave the assignment untouched.
  const ml::CorridorSolve solve = ml::solve_corridor(h, sides, {1, 1, 1, 1});
  EXPECT_EQ(solve.sides, sides);
}

TEST(SolveCorridor, DeepChainGadgetDoesNotOverflowTheStack) {
  // A 50,000-module two-pin chain with every module but the two end
  // anchors in the corridor: the gadget is ~150,000 levels deep, more
  // than a solver recursing once per level has stack for.
  constexpr VertexId kModules = 50'000;
  const Hypergraph h = test::path_hypergraph(kModules);
  std::vector<std::uint8_t> sides(kModules, 0);
  for (VertexId v = kModules / 2; v < kModules; ++v) sides[v] = 1;
  std::vector<std::uint8_t> in_corridor(kModules, 1);
  in_corridor.front() = 0;
  in_corridor.back() = 0;
  const ml::CorridorSolve solve = ml::solve_corridor(h, sides, in_corridor);
  ASSERT_TRUE(solve.solved);
  EXPECT_EQ(solve.flow_value, 1);
  EXPECT_EQ(solve.cut_weight, 1);
  // The minimal minimum cut keeps only the side-0 anchor on the source
  // side: the chain's first net is cut.
  std::vector<std::uint8_t> want(kModules, 1);
  want.front() = 0;
  EXPECT_EQ(solve.sides, want);
}

TEST(SolveCorridor, CapacityOverflowFailsTyped) {
  // One net's weight alone reaches kInfiniteCapacity: must throw, never
  // saturate past the uncuttable arcs.
  constexpr Weight kHalf = std::numeric_limits<Weight>::max() / 2;
  {
    HypergraphBuilder b;
    b.add_vertices(4);
    b.add_edge({1, 2}, kHalf);
    const Hypergraph h = std::move(b).build();
    const std::vector<std::uint8_t> sides = {0, 0, 1, 1};
    const std::vector<std::uint8_t> in_corridor = {0, 1, 1, 0};
    EXPECT_THROW((void)ml::solve_corridor(h, sides, in_corridor),
                 PreconditionError);
  }
  // Each net is individually fine but the running sum crosses the
  // capacity ceiling: the accumulation guard must fire.
  constexpr Weight kJustUnder = (FlowNetwork::kInfiniteCapacity / 2) + 1;
  {
    HypergraphBuilder b;
    b.add_vertices(4);
    b.add_edge({1, 2}, kJustUnder);
    b.add_edge({1, 2}, kJustUnder);
    const Hypergraph h = std::move(b).build();
    const std::vector<std::uint8_t> sides = {0, 0, 1, 1};
    const std::vector<std::uint8_t> in_corridor = {0, 1, 1, 0};
    EXPECT_THROW((void)ml::solve_corridor(h, sides, in_corridor),
                 PreconditionError);
  }
  // Two kHalf nets plus two unit nets: the total net weight leaves the
  // Weight range, so the hypergraph itself is rejected typed.
  {
    HypergraphBuilder b;
    b.add_vertices(6);
    b.add_edge({0, 1});
    b.add_edge({1, 2}, kHalf);
    b.add_edge({2, 3}, kHalf);
    b.add_edge({4, 5});
    EXPECT_THROW((void)std::move(b).build(), PreconditionError);
  }
  // Totals that fit, but the corridor's net weights sum to exactly the
  // uncuttable-arc capacity: the refiner propagates the typed failure
  // instead of adopting a silently-wrong candidate.
  constexpr Weight kHalfCapacity = FlowNetwork::kInfiniteCapacity / 2;
  {
    HypergraphBuilder b;
    b.add_vertices(6);
    b.add_edge({0, 1});
    b.add_edge({1, 2}, kHalfCapacity);
    b.add_edge({2, 3}, kHalfCapacity);
    b.add_edge({4, 5});
    const Hypergraph h = std::move(b).build();
    std::vector<std::uint8_t> sides = {0, 0, 1, 1, 0, 1};
    ml::FlowRefiner refiner;
    EXPECT_THROW((void)refiner.refine(h, sides, 1), PreconditionError);
  }
}

// ---------------------------------------------------------------------------
// Pinned answers. Sides hash, cut and refinement gain of the golden
// instances under corridor flow, on the flat post-pass and on the V-cycle,
// captured before the max-flow solver was replaced. Every maximum flow
// leaves the same minimal minimum cut, so no max-flow algorithm may move
// these; a change to the corridor, the gadget or the round loop that does
// must re-pin them and say why.

struct FlowPin {
  const char* instance;
  ml::EngineChoice engine;
  ml::RefinerChoice refiner;
  std::uint64_t sides_hash;
  Weight cut;
  Weight refine_improvement;
};

constexpr ml::EngineChoice kFlat = ml::EngineChoice::kFlat;
constexpr ml::EngineChoice kVCycle = ml::EngineChoice::kMultilevel;
constexpr ml::RefinerChoice kFlow = ml::RefinerChoice::kFlow;
constexpr ml::RefinerChoice kFlowFm = ml::RefinerChoice::kFlowFm;

constexpr FlowPin kFlowPins[] = {
    {"circuit150", kFlat, kFlow, 0xf0cb219360bc38e5ULL, 15, 9},
    {"circuit150", kFlat, kFlowFm, 0x69602f46887865b6ULL, 15, 9},
    {"circuit150", kVCycle, kFlow, 0x270da3d57926fcabULL, 11, 6},
    {"circuit150", kVCycle, kFlowFm, 0xb0f10be5274fcea1ULL, 11, 6},
    {"planted120", kFlat, kFlow, 0x3226c69b1dffb955ULL, 4, 0},
    {"planted120", kFlat, kFlowFm, 0x3226c69b1dffb955ULL, 4, 0},
    {"planted120", kVCycle, kFlow, 0xe6b72110efabb26dULL, 4, 2},
    {"planted120", kVCycle, kFlowFm, 0x81e0accc7fe42c89ULL, 4, 2},
    {"grid9x9", kFlat, kFlow, 0x3c5798afca63ef77ULL, 12, 6},
    {"grid9x9", kFlat, kFlowFm, 0xf34f016a25924ceeULL, 11, 7},
    {"grid9x9", kVCycle, kFlow, 0xf154925e0780f62bULL, 10, 5},
    {"grid9x9", kVCycle, kFlowFm, 0x3d2c044d9cf6490aULL, 10, 5},
};

TEST(FlowAnswerPins, GoldenInstancesKeepTheirAnswers) {
  for (const FlowPin& pin : kFlowPins) {
    ml::PartitionPlan plan;
    plan.engine = pin.engine;
    plan.refiner = pin.refiner;
    plan.coarsening.coarsest_size = 30;
    plan.coarse_num_starts = 8;
    plan.algorithm1.seed = 11;
    const ml::EngineResult r =
        ml::partition_auto(golden_instance(pin.instance), plan);
    EXPECT_EQ(r.engine_used, pin.engine);
    EXPECT_EQ(fnv1a(r.sides), pin.sides_hash)
        << pin.instance << " " << ml::to_string(pin.engine) << " "
        << ml::to_string(pin.refiner) << ": {0x" << std::hex
        << fnv1a(r.sides) << std::dec << "ULL, " << r.metrics.cut_weight
        << ", " << r.refine_improvement << "}";
    EXPECT_EQ(r.metrics.cut_weight, pin.cut) << pin.instance;
    EXPECT_EQ(r.refine_improvement, pin.refine_improvement) << pin.instance;
  }
}

// ---------------------------------------------------------------------------
// FlowRefiner: the refiner contract

TEST(FlowRefine, RepairsAnAlternatingPathToTheOptimum) {
  const Hypergraph h = test::path_hypergraph(16);
  std::vector<std::uint8_t> sides(16);
  for (VertexId v = 0; v < 16; ++v) sides[v] = v & 1U;
  ASSERT_EQ(weighted_cut(h, sides), 15);
  ml::FlowRefiner refiner;
  const Weight improvement = refiner.refine(h, sides, 3);
  EXPECT_EQ(improvement, 14);
  EXPECT_EQ(weighted_cut(h, sides), 1);
  // Adoption respected the balance allowance (tolerance 0.10 of 16).
  EXPECT_LE(imbalance_of(h, sides), 2);
}

TEST(FlowRefine, ImprovesAWorstCaseTwoClusterStart) {
  const Hypergraph h = test::two_cluster_hypergraph(12, 2);
  std::vector<std::uint8_t> sides(h.num_vertices());
  for (std::size_t v = 0; v < sides.size(); ++v) {
    sides[v] = static_cast<std::uint8_t>(v & 1U);
  }
  const Weight before = weighted_cut(h, sides);
  ml::FlowRefiner refiner;
  const Weight improvement = refiner.refine(h, sides, 9);
  const Weight after = weighted_cut(h, sides);
  EXPECT_EQ(improvement, before - after);
  EXPECT_LT(after, before);
  EXPECT_TRUE(validate::audit_partition(h, sides).ok());
}

TEST(FlowRefine, NeverWorsensOverTheFuzzZoo) {
  // 50 instances x random starts: cut never grows, the returned
  // improvement is exactly the cut delta, the partition stays legal, and
  // the balance never leaves the refiner's allowance.
  int refined = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 977 + 11);
    Hypergraph h = [&]() {
      switch (seed % 3) {
        case 0: {
          PlantedParams p;
          p.num_vertices = static_cast<VertexId>(12 + rng.next_below(40));
          p.num_edges = static_cast<EdgeId>(20 + rng.next_below(60));
          p.planted_cut = static_cast<EdgeId>(rng.next_below(4));
          p.max_edge_size = 3;
          return planted_instance(p, rng()).hypergraph;
        }
        case 1: {
          CircuitParams p;
          p.num_modules = static_cast<VertexId>(12 + rng.next_below(40));
          p.num_nets = static_cast<EdgeId>(p.num_modules + rng.next_below(30));
          p.max_net_size = 5;
          p.weight_geometric_p = rng.next_bool(0.5) ? 0.4 : 0.0;
          return generate_circuit(p, rng());
        }
        default: {
          RandomHypergraphParams p;
          p.num_vertices = static_cast<VertexId>(8 + rng.next_below(40));
          p.num_edges = static_cast<EdgeId>(10 + rng.next_below(50));
          p.max_edge_size = 4;
          return random_hypergraph(p, rng());
        }
      }
    }();
    std::vector<std::uint8_t> sides(h.num_vertices());
    for (auto& s : sides) s = rng.next_bool(0.5) ? 1 : 0;
    const Weight before = weighted_cut(h, sides);
    const Weight imbalance_before = imbalance_of(h, sides);
    ml::FlowRefinerOptions options;
    const auto tol_abs = std::max(
        Weight{2},
        static_cast<Weight>(options.balance_tolerance *
                            static_cast<double>(h.total_vertex_weight())));
    ml::FlowRefiner refiner(options);
    const Weight improvement = refiner.refine(h, sides, seed);
    const Weight after = weighted_cut(h, sides);
    ASSERT_GE(improvement, 0) << "seed " << seed;
    ASSERT_EQ(improvement, before - after) << "seed " << seed;
    ASSERT_LE(after, before) << "seed " << seed;
    ASSERT_TRUE(validate::audit_partition(h, sides).ok()) << "seed " << seed;
    ASSERT_LE(imbalance_of(h, sides), std::max(tol_abs, imbalance_before))
        << "seed " << seed;
    if (improvement > 0) ++refined;
  }
  // The zoo must actually exercise adoption, not just the no-op path.
  EXPECT_GT(refined, 10);
}

TEST(FlowRefine, TinyAndCutFreeInputsAreNoOps) {
  const Hypergraph tiny = test::path_hypergraph(3);
  std::vector<std::uint8_t> tiny_sides = {0, 1, 0};
  ml::FlowRefiner refiner;  // default min_vertices = 4
  EXPECT_EQ(refiner.refine(tiny, tiny_sides, 1), 0);
  EXPECT_EQ(tiny_sides, (std::vector<std::uint8_t>{0, 1, 0}));

  const Hypergraph h = test::path_hypergraph(8);
  std::vector<std::uint8_t> clean(8, 0);
  for (VertexId v = 4; v < 8; ++v) clean[v] = 1;
  ASSERT_EQ(weighted_cut(h, clean), 1);  // already optimal
  const std::vector<std::uint8_t> copy = clean;
  EXPECT_EQ(refiner.refine(h, clean, 1), 0);
  EXPECT_EQ(clean, copy);
}

TEST(FlowRefine, RejectsMalformedSides) {
  // Checked at entry, before any per-side state is indexed with them.
  const Hypergraph h = test::path_hypergraph(4);
  ml::FlowRefiner refiner;
  std::vector<std::uint8_t> too_short = {0, 1};
  EXPECT_THROW((void)refiner.refine(h, too_short, 1), PreconditionError);
  std::vector<std::uint8_t> bad_side = {0, 1, 7, 0};
  EXPECT_THROW((void)refiner.refine(h, bad_side, 1), PreconditionError);
}

// ---------------------------------------------------------------------------
// RefinerChoice plumbing

TEST(FlowRefine, RefinerChoiceNamesAreStable) {
  EXPECT_STREQ(ml::to_string(ml::RefinerChoice::kFm), "fm");
  EXPECT_STREQ(ml::to_string(ml::RefinerChoice::kFlow), "flow");
  EXPECT_STREQ(ml::to_string(ml::RefinerChoice::kFlowFm), "flow+fm");
}

TEST(FlowRefine, FlowFmComposesBothPasses) {
  // flow+fm on the flat path is Algorithm I, then corridor flow, then FM
  // polish, both refiners seeded with the plan's seed.
  const Hypergraph h = golden_instance("circuit150");
  ml::PartitionPlan plan;
  plan.engine = ml::EngineChoice::kFlat;
  plan.refiner = ml::RefinerChoice::kFlowFm;
  plan.algorithm1.seed = 2;
  const ml::EngineResult r = ml::partition_auto(h, plan);

  std::vector<std::uint8_t> sides = algorithm1(h, plan.algorithm1).sides;
  const Weight before = weighted_cut(h, sides);
  ml::FlowRefiner flow(plan.flow_refine);
  ml::FmRefiner fm(plan.refine);
  const Weight flow_gain = flow.refine(h, sides, plan.algorithm1.seed);
  const Weight fm_gain = fm.refine(h, sides, plan.algorithm1.seed);
  EXPECT_GT(flow_gain + fm_gain, 0);  // the post-pass did improve the cut
  EXPECT_EQ(r.sides, sides);
  EXPECT_EQ(r.initial_cut_weight, before);
  EXPECT_EQ(r.refine_improvement, flow_gain + fm_gain);
  EXPECT_EQ(weighted_cut(h, sides), before - flow_gain - fm_gain);
  EXPECT_TRUE(validate::audit_partition(h, sides).ok());
}

// ---------------------------------------------------------------------------
// Engine and flat-path wiring

TEST(FlowRefineEngine, EngineRunsWithEveryRefinerChoice) {
  const Hypergraph h = golden_instance("planted120");
  for (const ml::RefinerChoice choice :
       {ml::RefinerChoice::kFm, ml::RefinerChoice::kFlow,
        ml::RefinerChoice::kFlowFm}) {
    ml::PartitionPlan plan;
    plan.engine = ml::EngineChoice::kMultilevel;
    plan.coarsening.coarsest_size = 30;
    plan.refiner = choice;
    plan.algorithm1.seed = 3;
    const ml::EngineResult r = ml::partition_auto(h, plan);
    EXPECT_EQ(r.engine_used, ml::EngineChoice::kMultilevel);
    EXPECT_TRUE(r.metrics.proper) << ml::to_string(choice);
    EXPECT_GE(r.refine_improvement, 0) << ml::to_string(choice);
    EXPECT_LE(r.metrics.cut_weight, r.initial_cut_weight)
        << ml::to_string(choice);
    EXPECT_EQ(r.metrics.cut_edges, test::count_cut_edges(h, r.sides))
        << ml::to_string(choice);
  }
}

TEST(FlowRefineEngine, DeepChainThroughTheEngine) {
  // 200,000-module two-pin chain under corridor flow at every level: the
  // finest corridors are chains tens of thousands of modules long.
  const Hypergraph h = test::path_hypergraph(200'000);
  ml::PartitionPlan plan;
  plan.refiner = ml::RefinerChoice::kFlow;
  const ml::EngineResult r = ml::partition_auto(h, plan);
  EXPECT_EQ(r.engine_used, ml::EngineChoice::kMultilevel);
  EXPECT_TRUE(r.metrics.proper);
  EXPECT_EQ(r.metrics.cut_weight, 1);
}

TEST(FlowRefineEngine, FlatPostPassNeverWorsensTheFlatResult) {
  const Hypergraph h = golden_instance("circuit150");
  ml::PartitionPlan flat_only;
  flat_only.engine = ml::EngineChoice::kFlat;
  const ml::EngineResult baseline = ml::partition_auto(h, flat_only);
  for (const ml::RefinerChoice choice :
       {ml::RefinerChoice::kFlow, ml::RefinerChoice::kFlowFm}) {
    ml::PartitionPlan plan;
    plan.engine = ml::EngineChoice::kFlat;
    plan.refiner = choice;
    const ml::EngineResult r = ml::partition_auto(h, plan);
    EXPECT_EQ(r.engine_used, ml::EngineChoice::kFlat);
    EXPECT_LE(r.metrics.cut_weight, baseline.metrics.cut_weight)
        << ml::to_string(choice);
    EXPECT_EQ(r.metrics.cut_edges, test::count_cut_edges(h, r.sides))
        << ml::to_string(choice);
    EXPECT_TRUE(validate::audit_partition(h, r.sides).ok())
        << ml::to_string(choice);
  }
}

// ---------------------------------------------------------------------------
// Determinism: the engine's bit-identity contract with corridor flow
// refining every level (mirrors MultilevelEngineIdentity; the TSAN job
// runs this matrix).

class FlowRefineIdentity : public ::testing::TestWithParam<int> {};

TEST_P(FlowRefineIdentity, BitIdenticalAcrossThreads) {
  const int threads = GetParam();
  for (const char* name : kGoldenInstances) {
    const Hypergraph h = golden_instance(name);
    ml::PartitionPlan plan;
    plan.engine = ml::EngineChoice::kMultilevel;
    plan.coarsening.coarsest_size = 30;
    plan.coarse_num_starts = 8;
    plan.refiner = ml::RefinerChoice::kFlowFm;
    plan.algorithm1.seed = 11;
    plan.algorithm1.threads = 1;
    const std::uint64_t reference = fnv1a(ml::partition_auto(h, plan).sides);
    plan.algorithm1.threads = threads;
    EXPECT_EQ(fnv1a(ml::partition_auto(h, plan).sides), reference)
        << name << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, FlowRefineIdentity,
                         ::testing::Values(1, 2, 8));

TEST(FlowRefineIdentitySerial, RepeatedRefinesAreAPureFunction) {
  // Same hypergraph, same start: two refines through one FlowRefiner (the
  // workspace is reused) and through a fresh one must agree bit for bit.
  const Hypergraph h = golden_instance("grid9x9");
  std::vector<std::uint8_t> start(h.num_vertices());
  Rng rng(5);
  for (auto& s : start) s = rng.next_bool(0.5) ? 1 : 0;
  ml::FlowRefiner reused;
  std::vector<std::uint8_t> a = start;
  const Weight first = reused.refine(h, a, 1);
  std::vector<std::uint8_t> b = start;
  const Weight second = reused.refine(h, b, 1);
  ml::FlowRefiner fresh;
  std::vector<std::uint8_t> c = start;
  const Weight third = fresh.refine(h, c, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, third);
}

}  // namespace
}  // namespace fhp
