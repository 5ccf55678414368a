#include "multilevel/engine.hpp"

#include <memory>
#include <utility>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace fhp::ml {

namespace {

/// The plan's refinement, built once per partition_auto() call and shared
/// by the flat post-pass and every V-cycle level, so the flow refiner's
/// corridor workspace warms up once per call.
class PlanRefiner {
 public:
  explicit PlanRefiner(const PartitionPlan& plan)
      : choice_(plan.refiner), flow_(plan.flow_refine), fm_(plan.refine) {}

  /// Corridor flow, then FM polish, each as the choice asks and with the
  /// same seed; returns the cut weight removed (never negative).
  Weight refine(const Hypergraph& h, std::vector<std::uint8_t>& sides,
                std::uint64_t seed) {
    Weight gain = 0;
    if (choice_ != RefinerChoice::kFm) gain += flow_.refine(h, sides, seed);
    if (choice_ != RefinerChoice::kFlow) gain += fm_.refine(h, sides, seed);
    return gain;
  }

 private:
  RefinerChoice choice_;
  FlowRefiner flow_;
  FmRefiner fm_;
};

/// Flat Algorithm I on the whole hypergraph; any flow-involving refiner
/// adds one post-pass over its result — the cheap way to buy flow quality
/// without the V-cycle.
EngineResult flat_partition(const Hypergraph& h, const PartitionPlan& plan,
                            PlanRefiner& refiner) {
  Algorithm1Result flat = algorithm1(h, plan.algorithm1);
  EngineResult result;
  result.sides = std::move(flat.sides);
  result.metrics = flat.metrics;
  result.engine_used = EngineChoice::kFlat;
  result.coarsest_vertices = h.num_vertices();
  result.initial_cut_weight = flat.metrics.cut_weight;
  if (plan.refiner != RefinerChoice::kFm && h.num_vertices() >= 2) {
    FHP_HIST_SCOPE_US("alg1/flow_refine_us");
    result.refine_improvement =
        refiner.refine(h, result.sides, plan.algorithm1.seed);
    if (result.refine_improvement > 0) {
      result.metrics = compute_metrics(Bipartition(h, result.sides));
    }
  }
  return result;
}

/// The V-cycle: coarsen, run Algorithm I at the coarsest level with the
/// plan's coarse start budget, then project level by level and refine
/// each level in place.
EngineResult v_cycle(const Hypergraph& h, const PartitionPlan& plan,
                     PlanRefiner& refiner) {
  FHP_TRACE_SCOPE("multilevel_engine");
  FHP_COUNTER_ADD("ml/runs", 1);
  FHP_REQUIRE(h.num_vertices() >= 2, "need at least two modules");

  const int lanes = resolve_threads(plan.algorithm1.threads);
  std::unique_ptr<ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<ThreadPool>(lanes);

  // ---- Coarsening: build the hierarchy (parallel rating, serial
  // agglomeration; bit-identical at any lane count).
  Hierarchy hierarchy = build_hierarchy(h, plan.coarsening, pool.get());
  const Hypergraph& coarsest = hierarchy.coarsest();

  EngineResult result;
  result.engine_used = EngineChoice::kMultilevel;
  result.levels = static_cast<int>(hierarchy.num_levels());
  result.coarsest_vertices = coarsest.num_vertices();

  // ---- Initial partition: Algorithm I at the coarsest level (memoized,
  // reordered multi-start).
  std::vector<std::uint8_t> sides;
  {
    FHP_TRACE_SCOPE("ml_initial");
    Algorithm1Options initial = plan.algorithm1;
    initial.num_starts = plan.coarse_num_starts;
    initial.collect_trace = false;
    Algorithm1Result coarse = algorithm1(coarsest, initial);
    result.initial_cut_weight = coarse.metrics.cut_weight;
    sides = std::move(coarse.sides);
  }

  // ---- Uncoarsening: project level by level (allocation-free via the
  // hierarchy's reserved buffers) and refine each level in place. The
  // coarsest level is refined too — Algorithm I optimizes cutsize, FM can
  // still trade imbalance for cut within tolerance.
  {
    FHP_TRACE_SCOPE("ml_uncoarsen");
    // One reservation up front: the per-level assign() below then stays
    // within capacity, so the walk up the hierarchy never reallocates.
    sides.reserve(h.num_vertices());
    const Rng master(plan.algorithm1.seed);
    const std::size_t levels = hierarchy.num_levels();
    result.refine_improvement +=
        refiner.refine(coarsest, sides, master.fork(levels)());
    for (std::size_t i = levels; i-- > 0;) {
      const std::span<const std::uint8_t> projected =
          hierarchy.project(i, sides);
      sides.assign(projected.begin(), projected.end());
      result.refine_improvement +=
          refiner.refine(hierarchy.input_of(i), sides, master.fork(i)());
    }
  }
  FHP_COUNTER_ADD("ml/refine_improvement",
                  static_cast<long long>(result.refine_improvement));

  result.sides = std::move(sides);
  result.metrics = compute_metrics(Bipartition(h, result.sides));
  FHP_GAUGE_SET("engine/levels", static_cast<double>(result.levels));
  return result;
}

}  // namespace

const char* to_string(EngineChoice choice) noexcept {
  switch (choice) {
    case EngineChoice::kFlat:
      return "flat";
    case EngineChoice::kMultilevel:
      return "multilevel";
    case EngineChoice::kAuto:
      return "auto";
  }
  return "unknown";
}

const char* to_string(RefinerChoice choice) noexcept {
  switch (choice) {
    case RefinerChoice::kFm:
      return "fm";
    case RefinerChoice::kFlow:
      return "flow";
    case RefinerChoice::kFlowFm:
      return "flow+fm";
  }
  return "unknown";
}

EngineResult partition_auto(const Hypergraph& h, const PartitionPlan& plan) {
  const bool use_multilevel =
      plan.engine == EngineChoice::kMultilevel ||
      (plan.engine == EngineChoice::kAuto &&
       h.num_vertices() >= plan.multilevel_threshold);
  FHP_GAUGE_SET("engine/multilevel", use_multilevel ? 1.0 : 0.0);
  PlanRefiner refiner(plan);
  return use_multilevel ? v_cycle(h, plan, refiner)
                        : flat_partition(h, plan, refiner);
}

}  // namespace fhp::ml
