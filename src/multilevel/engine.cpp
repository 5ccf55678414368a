#include "multilevel/engine.hpp"

#include <memory>
#include <utility>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace fhp::ml {

MultilevelResult multilevel_partition(const Hypergraph& h,
                                      const EngineOptions& options,
                                      Refiner& refiner) {
  FHP_TRACE_SCOPE("multilevel_engine");
  FHP_COUNTER_ADD("ml/runs", 1);
  FHP_REQUIRE(h.num_vertices() >= 2, "need at least two modules");

  const int lanes = resolve_threads(options.threads);
  std::unique_ptr<ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<ThreadPool>(lanes);

  // ---- Coarsening: build the hierarchy (parallel rating, serial
  // agglomeration; bit-identical at any lane count).
  Hierarchy hierarchy = build_hierarchy(h, options.coarsening, pool.get());
  const Hypergraph& coarsest = hierarchy.coarsest();

  MultilevelResult result;
  result.levels = static_cast<int>(hierarchy.num_levels());
  result.coarsest_vertices = coarsest.num_vertices();

  // ---- Initial partition: Algorithm I at the coarsest level (memoized,
  // reordered multi-start).
  std::vector<std::uint8_t> sides;
  {
    FHP_TRACE_SCOPE("ml_initial");
    Algorithm1Options initial = options.initial;
    initial.seed = options.seed;
    initial.threads = options.threads;
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
    const Rng master(options.seed);
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
  return result;
}

MultilevelResult multilevel_partition(const Hypergraph& h,
                                      const EngineOptions& options) {
  const std::unique_ptr<Refiner> refiner =
      make_refiner(options.refiner, options.refine, options.flow_refine);
  return multilevel_partition(h, options, *refiner);
}

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

EngineResult partition_auto(const Hypergraph& h, const PartitionPlan& plan) {
  const bool use_multilevel =
      plan.engine == EngineChoice::kMultilevel ||
      (plan.engine == EngineChoice::kAuto &&
       h.num_vertices() >= plan.multilevel_threshold);
  FHP_GAUGE_SET("engine/multilevel", use_multilevel ? 1.0 : 0.0);
  EngineResult result;
  if (!use_multilevel) {
    Algorithm1Result flat = algorithm1(h, plan.algorithm1);
    result.sides = std::move(flat.sides);
    result.metrics = flat.metrics;
    result.engine_used = EngineChoice::kFlat;
    if (plan.refiner != RefinerChoice::kFm && h.num_vertices() >= 2) {
      // Flat-path flow post-pass: one corridor-flow refinement over the
      // Algorithm I result (plus FM polish under flow+fm) — the cheap way
      // to buy flow quality without the V-cycle.
      FHP_HIST_SCOPE_US("alg1/flow_refine_us");
      const std::unique_ptr<Refiner> post =
          make_refiner(plan.refiner, plan.refine, plan.flow_refine);
      if (post->refine(h, result.sides, plan.algorithm1.seed) > 0) {
        result.metrics = compute_metrics(Bipartition(h, result.sides));
      }
    }
    return result;
  }
  EngineOptions options;
  options.coarsening = plan.coarsening;
  options.initial = plan.algorithm1;
  options.initial.num_starts = plan.coarse_num_starts;
  options.refine = plan.refine;
  options.refiner = plan.refiner;
  options.flow_refine = plan.flow_refine;
  options.seed = plan.algorithm1.seed;
  options.threads = plan.algorithm1.threads;
  MultilevelResult ml = multilevel_partition(h, options);
  result.sides = std::move(ml.sides);
  result.metrics = ml.metrics;
  result.engine_used = EngineChoice::kMultilevel;
  result.levels = ml.levels;
  FHP_GAUGE_SET("engine/levels", static_cast<double>(ml.levels));
  return result;
}

}  // namespace fhp::ml
