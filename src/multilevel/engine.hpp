/// \file engine.hpp
/// The multilevel V-cycle engine: parallel heavy-edge coarsening →
/// Algorithm I at the coarsest level → uncoarsening with per-level
/// refinement (docs/multilevel.md).
///
/// This is the quality-and-scale path for large instances: the coarsest
/// hypergraph is small enough that Algorithm I's multi-start pipeline
/// (with memoization and reordering) is essentially free, and every
/// uncoarsening level only pays a projection (O(n), allocation-free) plus
/// a few FM passes. partition_auto() routes instances between this engine
/// and flat Algorithm I by size.
///
/// Determinism contract: the coarsener's rating loop is a deterministic
/// parallel map, Algorithm I is bit-identical at any thread count (PR 2),
/// and refinement is serial and seeded — so the engine's partition is
/// bit-identical at any `threads` setting (gated by bench_multilevel and
/// tests/test_multilevel_engine.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/algorithm1.hpp"
#include "multilevel/coarsen.hpp"
#include "multilevel/flow_refine.hpp"
#include "multilevel/refine.hpp"
#include "partition/metrics.hpp"

namespace fhp::ml {

/// Coarse-level Algorithm I defaults: a reduced multi-start budget.
/// Memoization collapses distinct starts onto few pseudo-diameter pairs,
/// so past ~12 starts the coarse partition is bit-for-bit the same as at
/// 50 while costing nearly half the engine's wall time (bench_multilevel
/// measured identical cuts at 12/25/50 starts on every gated instance).
[[nodiscard]] inline Algorithm1Options default_initial_options() {
  Algorithm1Options options;
  options.num_starts = 12;
  return options;
}

/// Tuning knobs of the multilevel engine.
struct EngineOptions {
  /// Coarsening-phase knobs.
  CoarseningOptions coarsening;
  /// Coarsest-level initial partitioner: Algorithm I with all its
  /// options (multi-start budget, completion, ...). Its `seed` and
  /// `threads` fields are overridden by the engine-level `seed` /
  /// `threads` below so one knob steers the run.
  Algorithm1Options initial = default_initial_options();
  /// Per-level FM refinement knobs (see FmRefiner).
  FmRefinerOptions refine;
  /// Which per-level refiner the default overload runs: boundary FM,
  /// corridor flow, or flow followed by FM polish (flow_refine.hpp).
  RefinerChoice refiner = RefinerChoice::kFm;
  /// Corridor-flow knobs (used when `refiner` involves flow).
  FlowRefinerOptions flow_refine;
  /// Master seed: the initial partitioner uses it directly; refinement
  /// seeds are forked per level (Rng::fork), so runs are reproducible.
  std::uint64_t seed = 1;
  /// Execution lanes for the coarsener's rating loop and the initial
  /// partitioner (1 = serial, 0 = FHP_THREADS). The partition is
  /// bit-identical at every setting.
  int threads = 0;
};

/// Output of the engine, with diagnostics for benches and the CLI.
struct MultilevelResult {
  std::vector<std::uint8_t> sides;  ///< side per module of the input
  PartitionMetrics metrics;         ///< scored on the original hypergraph
  int levels = 0;                   ///< hierarchy depth actually built
  VertexId coarsest_vertices = 0;   ///< vertex count Algorithm I saw
  Weight initial_cut_weight = 0;    ///< Algorithm I cut on the coarsest level
  Weight refine_improvement = 0;    ///< total cut weight removed by refinement
};

/// Runs the V-cycle with the refiner selected by options.refiner.
/// Requires >= 2 modules.
[[nodiscard]] MultilevelResult multilevel_partition(
    const Hypergraph& h, const EngineOptions& options = {});

/// Runs the V-cycle with a caller-supplied per-level refiner.
[[nodiscard]] MultilevelResult multilevel_partition(const Hypergraph& h,
                                                    const EngineOptions& options,
                                                    Refiner& refiner);

/// Which engine partitions an instance.
enum class EngineChoice {
  kFlat,        ///< flat Algorithm I on the whole hypergraph
  kMultilevel,  ///< the V-cycle engine
  kAuto,        ///< pick by instance size (multilevel_threshold)
};

/// Stable name for reports ("flat" / "multilevel" / "auto").
[[nodiscard]] const char* to_string(EngineChoice choice) noexcept;

/// Auto mode routes instances with at least this many modules to the
/// multilevel engine. Below it, flat Algorithm I is both faster and at
/// least as good (bench_multilevel; docs/multilevel.md discusses the
/// crossover).
inline constexpr VertexId kDefaultMultilevelThreshold = 2000;

/// One-stop partitioning request: engine selection plus the per-engine
/// configurations. `algorithm1` configures the flat path AND serves as
/// the coarsest-level initial partitioner of the multilevel path (its
/// seed/threads steer both engines).
struct PartitionPlan {
  EngineChoice engine = EngineChoice::kAuto;
  VertexId multilevel_threshold = kDefaultMultilevelThreshold;
  Algorithm1Options algorithm1;
  CoarseningOptions coarsening;
  FmRefinerOptions refine;
  /// Per-level refiner of the multilevel path. On the flat path any
  /// flow-involving choice adds one corridor-flow post-pass after
  /// Algorithm I (histogram alg1/flow_refine_us) — plus FM polish for
  /// kFlowFm — so `--refiner` upgrades both engines.
  RefinerChoice refiner = RefinerChoice::kFm;
  /// Corridor-flow knobs (used when `refiner` involves flow).
  FlowRefinerOptions flow_refine;
  /// Multi-start budget of the coarsest-level partitioner on the
  /// multilevel path (overrides algorithm1.num_starts there — see
  /// default_initial_options() for why 12 suffices). The flat path keeps
  /// algorithm1.num_starts untouched.
  int coarse_num_starts = 12;
};

/// Outcome of partition_auto(): the partition plus which engine ran.
struct EngineResult {
  std::vector<std::uint8_t> sides;
  PartitionMetrics metrics;
  EngineChoice engine_used = EngineChoice::kFlat;  ///< never kAuto
  int levels = 0;  ///< hierarchy depth (0 on the flat path)
};

/// The partition API: routes \p h to flat Algorithm I or the multilevel
/// engine per \p plan (kAuto picks by size), records the choice in the
/// obs layer (gauge engine/multilevel), and returns the partition with
/// the engine that produced it.
[[nodiscard]] EngineResult partition_auto(const Hypergraph& h,
                                          const PartitionPlan& plan = {});

}  // namespace fhp::ml
