/// \file engine.hpp
/// The partition API: partition_auto() routes an instance to flat
/// Algorithm I or to the multilevel V-cycle — parallel heavy-edge
/// coarsening → Algorithm I at the coarsest level → uncoarsening with
/// per-level refinement (docs/multilevel.md) — and says where the cut
/// came from.
///
/// The V-cycle is the quality-and-scale path for large instances: the
/// coarsest hypergraph is small enough that Algorithm I's multi-start
/// pipeline (with memoization and reordering) is essentially free, and
/// every uncoarsening level only pays a projection (O(n), allocation-free)
/// plus a few refinement passes.
///
/// Determinism contract: the coarsener's rating loop is a deterministic
/// parallel map, Algorithm I is bit-identical at any thread count, and
/// refinement is serial and seeded — so the partition is bit-identical at
/// any `threads` setting (gated by bench_multilevel and
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

/// Which engine partitions an instance.
enum class EngineChoice {
  kFlat,        ///< flat Algorithm I on the whole hypergraph
  kMultilevel,  ///< the V-cycle engine
  kAuto,        ///< pick by instance size (multilevel_threshold)
};

/// Stable name for reports ("flat" / "multilevel" / "auto").
[[nodiscard]] const char* to_string(EngineChoice choice) noexcept;

/// Which refinement runs after Algorithm I: per level on the multilevel
/// path, as one post-pass on the flat path.
enum class RefinerChoice {
  kFm,      ///< boundary FM (the fast default; no flat post-pass)
  kFlow,    ///< corridor flow only
  kFlowFm,  ///< corridor flow then FM polish (premium quality)
};

/// Stable name for reports/CLI ("fm" / "flow" / "flow+fm").
[[nodiscard]] const char* to_string(RefinerChoice choice) noexcept;

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
  /// multilevel path (overrides algorithm1.num_starts there). The flat
  /// path keeps algorithm1.num_starts untouched. Memoization collapses
  /// distinct starts onto few pseudo-diameter pairs, so past ~12 starts
  /// the coarse partition is bit-for-bit the same as at 50 while costing
  /// nearly half the engine's wall time (bench_multilevel measured
  /// identical cuts at 12/25/50 starts on every gated instance).
  int coarse_num_starts = 12;
};

/// Outcome of partition_auto(): the partition, which engine ran, and
/// where its cut came from. On both engines
/// `initial_cut_weight - refine_improvement == metrics.cut_weight`.
struct EngineResult {
  std::vector<std::uint8_t> sides;
  PartitionMetrics metrics;  ///< scored on the input hypergraph
  EngineChoice engine_used = EngineChoice::kFlat;  ///< never kAuto
  int levels = 0;  ///< hierarchy depth (0 on the flat path)
  /// Vertex count Algorithm I partitioned: the coarsest level's, or the
  /// input's on the flat path.
  VertexId coarsest_vertices = 0;
  /// Algorithm I's cut weight (projection carries it to the input
  /// unchanged).
  Weight initial_cut_weight = 0;
  /// Cut weight removed by refinement: summed over every V-cycle level,
  /// or the flat path's flow post-pass gain (0 under kFm).
  Weight refine_improvement = 0;
};

/// The partition API: routes \p h to flat Algorithm I or the multilevel
/// engine per \p plan (kAuto picks by size), records the choice in the
/// obs layer (gauge engine/multilevel), and returns the partition with
/// the engine that produced it. The multilevel path requires >= 2
/// modules.
[[nodiscard]] EngineResult partition_auto(const Hypergraph& h,
                                          const PartitionPlan& plan = {});

}  // namespace fhp::ml
