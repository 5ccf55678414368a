/// \file reference.hpp
/// Reference compositions of Algorithm I's public per-start calls.
///
/// algorithm1() completes each distinct pseudo-diameter pair once and runs
/// its BFS steps on a locality-permuted intersection graph. Both are pure
/// speedups: the partition must be exactly the one a naive per-start loop
/// over the unpermuted graph elects. These references compute that answer
/// the slow, obvious way, for the identity tests and bench_hotpath to
/// compare against.
#pragma once

#include "core/algorithm1.hpp"

namespace fhp::validate {

/// Per-start reference: run_single() for every start, each on a fresh
/// StartScratch, reduced in start order (fewest cut nets, then smallest
/// weight imbalance; the first of equals wins). Requires a non-degenerate
/// context and the kCutsize objective.
[[nodiscard]] Algorithm1Result per_start_reference(
    const Algorithm1Context& context, const Algorithm1Options& options);

/// Unpermuted reference: each start's pseudo-diameter pair and
/// bidirectional cut computed on context.intersection() itself (original
/// ids, no tie ranks), completed through complete_from_cut(), reduced like
/// per_start_reference(). Requires a context with at least two G-vertices,
/// the kCutsize objective and the bidirectional initial cut.
[[nodiscard]] Algorithm1Result unpermuted_reference(
    const Algorithm1Context& context, const Algorithm1Options& options);

}  // namespace fhp::validate
