/// \file reference.hpp
/// Reference compositions of Algorithm I's public per-start calls, the
/// rebuild-per-pass Fiduccia–Mattheyses loop, and Dinic's max flow.
///
/// algorithm1() completes each distinct pseudo-diameter pair once and runs
/// its BFS steps on a locality-permuted intersection graph. Both are pure
/// speedups: the partition must be exactly the one a naive per-start loop
/// over the unpermuted graph elects. These references compute that answer
/// the slow, obvious way, for the identity tests and bench_hotpath to
/// compare against.
///
/// FmCore (baselines/fm.hpp) keeps its pin counts across passes, changes
/// gains by deltas and skips sides with no legal move; fm_reference() is
/// the straightforward loop it must agree with move for move: every pass
/// rebuilds its gains, every move re-derives each neighbor's gain from
/// scratch, and every pick pops and re-pushes the illegal heap entries.
///
/// FlowNetwork (graph/maxflow.hpp) solves by push-relabel; DinicNetwork is
/// the augmenting-path solver it must agree with on the flow value and on
/// the minimal minimum cut, node for node, and solve_corridor_reference()
/// is ml::solve_corridor() over it.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "baselines/fm.hpp"
#include "core/algorithm1.hpp"
#include "graph/maxflow.hpp"
#include "multilevel/flow_refine.hpp"

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

/// Fiduccia–Mattheyses reference: fiduccia_mattheyses(h, options) with the
/// modules \p fixed marks (nonzero; empty = none) locked, run on a fresh
/// Bipartition per pass under a global budget of 2 * max_passes * n moves
/// (which never binds: a pass moves each module at most once). Same sides,
/// metrics, pass count and fm/* counters as FmCore::run().
[[nodiscard]] BaselineResult fm_reference(
    const Hypergraph& h, const FmOptions& options,
    std::span<const std::uint8_t> fixed = {});

/// ml::FmRefiner::refine() composed over fm_reference(): one whole-instance
/// run up to ml::kFullFmThreshold modules; above it, rounds of one run each
/// with every module off the cut frontier (pins of cut nets plus one hop)
/// fixed, adopted while they lower the cut. Refines \p sides in place and
/// returns the cut weight removed.
[[nodiscard]] Weight fm_refine_reference(const Hypergraph& h,
                                         std::vector<std::uint8_t>& sides,
                                         int max_passes);

/// Dinic's maximum s-t flow over linked arc lists, with FlowNetwork's API
/// and admission checks. min_cut_side() marks the nodes the source reaches
/// in the residual network. The augmenting DFS recurses once per BFS
/// level, so this oracle is for shallow networks only: a gadget tens of
/// thousands of levels deep (a long chain) overflows the stack.
class DinicNetwork {
 public:
  using Capacity = FlowNetwork::Capacity;
  static constexpr Capacity kInfiniteCapacity = FlowNetwork::kInfiniteCapacity;

  explicit DinicNetwork(Count num_nodes);

  [[nodiscard]] Count num_nodes() const noexcept {
    return static_cast<Count>(head_.size());
  }

  [[nodiscard]] Count num_arcs() const noexcept {
    return static_cast<Count>(arcs_.size());
  }

  Count add_arc(Count from, Count to, Capacity capacity);

  Capacity max_flow(Count source, Count sink);

  [[nodiscard]] std::vector<std::uint8_t> min_cut_side() const;

 private:
  struct Arc {
    Count to;
    Count next;  ///< next arc id in the from-node's list
    Capacity residual;
  };

  bool build_levels(Count source, Count sink);
  Capacity push(Count node, Count sink, Capacity limit);

  std::vector<Count> head_;  ///< first arc id per node
  std::vector<Arc> arcs_;    ///< arc i and i^1 are partners
  std::vector<Count> level_;
  std::vector<Count> iter_;
  Count source_ = 0;
  bool solved_ = false;

  static constexpr Count kNoArc = std::numeric_limits<Count>::max();
  static constexpr Count kNoLevel = std::numeric_limits<Count>::max();
};

/// ml::solve_corridor() with the gadget solved by DinicNetwork: the same
/// candidate sides, cut weight, flow value and arc count. Shallow corridors
/// only (see DinicNetwork).
[[nodiscard]] ml::CorridorSolve solve_corridor_reference(
    const Hypergraph& h, const std::vector<std::uint8_t>& sides,
    const std::vector<std::uint8_t>& in_corridor);

}  // namespace fhp::validate
