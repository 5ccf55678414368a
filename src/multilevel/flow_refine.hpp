/// \file flow_refine.hpp
/// Flow-based corridor refinement: the premium per-level refinement of the
/// multilevel engine (docs/multilevel.md, "Corridor flow refinement").
///
/// The recipe follows the network-flow refinement family (Heuer, Sanders
/// & Schlag; Gottesbüren & Hamann, PAPERS.md): around an existing cut,
/// grow a BFS *corridor* of bounded vertex weight on each side, build the
/// standard Lawler hyperedge gadget over the corridor with every
/// corridor-external module contracted into a super-source/super-sink,
/// solve the min s-t cut exactly (graph/maxflow.hpp, push-relabel), and
/// adopt the induced reassignment only when it lowers the cut weight while
/// keeping the weight balance within tolerance (piggybacking on
/// rebalance_bipartition for recovery when the flow solution is
/// lopsided). Rounds repeat with an adaptive corridor budget — doubled
/// after every round, improvement counter reset on adoption — until two
/// consecutive rounds go dry or the corridor saturates.
///
/// One refine() call keeps its partition in one Bipartition: the corridor
/// seeds are its cut nets, and a round's candidate is a copy of it with
/// every corridor module moved to the min cut's side. The copy holds the
/// same pin counts, side weights and cut a fresh Bipartition of the
/// candidate would, so balance recovery runs on the copy and adoption is
/// a move-assignment. solve_corridor() is also the flow baseline's only
/// gadget builder (baselines/flow.hpp), with its terminal sets as the
/// exterior.
///
/// Unlike FM, one flow solve optimizes the whole corridor globally, so it
/// escapes the move-at-a-time local minima FM sticks in; the corridor
/// bound keeps each solve far cheaper than a whole-instance flow
/// bipartition (baselines/flow.hpp). The refiner is deterministic — the
/// corridor BFS and gadget construction iterate in fixed CSR order, and
/// the candidate is the gadget's minimal minimum cut, which is one set for
/// every maximum flow whatever solver finds it — so the engine's
/// bit-identity contract across thread counts is preserved (refine()
/// accepts a seed like FmRefiner and ignores it).
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "util/ids.hpp"
#include "util/workspace.hpp"

namespace fhp::ml {

/// Knobs of the corridor flow refiner.
struct FlowRefinerOptions {
  /// Weight-balance tolerance: a candidate is adoptable when
  /// |w(V0) - w(V1)| <= max(2, tolerance * total weight), or no worse
  /// than the imbalance the input partition already had. (The floor of 2
  /// weight units is what balance recovery can guarantee on unit-weight
  /// instances — rebalance_bipartition bounds the *deviation* to >= 1.)
  double balance_tolerance = 0.10;
  /// Instances below this vertex count are skipped (FM already solves
  /// them exhaustively; a corridor cannot leave anchors on both sides).
  VertexId min_vertices = 4;
};

/// Starting corridor budget per side, as a fraction of the instance's
/// total vertex weight. The cut-net boundary itself is always admitted
/// (minus one anchor per side); the budget bounds the BFS expansion.
inline constexpr double kCorridorWeightFraction = 0.05;
/// Budget multiplier applied after every round ("double on improvement" —
/// and on dry rounds too, so the second dry attempt sees a strictly
/// larger corridor instead of replaying the first).
inline constexpr double kCorridorBudgetGrowth = 2.0;
/// Hard cap on flow rounds per refine() call.
inline constexpr int kMaxFlowRounds = 8;
/// Consecutive unadopted rounds before giving up.
inline constexpr int kMaxDryFlowRounds = 2;

/// One gadget solve over a fixed corridor. Exposed for tests and benches;
/// refine() drives it with adaptively grown corridors.
struct CorridorSolve {
  /// Candidate assignment: corridor modules re-assigned by the min cut,
  /// exterior modules unchanged.
  std::vector<std::uint8_t> sides;
  /// Cut weight of the candidate on the whole hypergraph.
  Weight cut_weight = 0;
  /// The gadget's max-flow value == min-cut weight over the nets touching
  /// the corridor (fully-exterior nets are constant and excluded).
  Weight flow_value = 0;
  /// Directed arcs the gadget needed (diagnostics: flow/gadget_arcs).
  Count gadget_arcs = 0;
  /// False when the solve was degenerate (no cut net touching the
  /// corridor, or a side without an exterior anchor); `sides` is then the
  /// unchanged input.
  bool solved = false;
};

/// Builds the Lawler gadget over \p in_corridor (1 = movable) with
/// exterior modules contracted into super terminals by their current side
/// and solves it exactly. Preconditions (typed PreconditionError):
/// corridor node/arc counts must fit the build's index range, and the
/// summed weight of the nets in the gadget must stay below
/// FlowNetwork::kInfiniteCapacity — weight regimes near the int64 ceiling
/// fail typed instead of silently saturating past the uncuttable-arc
/// capacity. Requires at least one exterior module on each side (returns
/// solved = false otherwise, never an improper candidate).
[[nodiscard]] CorridorSolve solve_corridor(
    const Hypergraph& h, const std::vector<std::uint8_t>& sides,
    const std::vector<std::uint8_t>& in_corridor);

/// Flow-based corridor refinement.
class FlowRefiner {
 public:
  explicit FlowRefiner(const FlowRefinerOptions& options = {})
      : options_(options) {}

  /// Refines \p sides (one 0/1 entry per vertex of \p h) in place and
  /// returns the cut weight removed (>= 0; never worsens the partition).
  /// A \p sides of the wrong size or holding a value outside {0, 1}
  /// throws PreconditionError before anything reads it.
  [[nodiscard]] Weight refine(const Hypergraph& h,
                              std::vector<std::uint8_t>& sides,
                              std::uint64_t seed);

 private:
  FlowRefinerOptions options_;
  /// Corridor-BFS scratch (epoch-stamped marks + frontier buffers), grown
  /// once and reused across levels/rounds — same per-lane reuse contract
  /// as the Algorithm I kernels (util/workspace.hpp).
  Workspace ws_;
};

}  // namespace fhp::ml
