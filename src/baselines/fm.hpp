/// \file fm.hpp
/// Fiduccia–Mattheyses iterative-improvement bipartitioning [9].
///
/// The linear-time cell-gain heuristic the paper lists among the min-cut
/// improvements (§1). Pass structure: starting from a (random or given)
/// partition, repeatedly move the highest-gain unlocked module whose move
/// keeps the partition within the balance tolerance, lock it, update
/// neighbor gains; at the end of the pass roll back to the best prefix.
/// Passes repeat until one fails to improve the cut.
///
/// FmCore is the one implementation: fiduccia_mattheyses() runs it from a
/// random or given start, and the multilevel FmRefiner
/// (multilevel/refine.hpp) runs it on every level of the V-cycle.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "baselines/random_cut.hpp"
#include "hypergraph/hypergraph.hpp"
#include "partition/partition.hpp"

namespace fhp {

/// Tuning knobs for the FM baseline.
struct FmOptions {
  /// Maximum |w(V_L) - w(V_R)| a move may create. 0 = auto: twice the
  /// largest module weight, at least 2 (so some move is always legal),
  /// i.e. the classic Fiduccia–Mattheyses tolerance.
  Weight max_weight_imbalance = 0;
  /// Give up after this many passes even if still improving.
  int max_passes = 32;
  /// Seed for the initial random bisection.
  std::uint64_t seed = 1;
  /// Optional starting partition; when set, its sides are used instead of
  /// a random bisection (e.g. to refine Algorithm I's output).
  std::optional<std::vector<std::uint8_t>> initial;
};

/// Runs Fiduccia–Mattheyses on \p h. Requires >= 2 modules.
/// `iterations` in the result counts completed passes.
[[nodiscard]] BaselineResult fiduccia_mattheyses(const Hypergraph& h,
                                                 const FmOptions& options = {});

/// Fiduccia–Mattheyses in place on one Bipartition. The per-net side pin
/// counts, side weights and cut are built once, at construction, and kept
/// across every run() and pass. A pass derives each free module's gain
/// once; after that a move changes gains only by the classic FM deltas on
/// its critical nets (those with at most one pin on a side before or after
/// the move).
///
/// The pick is the highest-gain legal free module, then the highest id;
/// side 0 wins a gain tie between the sides. Every pass keeps
/// |W0 - W1| <= tolerance, so moving weight w off side s is legal iff
/// 2w <= tolerance + W_s - W_other: a weight cap. A side whose lightest
/// free module fails the cap has no legal move at all and is skipped.
class FmCore {
 public:
  /// Builds the partition of \p h (which must outlive the core) given by
  /// \p sides; one 0/1 entry per module, else PreconditionError.
  FmCore(const Hypergraph& h, std::vector<std::uint8_t> sides);

  /// Runs passes until one fails to improve the cut (or, at equal cut,
  /// the weight imbalance) or \p max_passes have run, and returns the
  /// number of improving passes. Each pass ends on its best prefix, so the
  /// cut never grows. Every move keeps |W0 - W1| within
  /// \p max_weight_imbalance (0 = auto: twice the largest module weight,
  /// at least 2), raised to the imbalance the run starts from. Modules with
  /// a nonzero \p fixed entry never move; \p fixed is empty or one entry
  /// per module. Counts fm/runs, fm/passes, fm/moves, fm/moves_rolled_back.
  int run(Weight max_weight_imbalance, int max_passes,
          std::span<const std::uint8_t> fixed = {});

  /// Takes back every move the last run() kept, restoring the partition
  /// that run started from.
  void undo_last_run();

  /// The current partition.
  [[nodiscard]] const Bipartition& partition() const noexcept { return p_; }

 private:
  /// Lazy max-heap entry (gain, module). An entry is stale once its module
  /// is locked or its gain has changed; stale entries are dropped at pop.
  using HeapEntry = std::pair<Weight, VertexId>;

  bool pass(Weight tolerance, std::span<const std::uint8_t> fixed);
  [[nodiscard]] bool legal(std::uint8_t side, Weight w,
                           Weight tolerance) const;
  [[nodiscard]] bool side_can_move(std::uint8_t side, Weight tolerance);
  VertexId pick_move(Weight tolerance);
  void apply_move(VertexId v);
  void bump(VertexId u, Weight delta);

  Bipartition p_;
  Weight max_vertex_weight_ = 1;
  /// Every module, lightest first; lightest_[s] is the pass's cursor to
  /// the lightest free module on side s (modules only ever leave that set
  /// during a pass, so the cursor only advances).
  std::vector<VertexId> by_weight_;
  std::size_t lightest_[2] = {0, 0};
  std::vector<std::uint8_t> locked_;
  std::vector<Weight> gain_;
  std::vector<HeapEntry> heap_[2];
  std::vector<HeapEntry> stash_;
  /// Free modules whose gain the current move changed, with their gain
  /// before it; touched_mark_ flags membership.
  std::vector<std::pair<VertexId, Weight>> touched_;
  std::vector<std::uint8_t> touched_mark_;
  std::vector<VertexId> moves_;  ///< this pass's moves, in order
  std::vector<VertexId> kept_;   ///< the moves the last run() kept
};

}  // namespace fhp
