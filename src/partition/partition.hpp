/// \file partition.hpp
/// Two-way partition representation for hypergraphs.
///
/// A Bipartition assigns every module a side in {0, 1} and incrementally
/// maintains per-net side pin counts and per-side weights, so that cut
/// queries and single-vertex moves (the workhorse of FM/SA baselines) are
/// O(degree) instead of O(pins).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "util/ids.hpp"

namespace fhp {

/// A two-way partition of a hypergraph's vertex set, bound to the
/// hypergraph it partitions (held by reference — the hypergraph must
/// outlive the partition).
class Bipartition {
 public:
  /// Creates a partition with every module on side 0.
  explicit Bipartition(const Hypergraph& h);

  /// Creates a partition from explicit side assignments (0/1 per vertex).
  Bipartition(const Hypergraph& h, std::vector<std::uint8_t> sides);

  /// The partitioned hypergraph.
  [[nodiscard]] const Hypergraph& hypergraph() const noexcept { return *h_; }

  /// Side of module \p v.
  [[nodiscard]] std::uint8_t side(VertexId v) const {
    FHP_DEBUG_ASSERT(v < sides_.size(), "vertex out of range");
    return sides_[v];
  }
  /// All side assignments.
  [[nodiscard]] const std::vector<std::uint8_t>& sides() const noexcept {
    return sides_;
  }

  /// Moves module \p v to the opposite side, updating all incremental
  /// state in O(degree(v)).
  void flip(VertexId v);
  /// Moves module \p v to side \p to (no-op when already there).
  void move_to(VertexId v, std::uint8_t to);

  /// Number of pins of net \p e on side \p s.
  [[nodiscard]] Count pins_on_side(EdgeId e, std::uint8_t s) const {
    FHP_DEBUG_ASSERT(e < pins_on_side_[0].size(), "edge out of range");
    return pins_on_side_[s][e];
  }
  /// True iff net \p e has pins on both sides.
  [[nodiscard]] bool is_cut(EdgeId e) const {
    return pins_on_side_[0][e] > 0 && pins_on_side_[1][e] > 0;
  }
  /// Cut-weight change of moving module \p v to the other side: net
  /// weight uncut minus net weight newly cut (the Fiduccia–Mattheyses cell
  /// gain; positive = the move shrinks the cut). O(degree(v)).
  [[nodiscard]] Weight move_gain(VertexId v) const {
    const std::uint8_t s = side(v);
    Weight gain = 0;
    for (EdgeId e : h_->nets_of(v)) {
      if (pins_on_side_[s][e] == 1) gain += h_->edge_weight(e);
      if (pins_on_side_[1 - s][e] == 0) gain -= h_->edge_weight(e);
    }
    return gain;
  }

  /// Number of nets crossing the cut (unweighted; trivial nets never cut).
  [[nodiscard]] EdgeId cut_edges() const noexcept { return cut_edges_; }
  /// Total weight of nets crossing the cut.
  [[nodiscard]] Weight cut_weight() const noexcept { return cut_weight_; }

  /// Number of modules on side \p s.
  [[nodiscard]] VertexId count(std::uint8_t s) const noexcept {
    return counts_[s];
  }
  /// Total module weight on side \p s.
  [[nodiscard]] Weight weight(std::uint8_t s) const noexcept {
    return weights_[s];
  }
  /// | |V_L| - |V_R| | — the paper's r-bipartition slack in cardinality.
  [[nodiscard]] VertexId cardinality_imbalance() const noexcept {
    return counts_[0] > counts_[1] ? counts_[0] - counts_[1]
                                   : counts_[1] - counts_[0];
  }
  /// | w(V_L) - w(V_R) | — weight imbalance.
  [[nodiscard]] Weight weight_imbalance() const noexcept {
    return weights_[0] > weights_[1] ? weights_[0] - weights_[1]
                                     : weights_[1] - weights_[0];
  }
  /// True iff both sides are nonempty (a *cut* per the paper's §1
  /// definition requires disjoint nonempty sets).
  [[nodiscard]] bool is_proper() const noexcept {
    return counts_[0] > 0 && counts_[1] > 0;
  }

  /// Recomputes all incremental state from scratch and checks it against
  /// the maintained values; aborts on mismatch. For tests.
  void validate() const;

 private:
  void rebuild();

  const Hypergraph* h_;
  std::vector<std::uint8_t> sides_;
  std::vector<Count> pins_on_side_[2];
  VertexId counts_[2] = {0, 0};
  Weight weights_[2] = {0, 0};
  EdgeId cut_edges_ = 0;
  Weight cut_weight_ = 0;
};

/// Throws PreconditionError unless \p sides holds exactly one 0/1 entry
/// per module of \p h — the check every consumer of a caller's side
/// vector makes before indexing per-side state with it.
void require_sides(const Hypergraph& h, std::span<const std::uint8_t> sides);

/// Total weight of the nets of \p h that \p sides (one 0/1 entry per
/// module; checked by require_sides()) cuts, computed without building a
/// Bipartition.
[[nodiscard]] Weight cut_weight_of(const Hypergraph& h,
                                   std::span<const std::uint8_t> sides);

}  // namespace fhp
