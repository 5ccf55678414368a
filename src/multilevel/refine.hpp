/// \file refine.hpp
/// Boundary Fiduccia–Mattheyses refinement of the uncoarsening phase: the
/// engine projects the coarse partition down one level and improves it
/// in place (docs/multilevel.md).
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace fhp::ml {

/// Knobs of the Fiduccia–Mattheyses refiner.
struct FmRefinerOptions {
  /// FM passes per level.
  int max_passes = 8;
};

/// Levels with at most this many vertices run classic whole-instance FM;
/// larger levels restrict passes to the cut frontier (pins of cut nets
/// plus one hop), locking the interior via FmOptions::fixed and
/// recomputing the frontier between rounds, which drops per-pass cost
/// from O(n * degree) to O(pins + frontier * degree). Projection carries
/// the cut weight through unchanged, so deep refinement at the (cheap)
/// coarse levels does the heavy lifting and the expensive fine levels only
/// polish the frontier — the quality of full FM at a fraction of its cost
/// (docs/multilevel.md, bench_multilevel). Both modes use the classic FM
/// balance tolerance (FmOptions::max_weight_imbalance = 0).
inline constexpr VertexId kFullFmThreshold = 1024;

/// Fiduccia–Mattheyses per-level refinement (baselines/fm.hpp): seeds FM
/// with the projected partition and keeps the result only when it is no
/// worse than the input.
class FmRefiner {
 public:
  explicit FmRefiner(const FmRefinerOptions& options = {})
      : options_(options) {}

  /// Refines \p sides (one 0/1 entry per vertex of \p h) in place and
  /// returns the cut weight removed (>= 0; never worsens the partition).
  /// Equal (instance, options, seed) calls are bit-identical.
  [[nodiscard]] Weight refine(const Hypergraph& h,
                              std::vector<std::uint8_t>& sides,
                              std::uint64_t seed);

 private:
  FmRefinerOptions options_;
};

}  // namespace fhp::ml
