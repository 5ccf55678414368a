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
/// larger levels run rounds restricted to the cut frontier (pins of cut
/// nets plus one hop, the interior fixed), recomputing the frontier
/// between rounds and stopping at the first round that does not lower the
/// cut. Projection carries the cut weight through unchanged, so deep
/// refinement at the (cheap) coarse levels does the heavy lifting and the
/// fine levels polish the frontier (docs/multilevel.md, bench_multilevel).
/// Both modes use the classic FM balance tolerance.
inline constexpr VertexId kFullFmThreshold = 1024;

/// Fiduccia–Mattheyses per-level refinement on one FmCore
/// (baselines/fm.hpp), built once per refine() call over the projected
/// partition.
class FmRefiner {
 public:
  explicit FmRefiner(const FmRefinerOptions& options = {})
      : options_(options) {}

  /// Refines \p sides (one 0/1 entry per vertex of \p h) in place and
  /// returns the cut weight removed (>= 0; never worsens the partition).
  /// A \p sides of the wrong size or holding a value outside {0, 1}
  /// throws PreconditionError. FM is deterministic given its start, so
  /// \p seed does not change the answer.
  [[nodiscard]] Weight refine(const Hypergraph& h,
                              std::vector<std::uint8_t>& sides,
                              std::uint64_t seed);

 private:
  FmRefinerOptions options_;
};

}  // namespace fhp::ml
