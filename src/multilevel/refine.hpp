/// \file refine.hpp
/// Per-level refinement interface of the uncoarsening phase.
///
/// The engine projects the coarse partition down one level and hands it to
/// a Refiner to improve in place. The interface is deliberately minimal so
/// alternative refiners (the flow-based corridor refiner on the roadmap)
/// slot in without touching the engine.
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace fhp::ml {

/// Improves a bipartition in place on one hierarchy level.
class Refiner {
 public:
  virtual ~Refiner() = default;

  /// Refines \p sides (one 0/1 entry per vertex of \p h) in place and
  /// returns the achieved cut-weight improvement (>= 0; never worsens the
  /// partition). \p seed is forked deterministically per level by the
  /// engine, so equal (instance, options, seed) runs are bit-identical.
  [[nodiscard]] virtual Weight refine(const Hypergraph& h,
                                      std::vector<std::uint8_t>& sides,
                                      std::uint64_t seed) = 0;

  /// Stable identifier for reports and traces.
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Knobs of the default Fiduccia–Mattheyses refiner.
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
class FmRefiner final : public Refiner {
 public:
  explicit FmRefiner(const FmRefinerOptions& options = {})
      : options_(options) {}

  [[nodiscard]] Weight refine(const Hypergraph& h,
                              std::vector<std::uint8_t>& sides,
                              std::uint64_t seed) override;
  [[nodiscard]] const char* name() const noexcept override { return "fm"; }

 private:
  FmRefinerOptions options_;
};

}  // namespace fhp::ml
