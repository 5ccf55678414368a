/// \file flow.hpp
/// Network-flow bipartitioning (the family the paper lists among its
/// competitors: Chopra [7], Hu–Moerder multiterminal hypergraph flows
/// [16]; the approach later popularized as FBB).
///
/// Each net is modeled by the standard two-node gadget (in → out arc of
/// capacity = net weight, uncuttable arcs from/to its pins), so a minimum
/// s-t cut of the flow network is exactly a minimum net cut separating
/// modules s and t. Every solve is one ml::solve_corridor() call
/// (multilevel/flow_refine.hpp): the terminal sets are the corridor's
/// exterior, contracted into the super source (side 0) and super sink
/// (side 1), and every other module is movable. The contraction and the
/// dropped nets without a movable pin (a constant in every cut) leave the
/// minimal minimum cut on the movable modules what the whole-instance
/// gadget gives. Balance is enforced FBB-style: while the source side
/// of the min cut is outside the target occupancy band, it is collapsed
/// into its terminal together with one adjacent module (forcing progress)
/// and the cut is re-solved. Several far-apart terminal pairs are tried
/// and the best balanced cut wins. The repeated max-flow solves are the
/// "O(n^3) or higher complexity" cost the paper attributes to this
/// family.
#pragma once

#include <cstdint>

#include "baselines/random_cut.hpp"
#include "hypergraph/hypergraph.hpp"

namespace fhp {

/// Tuning knobs for the flow baseline.
struct FlowOptions {
  /// Number of (s, t) terminal pairs to try.
  int pairs = 8;
  /// Maximum acceptable |count_L - count_R| as a fraction of the module
  /// count; cuts beyond it only win if nothing meets the tolerance.
  double balance_fraction = 0.5;
  std::uint64_t seed = 1;
};

/// Runs the flow-based bipartitioner on \p h. Requires >= 2 modules.
/// `iterations` counts terminal pairs solved.
[[nodiscard]] BaselineResult flow_bipartition(const Hypergraph& h,
                                              const FlowOptions& options = {});

}  // namespace fhp
