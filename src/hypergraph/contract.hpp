/// \file contract.hpp
/// Hypergraph contraction (clustering) — the substrate for multilevel
/// partitioning, the direction that ultimately superseded the paper's
/// single-level heuristic (and a natural "future work" comparison point;
/// see `baselines/multilevel.hpp`).
#pragma once

#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace fhp {

/// Result of contracting a hypergraph by a cluster map.
struct ContractionResult {
  Hypergraph hypergraph;           ///< the coarse hypergraph
  std::vector<VertexId> cluster;   ///< fine vertex -> coarse vertex
};

/// Contracts \p h: fine vertices with equal \p cluster id become one
/// coarse vertex whose weight is the sum of its members. Nets are
/// re-pinned to clusters; nets left with fewer than two distinct pins are
/// dropped, and nets with identical pin sets are merged with summed
/// weights (essential for multilevel quality — parallel nets otherwise
/// hide cut cost from the coarse level).
///
/// \p cluster must map every fine vertex to an id in [0, num_clusters).
[[nodiscard]] ContractionResult contract(const Hypergraph& h,
                                         std::vector<VertexId> cluster,
                                         VertexId num_clusters);

}  // namespace fhp
