/// \file coarsen.hpp
/// Clustering-based hypergraph coarsener — the first phase of the
/// multilevel V-cycle (docs/multilevel.md).
///
/// Each level rates, for every vertex, its most attractive neighbor by the
/// heavy-edge score sum(w(e) / (|e| - 1)) over shared nets (nets above
/// `rating_net_cap` pins are ignored — they carry no locality signal),
/// then agglomerates vertices onto their preferred partners subject to a
/// cluster-weight cap, and contracts the result (hypergraph/contract.hpp).
///
/// Determinism contract (the PR 2 discipline): the rating loop is a pure
/// per-vertex function of the hypergraph, parallelized over vertices via
/// ThreadPool::parallel_for with per-lane scratch, so preferences are
/// bit-identical at any lane count; ties break toward the smaller
/// *original* fine-vertex id (the `tie_rank` threaded through the level
/// stack), never toward coarse ids whose numbering is a contraction
/// artifact. The agglomeration pass is a serial O(n) sweep in vertex-id
/// order over those preferences. The full hierarchy is therefore
/// bit-identical at any thread count — asserted by bench_multilevel and
/// tests/test_multilevel_engine.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "multilevel/hierarchy.hpp"
#include "util/parallel.hpp"

namespace fhp::ml {

/// Tuning knobs of the coarsening phase.
struct CoarseningOptions {
  /// Stop coarsening once at most this many vertices remain.
  VertexId coarsest_size = 120;
  /// Relative floor on the coarsest size: the effective stop target is
  /// max(coarsest_size, coarsest_fraction * finest n). The default (1/3)
  /// keeps the hierarchy shallow, which measurably preserves quality:
  /// Algorithm I keeps a near-global view of the instance at the coarsest
  /// level, while deep hierarchies hand it a mangled graph whose damage
  /// per-level refinement cannot repair (bench_multilevel;
  /// docs/multilevel.md). 0 = absolute coarsest_size only, for deep
  /// V-cycles (the mini baseline's configuration).
  double coarsest_fraction = 1.0 / 3.0;
  /// Stop when a level shrinks by less than this factor (cluster count >
  /// min_shrink * n means the clustering stalled, e.g. star netlists).
  double min_shrink = 0.95;
  /// Nets with more pins than this are ignored while rating merges; 0
  /// disables the cap. Large nets connect everything to everything and
  /// would drown the locality signal of small nets.
  std::uint32_t rating_net_cap = 16;
};

/// Cluster-weight cap as a fraction of the total vertex weight (the cap is
/// max(heaviest vertex, fraction * total + 1, total / coarsest_size + 1) —
/// a legal merge always exists and the cap never makes the coarsening
/// target unreachable). Prevents one snowballing cluster from absorbing
/// the instance and leaving the initial partitioner nothing to balance.
inline constexpr double kClusterWeightFraction = 1.0 / 32.0;
/// Hard depth bound on the hierarchy.
inline constexpr int kMaxCoarseningLevels = 64;

/// One level of clustering: fine vertex -> dense cluster id.
struct ClusteringResult {
  std::vector<VertexId> cluster;  ///< one id in [0, num_clusters) per vertex
  VertexId num_clusters = 0;
};

/// Computes one level of heavy-edge clustering on \p h. \p tie_rank gives
/// each vertex its rank in original-id space (pass an empty span at the
/// finest level for the identity); preferences tie-break toward the
/// smaller rank. \p pool parallelizes the rating loop (null = serial);
/// the result is bit-identical at any lane count.
[[nodiscard]] ClusteringResult heavy_edge_clustering(
    const Hypergraph& h, std::span<const VertexId> tie_rank,
    const CoarseningOptions& options, ThreadPool* pool = nullptr);

/// Runs the full coarsening phase: clustering + contraction per level
/// until \p options.coarsest_size is reached, the clustering stalls, or
/// kMaxCoarseningLevels is hit. Instrumented with the ml/coarsen_us
/// histogram (one sample per level) and the ml/coarsen span.
[[nodiscard]] Hierarchy build_hierarchy(const Hypergraph& h,
                                        const CoarseningOptions& options,
                                        ThreadPool* pool = nullptr);

}  // namespace fhp::ml
