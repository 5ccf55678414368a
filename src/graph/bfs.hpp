/// \file bfs.hpp
/// Breadth-first-search toolkit for the intersection graph.
///
/// Algorithm I's first two steps are pure BFS machinery (paper §2):
/// find a pseudo-diameter pair by a random longest BFS path, then grow
/// regions from both endpoints simultaneously until they meet to define a
/// graph cut. Everything here is O(V + E) per sweep.
///
/// The kernels are *direction-optimizing* (Beamer et al., SC'12): each
/// level is expanded either top-down (scan the frontier's adjacency rows)
/// or bottom-up (scan unvisited vertices for a frontier neighbor, stopping
/// at the first hit), switching on the standard frontier-size heuristic.
/// Both directions produce the same level sets, so every result — distance
/// labels, depth, reached counts, region claims — is identical whichever
/// mix of steps ran; `bench_bfs_kernels` asserts this and records the edge
/// scans saved. Frontiers are flat arrays swapped between levels (no
/// per-level vector churn); bottom-up uses a per-vertex bitset rebuilt
/// from the flat frontier (`Workspace::frontier_bits`).
///
/// Tie-breaking contract: wherever a single "farthest" vertex must be
/// elected from the set at maximum distance, it is the one with the
/// smallest vertex id (or smallest `BfsKernelOptions::tie_rank` when a
/// caller traverses a relabeled graph and wants ties broken in the
/// original numbering — see graph/reorder.hpp). The set at maximum
/// distance is direction- and relabeling-invariant, so this rule makes
/// every kernel and direction agree deterministically.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/ids.hpp"
#include "util/workspace.hpp"

namespace fhp {

/// Distance label for unreachable vertices.
inline constexpr std::uint32_t kUnreachable = 0xffffffffU;

/// Tuning of the direction-optimizing traversal engine. Results are
/// bit-identical at any setting (the heuristic only chooses how a level is
/// expanded, never what it contains). The switching thresholds themselves
/// are fixed constants (kBottomUpAlpha / kBottomUpBeta in bfs.cpp).
struct BfsKernelOptions {
  /// Allow bottom-up steps. Off = always top-down: the reference kernel
  /// that bench_bfs_kernels and the BFS tests compare the
  /// direction-optimizing one against.
  bool direction_optimizing = true;
  /// Optional tie-break ranks for `farthest`: when set (one rank per
  /// vertex, all distinct), the farthest vertex minimizes tie_rank instead
  /// of the vertex id. Callers running on a permuted graph pass the
  /// inverse permutation so ties resolve in original-id space.
  const VertexId* tie_rank = nullptr;
};

/// Summary of a BFS; the distance labels live in the Workspace.
struct BfsSummary {
  VertexId farthest = kInvalidVertex;  ///< smallest id at maximum distance
  std::uint32_t depth = 0;             ///< eccentricity within the component
  VertexId reached = 0;                ///< number of vertices reached
};

/// Allocation-free direction-optimizing BFS from \p source: distance
/// labels are written into `ws.distance` (epoch-cleared, so the call is
/// O(V_reached + E_scanned), not O(n) setup) and the frontiers reuse
/// `ws.queue` / `ws.next` / `ws.frontier_bits`. On return
/// `ws.distance.get(v)` is d(source, v), or kUnreachable for unreached v,
/// valid until the next use of ws.distance.
BfsSummary bfs_scan(const Graph& g, VertexId source, Workspace& ws,
                    const BfsKernelOptions& kernel = {});

/// A pseudo-diameter endpoint pair obtained by BFS sweeps.
struct DiameterPair {
  VertexId s = kInvalidVertex;
  VertexId t = kInvalidVertex;
  std::uint32_t distance = 0;  ///< d(s, t): a lower bound on the diameter
};

/// The paper's "random longest BFS path" from a given start: BFS from
/// \p start, take the farthest vertex v; BFS again from v and take its
/// farthest vertex w. (v, w) is within O(1) of a diametral pair for
/// bounded-degree random graphs. \p sweeps >= 1 controls how many
/// alternating refinement sweeps to run (2 = the classic double sweep).
/// Every BFS runs through bfs_scan() on \p ws (zero allocations once warm).
[[nodiscard]] DiameterPair longest_path_from(const Graph& g, VertexId start,
                                             int sweeps, Workspace& ws,
                                             const BfsKernelOptions& kernel =
                                                 {});

/// Result of growing BFS regions from two seeds simultaneously.
struct BidirectionalCut {
  /// side[v]: 0 = reached from s first, 1 = reached from t first,
  /// 2 = unreached (v lies in a different component).
  std::vector<std::uint8_t> side;
  VertexId reached_s = 0;  ///< vertices claimed by the s region
  VertexId reached_t = 0;  ///< vertices claimed by the t region
};

/// Grows BFS level-by-level from \p s and \p t alternately until every
/// vertex in their component(s) is claimed; ties (same level reachable from
/// both) go to the region whose level was expanded first, with the smaller
/// region expanding first to keep the two sides near-equal in vertex count.
/// This realizes the paper's "BFS from two distant nodes until the two
/// expanding sets meet to define a cutline". The claimed sets depend only
/// on region sizes and adjacency — never on vertex numbering or expansion
/// direction — so the cut is invariant under graph relabeling.
///
/// The two frontier queues and the next-level staging buffer live in
/// \p ws (clear()ed between levels, capacity persists) and the side labels
/// are written into \p out.side reusing its capacity. The only
/// steady-state allocation is out.side's first growth per lane.
void bidirectional_bfs_cut(const Graph& g, VertexId s, VertexId t,
                           Workspace& ws, BidirectionalCut& out,
                           const BfsKernelOptions& kernel = {});

}  // namespace fhp
