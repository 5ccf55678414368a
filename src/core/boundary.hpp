/// \file boundary.hpp
/// Boundary extraction from a cut of the intersection graph (paper §2).
///
/// A cut of G splits G-vertices (= nets of H) into V_L / V_R. The
/// *boundary set* B is the set of G-vertices with a neighbor across the
/// cut; non-boundary G-vertices are nets whose modules are all forced to
/// one side (the *partial bipartition*). The *boundary graph* G' is the
/// subgraph induced by B keeping only edges between B_L and B_R — it is
/// bipartite by construction, which is what makes the optimal completion
/// tractable.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/ids.hpp"
#include "util/workspace.hpp"

namespace fhp {

/// Boundary structure of a graph cut in the intersection graph.
struct BoundaryStructure {
  /// Input side of every G-vertex: 0 (V_L), 1 (V_R). (Vertices of other
  /// components must not appear; callers handle disconnected G upstream.)
  std::vector<std::uint8_t> g_side;
  /// is_boundary[g] = 1 iff G-vertex g has a neighbor on the other side.
  std::vector<std::uint8_t> is_boundary;
  /// G-vertex ids of the boundary set B, ascending.
  std::vector<VertexId> boundary_nodes;
  /// boundary_index[g] = index of g within boundary_nodes (kInvalidVertex
  /// for non-boundary vertices).
  std::vector<VertexId> boundary_index;
  /// The bipartite boundary graph G' over boundary indices (only edges
  /// between opposite sides are kept).
  Graph boundary_graph;
  /// Side (0/1) of each boundary index; a proper 2-coloring of G'.
  std::vector<std::uint8_t> boundary_side;

  /// Number of boundary nodes |B|.
  [[nodiscard]] VertexId size() const noexcept {
    return static_cast<VertexId>(boundary_nodes.size());
  }
};

/// Computes the boundary structure of cut \p g_side (one 0/1 entry per
/// G-vertex) on intersection graph \p g. Refills \p out in place (its
/// vectors keep their capacity across calls, so a lane that reuses one
/// BoundaryStructure per start extracts boundaries allocation-free once
/// warm) and stages the boundary-graph edge list in `ws.pairs`. \p g_side
/// is copied into out.g_side.
void extract_boundary(const Graph& g, std::span<const std::uint8_t> g_side,
                      Workspace& ws, BoundaryStructure& out);

}  // namespace fhp
