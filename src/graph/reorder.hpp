/// \file reorder.hpp
/// Cache-locality layer: vertex reorderings for the intersection graph.
///
/// The CSR a Graph is built with inherits whatever vertex numbering the
/// producer used — for the intersection graph that is net numbering, an
/// artifact of input order with no relation to traversal locality. The BFS
/// engine (src/graph/bfs.cpp) touches `offsets_[v]`, then a row of
/// `adjacency_`, then the distance slots of that row's entries: when
/// neighbors carry far-apart ids, every row hop is a cache miss. A
/// bandwidth-reducing relabeling puts neighbors at nearby ids, so the same
/// traversal walks nearly-sequential memory.
///
/// The ordering, degree_bucketed_bfs_order(), is RCM-lite: per component,
/// BFS from a minimum-degree seed visiting neighbors in ascending
/// (degree, id) order — the classic bandwidth reducer, minus the reversal
/// (the BFS kernels here are symmetric in direction, so the reversal buys
/// nothing). It is a deterministic pure function of the graph.
///
/// Consumers relabel once (`Graph::permuted`), run every traversal on the
/// permuted graph, and map results back through the inverse map; see
/// Algorithm1Context for the end-to-end contract (docs/performance.md).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "util/ids.hpp"

namespace fhp {

/// A vertex relabeling: a bijection between "old" ids (the graph the
/// ordering was computed on) and "new" ids (the permuted graph).
struct Permutation {
  std::vector<VertexId> to_new;  ///< to_new[old] = new id
  std::vector<VertexId> to_old;  ///< to_old[new] = old id (inverse map)

  /// Number of vertices the permutation covers.
  [[nodiscard]] VertexId size() const noexcept {
    return static_cast<VertexId>(to_new.size());
  }

  /// True iff the permutation maps every id to itself.
  [[nodiscard]] bool is_identity() const noexcept;

  /// The identity permutation over \p n vertices.
  [[nodiscard]] static Permutation identity(VertexId n);

  /// Builds a permutation from a visit order: \p order lists old ids in
  /// the sequence they should be renumbered 0, 1, 2, ... — i.e. it becomes
  /// the to_old map. Must be a permutation of [0, order.size()).
  [[nodiscard]] static Permutation from_order(std::vector<VertexId> order);

  /// Structural self-check (both maps bijective and mutually inverse);
  /// aborts on violation.
  void validate() const;
};

/// RCM-lite ordering: components in ascending order of their smallest
/// vertex id, each traversed by BFS from a minimum-degree seed (ties by
/// smallest id) visiting neighbors in ascending (degree, id) order. A
/// deterministic pure function of the graph structure.
[[nodiscard]] Permutation degree_bucketed_bfs_order(const Graph& g);

}  // namespace fhp
