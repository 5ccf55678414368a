#include "graph/reorder.hpp"

#include <algorithm>
#include <numeric>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace fhp {

bool Permutation::is_identity() const noexcept {
  for (VertexId v = 0; v < size(); ++v) {
    if (to_new[v] != v) return false;
  }
  return true;
}

Permutation Permutation::identity(VertexId n) {
  Permutation p;
  p.to_new.resize(n);
  p.to_old.resize(n);
  std::iota(p.to_new.begin(), p.to_new.end(), 0U);
  std::iota(p.to_old.begin(), p.to_old.end(), 0U);
  return p;
}

Permutation Permutation::from_order(std::vector<VertexId> order) {
  Permutation p;
  const auto n = static_cast<VertexId>(order.size());
  p.to_old = std::move(order);
  p.to_new.assign(n, kInvalidVertex);
  for (VertexId fresh = 0; fresh < n; ++fresh) {
    const VertexId old = p.to_old[fresh];
    FHP_REQUIRE(old < n, "order entry out of range");
    FHP_REQUIRE(p.to_new[old] == kInvalidVertex, "order repeats a vertex");
    p.to_new[old] = fresh;
  }
  return p;
}

void Permutation::validate() const {
  FHP_ASSERT(to_new.size() == to_old.size(),
             "forward and inverse maps must cover the same vertices");
  for (VertexId v = 0; v < size(); ++v) {
    FHP_ASSERT(to_new[v] < size() && to_old[v] < size(),
               "permutation entry out of range");
    FHP_ASSERT(to_old[to_new[v]] == v, "maps must be mutual inverses");
  }
}

namespace {

/// Plain BFS from \p seed over the unvisited part of \p g, appending every
/// vertex reached (including \p seed) to \p order and marking it visited.
/// \p ordered_neighbors controls the within-level visit sequence: when
/// set, each vertex's unvisited neighbors are appended in ascending
/// (degree, id) order; otherwise in the CSR's natural ascending-id order.
void bfs_collect(const Graph& g, VertexId seed, bool degree_ordered,
                 std::vector<std::uint8_t>& visited,
                 std::vector<VertexId>& order) {
  const std::size_t head0 = order.size();
  visited[seed] = 1;
  order.push_back(seed);
  std::vector<VertexId> fresh;  // unvisited neighbors of the current vertex
  for (std::size_t head = head0; head < order.size(); ++head) {
    const VertexId u = order[head];
    fresh.clear();
    for (VertexId w : g.neighbors(u)) {
      if (!visited[w]) {
        visited[w] = 1;
        fresh.push_back(w);
      }
    }
    if (degree_ordered) {
      std::sort(fresh.begin(), fresh.end(), [&](VertexId a, VertexId b) {
        const std::uint32_t da = g.degree(a);
        const std::uint32_t db = g.degree(b);
        return da != db ? da < db : a < b;
      });
    }
    order.insert(order.end(), fresh.begin(), fresh.end());
  }
}

}  // namespace

Permutation degree_bucketed_bfs_order(const Graph& g) {
  FHP_TRACE_SCOPE("reorder");
  const VertexId n = g.num_vertices();
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<VertexId> component;
  for (VertexId v = 0; v < n; ++v) {
    if (visited[v]) continue;
    // First pass finds the component members (natural order is fine for
    // that), so the real traversal can start from the min-degree seed.
    component.clear();
    bfs_collect(g, v, false, visited, component);
    VertexId seed = v;
    for (VertexId u : component) {
      visited[u] = 0;
      if (g.degree(u) < g.degree(seed) ||
          (g.degree(u) == g.degree(seed) && u < seed)) {
        seed = u;
      }
    }
    bfs_collect(g, seed, true, visited, order);
  }
  FHP_COUNTER_ADD("reorder/orders_computed", 1);
  return Permutation::from_order(std::move(order));
}

Graph Graph::permuted(const Permutation& perm) const {
  FHP_TRACE_SCOPE("permute_graph");
  FHP_REQUIRE(perm.size() == num_vertices(),
              "permutation size must match the graph");
  std::vector<std::size_t> offsets(static_cast<std::size_t>(num_vertices()) +
                                   1);
  offsets[0] = 0;
  for (VertexId fresh = 0; fresh < num_vertices(); ++fresh) {
    offsets[fresh + 1] = offsets[fresh] + degree(perm.to_old[fresh]);
  }
  std::vector<VertexId> adjacency(adjacency_.size());
  for (VertexId fresh = 0; fresh < num_vertices(); ++fresh) {
    std::size_t cursor = offsets[fresh];
    for (VertexId w : neighbors(perm.to_old[fresh])) {
      adjacency[cursor++] = perm.to_new[w];
    }
    std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[fresh]),
              adjacency.begin() + static_cast<std::ptrdiff_t>(cursor));
  }
  return Graph::from_csr(std::move(offsets), std::move(adjacency));
}

}  // namespace fhp
