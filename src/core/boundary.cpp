#include "core/boundary.hpp"

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace fhp {

void extract_boundary(const Graph& g, std::span<const std::uint8_t> g_side,
                      Workspace& ws, BoundaryStructure& out) {
  FHP_TRACE_SCOPE("boundary");
  FHP_COUNTER_ADD("boundary/extractions", 1);
  FHP_REQUIRE(g_side.size() == g.num_vertices(),
              "one side label per G-vertex expected");
  for (std::uint8_t s : g_side) {
    FHP_REQUIRE(s == 0 || s == 1, "G-vertex sides must be 0/1");
  }

  ws.ensure_capacity(out.g_side, g.num_vertices());
  out.g_side.assign(g_side.begin(), g_side.end());
  ws.ensure_capacity(out.is_boundary, g.num_vertices());
  out.is_boundary.assign(g.num_vertices(), 0);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId w : g.neighbors(u)) {
      if (out.g_side[w] != out.g_side[u]) {
        out.is_boundary[u] = 1;
        break;
      }
    }
  }

  ws.ensure_capacity(out.boundary_index, g.num_vertices());
  out.boundary_index.assign(g.num_vertices(), kInvalidVertex);
  out.boundary_nodes.clear();
  out.boundary_side.clear();
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (out.is_boundary[u]) {
      out.boundary_index[u] = static_cast<VertexId>(out.boundary_nodes.size());
      out.boundary_nodes.push_back(u);
      out.boundary_side.push_back(out.g_side[u]);
    }
  }

  // Cross edges come out normalized, sorted and unique by construction:
  // boundary_index is monotone in the G-vertex id, u ascends in the outer
  // loop and neighbors(u) is sorted — so the sorted-unique CSR fast path
  // applies and the graph matches GraphBuilder's output bit for bit.
  ws.pairs.clear();
  for (VertexId u : out.boundary_nodes) {
    for (VertexId w : g.neighbors(u)) {
      if (!out.is_boundary[w] || out.g_side[w] == out.g_side[u]) continue;
      if (w > u) {  // emit each cross edge once
        ws.pairs.emplace_back(out.boundary_index[u], out.boundary_index[w]);
      }
    }
  }
  out.boundary_graph = Graph::from_sorted_unique_edges(
      static_cast<VertexId>(out.boundary_nodes.size()), ws.pairs);
}

}  // namespace fhp
