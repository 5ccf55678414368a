#include "graph/diameter.hpp"

#include <algorithm>

#include "graph/bfs.hpp"
#include "obs/trace.hpp"

namespace fhp {

std::uint32_t exact_diameter(const Graph& g) {
  FHP_TRACE_SCOPE("diameter_exact");
  Workspace ws;
  std::uint32_t best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    best = std::max(best, bfs_scan(g, v, ws).depth);
  }
  return best;
}

std::uint32_t estimate_diameter(const Graph& g, Rng& rng, int starts) {
  FHP_TRACE_SCOPE("diameter_estimate");
  FHP_REQUIRE(starts >= 1, "need at least one start");
  FHP_REQUIRE(g.num_vertices() > 0, "graph is empty");
  Workspace ws;
  std::uint32_t best = 0;
  for (int i = 0; i < starts; ++i) {
    const auto start = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    best = std::max(best, longest_path_from(g, start, 2, ws).distance);
  }
  return best;
}

}  // namespace fhp
