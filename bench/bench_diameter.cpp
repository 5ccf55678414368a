/// Claim C2 (paper §3): for connected random bounded-degree graphs,
/// (a) BFS from a random vertex reaches depth diam(G) - O(1) whp, and
/// (b) the diameter is Θ(log n).
///
/// We build intersection graphs of random bounded-degree hypergraphs,
/// compare single-BFS depth and double-sweep estimates against the exact
/// diameter, and track diam / log2(n) across sizes.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/intersection.hpp"
#include "gen/random_hypergraph.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

int main() {
  using namespace fhp;
  using namespace fhp::bench;
  fhp::bench::BenchSession session("diameter");

  print_header("C2 — BFS depth vs exact diameter; diam = O(log n)");

  AsciiTable table({"|G|", "exact diam", "1-BFS depth", "2-sweep est",
                    "diam/log2(n)", "mean gap (exact - 1-BFS)"});

  for (VertexId n : {100U, 200U, 400U, 800U, 1600U}) {
    RunningStats diam_stats;
    RunningStats bfs_stats;
    RunningStats sweep_stats;
    RunningStats gap_stats;
    RunningStats ratio_stats;
    int measured = 0;
    for (std::uint64_t seed = 0; seed < 40 && measured < 10; ++seed) {
      RandomHypergraphParams params;
      params.num_vertices = n;
      params.num_edges = static_cast<EdgeId>(n);
      params.max_edge_size = 3;
      params.max_degree = 3;  // sparse: bounded-degree dual
      const Hypergraph h = random_hypergraph(params, seed);
      const Graph g = intersection_graph(h);
      if (g.num_vertices() < n / 2 || !is_connected(g)) continue;
      ++measured;

      const std::uint32_t exact = exact_diameter(g);
      Rng rng(seed);
      const auto start = static_cast<VertexId>(
          rng.next_below(g.num_vertices()));
      Workspace ws;
      const std::uint32_t one_bfs = bfs_scan(g, start, ws).depth;
      const std::uint32_t sweep = longest_path_from(g, start, 2, ws).distance;

      diam_stats.add(exact);
      bfs_stats.add(one_bfs);
      sweep_stats.add(sweep);
      gap_stats.add(static_cast<double>(exact) - one_bfs);
      ratio_stats.add(static_cast<double>(exact) /
                      std::log2(static_cast<double>(g.num_vertices())));
    }
    if (measured == 0) continue;
    table.add_row({std::to_string(n), AsciiTable::num(diam_stats.mean(), 1),
                   AsciiTable::num(bfs_stats.mean(), 1),
                   AsciiTable::num(sweep_stats.mean(), 1),
                   AsciiTable::num(ratio_stats.mean(), 2),
                   AsciiTable::num(gap_stats.mean(), 2)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nReading: the single-BFS depth sits within a small constant of the"
      "\nexact diameter (gap column), the double sweep closes most of the"
      "\nrest, and diam/log2(n) stays near-constant — the two §3 theorems"
      "\nthe O(n^2) bound rests on.\n");
  return 0;
}
