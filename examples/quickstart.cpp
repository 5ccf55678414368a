/// Quickstart: partition the paper's §2 worked example end-to-end and
/// print every intermediate object — the intersection graph, the BFS cut,
/// the boundary set, the Complete-Cut winners/losers, and the final
/// module partition with its crossing signals.
///
/// Build & run:  ./examples/quickstart
#include <cstdio>
#include <sstream>
#include <string>

#include "core/algorithm1.hpp"
#include "core/boundary.hpp"
#include "core/complete_cut.hpp"
#include "core/intersection.hpp"
#include "graph/bfs.hpp"
#include "hypergraph/io.hpp"
#include "partition/partition.hpp"

namespace {

// Reconstruction of the paper's Figure-4 netlist (12 modules, signals
// a..l); the partially illegible rows are filled to satisfy every
// property the walkthrough states (see DESIGN.md).
constexpr const char* kNetlist =
    "a: m1 m2 m11\n"
    "b: m2 m4 m11\n"
    "c: m1 m3 m4 m12\n"
    "d: m3 m5\n"
    "e: m5 m6 m7\n"
    "f: m6 m3 m7\n"
    "g: m3 m5 m9 m10\n"
    "h: m6 m7 m8\n"
    "i: m6 m7 m9 m10\n"
    "j: m4 m8 m12\n"
    "k: m1 m2\n"
    "l: m9 m10\n";

}  // namespace

int main() {
  using namespace fhp;

  std::istringstream in(kNetlist);
  const NamedNetlist netlist = read_netlist(in);
  const Hypergraph& h = netlist.hypergraph;
  std::printf("netlist: %u modules, %u signals\n\n", h.num_vertices(),
              h.num_edges());

  // --- Step 1: the dual intersection graph.
  const Graph g = intersection_graph(h);
  std::printf("intersection graph G: %u vertices (one per signal), %zu "
              "edges (shared modules)\n",
              g.num_vertices(), g.num_edges());
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    std::printf("  %s:", netlist.edge_names[e].c_str());
    for (VertexId w : g.neighbors(e)) {
      std::printf(" %s", netlist.edge_names[w].c_str());
    }
    std::printf("\n");
  }

  // --- Step 2: far-apart pair and bidirectional BFS cut. Every kernel
  // borrows its scratch from one Workspace.
  Workspace ws;
  const VertexId k = netlist.edge("k");
  const DiameterPair pair = longest_path_from(g, k, 2, ws);
  std::printf("\npseudo-diameter pair: (%s, %s), distance %u\n",
              netlist.edge_names[pair.s].c_str(),
              netlist.edge_names[pair.t].c_str(), pair.distance);
  BidirectionalCut cut;
  bidirectional_bfs_cut(g, pair.s, pair.t, ws, cut);

  // --- Step 3: boundary structure.
  BoundaryStructure boundary;
  extract_boundary(g, cut.side, ws, boundary);
  std::printf("boundary set B (signals adjacent across the graph cut):");
  for (VertexId b : boundary.boundary_nodes) {
    std::printf(" %s", netlist.edge_names[b].c_str());
  }
  std::printf("\n");

  // --- Step 4: Complete-Cut.
  CompletionResult completion;
  complete_cut_greedy(boundary.boundary_graph, ws, completion);
  std::printf("winners (uncut boundary signals):");
  for (VertexId idx = 0; idx < boundary.size(); ++idx) {
    if (completion.winner[idx]) {
      std::printf(" %s",
                  netlist.edge_names[boundary.boundary_nodes[idx]].c_str());
    }
  }
  std::printf("\nlosers (signals that will cross):");
  for (VertexId idx = 0; idx < boundary.size(); ++idx) {
    if (!completion.winner[idx]) {
      std::printf(" %s",
                  netlist.edge_names[boundary.boundary_nodes[idx]].c_str());
    }
  }
  std::printf("\n");

  // --- Step 5: the full driver (multi-start) for the final answer.
  Algorithm1Options options;
  options.large_edge_threshold = 0;
  const Algorithm1Result result = algorithm1(h, options);
  std::printf("\nfinal partition (cut = %u, sides %u/%u):\n",
              result.metrics.cut_edges, result.metrics.left_count,
              result.metrics.right_count);
  for (int side = 0; side < 2; ++side) {
    std::printf("  side %d:", side);
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      if (result.sides[v] == side) {
        std::printf(" %s", netlist.vertex_names[v].c_str());
      }
    }
    std::printf("\n");
  }
  const Bipartition partition(h, result.sides);
  std::printf("crossing signals:");
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    if (partition.is_cut(e)) {
      std::printf(" %s", netlist.edge_names[e].c_str());
    }
  }
  std::printf("\n\nThe paper's walkthrough ends the same way: only signals "
              "c and h cross, cutsize 2.\n");
  return 0;
}
