/// Ablation C4/A3-part (paper §2.2 theorem + §4 "alternative greedy
/// methods"): compare the three boundary-completion strategies.
///
/// Part 1 — loser counts on raw bipartite boundary graphs: greedy vs the
/// König-exact optimum (empirically probing the paper's "within 1 of
/// optimum when G' is connected" theorem; we report the gap distribution,
/// which stays tiny on pipeline-generated boundary graphs even where the
/// literal within-1 bound can be exceeded on adversarial inputs).
/// Part 2 — end-to-end effect on cut and balance on circuit instances.
#include <cstdio>

#include "bench_common.hpp"
#include "core/boundary.hpp"
#include "core/intersection.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "util/stats.hpp"

int main() {
  using namespace fhp;
  using namespace fhp::bench;
  fhp::bench::BenchSession session("ablation_completion");

  print_header("C4 — Complete-Cut greedy vs exact (König) on real boundaries");

  RunningStats gap;
  RunningStats gap_connected;
  std::size_t within_one_connected = 0;
  std::size_t connected_cases = 0;
  RunningStats boundary_sizes;

  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const Hypergraph h = generate_circuit(
        table2_params(400, 700, Technology::kStandardCell), seed);
    Algorithm1Options options;
    options.seed = seed;
    Algorithm1Context ctx(h, options);
    if (ctx.is_degenerate()) continue;
    const Graph& g = ctx.intersection();
    Workspace ws;
    const DiameterPair pair = longest_path_from(g, 0, 2, ws);
    BidirectionalCut cut;
    bidirectional_bfs_cut(g, pair.s, pair.t, ws, cut);
    BoundaryStructure b;
    extract_boundary(g, cut.side, ws, b);
    boundary_sizes.add(b.size());

    CompletionResult greedy;
    complete_cut_greedy(b.boundary_graph, ws, greedy);
    const CompletionResult exact =
        complete_cut_exact(b.boundary_graph, b.boundary_side);
    const double delta =
        static_cast<double>(greedy.loser_count) - exact.loser_count;
    gap.add(delta);
    if (is_connected(b.boundary_graph)) {
      ++connected_cases;
      gap_connected.add(delta);
      if (delta <= 1.0) ++within_one_connected;
    }
  }
  std::printf("boundary graphs measured: %zu (mean |B| = %.0f)\n",
              gap.count(), boundary_sizes.mean());
  std::printf("greedy - exact losers: mean %.2f, max %.0f\n", gap.mean(),
              gap.max());
  if (connected_cases > 0) {
    std::printf(
        "connected boundary graphs: %zu; within-1 of optimum in %zu "
        "(mean gap %.2f)\n",
        connected_cases, within_one_connected, gap_connected.mean());
  }

  print_header("A3a — end-to-end completion strategy comparison");
  AsciiTable table(
      {"strategy", "mean cut", "mean weight imbalance", "mean ms"});
  const CompletionStrategy strategies[] = {CompletionStrategy::kGreedy,
                                           CompletionStrategy::kWeightedGreedy,
                                           CompletionStrategy::kExact};
  const char* names[] = {"greedy (paper)", "weighted (engineer's rule)",
                         "exact (Konig)"};
  int idx = 0;
  for (CompletionStrategy strategy : strategies) {
    RunningStats cut;
    RunningStats imbalance;
    RunningStats millis;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      CircuitParams params = standard_cell_params(0.8);
      params.weight_geometric_p = 0.4;
      const Hypergraph h = generate_circuit(params, seed);
      Algorithm1Options options;
      options.seed = seed;
      options.completion = strategy;
      Timer timer;
      const Algorithm1Result r = algorithm1(h, options);
      millis.add(timer.millis());
      cut.add(r.metrics.cut_edges);
      imbalance.add(static_cast<double>(r.metrics.weight_imbalance));
    }
    table.add_row({names[idx++], AsciiTable::num(cut.mean(), 1),
                    AsciiTable::num(imbalance.mean(), 1),
                    AsciiTable::num(millis.mean(), 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nReading: exact completion shaves little off the greedy cut (the"
      "\npaper's theorem in practice); the weighted rule trades a slightly"
      "\nlarger cut for a tighter weight balance, 'much as one would"
      "\nsuspect' (paper section 3).\n");
  return 0;
}
