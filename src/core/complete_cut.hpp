/// \file complete_cut.hpp
/// Completion of the partial bipartition over the boundary graph G'
/// (paper §2.2 "Partitioning the Boundary Set").
///
/// Every boundary net ends up a *winner* (uncut: all modules pulled to its
/// own side) or a *loser* (crosses the cut). Winners must form an
/// independent set of the bipartite G' (adjacent boundary nets share a
/// module, which cannot sit on both sides), so minimizing losers is a
/// minimum vertex cover problem. Three strategies are provided:
///
///  - kGreedy: the paper's Complete-Cut rule — repeatedly take the
///    minimum-degree remaining vertex as a winner, delete it and its
///    neighbors (losers). Within 1 of optimal when G' is connected
///    (within #components in general).
///  - kWeightedGreedy: the paper's "engineer's method" for weight-balanced
///    partitions — same rule, but the next winner is drawn from the side
///    currently lighter in module weight.
///  - kExact: minimum vertex cover via König / Hopcroft–Karp; winners are
///    the complementary maximum independent set. Polynomial and optimal;
///    used to verify the paper's within-1 theorem and as an ablation.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/ids.hpp"
#include "util/workspace.hpp"

namespace fhp {

/// How to complete the boundary partition.
enum class CompletionStrategy {
  kGreedy,          ///< paper's Complete-Cut (min degree)
  kWeightedGreedy,  ///< engineer's rule: min degree on the lighter side
  kExact,           ///< König minimum vertex cover (optimal)
};

/// Winner/loser labelling of the boundary graph's vertices.
struct CompletionResult {
  std::vector<std::uint8_t> winner;  ///< 1 = winner, 0 = loser, per vertex
  VertexId winner_count = 0;
  VertexId loser_count = 0;
};

/// The paper's Complete-Cut greedy on boundary graph \p bg. Ties on degree
/// break toward the lowest vertex id (deterministic). The bucketed
/// min-degree queue borrows `ws.degree` / `ws.buckets` and the liveness
/// array borrows `ws.flags`, so a warmed-up lane completes cuts
/// allocation-free. \p out is refilled in place (winner keeps its
/// capacity).
void complete_cut_greedy(const Graph& bg, Workspace& ws,
                         CompletionResult& out);

/// Weighted variant (engineer's rule): \p side is the proper 2-coloring
/// of \p bg, \p node_weight[v] is the module weight a winner v would pull
/// to its side (the pins not already forced by the partial bipartition),
/// and \p initial_weight{0,1} are the side weights already forced. Each
/// step picks the minimum-degree remaining vertex on the lighter side
/// (either side when equal; falls back to the other side when one is
/// exhausted). Same buffer contract as complete_cut_greedy().
void complete_cut_weighted(const Graph& bg, std::span<const std::uint8_t> side,
                           std::span<const Weight> node_weight,
                           Weight initial_weight0, Weight initial_weight1,
                           Workspace& ws, CompletionResult& out);

/// Optimal completion: winners = maximum independent set of the bipartite
/// \p bg (König), losers = minimum vertex cover. \p side must be a proper
/// 2-coloring.
[[nodiscard]] CompletionResult complete_cut_exact(
    const Graph& bg, std::span<const std::uint8_t> side);

/// Checks that \p result is a valid completion of \p bg: every vertex
/// labelled, winners independent, and (maximality) every loser has a winner
/// neighbor or a loser label forced by one. Aborts on violation; for tests.
void validate_completion(const Graph& bg, const CompletionResult& result);

}  // namespace fhp
