#include "validate/reference.hpp"

#include <numeric>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace fhp::validate {

namespace {

/// Start-order reduction shared by both references.
void keep_better(Algorithm1Result candidate, Algorithm1Result& best,
                 bool& have_best) {
  const bool take =
      !have_best || candidate.metrics.cut_edges < best.metrics.cut_edges ||
      (candidate.metrics.cut_edges == best.metrics.cut_edges &&
       candidate.metrics.weight_imbalance < best.metrics.weight_imbalance);
  if (take) {
    best = std::move(candidate);
    have_best = true;
  }
}

void require_supported(const Algorithm1Context& context,
                       const Algorithm1Options& options) {
  FHP_REQUIRE(!context.is_degenerate(),
              "the references cover the multi-start path only");
  FHP_REQUIRE(options.objective == Objective::kCutsize,
              "the references reduce under the cutsize objective");
}

/// The starts algorithm1() examines under \p options: the first
/// num_starts G-vertices of one seeded shuffle.
std::vector<VertexId> algorithm1_starts(const Algorithm1Context& context,
                                        const Algorithm1Options& options) {
  std::vector<VertexId> starts(context.intersection().num_vertices());
  std::iota(starts.begin(), starts.end(), VertexId{0});
  Rng rng(options.seed);
  rng.shuffle(starts);
  if (static_cast<std::uint64_t>(options.num_starts) < starts.size()) {
    starts.resize(static_cast<std::size_t>(options.num_starts));
  }
  return starts;
}

}  // namespace

Algorithm1Result per_start_reference(const Algorithm1Context& context,
                                     const Algorithm1Options& options) {
  require_supported(context, options);
  Algorithm1Result best;
  bool have_best = false;
  for (const VertexId start : algorithm1_starts(context, options)) {
    Algorithm1Context::StartScratch scratch;
    keep_better(context.run_single(start, scratch), best, have_best);
  }
  return best;
}

Algorithm1Result unpermuted_reference(const Algorithm1Context& context,
                                      const Algorithm1Options& options) {
  require_supported(context, options);
  FHP_REQUIRE(options.initial_cut == InitialCutStrategy::kBidirectionalBfs,
              "the unpermuted reference runs the bidirectional cut");
  const Graph& g = context.intersection();
  FHP_REQUIRE(g.num_vertices() >= 2, "a pair needs two G-vertices");
  Algorithm1Result best;
  bool have_best = false;
  for (const VertexId start : algorithm1_starts(context, options)) {
    Algorithm1Context::StartScratch scratch;
    const DiameterPair pair =
        longest_path_from(g, start, kPseudoDiameterSweeps, scratch.ws);
    bidirectional_bfs_cut(g, pair.s, pair.t, scratch.ws, scratch.cut);
    keep_better(context.complete_from_cut(scratch.cut.side, scratch), best,
                have_best);
  }
  return best;
}

}  // namespace fhp::validate
