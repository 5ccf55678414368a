/// \file bench_multilevel.cpp
/// Proof harness of the multilevel engine (src/multilevel/): at scale, on
/// the paper's difficult planted family, the V-cycle must be *both* at
/// least as good and faster than flat Algorithm I. Wired into CI as a
/// gate — it ABORTS (nonzero exit) when
///   - the coarsener's clustering is not bit-identical across thread
///     counts {1, 2, 8},
///   - the engine's partition is not bit-identical across thread counts,
///   - the multilevel median cut (across seeds) exceeds the flat
///     Algorithm I median cut on any gated instance, or
///   - the multilevel min-of-k wall time is not strictly below the flat
///     min-of-k wall time on any gated instance.
/// FM and the mini-multilevel baseline run as informational comparison
/// legs (recorded, never gated — FM latency is noise-prone at this size).
/// Timing series land in BENCH_multilevel.json for the perf ledger and
/// the benchdiff sentinel (bench/baselines/BENCH_multilevel.json).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/fm.hpp"
#include "baselines/multilevel.hpp"
#include "bench_common.hpp"
#include "multilevel/coarsen.hpp"
#include "multilevel/engine.hpp"
#include "obs/counters.hpp"

namespace {

using namespace fhp;
using namespace fhp::bench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("  [ok]   %s\n", what.c_str());
  } else {
    std::printf("  [FAIL] %s\n", what.c_str());
    ++failures;
  }
}

/// The gated instances: difficult planted-bisection rows (2-pin nets,
/// ~3-regular — the family where iterative improvement sticks) scaled
/// above kDefaultMultilevelThreshold, so they exercise exactly the regime
/// partition_auto routes to the engine.
struct GatedInstance {
  Table2Instance spec;
  int seeds;      ///< independent instance+algorithm seeds
  int timed_reps; ///< min-of-k repetitions per seed
};

std::vector<GatedInstance> gated_instances() {
  return {
      {{"DiffXL1", 2500, 3800, Technology::kStandardCell, true, 6}, 3, 2},
      {{"DiffXL2", 4000, 6000, Technology::kStandardCell, true, 8}, 3, 2},
  };
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// Coarsener + engine bit-identity across thread counts — the structural
/// promise (parallel rating is a pure map) checked end to end at bench
/// scale, where chunk boundaries actually differ per lane count.
void check_thread_identity(const Hypergraph& h, const std::string& name) {
  print_header("bit-identity across thread counts: " + name);

  const ml::ClusteringResult serial = ml::heavy_edge_clustering(h, {}, {});
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    const ml::ClusteringResult parallel =
        ml::heavy_edge_clustering(h, {}, {}, &pool);
    check(parallel.cluster == serial.cluster &&
              parallel.num_clusters == serial.num_clusters,
          name + ": clustering threads=" + std::to_string(threads) +
              " == serial");
  }

  ml::PartitionPlan plan;
  plan.engine = ml::EngineChoice::kMultilevel;
  plan.algorithm1.threads = 1;
  const ml::EngineResult reference = ml::partition_auto(h, plan);
  for (int threads : {2, 8}) {
    plan.algorithm1.threads = threads;
    const ml::EngineResult r = ml::partition_auto(h, plan);
    check(r.sides == reference.sides &&
              r.metrics.cut_weight == reference.metrics.cut_weight,
          name + ": engine threads=" + std::to_string(threads) +
              " == threads=1");
  }
}

/// The headline race on one instance: flat Algorithm I vs the engine
/// (identical Algorithm1Options at the coarsest level), with FM and the
/// mini-multilevel baseline as informational legs.
void race(const GatedInstance& gated) {
  const Table2Instance& spec = gated.spec;
  print_header("race: " + spec.name + " (" + std::to_string(spec.modules) +
               " modules, planted cut " + std::to_string(spec.planted_cut) +
               ")");

  std::vector<double> flat_cuts, ml_cuts, flat_times, ml_times;
  for (int seed = 1; seed <= gated.seeds; ++seed) {
    const Hypergraph h = make_instance(spec, static_cast<std::uint64_t>(seed));

    Algorithm1Options flat_options;
    flat_options.seed = static_cast<std::uint64_t>(seed);
    const TimedRun flat = measure(
        ("flat_alg1/" + spec.name).c_str(),
        [&] { return algorithm1(h, flat_options); }, /*warmup=*/0,
        gated.timed_reps);

    // Default engine configuration (reduced coarse-start budget, relative
    // coarsening floor) vs the default flat path — exactly the two
    // configurations partition_auto routes between.
    ml::PartitionPlan engine_plan;
    engine_plan.engine = ml::EngineChoice::kMultilevel;
    engine_plan.algorithm1.seed = static_cast<std::uint64_t>(seed);
    const TimedRun ml = measure(
        ("multilevel/" + spec.name).c_str(),
        [&] { return ml::partition_auto(h, engine_plan); },
        /*warmup=*/0, gated.timed_reps);

    FmOptions fm_options;
    fm_options.seed = static_cast<std::uint64_t>(seed);
    const TimedRun fm = measure(
        ("fm/" + spec.name).c_str(),
        [&] { return fiduccia_mattheyses(h, fm_options); }, /*warmup=*/0, 1);

    MultilevelOptions mini_options;
    mini_options.seed = static_cast<std::uint64_t>(seed);
    const TimedRun mini = measure(
        ("mini_multilevel/" + spec.name).c_str(),
        [&] { return multilevel_bipartition(h, mini_options); },
        /*warmup=*/0, 1);

    std::printf(
        "  seed %d: flat cut %4u (%7.1f ms) | ml cut %4u (%7.1f ms) | "
        "fm cut %4u | mini cut %4u\n",
        seed, static_cast<unsigned>(flat.cut), flat.seconds * 1e3,
        static_cast<unsigned>(ml.cut), ml.seconds * 1e3,
        static_cast<unsigned>(fm.cut), static_cast<unsigned>(mini.cut));

    flat_cuts.push_back(static_cast<double>(flat.cut));
    ml_cuts.push_back(static_cast<double>(ml.cut));
    flat_times.push_back(flat.seconds);
    ml_times.push_back(ml.seconds);
  }

  const double flat_cut_median = median(flat_cuts);
  const double ml_cut_median = median(ml_cuts);
  const double flat_best = *std::min_element(flat_times.begin(),
                                             flat_times.end());
  const double ml_best = *std::min_element(ml_times.begin(), ml_times.end());
  std::printf("  median cut: flat %.0f vs ml %.0f;  best time: flat %.1f ms "
              "vs ml %.1f ms (%.1fx)\n",
              flat_cut_median, ml_cut_median, flat_best * 1e3, ml_best * 1e3,
              flat_best / ml_best);
  obs::Counters::instance().set_gauge(
      ("multilevel/" + spec.name + "/speedup").c_str(), flat_best / ml_best);

  check(ml_cut_median <= flat_cut_median,
        spec.name + ": multilevel median cut <= flat median cut");
  check(ml_best < flat_best,
        spec.name + ": multilevel min-of-k wall time < flat");
}

}  // namespace

int main() {
  BenchSession session("multilevel");

  const std::vector<GatedInstance> gated = gated_instances();

  // Determinism legs on the first (smaller) gated instance: the full
  // matrix at bench scale; the tests cover the golden instances.
  check_thread_identity(make_instance(gated[0].spec, 1), gated[0].spec.name);

  for (const GatedInstance& g : gated) race(g);

  if (failures > 0) {
    std::printf("\nbench_multilevel: %d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nbench_multilevel: all checks passed\n");
  return 0;
}
