/// \file bench_flow_refine.cpp
/// Quality-vs-time Pareto harness of the corridor flow refiner
/// (src/multilevel/flow_refine.*): four engine configurations — flat
/// Algorithm I, flat + corridor-flow post-pass, multilevel + FM, and
/// multilevel + flow + FM — raced on standard-cell and multi-pin planted
/// instances, with simulated annealing as the expensive-metaheuristic
/// yardstick. Wired into CI as a gate — it ABORTS (nonzero exit) when
///   - `ml+flow+fm` median cut (across seeds) exceeds the `ml+fm` median
///     cut on any gated instance,
///   - `ml+flow+fm` is not *strictly* better than `ml+fm` on at least one
///     gated instance (the refiner must earn its keep, not just not hurt),
///   - `flat+flow` does not reach an equal-or-better median cut than SA,
///   - `flat+flow` min-of-k wall time is not below 25% of SA's, or
///   - the engine partition with the flow refiner in the seat is not
///     bit-identical across thread counts {1, 2, 8}.
/// Timing series land in BENCH_flow_refine.json for the perf ledger and
/// the benchdiff sentinel (bench/baselines/BENCH_flow_refine.json).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "multilevel/engine.hpp"
#include "multilevel/flow_refine.hpp"
#include "obs/counters.hpp"

namespace {

using namespace fhp;
using namespace fhp::bench;

int failures = 0;
int strictly_better = 0;  ///< gated instances where ml+flow+fm beat ml+fm

void check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("  [ok]   %s\n", what.c_str());
  } else {
    std::printf("  [FAIL] %s\n", what.c_str());
    ++failures;
  }
}

/// The gated instances. Two families, chosen for where flow pays off:
/// hierarchical standard-cell circuits (multi-pin nets whose boundary FM
/// walks one vertex at a time) and multi-pin planted bisections (the
/// 2-to-4-pin variant of the paper's difficult family — unlike the 2-pin
/// rows of bench_multilevel, FM does *not* reliably reach the planted cut
/// here, so the corridor solve has real mistakes to repair).
struct FlowInstance {
  std::string name;
  bool planted;         ///< multi-pin planted bisection vs standard cell
  VertexId modules;
  EdgeId nets;
  EdgeId planted_cut;   ///< planted instances only
  int seeds;            ///< independent instance+algorithm seeds
  int timed_reps;       ///< min-of-k repetitions per seed
};

std::vector<FlowInstance> gated_instances() {
  return {
      {"FlowSC1", false, 900, 1400, 0, 3, 2},
      {"FlowSC2", false, 1600, 2400, 0, 3, 2},
      {"FlowPl1", true, 1200, 1900, 6, 3, 2},
      {"FlowPl2", true, 2000, 3200, 8, 3, 2},
  };
}

Hypergraph make_flow_instance(const FlowInstance& inst, std::uint64_t seed) {
  if (inst.planted) {
    PlantedParams params;
    params.num_vertices = inst.modules;
    params.num_edges = inst.nets;
    params.planted_cut = inst.planted_cut;
    params.min_edge_size = 2;
    params.max_edge_size = 4;
    params.max_degree = 6;
    return planted_instance(params, seed).hypergraph;
  }
  return generate_circuit(
      table2_params(inst.modules, inst.nets, Technology::kStandardCell),
      seed);
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// Engine bit-identity across thread counts with corridor flow refining
/// every level — the corridor BFS, gadget build and max-flow solve are all
/// serial fixed-order code, so the engine's identity contract must be
/// unchanged by the premium refiner.
void check_thread_identity(const Hypergraph& h, const std::string& name) {
  print_header("bit-identity across thread counts: " + name + " (flow+fm)");
  ml::PartitionPlan plan;
  plan.engine = ml::EngineChoice::kMultilevel;
  plan.refiner = ml::RefinerChoice::kFlowFm;
  plan.algorithm1.threads = 1;
  const ml::EngineResult reference = ml::partition_auto(h, plan);
  for (int threads : {2, 8}) {
    plan.algorithm1.threads = threads;
    const ml::EngineResult r = ml::partition_auto(h, plan);
    check(r.sides == reference.sides &&
              r.metrics.cut_weight == reference.metrics.cut_weight,
          name + ": flow+fm engine threads=" + std::to_string(threads) +
              " == threads=1");
  }
}

/// One Pareto row: the four configurations plus the SA yardstick.
void pareto(const FlowInstance& inst) {
  print_header("pareto: " + inst.name + " (" + std::to_string(inst.modules) +
               " modules, " +
               (inst.planted ? "multi-pin planted cut " +
                                   std::to_string(inst.planted_cut)
                             : std::string("standard cell")) +
               ")");

  std::vector<double> flat_cuts, flatflow_cuts, mlfm_cuts, mlflow_cuts,
      sa_cuts;
  std::vector<double> flatflow_times, sa_times;
  for (int seed = 1; seed <= inst.seeds; ++seed) {
    const Hypergraph h =
        make_flow_instance(inst, static_cast<std::uint64_t>(seed));

    auto run_plan = [&](ml::EngineChoice engine, ml::RefinerChoice refiner,
                        const char* label) {
      ml::PartitionPlan plan;
      plan.engine = engine;
      plan.refiner = refiner;
      plan.algorithm1.seed = static_cast<std::uint64_t>(seed);
      plan.algorithm1.threads = 1;
      return measure((std::string(label) + "/" + inst.name).c_str(),
                     [&] { return ml::partition_auto(h, plan); },
                     /*warmup=*/0, inst.timed_reps);
    };

    const TimedRun flat = run_plan(ml::EngineChoice::kFlat,
                                   ml::RefinerChoice::kFm, "flat");
    const TimedRun flatflow = run_plan(ml::EngineChoice::kFlat,
                                       ml::RefinerChoice::kFlow, "flat_flow");
    const TimedRun mlfm = run_plan(ml::EngineChoice::kMultilevel,
                                   ml::RefinerChoice::kFm, "ml_fm");
    const TimedRun mlflow = run_plan(ml::EngineChoice::kMultilevel,
                                     ml::RefinerChoice::kFlowFm,
                                     "ml_flow_fm");
    const TimedRun sa = run_sa(h, static_cast<std::uint64_t>(seed));

    std::printf(
        "  seed %d: flat %4u | flat+flow %4u (%6.1f ms) | ml+fm %4u | "
        "ml+flow+fm %4u | sa %4u (%6.1f ms)\n",
        seed, static_cast<unsigned>(flat.cut),
        static_cast<unsigned>(flatflow.cut), flatflow.seconds * 1e3,
        static_cast<unsigned>(mlfm.cut), static_cast<unsigned>(mlflow.cut),
        static_cast<unsigned>(sa.cut), sa.seconds * 1e3);

    flat_cuts.push_back(static_cast<double>(flat.cut));
    flatflow_cuts.push_back(static_cast<double>(flatflow.cut));
    mlfm_cuts.push_back(static_cast<double>(mlfm.cut));
    mlflow_cuts.push_back(static_cast<double>(mlflow.cut));
    sa_cuts.push_back(static_cast<double>(sa.cut));
    flatflow_times.push_back(flatflow.seconds);
    sa_times.push_back(sa.seconds);
  }

  const double flat_median = median(flat_cuts);
  const double flatflow_median = median(flatflow_cuts);
  const double mlfm_median = median(mlfm_cuts);
  const double mlflow_median = median(mlflow_cuts);
  const double sa_median = median(sa_cuts);
  const double flatflow_best =
      *std::min_element(flatflow_times.begin(), flatflow_times.end());
  const double sa_best = *std::min_element(sa_times.begin(), sa_times.end());

  std::printf(
      "  median cut: flat %.0f | flat+flow %.0f | ml+fm %.0f | "
      "ml+flow+fm %.0f | sa %.0f;  flat+flow %.1f ms vs sa %.1f ms "
      "(%.1f%% of sa)\n",
      flat_median, flatflow_median, mlfm_median, mlflow_median, sa_median,
      flatflow_best * 1e3, sa_best * 1e3,
      100.0 * flatflow_best / sa_best);
  obs::Counters::instance().set_gauge(
      ("flow_refine/" + inst.name + "/sa_time_fraction").c_str(),
      flatflow_best / sa_best);
  obs::Counters::instance().set_gauge(
      ("flow_refine/" + inst.name + "/ml_flow_gain").c_str(),
      mlfm_median - mlflow_median);

  check(mlflow_median <= mlfm_median,
        inst.name + ": ml+flow+fm median cut <= ml+fm median cut");
  if (mlflow_median < mlfm_median) ++strictly_better;
  check(flatflow_median <= flat_median,
        inst.name + ": the flat flow post-pass never worsens flat");
  check(flatflow_median <= sa_median,
        inst.name + ": flat+flow median cut <= SA median cut");
  check(flatflow_best < 0.25 * sa_best,
        inst.name + ": flat+flow wall time < 25% of SA");
}

}  // namespace

int main() {
  BenchSession session("flow_refine");

  const std::vector<FlowInstance> gated = gated_instances();

  check_thread_identity(make_flow_instance(gated[0], 1), gated[0].name);

  for (const FlowInstance& inst : gated) pareto(inst);

  check(strictly_better >= 1,
        "ml+flow+fm strictly better than ml+fm on >= 1 gated instance (" +
            std::to_string(strictly_better) + ")");

  if (failures > 0) {
    std::printf("\nbench_flow_refine: %d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nbench_flow_refine: all checks passed\n");
  return 0;
}
