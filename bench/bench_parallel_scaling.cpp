/// \file bench_parallel_scaling.cpp
/// Thread-scaling sweep of the parallel Algorithm I substrate
/// (docs/parallelism.md): runs the same fixed-seed instance at 1/2/4/8
/// execution lanes, verifies the chosen partition is bit-identical at every
/// lane count (the substrate's central guarantee), and records the speedup
/// curve into BENCH_parallel_scaling.json.
///
/// Interpreting the curve requires knowing the host: on a single-core
/// container every setting time-slices one CPU and the "speedup" hovers
/// around 1.0 (the gauges still record it); the scaling target (>= 2.5x at
/// 4 lanes) is only observable on a host with >= 4 hardware threads.
#include <string>

#include "bench_common.hpp"

using namespace fhp;
using namespace fhp::bench;

int main() {
  BenchSession session("parallel_scaling");
  print_header("Algorithm I thread scaling (fixed seed, identical answers)");

  PlantedParams params;
  params.num_vertices = 1500;
  params.num_edges = 2600;
  params.planted_cut = 6;
  const Hypergraph h = planted_instance(params, 42).hypergraph;

  constexpr int kThreadCounts[] = {1, 2, 4, 8};
  constexpr int kReps = 3;
  double mean_seconds[4] = {0, 0, 0, 0};
  std::vector<std::uint8_t> reference_sides;

  for (int ti = 0; ti < 4; ++ti) {
    const int threads = kThreadCounts[ti];
    const std::string label = "alg1_threads=" + std::to_string(threads);
    TimedRun last;
    for (int rep = 0; rep < kReps; ++rep) {
      last = measure(label.c_str(), [&] {
        Algorithm1Options options;
        options.seed = 1;
        options.num_starts = 50;
        options.threads = threads;
        return algorithm1(h, options);
      });
      mean_seconds[ti] += last.seconds / kReps;
    }
    std::printf("  %2d lane%s  %8.3f ms/run   cut %u\n", threads,
                threads == 1 ? " " : "s", mean_seconds[ti] * 1e3, last.cut);
    if (ti == 0) {
      reference_sides = last.sides;
    } else if (last.sides != reference_sides) {
      std::fprintf(stderr,
                   "FAIL: partition at %d lanes differs from serial\n",
                   threads);
      return 1;
    }
  }
  std::printf("  partitions bit-identical across every lane count\n");

  const double s2 = mean_seconds[0] / mean_seconds[1];
  const double s4 = mean_seconds[0] / mean_seconds[2];
  const double s8 = mean_seconds[0] / mean_seconds[3];
  std::printf("  speedup: %.2fx @2, %.2fx @4, %.2fx @8\n", s2, s4, s8);
  FHP_GAUGE_SET("bench/speedup_2t", s2);
  FHP_GAUGE_SET("bench/speedup_4t", s4);
  FHP_GAUGE_SET("bench/speedup_8t", s8);

  // Speedup gates scale to the host: on a box that cannot physically show
  // parallel speedup (single-core CI containers time-slice one CPU and
  // every ratio hovers around 1.0) the thresholds become advisory prints
  // instead of failures — the gauges above still record the curve.
  const unsigned hw = std::thread::hardware_concurrency();
  FHP_GAUGE_SET("bench/hardware_threads", static_cast<double>(hw));
  if (hw >= 4) {
    if (s4 < 1.8) {
      std::fprintf(stderr,
                   "FAIL: %.2fx speedup at 4 lanes on a %u-thread host "
                   "(expected >= 1.8x)\n",
                   s4, hw);
      return 1;
    }
  } else if (hw >= 2) {
    if (s2 < 1.2) {
      std::fprintf(stderr,
                   "FAIL: %.2fx speedup at 2 lanes on a %u-thread host "
                   "(expected >= 1.2x)\n",
                   s2, hw);
      return 1;
    }
  } else {
    std::printf(
        "  advisory: single hardware thread; speedup thresholds skipped\n");
  }

  // Orthogonal use of the substrate: independent *trials* (distinct seeds,
  // each run serial) spread across a pool via measure_trials — the
  // repetition-level parallelism mode of the harness.
  print_header("independent trials across a 4-lane pool");
  ThreadPool pool(4);
  const std::vector<TimedRun> trials =
      measure_trials("alg1_trial_seeds", 8, &pool, [&](std::size_t i) {
        Algorithm1Options options;
        options.seed = 100 + i;
        options.num_starts = 10;
        return algorithm1(h, options);
      });
  for (std::size_t i = 0; i < trials.size(); ++i) {
    std::printf("  seed %llu: cut %u\n",
                static_cast<unsigned long long>(100 + i), trials[i].cut);
  }
  return 0;
}
