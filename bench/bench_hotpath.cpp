/// \file bench_hotpath.cpp
/// Hot-path regression harness for the workspace substrate, the counting
/// intersection build, start memoization and the locality-permuted
/// traversal. Unlike the experiment benches this one is also a correctness
/// gate wired into CI: it ABORTS (nonzero exit) when
///   - algorithm1() at threads {1, 2, 8} is not bit-identical to the
///     per-start reference (a run_single() loop, one fresh StartScratch per
///     start; validate/reference.hpp),
///   - the permuted traversal changes the partition relative to the
///     unpermuted reference at threads {1, 2, 8},
///   - per-lane workspace reuse does not cut buffer growths by >= 2x versus
///     a fresh scratch per start (tracing builds), or
///   - a 50-start run records no memo hits (tracing builds).
/// Timing numbers (ns/start, build times, scratch footprint) go into
/// BENCH_hotpath.json; the asserts are about counters and bytes, never
/// about wall time, so the gate is scheduler-noise free.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/intersection.hpp"
#include "gen/grid.hpp"
#include "obs/counters.hpp"
#include "util/timer.hpp"
#include "validate/reference.hpp"

namespace {

using namespace fhp;
using namespace fhp::bench;

int failures = 0;

void check(bool ok, const char* what) {
  if (ok) {
    std::printf("  [ok]   %s\n", what);
  } else {
    std::printf("  [FAIL] %s\n", what);
    ++failures;
  }
}

#if FHP_TRACING_ENABLED
long long counter(const char* name) {
  return obs::Counters::instance().value(name);
}
#endif

/// The configuration every leg runs: 50 starts, seed 7, \p threads lanes.
Algorithm1Options hotpath_options(int threads) {
  Algorithm1Options options;
  options.num_starts = 50;
  options.seed = 7;
  options.threads = threads;
  return options;
}

/// Bit-identity of the driver at threads {1, 2, 8} against both
/// references: the per-start loop (what memoization must reproduce) and
/// the unpermuted traversal (what the locality permutation must
/// reproduce).
void check_bit_identity(const Hypergraph& h) {
  print_header("bit-identity: algorithm1 vs the per-start and unpermuted "
               "references");
  const Algorithm1Options serial = hotpath_options(1);
  const Algorithm1Context context(h, serial);
  if (context.is_degenerate()) {
    // Disconnected G takes the degenerate shortcut: no per-start pipeline
    // to compare against.
    std::printf("  [skip] references (degenerate instance)\n");
    return;
  }
  const Algorithm1Result per_start =
      validate::per_start_reference(context, serial);
  const Algorithm1Result unpermuted =
      validate::unpermuted_reference(context, serial);
  for (const int threads : {1, 2, 8}) {
    const Algorithm1Result got = algorithm1(h, hotpath_options(threads));
    const std::string prefix = "threads=" + std::to_string(threads);
    check(got.sides == per_start.sides &&
              got.metrics.cut_edges == per_start.metrics.cut_edges,
          (prefix + ": algorithm1 == per-start reference partition").c_str());
    check(got.sides == unpermuted.sides &&
              got.metrics.cut_edges == unpermuted.metrics.cut_edges,
          (prefix + ": algorithm1 == unpermuted reference partition").c_str());
  }
}

/// Allocation accounting: a fresh scratch per start pays workspace growths
/// on every start; the per-lane driver pays them once per lane. Requires
/// tracing.
void check_allocation_reduction(const Hypergraph& h) {
  print_header("allocation accounting: per-start vs per-lane workspaces");
#if FHP_TRACING_ENABLED
  const Algorithm1Options options = hotpath_options(1);
  const Algorithm1Context context(h, options);

  long long naive_grows = 0;
  for (VertexId start = 0;
       start < std::min<VertexId>(50U, context.intersection().num_vertices());
       ++start) {
    Algorithm1Context::StartScratch scratch;
    static_cast<void>(context.run_single(start, scratch));
    naive_grows += static_cast<long long>(scratch.ws.grow_events());
  }

  obs::Counters::instance().reset();
  static_cast<void>(algorithm1(h, options));
  const long long reused_grows = counter("workspace/buffer_grows");
  const double scratch_bytes =
      obs::Counters::instance().gauge("alg1/scratch_bytes");

  std::printf("  buffer grows: naive=%lld reused=%lld (scratch %.0f bytes)\n",
              naive_grows, reused_grows, scratch_bytes);
  obs::Counters::instance().set_gauge("hotpath/naive_buffer_grows",
                                      static_cast<double>(naive_grows));
  obs::Counters::instance().set_gauge("hotpath/reused_buffer_grows",
                                      static_cast<double>(reused_grows));
  check(reused_grows > 0 && naive_grows >= 2 * reused_grows,
        "per-lane reuse cuts buffer growths by >= 2x");
#else
  std::printf("  tracing compiled out; allocation counters unavailable\n");
  static_cast<void>(h);
#endif
}

/// Memo effectiveness: a 50-start run must register hits (distinct starts
/// converge onto few pseudo-diameter pairs). Requires tracing.
void check_memo_hits(const Hypergraph& h) {
  print_header("memoization: hits on a 50-start run");
#if FHP_TRACING_ENABLED
  obs::Counters::instance().reset();
  static_cast<void>(algorithm1(h, hotpath_options(1)));
  const long long hits = counter("algorithm1/starts_memo_hits");
  const long long misses = counter("algorithm1/starts_memo_misses");
  std::printf("  memo: %lld hits / %lld misses\n", hits, misses);
  check(hits > 0, "memo hit counter > 0 on 50 starts");
  check(hits + misses == counter("alg1/starts_examined"),
        "every examined start is a hit or a miss");
#else
  std::printf("  tracing compiled out; memo counters unavailable\n");
  static_cast<void>(h);
#endif
}

/// Timing legs: ns/start for the driver and the two references, and the
/// two intersection builders. Informational (recorded, never asserted).
void measure_timings(const Hypergraph& h) {
  print_header("timings (informational)");
  const Algorithm1Options options = hotpath_options(1);
  const auto run = [&](const char* label, const auto& body) {
    const TimedRun r = measure(label, body);
    const double ns_per_start =
        r.seconds * 1e9 / static_cast<double>(options.num_starts);
    obs::Counters::instance().set_gauge(
        (std::string(label) + "/ns_per_start").c_str(), ns_per_start);
    std::printf("  %-24s %8.3f ms  (%9.0f ns/start, cut %u)\n", label,
                r.seconds * 1e3, ns_per_start, static_cast<unsigned>(r.cut));
  };
  for (int rep = 0; rep < 5; ++rep) {
    run("alg1", [&] { return algorithm1(h, options); });
    run("per_start_reference", [&] {
      const Algorithm1Context context(h, options);
      return validate::per_start_reference(context, options);
    });
    run("unpermuted_reference", [&] {
      const Algorithm1Context context(h, options);
      return validate::unpermuted_reference(context, options);
    });
  }

  for (int rep = 0; rep < 5; ++rep) {
    Timer counting;
    const Graph g1 = intersection_graph(h);
    const double counting_s = counting.seconds();
    Timer reference;
    const Graph g2 = intersection_graph_reference(h);
    const double reference_s = reference.seconds();
    BenchRecorder::instance().add("intersection_counting", counting_s,
                                  static_cast<double>(g1.num_edges()));
    BenchRecorder::instance().add("intersection_reference", reference_s,
                                  static_cast<double>(g2.num_edges()));
    if (rep == 0) {
      obs::Counters::instance().set_gauge("hotpath/intersection_counting_s",
                                          counting_s);
      obs::Counters::instance().set_gauge("hotpath/intersection_reference_s",
                                          reference_s);
      std::printf("  intersection build:      counting %.3f ms, reference "
                  "%.3f ms (%zu edges)\n",
                  counting_s * 1e3, reference_s * 1e3, g1.num_edges());
    }
  }
}

}  // namespace

int main() {
  BenchSession session("hotpath");

  // Three shapes: a standard-cell circuit (the paper's regime), a planted
  // bisection (dense G), and a grid (deep BFS, many levels).
  const Hypergraph circuit = make_instance(
      {"IC", 800, 1200, Technology::kStandardCell, false, 0}, 13);
  const Hypergraph planted = make_instance(
      {"Diff", 400, 600, Technology::kStandardCell, true, 6}, 13);
  const Hypergraph grid = grid_circuit({16, 16, 0.3, false}, 3);

  for (const auto* leg : {&circuit, &planted, &grid}) check_bit_identity(*leg);
  check_allocation_reduction(circuit);
  check_memo_hits(circuit);
  measure_timings(circuit);

  if (failures > 0) {
    std::printf("\nbench_hotpath: %d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nbench_hotpath: all checks passed\n");
  return 0;
}
