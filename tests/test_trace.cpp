/// Observability layer: span nesting and aggregation, counter/gauge
/// accumulation, exporter output shape, reset semantics, and
/// cross-validation of Algorithm I's result diagnostics against the
/// tracer counters on a fixed-seed planted instance.
///
/// The Tracer/Counters runtime API is compiled in both tracing modes, so
/// every direct-API test below runs under -DFHP_ENABLE_TRACING=OFF too;
/// only the macro-dependent sections are gated on FHP_TRACING_ENABLED.
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "core/algorithm1.hpp"
#include "gen/planted.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace fhp {
namespace {

using obs::Counters;
using obs::ScopedSpan;
using obs::Tracer;
using obs::TraceReport;

/// Fresh observability state per test.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset(); }
  void TearDown() override { obs::reset(); }
};

TEST_F(TraceTest, SpansNestByScope) {
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner");
    }
  }
  const TraceReport report = obs::snapshot();
  ASSERT_EQ(report.spans.size(), 2U);
  EXPECT_EQ(report.spans[0].name, "outer");
  EXPECT_EQ(report.spans[0].parent, obs::kNoSpan);
  EXPECT_EQ(report.spans[1].name, "inner");
  EXPECT_EQ(report.spans[1].parent, 0U);
  // Parent time includes the child's.
  EXPECT_GE(report.spans[0].total_ns, report.spans[1].total_ns);
  EXPECT_EQ(Tracer::instance().open_depth(), 0U);
}

TEST_F(TraceTest, RepeatedSpansAggregateUnderSameParent) {
  {
    ScopedSpan run("run");
    for (int i = 0; i < 5; ++i) {
      ScopedSpan step("step");
    }
  }
  const TraceReport report = obs::snapshot();
  ASSERT_EQ(report.spans.size(), 2U);  // one node, not five
  EXPECT_EQ(report.span_calls("step"), 5U);
  EXPECT_EQ(report.span_calls("run"), 1U);
}

TEST_F(TraceTest, SameNameUnderDifferentParentsIsDistinct) {
  {
    ScopedSpan a("a");
    ScopedSpan shared("shared");
  }
  {
    ScopedSpan b("b");
    ScopedSpan shared("shared");
  }
  const TraceReport report = obs::snapshot();
  EXPECT_EQ(report.spans.size(), 4U);
  // span_ns()/span_calls() sum over all nodes with the name.
  EXPECT_EQ(report.span_calls("shared"), 2U);
}

TEST_F(TraceTest, RootTotalSumsTopLevelSpansOnly) {
  {
    ScopedSpan a("a");
    ScopedSpan child("child");
  }
  { ScopedSpan b("b"); }
  const TraceReport report = obs::snapshot();
  EXPECT_EQ(report.root_total_ns(),
            report.span_ns("a") + report.span_ns("b"));
}

TEST_F(TraceTest, OpenSpanContributesOnlyCompletedEntries) {
  ScopedSpan open("open");
  const TraceReport report = obs::snapshot();
  EXPECT_EQ(report.span_calls("open"), 0U);
  EXPECT_EQ(Tracer::instance().open_depth(), 1U);
}

TEST_F(TraceTest, CountersAccumulateAndGaugesOverwrite) {
  Counters& counters = Counters::instance();
  counters.add("test/events", 2);
  counters.add("test/events", 3);
  counters.set_gauge("test/level", 1.5);
  counters.set_gauge("test/level", 2.5);
  EXPECT_EQ(counters.value("test/events"), 5);
  EXPECT_DOUBLE_EQ(counters.gauge("test/level"), 2.5);
  // Untouched names read as zero rather than failing.
  EXPECT_EQ(counters.value("test/absent"), 0);
  EXPECT_DOUBLE_EQ(counters.gauge("test/absent"), 0.0);

  const TraceReport report = obs::snapshot();
  EXPECT_EQ(report.counter("test/events"), 5);
  EXPECT_DOUBLE_EQ(report.gauge("test/level"), 2.5);
}

TEST_F(TraceTest, ResetClearsEverything) {
  { ScopedSpan span("span"); }
  Counters::instance().add("test/count", 7);
  Counters::instance().set_gauge("test/gauge", 3.0);
  EXPECT_FALSE(obs::snapshot().empty());

  obs::reset();
  const TraceReport report = obs::snapshot();
  EXPECT_TRUE(report.empty());
  EXPECT_TRUE(report.events.empty());
  EXPECT_EQ(report.dropped_events, 0U);
  EXPECT_EQ(report.counter("test/count"), 0);
}

TEST_F(TraceTest, StaleCloseAfterResetIsIgnored) {
  // A ScopedSpan alive across a reset() must not corrupt the new tree.
  Tracer& tracer = Tracer::instance();
  const std::uint32_t node = tracer.open("doomed");
  const Tracer::Clock::time_point start = Tracer::Clock::now();
  obs::reset();
  tracer.close(node, start);  // stale handle: no effect
  EXPECT_EQ(tracer.open_depth(), 0U);
  EXPECT_TRUE(obs::snapshot().spans.empty());
}

TEST_F(TraceTest, JsonReportHasExpectedShape) {
  {
    ScopedSpan phase("phase");
    ScopedSpan sub("sub \"quoted\"");
  }
  Counters::instance().add("test/count", 4);
  Counters::instance().set_gauge("test/gauge", 0.5);

  const std::string json = obs::to_json(obs::snapshot());
  // The direct ScopedSpan API records in both build modes; only the flag
  // differs.
  EXPECT_NE(json.find(FHP_TRACING_ENABLED ? "\"tracing_compiled\": true"
                                          : "\"tracing_compiled\": false"),
            std::string::npos);
  EXPECT_NE(json.find("\"wall_total_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"sub \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"test/count\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"test/gauge\":"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST_F(TraceTest, ChromeTraceHasCompleteEvents) {
  {
    ScopedSpan a("a");
    ScopedSpan b("b");
  }
  const TraceReport report = obs::snapshot();
  ASSERT_EQ(report.events.size(), 2U);
  const std::string trace = obs::to_chrome_trace(report);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"a\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"b\""), std::string::npos);
}

TEST_F(TraceTest, ExportersHandleEmptyReports) {
  const TraceReport report = obs::snapshot();
  EXPECT_TRUE(report.empty());
  EXPECT_NE(obs::to_json(report).find("\"spans\": []"), std::string::npos);
  EXPECT_NE(obs::to_chrome_trace(report).find("\"traceEvents\": []"),
            std::string::npos);
  EXPECT_FALSE(obs::to_tree_string(report).empty());
}

TEST_F(TraceTest, JsonEscapeCoversControlCharacters) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::json_escape(std::string_view("x\x01y", 3)), "x\\u0001y");
}

// The macro layer: exercised in both build modes so the OFF configuration
// is checked to compile and to record nothing.
TEST_F(TraceTest, MacrosFollowCompileTimeSwitch) {
  {
    FHP_TRACE_SCOPE("macro_span");
    FHP_COUNTER_ADD("macro/count", 3);
    FHP_GAUGE_SET("macro/gauge", 9.0);
  }
  const TraceReport report = obs::snapshot();
#if FHP_TRACING_ENABLED
  EXPECT_TRUE(report.tracing_compiled);
  EXPECT_EQ(report.span_calls("macro_span"), 1U);
  EXPECT_EQ(report.counter("macro/count"), 3);
  EXPECT_DOUBLE_EQ(report.gauge("macro/gauge"), 9.0);
#else
  EXPECT_FALSE(report.tracing_compiled);
  EXPECT_TRUE(report.empty());
#endif
}

/// Small connected planted instance used for the diagnostics
/// cross-validation; fixed seed so counter expectations are exact.
Hypergraph cross_validation_instance() {
  PlantedParams params;
  params.num_vertices = 24;
  params.num_edges = 40;
  params.planted_cut = 2;
  params.min_edge_size = 2;
  params.max_edge_size = 4;
  return planted_instance(params, 7).hypergraph;
}

TEST_F(TraceTest, Algorithm1DiagnosticsAgreeWithCounters) {
  const Hypergraph h = cross_validation_instance();
  Algorithm1Options options;
  options.seed = 11;
  options.num_starts = 1;  // per-start counters == best-start diagnostics
  options.large_edge_threshold = 3;
  options.collect_trace = true;
  const Algorithm1Result result = algorithm1(h, options);
  ASSERT_FALSE(result.disconnected_shortcut);
  EXPECT_EQ(result.starts_run, 1);

  const TraceReport& report = result.trace;
#if FHP_TRACING_ENABLED
  EXPECT_TRUE(report.tracing_compiled);
  EXPECT_EQ(report.counter("alg1/runs"), 1);
  EXPECT_EQ(report.counter("alg1/starts_examined"), result.starts_run);
  EXPECT_EQ(report.counter("alg1/filtered_nets"),
            static_cast<long long>(result.filtered_edges));
  EXPECT_EQ(report.counter("alg1/boundary_nodes"),
            static_cast<long long>(result.boundary_size));
  EXPECT_DOUBLE_EQ(report.gauge("alg1/boundary_size"),
                   static_cast<double>(result.boundary_size));
  EXPECT_EQ(report.counter("alg1/completion_winners"),
            static_cast<long long>(result.winner_count));
  EXPECT_EQ(report.counter("alg1/completion_losers"),
            static_cast<long long>(result.loser_count));
  EXPECT_DOUBLE_EQ(report.gauge("alg1/pseudo_diameter"),
                   static_cast<double>(result.pseudo_diameter));
  // Pipeline phases all appear in the tree, under the root span.
  EXPECT_EQ(report.span_calls("algorithm1"), 1U);
  EXPECT_EQ(report.span_calls("intersection"), 1U);
  EXPECT_EQ(report.span_calls("filter"), 1U);
  EXPECT_GE(report.span_calls("diameter"), 1U);
  EXPECT_GE(report.span_calls("initial_cut"), 1U);
  EXPECT_EQ(report.span_calls("boundary"), 1U);
  EXPECT_EQ(report.span_calls("complete_cut"), 1U);
  EXPECT_GE(report.span_calls("assemble"), 1U);
  EXPECT_EQ(report.span_calls("score"), 1U);
#else
  EXPECT_FALSE(report.tracing_compiled);
  EXPECT_TRUE(report.empty());
#endif
}

// ---- thread-safety: the registry APIs under concurrent pool workers.
// The direct Counters/ScopedSpan APIs record in both build modes, so these
// tests stress the locking in the -DFHP_ENABLE_TRACING=OFF configuration
// too (and they are the workload of the ThreadSanitizer CI job).

TEST_F(TraceTest, CountersAreExactUnderConcurrentAdds) {
  constexpr int kAddsPerTask = 1000;
  constexpr std::size_t kTasks = 64;
  ThreadPool pool(8);
  pool.parallel_for(kTasks, 1, [](std::size_t task, std::size_t) {
    for (int i = 0; i < kAddsPerTask; ++i) {
      Counters::instance().add("test/contended", 1);
      Counters::instance().add(task % 2 == 0 ? "test/even" : "test/odd", 1);
      Counters::instance().set_gauge("test/last_task",
                                     static_cast<double>(task));
    }
  });
  // No increment may be lost, however the adds interleaved.
  EXPECT_EQ(Counters::instance().value("test/contended"),
            static_cast<long long>(kTasks) * kAddsPerTask);
  EXPECT_EQ(Counters::instance().value("test/even") +
                Counters::instance().value("test/odd"),
            static_cast<long long>(kTasks) * kAddsPerTask);
  // The gauge holds *some* task's value (last write wins, no torn reads).
  const double last = Counters::instance().gauge("test/last_task");
  EXPECT_GE(last, 0.0);
  EXPECT_LT(last, static_cast<double>(kTasks));
}

TEST_F(TraceTest, MacroCountersFromPoolWorkers) {
  ThreadPool pool(4);
  pool.parallel_for(32, 1, [](std::size_t, std::size_t) {
    FHP_COUNTER_ADD("test/macro_concurrent", 2);
    FHP_GAUGE_SET("test/macro_gauge", 1.0);
  });
  const TraceReport report = obs::snapshot();
#if FHP_TRACING_ENABLED
  EXPECT_EQ(report.counter("test/macro_concurrent"), 64);
  EXPECT_DOUBLE_EQ(report.gauge("test/macro_gauge"), 1.0);
#else
  EXPECT_TRUE(report.empty());
#endif
}

TEST_F(TraceTest, ConcurrentNestedSpansMergeAcrossThreads) {
  constexpr std::size_t kTasks = 24;
  ThreadPool pool(4);
  pool.parallel_for(kTasks, 1, [](std::size_t, std::size_t) {
    ScopedSpan outer("worker");
    for (int i = 0; i < 3; ++i) {
      ScopedSpan inner("step");
    }
  });
  const TraceReport report = obs::snapshot();
  // Every thread's "worker" spans merge into one root; its "step" children
  // aggregate under it. Calls sum exactly — concurrency loses nothing.
  EXPECT_EQ(report.span_calls("worker"), kTasks);
  EXPECT_EQ(report.span_calls("step"), kTasks * 3);
  EXPECT_GE(report.threads, 1U);
  // "step" sits under "worker" in the merged tree.
  for (std::size_t i = 0; i < report.spans.size(); ++i) {
    if (report.spans[i].name == "step") {
      ASSERT_NE(report.spans[i].parent, obs::kNoSpan);
      EXPECT_EQ(report.spans[report.spans[i].parent].name, "worker");
    }
  }
  // Events carry their recording thread; ids stay within the thread count.
  for (const obs::TraceEvent& event : report.events) {
    EXPECT_LT(event.tid, 64U);
  }
}

TEST_F(TraceTest, SpanNestingStaysPerThread) {
  // Another thread's spans must NOT become children of whatever this
  // thread has open: nesting is per-thread by design.
  {
    ScopedSpan caller("caller_root");
    std::thread other([] { ScopedSpan span("other_span"); });
    other.join();
  }
  const TraceReport report = obs::snapshot();
  EXPECT_EQ(report.span_calls("caller_root"), 1U);
  EXPECT_EQ(report.span_calls("other_span"), 1U);
  for (const obs::TraceSpan& span : report.spans) {
    if (span.name == "other_span") {
      EXPECT_EQ(span.parent, obs::kNoSpan)
          << "a foreign thread's span leaked under caller_root";
    }
  }
}

TEST_F(TraceTest, RendezvousGuaranteesMultipleRecordingThreads) {
  // Each chunk spins until a second thread has entered the region, so at
  // least two distinct threads provably record spans — deterministic even
  // on a single hardware core (a lone thread cannot claim a second chunk
  // while spinning inside its first).
  ThreadPool pool(4);
  std::atomic<int> arrived{0};
  pool.parallel_for(4, 1, [&](std::size_t, std::size_t) {
    ScopedSpan span("rendezvous");
    arrived.fetch_add(1);
    while (arrived.load(std::memory_order_relaxed) < 2) {
      std::this_thread::yield();
    }
  });
  const TraceReport report = obs::snapshot();
  EXPECT_EQ(report.span_calls("rendezvous"), 4U);
  EXPECT_GE(report.threads, 2U);
}

TEST_F(TraceTest, SnapshotWhileWorkersRecord) {
  // snapshot() may run concurrently with recording; it must return a
  // consistent tree (no crashes, parents precede children) even while
  // workers are mid-span.
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const TraceReport report = obs::snapshot();
      for (std::size_t i = 0; i < report.spans.size(); ++i) {
        const std::uint32_t parent = report.spans[i].parent;
        if (parent != obs::kNoSpan) {
          ASSERT_LT(parent, i);
        }
      }
    }
  });
  pool.parallel_for(64, 1, [](std::size_t, std::size_t) {
    ScopedSpan outer("snap_outer");
    ScopedSpan inner("snap_inner");
    Counters::instance().add("test/snap", 1);
  });
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
  EXPECT_EQ(obs::snapshot().span_calls("snap_outer"), 64U);
  EXPECT_EQ(Counters::instance().value("test/snap"), 64);
}

TEST_F(TraceTest, ResetPrunesExitedThreadBuffers) {
  {
    ThreadPool pool(4);
    pool.parallel_for(8, 1, [](std::size_t, std::size_t) {
      ScopedSpan span("ephemeral");
    });
  }  // pool destroyed: its workers have exited
  EXPECT_EQ(obs::snapshot().span_calls("ephemeral"), 8U);
  obs::reset();  // prunes dead-thread states along with the data
  EXPECT_TRUE(obs::snapshot().spans.empty());
  // Fresh recordings after the prune still work.
  { ScopedSpan span("after"); }
  EXPECT_EQ(obs::snapshot().span_calls("after"), 1U);
}

#if FHP_TRACING_ENABLED
TEST_F(TraceTest, ParallelAlgorithm1ReportsWorkerThreads) {
  const Hypergraph h = cross_validation_instance();
  Algorithm1Options options;
  options.seed = 11;
  options.num_starts = 8;
  options.threads = 4;
  options.collect_trace = true;
  const Algorithm1Result result = algorithm1(h, options);
  // Span calls sum exactly no matter which lane ran which start: every
  // start finds its pair, and every distinct pair (memo miss) runs the
  // boundary step once. (threads >= 2 is NOT asserted here: on a single
  // hardware core the caller lane can legitimately drain every start
  // before a worker wakes; RendezvousGuaranteesMultipleRecordingThreads
  // covers the multi-thread merge deterministically.)
  EXPECT_GE(result.trace.threads, 1U);
  EXPECT_EQ(result.trace.counter("alg1/starts_examined"), 8);
  EXPECT_EQ(result.trace.span_calls("boundary"),
            static_cast<std::uint64_t>(
                result.trace.counter("algorithm1/starts_memo_misses")));
  EXPECT_NE(obs::to_json(result.trace).find("\"threads\":"),
            std::string::npos);
}
#endif

TEST_F(TraceTest, MultiStartCountsEveryStart) {
  // run_single() is one full pipeline per call, memo or not.
  const Hypergraph h = cross_validation_instance();
  Algorithm1Options options;
  options.seed = 3;
  const Algorithm1Context context(h, options);
  ASSERT_FALSE(context.is_degenerate());
  Algorithm1Context::StartScratch scratch;
  for (VertexId start = 0; start < 5; ++start) {
    EXPECT_EQ(context.run_single(start, scratch).starts_run, 1);
  }
#if FHP_TRACING_ENABLED
  const TraceReport report = obs::snapshot();
  EXPECT_EQ(report.counter("alg1/starts_examined"), 5);
  EXPECT_EQ(report.span_calls("boundary"), 5U);
#endif
}

TEST_F(TraceTest, MemoizedMultiStartAccountsHitsAndMisses) {
  const Hypergraph h = cross_validation_instance();
  Algorithm1Options options;
  options.seed = 3;
  options.num_starts = 5;
  options.collect_trace = true;
  const Algorithm1Result result = algorithm1(h, options);
  EXPECT_EQ(result.starts_run, 5);
#if FHP_TRACING_ENABLED
  // Every start is still examined (its pseudo-diameter pair is found)...
  EXPECT_EQ(result.trace.counter("alg1/starts_examined"), 5);
  // ...and every start is either a memo hit or a completed miss; only the
  // misses run the boundary/completion pipeline.
  const long long hits = result.trace.counter("algorithm1/starts_memo_hits");
  const long long misses =
      result.trace.counter("algorithm1/starts_memo_misses");
  EXPECT_EQ(hits + misses, 5);
  EXPECT_GE(misses, 1);
  EXPECT_EQ(result.trace.span_calls("boundary"),
            static_cast<std::uint64_t>(misses));
#endif
}

}  // namespace
}  // namespace fhp
