/// Histogram subsystem: bucket-boundary invariants of the HDR-style
/// mapping, percentile queries against a sorted-vector oracle,
/// multi-thread record determinism, snapshot/reset semantics, the RAII
/// latency probe, macro behavior in both tracing modes, and the surface
/// the exporters add on top (histograms + RSS in TraceReport).
#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/report.hpp"
#include "util/memory.hpp"

namespace fhp {
namespace {

using obs::HistogramSnapshot;
using obs::Histograms;
using obs::hist_bucket_index;
using obs::hist_bucket_lower;
using obs::hist_bucket_upper;
using obs::kHistBuckets;
using obs::kHistSubBuckets;

/// Fresh histogram state per test.
class HistogramTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset(); }
  void TearDown() override { obs::reset(); }
};

TEST(HistogramBuckets, LowerAndUpperRoundTripThroughIndex) {
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    EXPECT_EQ(hist_bucket_index(hist_bucket_lower(i)), i) << "bucket " << i;
    EXPECT_EQ(hist_bucket_index(hist_bucket_upper(i)), i) << "bucket " << i;
    EXPECT_LE(hist_bucket_lower(i), hist_bucket_upper(i));
  }
}

TEST(HistogramBuckets, BucketsTileTheRangeWithoutGapsOrOverlap) {
  EXPECT_EQ(hist_bucket_lower(0), 0U);
  for (std::size_t i = 0; i + 1 < kHistBuckets; ++i) {
    EXPECT_EQ(hist_bucket_upper(i) + 1, hist_bucket_lower(i + 1))
        << "gap/overlap after bucket " << i;
  }
  EXPECT_EQ(hist_bucket_upper(kHistBuckets - 1), ~std::uint64_t{0});
}

TEST(HistogramBuckets, IndexIsMonotoneAcrossBoundaries) {
  // Probe around every power of two plus a dense low range.
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 512; ++v) probes.push_back(v);
  for (int p = 9; p < 64; ++p) {
    const std::uint64_t base = std::uint64_t{1} << p;
    probes.push_back(base - 1);
    probes.push_back(base);
    probes.push_back(base + 1);
  }
  std::sort(probes.begin(), probes.end());
  for (std::size_t i = 1; i < probes.size(); ++i) {
    EXPECT_LE(hist_bucket_index(probes[i - 1]), hist_bucket_index(probes[i]))
        << "between " << probes[i - 1] << " and " << probes[i];
  }
}

TEST(HistogramBuckets, RelativeErrorBoundedBySubBucketWidth) {
  // Exact below 2 * kHistSubBuckets; <= 1/16 of magnitude above.
  for (std::uint64_t v : {0ULL, 1ULL, 15ULL, 16ULL, 31ULL}) {
    const std::size_t i = hist_bucket_index(v);
    EXPECT_EQ(hist_bucket_lower(i), v);
    EXPECT_EQ(hist_bucket_upper(i), v);
  }
  for (std::uint64_t v : {32ULL, 33ULL, 100ULL, 1000ULL, 123456789ULL,
                          (1ULL << 40) + 12345ULL}) {
    const std::size_t i = hist_bucket_index(v);
    const std::uint64_t width = hist_bucket_upper(i) - hist_bucket_lower(i);
    EXPECT_LE(width + 1, std::max<std::uint64_t>(1, v / kHistSubBuckets) + 1)
        << "value " << v;
    EXPECT_LE(hist_bucket_lower(i), v);
    EXPECT_GE(hist_bucket_upper(i), v);
  }
}

TEST_F(HistogramTest, RecordAccumulatesExactSumMinMaxCount) {
  Histograms& h = Histograms::instance();
  h.record("t/basic", 7);
  h.record("t/basic", 3);
  h.record("t/basic", 100);
  const HistogramSnapshot snap = h.snapshot_of("t/basic");
  EXPECT_EQ(snap.count, 3U);
  EXPECT_EQ(snap.sum, 110U);
  EXPECT_EQ(snap.min, 3U);
  EXPECT_EQ(snap.max, 100U);
  EXPECT_DOUBLE_EQ(snap.mean(), 110.0 / 3.0);
}

TEST_F(HistogramTest, NegativeValuesClampToZero) {
  Histograms& h = Histograms::instance();
  h.record("t/neg", -5);
  const HistogramSnapshot snap = h.snapshot_of("t/neg");
  EXPECT_EQ(snap.count, 1U);
  EXPECT_EQ(snap.min, 0U);
  EXPECT_EQ(snap.max, 0U);
}

TEST_F(HistogramTest, UnknownNameSnapshotsEmpty) {
  const HistogramSnapshot snap =
      Histograms::instance().snapshot_of("never/recorded");
  EXPECT_EQ(snap.count, 0U);
  EXPECT_EQ(snap.percentile(0.5), 0U);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

TEST_F(HistogramTest, ResetDropsEveryHistogram) {
  Histograms::instance().record("t/reset", 1);
  EXPECT_EQ(Histograms::instance().snapshot().size(), 1U);
  Histograms::instance().reset();
  EXPECT_TRUE(Histograms::instance().snapshot().empty());
}

TEST_F(HistogramTest, PercentileMatchesSortedVectorOracle) {
  // Log-uniform values exercise many octaves; the histogram percentile
  // must sit in [oracle, oracle * (1 + 1/16)] (exact below 32).
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> log_mag(0.0, 20.0);
  std::vector<std::uint64_t> values;
  Histograms& h = Histograms::instance();
  for (int i = 0; i < 5000; ++i) {
    const auto v =
        static_cast<std::uint64_t>(std::exp2(log_mag(rng)));
    values.push_back(v);
    h.record("t/oracle", static_cast<long long>(v));
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = h.snapshot_of("t/oracle");
  ASSERT_EQ(snap.count, values.size());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    // Same rank rule percentile() documents: ceil(q * n), clamped to
    // [1, n], 1-indexed into the sorted sample.
    const auto raw = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::size_t rank =
        std::min(values.size(), std::max<std::size_t>(1, raw));
    const std::uint64_t oracle = values[rank - 1];
    const std::uint64_t estimate = snap.percentile(q);
    EXPECT_GE(estimate, oracle) << "q = " << q;
    EXPECT_LE(estimate, oracle + oracle / kHistSubBuckets + 1)
        << "q = " << q;
  }
  EXPECT_EQ(snap.percentile(0.0), snap.min);
  EXPECT_EQ(snap.percentile(1.0), snap.max);
}

TEST_F(HistogramTest, ConcurrentRecordsMergeDeterministically) {
  // Four threads record disjoint, known value sets; the merged snapshot
  // must equal the serial reference exactly — bucket increments commute.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  auto value_of = [](int t, int i) {
    return static_cast<long long>((t * kPerThread + i) % 4096);
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &value_of] {
      for (int i = 0; i < kPerThread; ++i) {
        Histograms::instance().record("t/mt", value_of(t, i));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<std::uint64_t> expected_counts(kHistBuckets, 0);
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const auto v = static_cast<std::uint64_t>(value_of(t, i));
      ++expected_counts[hist_bucket_index(v)];
      expected_sum += v;
    }
  }
  const HistogramSnapshot snap = Histograms::instance().snapshot_of("t/mt");
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.sum, expected_sum);
  ASSERT_EQ(snap.counts.size(), kHistBuckets);
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    EXPECT_EQ(snap.counts[b], expected_counts[b]) << "bucket " << b;
  }
}

TEST_F(HistogramTest, ScopedLatencyRecordsMicroseconds) {
  {
    obs::ScopedLatencyUs probe("t/scope_us");
  }
  const HistogramSnapshot snap =
      Histograms::instance().snapshot_of("t/scope_us");
  EXPECT_EQ(snap.count, 1U);  // recorded something, possibly 0 us
}

TEST_F(HistogramTest, SnapshotSurfacesInTraceReportAndExporters) {
  Histograms::instance().record("t/export", 10);
  Histograms::instance().record("t/export", 1000);
  const obs::TraceReport report = obs::snapshot();
  const HistogramSnapshot* snap = report.histogram("t/export");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->count, 2U);
  EXPECT_EQ(report.histogram("t/absent"), nullptr);
  EXPECT_FALSE(report.empty());

  const std::string json = obs::to_json(report);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"t/export\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  const std::string tree = obs::to_tree_string(report);
  EXPECT_NE(tree.find("t/export"), std::string::npos);
  const std::string chrome = obs::to_chrome_trace(report);
  EXPECT_NE(chrome.find("t/export"), std::string::npos);
}

TEST_F(HistogramTest, ReportCarriesProcessRss) {
  const obs::TraceReport report = obs::snapshot();
  // /proc/self/status is always there on Linux; 0 only on exotic hosts.
  EXPECT_GT(report.peak_rss_bytes, 0U);
  EXPECT_GT(report.current_rss_bytes, 0U);
  EXPECT_GE(report.peak_rss_bytes, report.current_rss_bytes / 2);
  EXPECT_DOUBLE_EQ(report.gauge("process/peak_rss_bytes"),
                   static_cast<double>(report.peak_rss_bytes));
  EXPECT_DOUBLE_EQ(report.gauge("process/current_rss_bytes"),
                   static_cast<double>(report.current_rss_bytes));
  // RSS is ambient, not recorded: a fresh report still counts as empty.
  EXPECT_TRUE(report.empty());
}

TEST_F(HistogramTest, RssHelpersReportPlausibleValues) {
  const std::uint64_t current = current_rss_bytes();
  const std::uint64_t peak = peak_rss_bytes();
  EXPECT_GT(current, 0U);
  EXPECT_GT(peak, 0U);
  // Peak can lag current by one page-accounting tick, never by much.
  EXPECT_GE(peak + (1U << 20), current);
  // A test binary resident set sits between 1 MB and 100 GB.
  EXPECT_GT(current, 1U << 20);
  EXPECT_LT(peak, std::uint64_t{100} << 30);
}

#if FHP_TRACING_ENABLED

TEST_F(HistogramTest, MacrosRecordWhenTracingCompiled) {
  FHP_HIST_RECORD("t/macro", 42);
  {
    FHP_HIST_SCOPE_US("t/macro_scope");
  }
  EXPECT_EQ(Histograms::instance().snapshot_of("t/macro").count, 1U);
  EXPECT_EQ(Histograms::instance().snapshot_of("t/macro_scope").count, 1U);
}

#else  // !FHP_TRACING_ENABLED

TEST_F(HistogramTest, MacrosCompileToNothingWhenTracingOff) {
  int evaluations = 0;
  // The macro drops its arguments, so the lambda is never odr-used.
  [[maybe_unused]] auto side_effect = [&evaluations] {
    ++evaluations;
    return 42LL;
  };
  FHP_HIST_RECORD("t/macro_off", side_effect());
  {
    FHP_HIST_SCOPE_US("t/macro_off_scope");
  }
  EXPECT_EQ(evaluations, 0);  // arguments must never be evaluated
  EXPECT_TRUE(Histograms::instance().snapshot().empty());
}

#endif  // FHP_TRACING_ENABLED

}  // namespace
}  // namespace fhp
