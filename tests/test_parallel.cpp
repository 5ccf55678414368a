/// Parallel execution substrate: lane resolution (FHP_THREADS), pool
/// lifecycle, parallel_for chunk coverage and grain edge cases, exception
/// propagation, parallel_map ordering — and the substrate's central
/// guarantee, bit-identical Algorithm I results at any lane count.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithm1.hpp"
#include "gen/planted.hpp"
#include "validate/reference.hpp"

namespace fhp {
namespace {

/// Scoped FHP_THREADS override; restores the previous value on exit so
/// these tests compose with an externally set environment.
class EnvGuard {
 public:
  explicit EnvGuard(const char* value) {
    const char* previous = std::getenv("FHP_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    if (value != nullptr) {
      ::setenv("FHP_THREADS", value, 1);
    } else {
      ::unsetenv("FHP_THREADS");
    }
  }
  ~EnvGuard() {
    if (had_previous_) {
      ::setenv("FHP_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("FHP_THREADS");
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  bool had_previous_ = false;
  std::string previous_;
};

TEST(Parallel, ResolveThreadsExplicitRequestWins) {
  EnvGuard env("7");  // an explicit request beats the environment
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(512), 512);
  EXPECT_EQ(resolve_threads(100000), 512);  // clamped
}

TEST(Parallel, ResolveThreadsReadsEnvironment) {
  {
    EnvGuard env(nullptr);
    EXPECT_EQ(resolve_threads(0), 1);  // unset -> the default stays serial
  }
  {
    EnvGuard env("4");
    EXPECT_EQ(resolve_threads(0), 4);
  }
  {
    EnvGuard env("");
    EXPECT_EQ(resolve_threads(0), 1);
  }
  {
    EnvGuard env("banana");
    EXPECT_EQ(resolve_threads(0), 1);  // invalid -> serial, not a crash
  }
  {
    EnvGuard env("-3");
    EXPECT_EQ(resolve_threads(0), 1);
  }
  {
    EnvGuard env("0");  // "0" -> all hardware threads
    EXPECT_GE(resolve_threads(0), 1);
  }
}

TEST(Parallel, PoolLifecycleIdle) {
  // Construction spawns workers, destruction joins them — with no region
  // ever submitted.
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
}

TEST(Parallel, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.parallel_for(3, 1, [&](std::size_t, std::size_t) {
    seen.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 3U);
  for (const std::thread::id id : seen) EXPECT_EQ(id, caller);
}

TEST(Parallel, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(kN, 64, [&](std::size_t begin, std::size_t end) {
    ASSERT_LE(begin, end);
    ASSERT_LE(end, kN);
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, ChunkBoundariesDependOnlyOnGrain) {
  // The same (n, grain) must produce the same chunk set at any lane count.
  auto chunks_of = [](ThreadPool& pool, std::size_t n, std::size_t grain) {
    std::mutex mutex;
    std::set<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.emplace(begin, end);
    });
    return chunks;
  };
  ThreadPool serial(1);
  ThreadPool wide(8);
  EXPECT_EQ(chunks_of(serial, 1000, 64), chunks_of(wide, 1000, 64));
  EXPECT_EQ(chunks_of(serial, 7, 3), chunks_of(wide, 7, 3));
}

TEST(Parallel, GrainEdgeCases) {
  ThreadPool pool(3);
  std::atomic<std::size_t> covered{0};
  std::atomic<int> calls{0};

  // grain 0 is treated as 1.
  pool.parallel_for(5, 0, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(end, begin + 1);
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 5U);

  // grain > n: a single chunk spanning everything.
  calls.store(0);
  pool.parallel_for(4, 100, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0U);
    EXPECT_EQ(end, 4U);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);

  // n == 0: the body never runs.
  calls.store(0);
  pool.parallel_for(0, 8, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);

  // n == 1.
  calls.store(0);
  pool.parallel_for(1, 8, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0U);
    EXPECT_EQ(end, 1U);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(Parallel, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100, 1,
                        [&](std::size_t begin, std::size_t) {
                          if (begin == 17) {
                            throw std::runtime_error("chunk 17 failed");
                          }
                        }),
      std::runtime_error);

  // The pool drains cleanly and stays usable for further regions.
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(50, 4, [&](std::size_t begin, std::size_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 50U);
}

TEST(Parallel, ExceptionOnSerialPoolPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(
                   3, 1,
                   [](std::size_t, std::size_t) {
                     throw std::logic_error("serial failure");
                   }),
               std::logic_error);
}

TEST(Parallel, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(4);
  const std::vector<int> out =
      pool.parallel_map<int>(257, [](std::size_t i) {
        return static_cast<int>(i * i);
      });
  ASSERT_EQ(out.size(), 257U);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(Parallel, BackToBackRegionsReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> covered{0};
    pool.parallel_for(100, 7, [&](std::size_t begin, std::size_t end) {
      covered.fetch_add(end - begin);
    });
    ASSERT_EQ(covered.load(), 100U) << "round " << round;
  }
}

/// Fixed-seed planted instance for the determinism checks.
Hypergraph determinism_instance(std::uint64_t seed) {
  PlantedParams params;
  params.num_vertices = 180;
  params.num_edges = 320;
  params.planted_cut = 4;
  return planted_instance(params, seed).hypergraph;
}

TEST(Parallel, Algorithm1BitIdenticalAcrossThreadCounts) {
  // The substrate's contract: FHP_THREADS / Algorithm1Options::threads
  // changes wall time only, never the answer. Compare full side vectors —
  // not just cut sizes — at 1, 2 and 8 lanes over several instances.
  for (const std::uint64_t instance_seed : {3ULL, 19ULL, 101ULL}) {
    const Hypergraph h = determinism_instance(instance_seed);
    Algorithm1Options options;
    options.seed = 5;
    options.num_starts = 12;

    options.threads = 1;
    const Algorithm1Result serial = algorithm1(h, options);
    for (const int threads : {2, 8}) {
      options.threads = threads;
      const Algorithm1Result parallel = algorithm1(h, options);
      EXPECT_EQ(parallel.sides, serial.sides)
          << "instance " << instance_seed << " at " << threads << " lanes";
      EXPECT_EQ(parallel.metrics.cut_edges, serial.metrics.cut_edges);
      EXPECT_EQ(parallel.metrics.quotient_cut, serial.metrics.quotient_cut);
      EXPECT_EQ(parallel.starts_run, serial.starts_run);
    }
  }
}

TEST(Parallel, SerialAlgorithm1InsidePoolWorkerMatchesDirect) {
  // The serving scheduler batches small jobs by running one *serial*
  // (threads = 1) engine per pool lane, nesting algorithm1 inside an
  // outer parallel_for region. A serial run must not touch the outer
  // pool's lane-scratch (regression: lane-indexed scratch sized for the
  // inner run being read from an outer worker lane); results must match
  // a plain serial call exactly. ASAN/TSAN runs of this test guard the
  // memory side.
  constexpr std::size_t kJobs = 4;
  std::vector<Hypergraph> instances;
  std::vector<Algorithm1Result> direct(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    instances.push_back(determinism_instance(50 + i));
    Algorithm1Options options;
    options.seed = 9;
    options.num_starts = 8;
    options.threads = 1;
    direct[i] = algorithm1(instances[i], options);
  }

  ThreadPool pool(3);
  std::vector<Algorithm1Result> nested(kJobs);
  pool.parallel_for(kJobs, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Algorithm1Options options;
      options.seed = 9;
      options.num_starts = 8;
      options.threads = 1;
      nested[i] = algorithm1(instances[i], options);
    }
  });
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(nested[i].sides, direct[i].sides) << "job " << i;
    EXPECT_EQ(nested[i].metrics.cut_edges, direct[i].metrics.cut_edges);
  }
}

TEST(Parallel, Algorithm1ThreadsViaEnvironmentMatchesSerial) {
  const Hypergraph h = determinism_instance(7);
  Algorithm1Options options;
  options.seed = 2;
  options.num_starts = 8;
  options.threads = 1;
  const Algorithm1Result serial = algorithm1(h, options);

  EnvGuard env("4");
  options.threads = 0;  // defer to FHP_THREADS
  const Algorithm1Result via_env = algorithm1(h, options);
  EXPECT_EQ(via_env.sides, serial.sides);
}

TEST(Parallel, CurrentLaneIsZeroOutsideRegions) {
  EXPECT_EQ(ThreadPool::current_lane(), 0);
  ThreadPool pool(3);
  // Pool construction alone does not touch the caller's lane.
  EXPECT_EQ(ThreadPool::current_lane(), 0);
}

TEST(Parallel, CurrentLaneDistinctAndInRangeDuringRegion) {
  constexpr int kLanes = 4;
  ThreadPool pool(kLanes);
  std::mutex mutex;
  std::set<int> seen_by_chunk[64];
  std::atomic<int> bad{0};
  pool.parallel_for(64, 1, [&](std::size_t begin, std::size_t) {
    const int lane = ThreadPool::current_lane();
    if (lane < 0 || lane >= kLanes) bad.fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex);
    seen_by_chunk[begin].insert(lane);
  });
  EXPECT_EQ(bad.load(), 0);
  // Every chunk observed exactly one lane, and the caller is back to 0.
  for (const auto& lanes : seen_by_chunk) EXPECT_EQ(lanes.size(), 1U);
  EXPECT_EQ(ThreadPool::current_lane(), 0);
}

TEST(Parallel, CurrentLaneIndexesPerLaneSlotsWithoutCollision) {
  // The workspace-ownership contract: within one region, concurrent chunks
  // always see distinct lanes, so per-lane slots are data-race free. Each
  // lane's slot counts its chunks; the total must cover the range, and a
  // torn counter (two threads on one slot) would break the sum.
  constexpr int kLanes = 4;
  ThreadPool pool(kLanes);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::size_t> per_lane(kLanes, 0);
    pool.parallel_for(256, 1, [&](std::size_t begin, std::size_t end) {
      per_lane[static_cast<std::size_t>(ThreadPool::current_lane())] +=
          end - begin;
    });
    std::size_t total = 0;
    for (const std::size_t c : per_lane) total += c;
    ASSERT_EQ(total, 256U) << "round " << round;
  }
}

TEST(Parallel, CurrentLaneSerialPoolStaysZero) {
  ThreadPool pool(1);
  std::vector<int> lanes;
  pool.parallel_for(5, 1, [&](std::size_t, std::size_t) {
    lanes.push_back(ThreadPool::current_lane());
  });
  for (const int lane : lanes) EXPECT_EQ(lane, 0);
}

TEST(Parallel, Algorithm1MemoizedMatchesPerStartReferenceAtAllThreadCounts) {
  PlantedParams params;
  params.num_vertices = 90;
  params.num_edges = 150;
  params.planted_cut = 5;
  const Hypergraph h = planted_instance(params, 17).hypergraph;
  Algorithm1Options options;
  options.num_starts = 16;
  options.seed = 23;
  options.threads = 1;
  const Algorithm1Context context(h, options);
  ASSERT_FALSE(context.is_degenerate());
  const Algorithm1Result reference =
      validate::per_start_reference(context, options);
  for (const int threads : {1, 2, 8}) {
    options.threads = threads;
    const Algorithm1Result got = algorithm1(h, options);
    EXPECT_EQ(got.sides, reference.sides) << "threads=" << threads;
    EXPECT_EQ(got.metrics.cut_edges, reference.metrics.cut_edges);
  }
}

}  // namespace
}  // namespace fhp
