/// \file parallel.hpp
/// Parallel execution substrate: a fixed-size thread pool with
/// parallel_for / parallel_map primitives (see docs/parallelism.md).
///
/// Design constraints:
///   - *Deterministic decomposition.* Chunk boundaries depend only on
///     (n, grain), never on the thread count or on scheduling, so
///     chunk-indexed outputs can be merged in chunk order and reproduce
///     bit-identical results at any FHP_THREADS setting.
///   - *No work stealing, no futures.* One blocking parallel region at a
///     time per pool; chunks are claimed from a single atomic cursor and
///     the calling thread participates, so a pool of N lanes runs N - 1
///     workers plus the caller.
///   - *Serial fallback.* thread_count() == 1 spawns no workers and runs
///     every region inline on the caller with zero synchronization, which
///     keeps the default (serial) configuration on the historical code
///     path.
///   - *Exception propagation.* The first exception thrown by any chunk
///     is captured and rethrown on the calling thread once the region
///     drains; chunks not yet started are skipped. The pool stays usable
///     afterwards.
///
/// parallel_for is NOT reentrant: submitting a region from inside a
/// region of the same pool deadlocks. Use a separate pool (or restructure)
/// for nested parallelism.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace fhp {

/// Resolves a requested lane count. \p requested >= 1 wins as-is; 0 reads
/// the FHP_THREADS environment variable (unset/empty/invalid -> 1, i.e.
/// the default stays serial; "0" -> all hardware threads). The result is
/// clamped to [1, 512].
[[nodiscard]] int resolve_threads(int requested);

/// Fixed-size blocking thread pool. Workers are spawned once in the
/// constructor and live until destruction; between regions they sleep on a
/// condition variable.
class ThreadPool {
 public:
  /// Creates a pool with resolve_threads(threads) lanes. One lane means
  /// no worker threads at all (pure serial execution).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (worker threads + the calling thread); >= 1.
  [[nodiscard]] int thread_count() const noexcept { return lanes_; }

  /// Chunks of the currently executing region not yet completed; 0 when
  /// the pool is quiescent. Takes the pool mutex briefly, so it is safe
  /// to sample from any thread (the daemon's admission control and the
  /// benches publish it as the `pool/pending_chunks` gauge) — but it is a
  /// snapshot, not a synchronization primitive: by the time the caller
  /// acts on it the region may have drained. Regions that run inline on
  /// the serial fast path (one lane, or a single chunk) never appear
  /// here — instrumenting them would put a lock on the serial hot path.
  [[nodiscard]] std::size_t pending_chunks() const;

  /// Lane index of the calling thread: pool workers are 1..N-1 (stable for
  /// the worker's lifetime), the thread driving a parallel_for is 0 while
  /// the region runs (even if it is itself a worker of an *outer* pool),
  /// and threads outside any region read 0. Within one region every
  /// executing thread therefore sees a distinct value in [0, N) — the
  /// index used to hand each lane its own Workspace (docs/performance.md).
  [[nodiscard]] static int current_lane() noexcept;

  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  /// Runs fn(begin, end) over every chunk [k*grain, min(n, (k+1)*grain))
  /// of [0, n). Chunks are disjoint, cover [0, n) exactly once, and their
  /// boundaries depend only on (n, grain) — never on the lane count.
  /// A grain of 0 is treated as 1. Blocks until the region drains;
  /// rethrows the first chunk exception.
  void parallel_for(std::size_t n, std::size_t grain, const RangeFn& fn);

  /// Maps fn(i) over [0, n): result[i] = fn(i). T must be
  /// default-constructible; each index is its own chunk so heavy items
  /// load-balance across lanes. Output order is by index, independent of
  /// the lane count.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
    std::vector<T> results(n);
    parallel_for(n, 1, [&results, &fn](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) results[i] = fn(i);
    });
    return results;
  }

 private:
  void worker_loop();
  /// Claims and executes chunks of the current region until exhausted.
  void run_chunks();

  const int lanes_;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes workers for a region/shutdown
  std::condition_variable done_cv_;  ///< wakes the caller when chunks drain

  // Region state; written by parallel_for under mutex_ while the pool is
  // quiescent, read by engaged workers without locks (publication happens
  // through the mutex at engagement time).
  const RangeFn* job_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t job_grain_ = 1;
  std::size_t job_chunks_ = 0;
  std::uint64_t job_id_ = 0;  ///< bumped per region so workers engage once

  std::atomic<std::size_t> next_chunk_{0};
  std::atomic<bool> failed_{false};
  std::size_t chunks_done_ = 0;   ///< guarded by mutex_
  int active_workers_ = 0;        ///< workers inside run_chunks (mutex_)
  std::exception_ptr error_;      ///< first chunk exception (mutex_)
  bool stop_ = false;             ///< guarded by mutex_
};

}  // namespace fhp
