/// \file scheduler.hpp
/// Request scheduler of the partition daemon: admission control, result
/// caching with single-flight coalescing, deadline-aware budget mapping,
/// and batched dispatch over one ThreadPool (docs/serving.md).
///
/// Execution model. Connection threads call Scheduler::partition(), which
/// blocks until the answer is ready. The fast paths never touch the
/// dispatcher: a result-cache hit (or a request coalesced onto an
/// in-flight identical request) is answered in the connection thread, so
/// hot requests cost a fingerprint plus a map lookup. Everything else is
/// admitted into a bounded FIFO queue — full queue means an immediate
/// typed rejection, the daemon never builds unbounded backlog — and a
/// dispatcher thread drains it: consecutive *small* instances are batched
/// and mapped across the pool's lanes (one serial engine run per lane),
/// while a *large* instance gets the whole pool via the parallel engine.
///
/// Determinism. Single-flight coalescing makes the cache counters exact:
/// within one scheduler lifetime, cache/misses counts unique
/// (fingerprint, configuration) keys and cache/hits counts every other
/// full-quality request, independent of timing (a request arriving while
/// its twin computes waits for that flight instead of recomputing).
/// Deadline requests bypass the cache and coalescing entirely and their
/// start budget derives from the *requested* deadline (not remaining
/// time), so with a pinned per-start cost estimate the whole response is
/// a pure function of the request — bench_serve's deadline gate depends
/// on this.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "util/parallel.hpp"

namespace fhp::serve {

/// Instances below this many modules are batch candidates; at or above
/// it they run alone with the full pool (the engine's own flat/multilevel
/// crossover).
inline constexpr VertexId kBatchThreshold = ml::kDefaultMultilevelThreshold;
/// Seed of the per-start cost EWMA (microseconds) used by the deadline
/// mapping until real completions train it.
inline constexpr std::int64_t kInitialStartCostUs = 500;

/// Scheduler knobs (daemon flags map onto these 1:1).
struct SchedulerOptions {
  /// Pool lanes for dispatch (0 = FHP_THREADS, see resolve_threads()).
  int threads = 0;
  /// Admission bound: jobs queued-but-not-dispatched beyond this are
  /// rejected typed. Coalesced and cache-hit requests never occupy slots.
  std::size_t max_queue = 64;
  /// Result-cache resident-byte budget (0 disables caching).
  std::uint64_t cache_bytes = 64u << 20;
  /// Most small jobs dispatched as one batch across the pool.
  std::size_t max_batch = 8;
};

/// Deadline -> multi-start budget decision (a pure function, exported so
/// tests and bench_serve reproduce daemon responses bit-for-bit).
struct BudgetDecision {
  int effective_starts = 0;
  bool degraded = false;
};

/// Maps a latency budget to an effective multi-start budget: half the
/// deadline is allotted to starts at \p est_start_cost_us apiece (the
/// other half covers ingest, refinement, and response), clamped to
/// [1, requested]. deadline_us == 0 means no deadline (full budget).
/// degraded is set iff the budget was truncated; a degraded run also
/// drops flow refinement (see make_plan), trading quality for the SLA.
[[nodiscard]] BudgetDecision map_deadline(int requested_starts,
                                          std::int64_t deadline_us,
                                          std::int64_t est_start_cost_us);

/// The one place request options become an engine PartitionPlan: seed and
/// start budgets are threaded through, and a degraded budget downgrades
/// the refiner to plain FM. Thread count is intentionally NOT set here —
/// the partition is bit-identical at any thread count, so replaying
/// make_plan(options, budget) serially reproduces a daemon response
/// exactly (bench_serve's audit does precisely that).
[[nodiscard]] ml::PartitionPlan make_plan(const RequestOptions& options,
                                          const BudgetDecision& budget);

/// Outcome of one partition request (the transport-independent core of a
/// protocol Response).
struct ScheduleResult {
  std::string status;  ///< "ok" | "rejected" | "error"
  std::string error;
  /// The engine's answer (computed, or the cached copy of one).
  ml::EngineResult engine;
  bool cached = false;
  bool degraded = false;
  int starts_used = 0;
  std::int64_t latency_us = 0;

  [[nodiscard]] bool ok() const noexcept { return status == "ok"; }
};

/// The daemon's brain; one instance per daemon process.
class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& options = {});
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Partitions \p h per \p options; blocks until the response is ready
  /// (cache hit), rejected, or computed. Never throws on bad scheduling
  /// states — those come back as typed statuses.
  [[nodiscard]] ScheduleResult partition(Hypergraph&& h,
                                         const RequestOptions& options);

  /// One JSON object with cache / queue / pool / request statistics
  /// (works in tracing-off builds: the sources are internal atomics, not
  /// the obs registry).
  [[nodiscard]] std::string stats_json() const;

  /// Test hook: a paused scheduler admits (or rejects) but does not
  /// dispatch, making queue-full rejection deterministic to provoke.
  void pause();
  void resume();

  /// Rejects all queued jobs and stops the dispatcher. Called by the
  /// destructor; idempotent.
  void stop();

 private:
  struct Job {
    Hypergraph hypergraph;
    RequestOptions options;
    CacheKey key;
    bool use_cache = false;  ///< leader of a cacheable flight
    BudgetDecision budget;
    bool small = false;
    // Outcome, guarded by Scheduler::mutex_; done_cv_ broadcasts.
    bool done = false;
    ScheduleResult result;
  };

  void dispatcher_loop();
  /// Executes one job's engine run with the given lane budget (no locks
  /// held).
  static void execute(Job& job, int threads);
  /// Publishes a finished job: cache insert, flight retirement, waiter
  /// wake-up. Takes mutex_.
  void complete(const std::shared_ptr<Job>& job);
  /// Blocks until \p job completes; returns its result.
  [[nodiscard]] ScheduleResult await(const std::shared_ptr<Job>& job);

  const SchedulerOptions options_;
  ThreadPool pool_;
  ResultCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable dispatch_cv_;  ///< wakes the dispatcher
  std::condition_variable done_cv_;      ///< wakes submitters awaiting jobs
  std::deque<std::shared_ptr<Job>> queue_;
  std::unordered_map<CacheKey, std::shared_ptr<Job>, CacheKeyHash> inflight_;
  bool paused_ = false;
  bool stopped_ = false;

  // Request statistics (atomics so stats_json works without the lock and
  // in tracing-off builds).
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> degraded_{0};
  /// EWMA of observed per-start cost in microseconds (the deadline
  /// mapping's estimate when a request does not pin one).
  std::atomic<std::int64_t> est_start_cost_us_;

  std::thread dispatcher_;
};

}  // namespace fhp::serve
