#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "util/json.hpp"

namespace fhp::serve {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t elapsed_us(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               since)
      .count();
}

}  // namespace

BudgetDecision map_deadline(int requested_starts, std::int64_t deadline_us,
                            std::int64_t est_start_cost_us) {
  FHP_REQUIRE(requested_starts >= 1, "start budget must be >= 1");
  if (deadline_us <= 0) return {requested_starts, false};
  const std::int64_t per_start = std::max<std::int64_t>(1, est_start_cost_us);
  const std::int64_t affordable = (deadline_us / 2) / per_start;
  const int effective = static_cast<int>(std::clamp<std::int64_t>(
      affordable, 1, requested_starts));
  return {effective, effective < requested_starts};
}

ml::PartitionPlan make_plan(const RequestOptions& options,
                            const BudgetDecision& budget) {
  ml::PartitionPlan plan;
  plan.engine = options.engine;
  plan.algorithm1.seed = options.seed;
  plan.algorithm1.num_starts = budget.effective_starts;
  // A degraded budget also drops flow refinement: corridor flow is the
  // most expensive per-level phase and its cost does not shrink with the
  // start budget, so it is the first quality knob the deadline sacrifices.
  plan.refiner =
      budget.degraded ? ml::RefinerChoice::kFm : options.refiner;
  plan.coarse_num_starts =
      std::min(plan.coarse_num_starts, budget.effective_starts);
  return plan;
}

Scheduler::Scheduler(const SchedulerOptions& options)
    : options_(options),
      pool_(options.threads),
      cache_(options.cache_bytes),
      est_start_cost_us_(kInitialStartCostUs) {
  FHP_GAUGE_SET("pool/lanes", pool_.thread_count());
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::stop() {
  std::deque<std::shared_ptr<Job>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    orphaned.swap(queue_);
    for (const auto& job : orphaned) {
      job->result.status = "rejected";
      job->result.error = "scheduler shutting down";
      job->done = true;
      inflight_.erase(job->key);
      rejected_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  dispatch_cv_.notify_all();
  done_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void Scheduler::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void Scheduler::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  dispatch_cv_.notify_all();
}

ScheduleResult Scheduler::partition(Hypergraph&& h,
                                    const RequestOptions& options) {
  const Clock::time_point admitted = Clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  FHP_COUNTER_ADD("serve/requests", 1);

  const bool has_deadline = options.deadline_us > 0;
  // Deadline requests compute their budget from the full requested
  // deadline up front (never from remaining time), so the response is a
  // pure function of the request when the per-start cost is pinned.
  const BudgetDecision budget =
      has_deadline
          ? map_deadline(options.starts, options.deadline_us,
                         options.assume_start_cost_us > 0
                             ? options.assume_start_cost_us
                             : est_start_cost_us_.load(
                                   std::memory_order_relaxed))
          : BudgetDecision{options.starts, false};

  // The fingerprint is the expensive part of the cache key; compute it
  // before taking the scheduler lock.
  CacheKey key;
  const bool cacheable = !has_deadline && options_.cache_bytes > 0;
  if (cacheable) {
    key = CacheKey{h.fingerprint(),
                   config_hash(options.seed, options.starts, options.engine,
                               options.refiner)};
  }

  std::shared_ptr<Job> job;
  std::shared_ptr<Job> flight;  ///< someone else's identical in-flight job
  {
    std::unique_lock<std::mutex> lock(mutex_);
    FHP_GAUGE_SET("serve/queue_depth", static_cast<double>(queue_.size()));
    FHP_GAUGE_SET("pool/pending_chunks",
                  static_cast<double>(pool_.pending_chunks()));
    if (cacheable) {
      // Lookup + in-flight check + admission are one atomic step under
      // mutex_, so exactly one request per unique key ever executes.
      if (std::optional<ml::EngineResult> hit = cache_.lookup(key)) {
        ScheduleResult result;
        result.status = "ok";
        result.engine = std::move(*hit);
        result.cached = true;
        result.starts_used = options.starts;
        result.latency_us = elapsed_us(admitted);
        completed_.fetch_add(1, std::memory_order_relaxed);
        FHP_HIST_RECORD("serve/latency_us", result.latency_us);
        FHP_HIST_RECORD("serve/cached_latency_us", result.latency_us);
        return result;
      }
      if (const auto it = inflight_.find(key); it != inflight_.end()) {
        flight = it->second;
      }
    }
    if (flight == nullptr) {
      if (stopped_) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        FHP_COUNTER_ADD("serve/rejected", 1);
        ScheduleResult rejected;
        rejected.status = "rejected";
        rejected.error = "scheduler shutting down";
        return rejected;
      }
      if (queue_.size() >= options_.max_queue) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        FHP_COUNTER_ADD("serve/rejected", 1);
        ScheduleResult rejected;
        rejected.status = "rejected";
        rejected.error = "queue full (" + std::to_string(queue_.size()) +
                         " jobs pending, limit " +
                         std::to_string(options_.max_queue) + ")";
        return rejected;
      }
      job = std::make_shared<Job>();
      job->hypergraph = std::move(h);
      job->options = options;
      job->key = key;
      job->use_cache = cacheable;
      job->budget = budget;
      job->small = job->hypergraph.num_vertices() < kBatchThreshold;
      queue_.push_back(job);
      if (cacheable) {
        inflight_.emplace(key, job);
        // The miss is counted at admission, not lookup: a follower whose
        // lookup also failed coalesces into a hit, so misses stay equal
        // to unique executed keys regardless of timing.
        cache_.note_miss();
      }
    }
  }

  if (flight != nullptr) {
    // Single-flight coalescing: ride the identical in-flight request.
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    FHP_COUNTER_ADD("serve/coalesced", 1);
    ScheduleResult result = await(flight);
    if (result.ok()) {
      cache_.note_coalesced_hit();
      result.cached = true;
      result.starts_used = options.starts;
    }
    result.latency_us = elapsed_us(admitted);
    if (result.ok()) {
      completed_.fetch_add(1, std::memory_order_relaxed);
      FHP_HIST_RECORD("serve/latency_us", result.latency_us);
    }
    return result;
  }

  dispatch_cv_.notify_one();
  ScheduleResult result = await(job);
  result.latency_us = elapsed_us(admitted);
  if (result.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (result.degraded) {
      degraded_.fetch_add(1, std::memory_order_relaxed);
      FHP_COUNTER_ADD("serve/degraded", 1);
    }
    FHP_HIST_RECORD("serve/latency_us", result.latency_us);
    FHP_HIST_RECORD("serve/computed_latency_us", result.latency_us);
    // Train the per-start cost estimate for future deadline mappings.
    if (result.starts_used > 0) {
      const std::int64_t observed =
          std::max<std::int64_t>(1, result.latency_us / result.starts_used);
      const std::int64_t previous =
          est_start_cost_us_.load(std::memory_order_relaxed);
      est_start_cost_us_.store(previous + (observed - previous) / 4,
                               std::memory_order_relaxed);
    }
  } else if (result.status == "error") {
    errors_.fetch_add(1, std::memory_order_relaxed);
    FHP_COUNTER_ADD("serve/errors", 1);
  } else {
    FHP_COUNTER_ADD("serve/rejected", 1);
  }
  return result;
}

ScheduleResult Scheduler::await(const std::shared_ptr<Job>& job) {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return job->done; });
  return job->result;
}

void Scheduler::execute(Job& job, int threads) {
  try {
    ml::PartitionPlan plan = make_plan(job.options, job.budget);
    // The thread count steers only wall time, never the result (engine
    // determinism contract), so it is set here and not in make_plan.
    plan.algorithm1.threads = threads;
    job.result.engine = ml::partition_auto(job.hypergraph, plan);
    job.result.status = "ok";
    job.result.degraded = job.budget.degraded;
    job.result.starts_used = job.budget.effective_starts;
  } catch (const std::exception& error) {
    job.result.status = "error";
    job.result.error = error.what();
  }
}

void Scheduler::complete(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->use_cache) {
      if (job->result.ok()) cache_.insert(job->key, job->result.engine);
      inflight_.erase(job->key);
    }
    job->done = true;
  }
  done_cv_.notify_all();
}

void Scheduler::dispatcher_loop() {
  while (true) {
    std::vector<std::shared_ptr<Job>> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      dispatch_cv_.wait(lock, [&] {
        return stopped_ || (!paused_ && !queue_.empty());
      });
      if (stopped_) return;
      batch.push_back(queue_.front());
      queue_.pop_front();
      if (batch.front()->small) {
        // Gather consecutive small jobs so one pool region amortizes
        // dispatch over all lanes. FIFO order is preserved: only a
        // contiguous prefix of the queue is taken.
        while (!queue_.empty() && queue_.front()->small &&
               batch.size() < options_.max_batch) {
          batch.push_back(queue_.front());
          queue_.pop_front();
        }
      }
    }
    if (batch.size() == 1) {
      // A lone job gets every lane: a large instance's engine
      // parallelizes internally, and for a small one the extra lanes
      // cost nothing (the engine's serial fast path ignores them).
      execute(*batch.front(),
              batch.front()->small ? 1 : pool_.thread_count());
      complete(batch.front());
    } else {
      FHP_COUNTER_ADD("serve/batches", 1);
      // One serial engine run per lane (threads = 1), so batched jobs
      // never nest parallel regions inside the pool's own region.
      pool_.parallel_for(batch.size(), 1,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             execute(*batch[i], 1);
                           }
                         });
      for (const auto& job : batch) complete(job);
    }
  }
}

std::string Scheduler::stats_json() const {
  const CacheStats cache = cache_.stats();
  std::size_t depth = 0;
  std::size_t in_flight = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    depth = queue_.size();
    in_flight = inflight_.size();
  }
  json::Writer w;
  w.begin_object();
  w.key("cache").begin_object();
  w.member("hits", cache.hits);
  w.member("misses", cache.misses);
  w.member("evictions", cache.evictions);
  w.member("bytes", cache.resident_bytes);
  w.member("entries", cache.entries);
  w.end_object();
  w.key("queue").begin_object();
  w.member("depth", depth);
  w.member("capacity", options_.max_queue);
  w.member("in_flight_keys", in_flight);
  w.end_object();
  w.key("pool").begin_object();
  w.member("lanes", pool_.thread_count());
  w.member("pending_chunks", pool_.pending_chunks());
  w.end_object();
  w.key("requests").begin_object();
  w.member("total", requests_.load(std::memory_order_relaxed));
  w.member("completed", completed_.load(std::memory_order_relaxed));
  w.member("coalesced", coalesced_.load(std::memory_order_relaxed));
  w.member("rejected", rejected_.load(std::memory_order_relaxed));
  w.member("errors", errors_.load(std::memory_order_relaxed));
  w.member("degraded", degraded_.load(std::memory_order_relaxed));
  w.end_object();
  w.member("est_start_cost_us",
           est_start_cost_us_.load(std::memory_order_relaxed));
  w.end_object();
  return std::move(w).take();
}

}  // namespace fhp::serve
