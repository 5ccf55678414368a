#include "util/parallel.hpp"

#include <algorithm>
#include <cstdlib>

namespace fhp {

namespace {

/// Lane id of this thread. Workers stamp theirs once at spawn; the caller
/// of a region is normalized to 0 for the region's duration so that an
/// outer pool's worker driving an inner pool cannot collide with the inner
/// pool's worker of the same index.
thread_local int tl_lane = 0;

/// Saves/normalizes the caller's lane id across a region (exception-safe).
class CallerLaneScope {
 public:
  CallerLaneScope() noexcept : saved_(tl_lane) { tl_lane = 0; }
  ~CallerLaneScope() { tl_lane = saved_; }
  CallerLaneScope(const CallerLaneScope&) = delete;
  CallerLaneScope& operator=(const CallerLaneScope&) = delete;

 private:
  int saved_;
};

}  // namespace

int ThreadPool::current_lane() noexcept { return tl_lane; }

std::size_t ThreadPool::pending_chunks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (job_ == nullptr) return 0;
  return job_chunks_ - std::min(chunks_done_, job_chunks_);
}

int resolve_threads(int requested) {
  constexpr int kMaxLanes = 512;
  if (requested >= 1) return std::min(requested, kMaxLanes);
  const char* env = std::getenv("FHP_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || parsed < 0) return 1;
  if (parsed == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : std::min<int>(static_cast<int>(hw), kMaxLanes);
  }
  return std::min<int>(static_cast<int>(parsed), kMaxLanes);
}

ThreadPool::ThreadPool(int threads) : lanes_(resolve_threads(threads)) {
  workers_.reserve(static_cast<std::size_t>(lanes_ - 1));
  for (int i = 1; i < lanes_; ++i) {
    workers_.emplace_back([this, i] {
      tl_lane = i;
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::run_chunks() {
  for (;;) {
    const std::size_t chunk =
        next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job_chunks_) return;
    if (!failed_.load(std::memory_order_relaxed)) {
      const std::size_t begin = chunk * job_grain_;
      const std::size_t end = std::min(job_n_, begin + job_grain_);
      try {
        (*job_)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (++chunks_done_ == job_chunks_) done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || job_id_ != seen; });
      if (stop_) return;
      seen = job_id_;
      ++active_workers_;
    }
    run_chunks();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const RangeFn& fn) {
  FHP_REQUIRE(static_cast<bool>(fn), "parallel_for requires a callable");
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t chunks = (n + grain - 1) / grain;

  if (lanes_ == 1 || chunks == 1) {
    const CallerLaneScope lane_scope;
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const std::size_t begin = chunk * grain;
      fn(begin, std::min(n, begin + grain));
    }
    return;
  }
  const CallerLaneScope lane_scope;

  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Late-waking workers of the previous region may still be draining an
    // empty cursor; region state must not change under them.
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
    job_ = &fn;
    job_n_ = n;
    job_grain_ = grain;
    job_chunks_ = chunks;
    chunks_done_ = 0;
    error_ = nullptr;
    failed_.store(false, std::memory_order_relaxed);
    next_chunk_.store(0, std::memory_order_relaxed);
    ++job_id_;
  }
  work_cv_.notify_all();

  run_chunks();

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock,
                [&] { return chunks_done_ == job_chunks_ &&
                             active_workers_ == 0; });
  job_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace fhp
