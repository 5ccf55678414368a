/// \file workspace.hpp
/// Reusable per-lane scratch memory for the Algorithm I hot loop.
///
/// The per-start kernel (BFS sweeps, bidirectional cut, boundary
/// extraction, completion) historically allocated its visited/distance
/// arrays and frontier/queue/bucket buffers afresh on every call — dozens
/// of allocations per start, run 50 times per instance. A Workspace owns
/// those buffers once per execution lane and hands them out allocation-free
/// after warm-up:
///
///   - EpochArray gives O(1) logical clears: instead of `assign(n, init)`
///     (an O(n) write per call), every element carries a generation stamp
///     and a clear just bumps the workspace generation — stale stamps read
///     as the default value.
///   - Plain buffers (queues, frontiers, degree/bucket storage) are
///     `clear()`ed between uses, which keeps their capacity.
///
/// Ownership contract (see docs/performance.md): a Workspace is
/// single-threaded state. Parallel callers keep one Workspace per
/// execution lane, indexed by ThreadPool::current_lane(), so lanes never
/// share scratch. Workspace contents never influence results — the
/// epoch-stamped reads are semantically identical to freshly-initialized
/// arrays — so reuse preserves bit-identical outputs at any lane count.
///
/// Allocation accounting: every buffer growth is counted (events and
/// bytes) so benches can compare a fresh workspace per start against
/// per-lane reuse via the obs layer without util depending on obs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/ids.hpp"

namespace fhp {

/// Tally of buffer growths, shared by a Workspace and its epoch arrays.
struct WorkspaceStats {
  std::size_t grow_events = 0;     ///< number of underlying (re)allocations
  std::size_t allocated_bytes = 0;  ///< cumulative bytes those growths added

  void note_grow(std::size_t bytes) noexcept {
    ++grow_events;
    allocated_bytes += bytes;
  }
};

/// Fixed-default array with O(1) clear via generation stamps.
///
/// reset(n) starts a new epoch over [0, n): every slot logically holds the
/// default value until set(). Shrinking then growing across epochs is safe:
/// slots beyond an epoch's size keep stamps from older generations, which
/// can never equal a newer generation (the 64-bit counter does not wrap in
/// any realistic run).
template <typename T>
class EpochArray {
 public:
  explicit EpochArray(WorkspaceStats* stats = nullptr) noexcept
      : stats_(stats) {}

  /// Binds the accounting sink (used by Workspace; harmless to re-bind).
  void bind_stats(WorkspaceStats* stats) noexcept { stats_ = stats; }

  /// Starts a new epoch of logical size \p n with every slot = \p init.
  /// O(1) unless the backing store must grow.
  void reset(std::size_t n, T init) {
    if (n > values_.size()) {
      const std::size_t grown =
          (n - values_.size()) * (sizeof(T) + sizeof(std::uint64_t));
      if (stats_ != nullptr) stats_->note_grow(grown);
      values_.resize(n);
      stamp_.resize(n, 0);
    }
    init_ = init;
    size_ = n;
    ++generation_;
  }

  /// Logical size of the current epoch.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True iff slot \p i was written this epoch.
  [[nodiscard]] bool is_set(std::size_t i) const noexcept {
    return stamp_[i] == generation_;
  }

  /// Value of slot \p i (the epoch default when unwritten).
  [[nodiscard]] T get(std::size_t i) const noexcept {
    return stamp_[i] == generation_ ? values_[i] : init_;
  }

  /// Writes slot \p i for this epoch.
  void set(std::size_t i, T value) noexcept {
    values_[i] = value;
    stamp_[i] = generation_;
  }

 private:
  std::vector<T> values_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t generation_ = 0;
  std::size_t size_ = 0;
  T init_{};
  WorkspaceStats* stats_ = nullptr;
};

/// Per-lane scratch bundle for the graph/partitioning hot paths. Members
/// are plain buffers on purpose: callers clear() and refill them, and the
/// named roles document the conventional users (several callees may share
/// a buffer as long as their lifetimes do not overlap within one call
/// chain — the call sites in bfs.cpp / boundary.cpp / complete_cut.cpp
/// keep to disjoint members).
class Workspace {
 public:
  Workspace() {
    distance.bind_stats(&stats_);
    mark.bind_stats(&stats_);
    edge_mark.bind_stats(&stats_);
  }
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // ---- epoch-stamped arrays (O(1) clear) ----
  EpochArray<std::uint32_t> distance;  ///< BFS distance labels
  EpochArray<std::uint8_t> mark;       ///< generic visited/side marks
  EpochArray<std::uint64_t> edge_mark;  ///< per-edge dedup stamps

  // ---- reusable plain buffers (capacity persists across uses) ----
  std::vector<VertexId> queue;        ///< BFS current-level frontier
  std::vector<VertexId> frontier[2];  ///< bidirectional BFS frontiers
  std::vector<VertexId> next;         ///< next-level staging buffer
  /// Frontier membership bitset for bottom-up BFS steps: one bit per
  /// vertex, rebuilt from the flat frontier array at each bottom-up level
  /// (an O(n/64) clear + O(|frontier|) fill).
  std::vector<std::uint64_t> frontier_bits;
  std::vector<VertexId> order;        ///< sort scratch (balance passes)
  std::vector<std::uint32_t> degree;  ///< bucket-queue degree array
  std::vector<std::vector<VertexId>> buckets;  ///< bucket-queue storage
  std::vector<std::uint8_t> flags;    ///< liveness/membership bytes
  std::vector<std::pair<VertexId, VertexId>> pairs;  ///< edge-list scratch

  /// Grows \p v to capacity >= \p n (content untouched), with accounting.
  template <typename T>
  void ensure_capacity(std::vector<T>& v, std::size_t n) {
    if (v.capacity() < n) {
      stats_.note_grow((n - v.capacity()) * sizeof(T));
      v.reserve(n);
    }
  }

  /// clear() + accounted reserve: the usual prologue for a plain buffer.
  template <typename T>
  void reset_buffer(std::vector<T>& v, std::size_t n) {
    v.clear();
    ensure_capacity(v, n);
  }

  /// Number of underlying buffer growths since construction. A warmed-up
  /// workspace stops growing: steady-state hot-loop iterations add zero.
  [[nodiscard]] std::size_t grow_events() const noexcept {
    return stats_.grow_events;
  }

  /// Cumulative bytes added by those growths — for a long-lived workspace
  /// this tracks the high-water scratch footprint.
  [[nodiscard]] std::size_t allocated_bytes() const noexcept {
    return stats_.allocated_bytes;
  }

 private:
  WorkspaceStats stats_;
};

}  // namespace fhp
