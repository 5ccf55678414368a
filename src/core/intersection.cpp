#include "core/intersection.hpp"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace fhp {

namespace {

using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

/// The pair count the emit-all-pairs builder would materialize: one pair
/// per unordered net couple per module. The counting build computes it
/// arithmetically in O(modules) so the "intersection/pairs_emitted"
/// counter keeps its historical meaning (and stays comparable to
/// "intersection/edges_after_dedup") without emitting anything.
[[maybe_unused]] long long count_raw_pairs(const Hypergraph& h) {
  long long pairs = 0;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    const auto deg = static_cast<long long>(h.nets_of(v).size());
    pairs += deg * (deg - 1) / 2;
  }
  return pairs;
}

/// Emits the normalized (min, max) net pairs of modules [begin, end) into
/// \p out and deduplicates the chunk locally (sort + unique). Returns the
/// raw pair count before deduplication, which depends only on the
/// hypergraph — never on how the range was chunked.
std::size_t emit_module_range(const Hypergraph& h, std::size_t begin,
                              std::size_t end, EdgeList& out) {
  // Exact size of this range's emission — sum deg(deg-1)/2 over the
  // module degrees — so the pair buffer grows at most once.
  std::size_t bound = 0;
  for (std::size_t v = begin; v < end; ++v) {
    const std::size_t deg = h.nets_of(static_cast<VertexId>(v)).size();
    bound += deg * (deg - 1) / 2;
  }
  out.reserve(out.size() + bound);

  std::size_t pairs = 0;
  for (std::size_t v = begin; v < end; ++v) {
    const auto nets = h.nets_of(static_cast<VertexId>(v));
    for (std::size_t i = 0; i < nets.size(); ++i) {
      for (std::size_t j = i + 1; j < nets.size(); ++j) {
        const EdgeId a = nets[i];
        const EdgeId b = nets[j];
        out.emplace_back(std::min(a, b), std::max(a, b));
        ++pairs;
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return pairs;
}

}  // namespace

Graph intersection_graph(const Hypergraph& h, ThreadPool* pool) {
  FHP_TRACE_SCOPE("intersection");
  FHP_COUNTER_ADD("intersection/builds", 1);
  FHP_HIST_SCOPE_US("intersection/build_us");
  FHP_COUNTER_ADD("intersection/pairs_emitted", count_raw_pairs(h));

  // Two-pass counting construction, O(sum over modules of degree^2) with
  // no pair materialization and no global sort: pass 1 counts each net's
  // distinct co-nets, a prefix sum turns counts into CSR offsets, and
  // pass 2 writes each row and sorts it locally. Rows are independent, so
  // the parallel path shards the net range; the resulting CSR is a pure
  // function of the hypergraph — bit-identical to the reference builder at
  // any lane count (test-enforced in test_intersection.cpp).
  const std::size_t m = h.num_edges();
  std::vector<std::size_t> offsets(m + 1, 0);

  const bool parallel = pool != nullptr && pool->thread_count() > 1 && m > 1;
  const int lanes = parallel ? pool->thread_count() : 1;

  // Per-lane dedup stamps: mark[f] == (pass << 33 | e + 1) means net f was
  // already recorded for net e in that pass. One 64-bit array per lane
  // replaces a per-net clear (or a hash set) — O(1) logical reset per net.
  // (e + 1 needs 33 bits at the EdgeId limit, hence the shift.)
  std::vector<std::vector<std::uint64_t>> lane_marks(
      static_cast<std::size_t>(lanes));
  auto marks_of_lane = [&]() -> std::vector<std::uint64_t>& {
    auto& marks = lane_marks[static_cast<std::size_t>(
        parallel ? ThreadPool::current_lane() : 0)];
    if (marks.size() < m) marks.assign(m, 0);
    return marks;
  };
  auto count_range = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint64_t>& marks = marks_of_lane();
    for (std::size_t e = begin; e < end; ++e) {
      const auto eid = static_cast<EdgeId>(e);
      const std::uint64_t stamp = (1ULL << 33) | (e + 1);
      std::size_t deg = 0;
      for (const VertexId v : h.pins(eid)) {
        for (const EdgeId f : h.nets_of(v)) {
          if (f == eid || marks[f] == stamp) continue;
          marks[f] = stamp;
          ++deg;
        }
      }
      offsets[e + 1] = deg;
    }
  };

  const std::size_t grain = std::max<std::size_t>(std::size_t{64}, m / 256);
  if (parallel) {
    pool->parallel_for(m, grain, count_range);
  } else if (m > 0) {
    count_range(0, m);
  }

  for (std::size_t e = 0; e < m; ++e) offsets[e + 1] += offsets[e];
  std::vector<VertexId> adjacency(offsets[m]);

  auto fill_range = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint64_t>& marks = marks_of_lane();
    for (std::size_t e = begin; e < end; ++e) {
      const auto eid = static_cast<EdgeId>(e);
      const std::uint64_t stamp = (2ULL << 33) | (e + 1);
      std::size_t cursor = offsets[e];
      for (const VertexId v : h.pins(eid)) {
        for (const EdgeId f : h.nets_of(v)) {
          if (f == eid || marks[f] == stamp) continue;
          marks[f] = stamp;
          adjacency[cursor++] = f;
        }
      }
      FHP_DEBUG_ASSERT(cursor == offsets[e + 1],
                       "fill pass must reproduce counted degrees");
      std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[e]),
                adjacency.begin() + static_cast<std::ptrdiff_t>(cursor));
    }
  };

  if (parallel) {
    pool->parallel_for(m, grain, fill_range);
  } else if (m > 0) {
    fill_range(0, m);
  }

  FHP_COUNTER_ADD("intersection/edges_after_dedup",
                  static_cast<long long>(adjacency.size() / 2));
  return Graph::from_csr(std::move(offsets), std::move(adjacency));
}

Graph intersection_graph_reference(const Hypergraph& h, ThreadPool* pool) {
  FHP_TRACE_SCOPE("intersection");
  FHP_COUNTER_ADD("intersection/reference_builds", 1);

  const std::size_t n = h.num_vertices();
  EdgeList edges;
  const bool parallel = pool != nullptr && pool->thread_count() > 1 && n > 1;
  if (parallel) {
    // Chunk boundaries depend only on n, so the shard layout — and after
    // the global canonicalization below, the final CSR — is identical at
    // any lane count.
    const std::size_t grain = std::max<std::size_t>(std::size_t{64}, n / 256);
    const std::size_t chunks = (n + grain - 1) / grain;
    std::vector<EdgeList> shards(chunks);
    std::atomic<long long> pairs{0};
    pool->parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
      const std::size_t raw =
          emit_module_range(h, begin, end, shards[begin / grain]);
      pairs.fetch_add(static_cast<long long>(raw), std::memory_order_relaxed);
    });
    std::size_t total = 0;
    for (const EdgeList& shard : shards) total += shard.size();
    edges.reserve(total);
    for (EdgeList& shard : shards) {
      edges.insert(edges.end(), shard.begin(), shard.end());
      EdgeList().swap(shard);
    }
    const long long raw_pairs = pairs.load(std::memory_order_relaxed);
    FHP_COUNTER_ADD("intersection/pairs_emitted", raw_pairs);
    static_cast<void>(raw_pairs);
  } else {
    const std::size_t raw = emit_module_range(h, 0, n, edges);
    FHP_COUNTER_ADD("intersection/pairs_emitted",
                    static_cast<long long>(raw));
    static_cast<void>(raw);
  }

  // Global canonicalization: chunk-local dedup only thins the shards; this
  // pass makes the edge set — and therefore the CSR — independent of the
  // sharding entirely.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  const long long final_edges = static_cast<long long>(edges.size());
  FHP_COUNTER_ADD("intersection/edges_after_dedup", final_edges);
  static_cast<void>(final_edges);
  return Graph::from_sorted_unique_edges(h.num_edges(), edges);
}

}  // namespace fhp
