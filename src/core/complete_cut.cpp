#include "core/complete_cut.hpp"

#include <algorithm>

#include "graph/matching.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace fhp {

namespace {

/// Bucketed min-degree queue with lazy entries: vertices are (re)pushed
/// whenever their degree drops; stale entries are skipped at pop time.
/// Gives the O(V + E) overall bound for the greedy sweeps. Storage is
/// borrowed from the caller's Workspace, so a reused lane runs the queue
/// allocation-free once its buffers are warm.
class MinDegreeQueue {
 public:
  MinDegreeQueue(const Graph& g, std::uint32_t max_degree,
                 std::vector<std::uint32_t>& degree_storage,
                 std::vector<std::vector<VertexId>>& bucket_storage)
      : degree_(degree_storage),
        buckets_(bucket_storage),
        bucket_count_(static_cast<std::size_t>(max_degree) + 1) {
    degree_.assign(g.num_vertices(), 0);
    if (buckets_.size() < bucket_count_) buckets_.resize(bucket_count_);
    for (auto& bucket : buckets_) bucket.clear();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      degree_[v] = g.degree(v);
      buckets_[degree_[v]].push_back(v);
    }
  }

  /// Current degree of v among alive vertices.
  [[nodiscard]] std::uint32_t degree(VertexId v) const { return degree_[v]; }

  /// Notes that one of v's neighbors died.
  void decrement(VertexId v) {
    FHP_DEBUG_ASSERT(degree_[v] > 0, "degree underflow");
    --degree_[v];
    buckets_[degree_[v]].push_back(v);
    min_degree_ = std::min<std::size_t>(min_degree_, degree_[v]);
  }

  /// Pops an alive vertex of minimum current degree that satisfies
  /// \p eligible; returns kInvalidVertex when none remains. Entries whose
  /// recorded degree is stale are discarded. \p alive must be the caller's
  /// liveness array.
  template <typename Eligible>
  VertexId pop_min(const std::vector<std::uint8_t>& alive,
                   Eligible&& eligible) {
    for (std::size_t d = min_degree_; d < bucket_count_; ++d) {
      auto& bucket = buckets_[d];
      std::size_t i = 0;
      while (i < bucket.size()) {
        const VertexId v = bucket[i];
        if (!alive[v] || degree_[v] != d) {
          bucket[i] = bucket.back();  // stale: drop
          bucket.pop_back();
          continue;
        }
        if (!eligible(v)) {
          ++i;
          continue;
        }
        bucket[i] = bucket.back();
        bucket.pop_back();
        // min_degree_ may only be advanced when nothing eligible was
        // skipped below d; conservatively keep it at d.
        min_degree_ = d;
        return v;
      }
    }
    return kInvalidVertex;
  }

  /// Resets the scan floor (needed when eligibility broadens, e.g. the
  /// lighter side changes in the weighted rule).
  void reset_floor() { min_degree_ = 0; }

 private:
  std::vector<std::uint32_t>& degree_;
  std::vector<std::vector<VertexId>>& buckets_;
  std::size_t bucket_count_;
  std::size_t min_degree_ = 0;
};

/// Marks \p v winner and its alive neighbors losers, updating queue
/// degrees of second-order neighbors.
void settle_winner(const Graph& bg, VertexId v, std::vector<std::uint8_t>& alive,
                   MinDegreeQueue& queue, CompletionResult& result) {
  result.winner[v] = 1;
  ++result.winner_count;
  alive[v] = 0;
  for (VertexId w : bg.neighbors(v)) {
    if (!alive[w]) continue;
    alive[w] = 0;  // loser
    ++result.loser_count;
    for (VertexId x : bg.neighbors(w)) {
      if (alive[x]) queue.decrement(x);
    }
  }
}

}  // namespace

void complete_cut_greedy(const Graph& bg, Workspace& ws,
                         CompletionResult& out) {
  FHP_TRACE_SCOPE("complete_cut");
  FHP_COUNTER_ADD("complete_cut/greedy_runs", 1);
  out.winner_count = 0;
  out.loser_count = 0;
  ws.ensure_capacity(out.winner, bg.num_vertices());
  out.winner.assign(bg.num_vertices(), 0);
  ws.ensure_capacity(ws.flags, bg.num_vertices());
  ws.flags.assign(bg.num_vertices(), 1);
  std::vector<std::uint8_t>& alive = ws.flags;
  ws.ensure_capacity(ws.degree, bg.num_vertices());
  MinDegreeQueue queue(bg, bg.max_degree(), ws.degree, ws.buckets);
  for (;;) {
    const VertexId v = queue.pop_min(alive, [](VertexId) { return true; });
    if (v == kInvalidVertex) break;
    settle_winner(bg, v, alive, queue, out);
  }
}

void complete_cut_weighted(const Graph& bg, std::span<const std::uint8_t> side,
                           std::span<const Weight> node_weight,
                           Weight initial_weight0, Weight initial_weight1,
                           Workspace& ws, CompletionResult& out) {
  FHP_TRACE_SCOPE("complete_cut");
  FHP_COUNTER_ADD("complete_cut/weighted_runs", 1);
  FHP_REQUIRE(side.size() == bg.num_vertices(), "one side label per vertex");
  FHP_REQUIRE(node_weight.size() == bg.num_vertices(),
              "one weight per vertex");
  out.winner_count = 0;
  out.loser_count = 0;
  ws.ensure_capacity(out.winner, bg.num_vertices());
  out.winner.assign(bg.num_vertices(), 0);
  ws.ensure_capacity(ws.flags, bg.num_vertices());
  ws.flags.assign(bg.num_vertices(), 1);
  std::vector<std::uint8_t>& alive = ws.flags;
  ws.ensure_capacity(ws.degree, bg.num_vertices());
  MinDegreeQueue queue(bg, bg.max_degree(), ws.degree, ws.buckets);
  Weight weights[2] = {initial_weight0, initial_weight1};

  for (;;) {
    // Engineer's rule (§3): pull the next winner from the lighter side.
    const std::uint8_t preferred = (weights[0] <= weights[1]) ? 0 : 1;
    VertexId v = queue.pop_min(
        alive, [&](VertexId u) { return side[u] == preferred; });
    if (v == kInvalidVertex) {
      queue.reset_floor();
      v = queue.pop_min(alive, [](VertexId) { return true; });
    }
    if (v == kInvalidVertex) break;
    weights[side[v]] += node_weight[v];
    settle_winner(bg, v, alive, queue, out);
    queue.reset_floor();  // eligibility may flip sides next round
  }
}

CompletionResult complete_cut_exact(const Graph& bg,
                                    std::span<const std::uint8_t> side) {
  FHP_TRACE_SCOPE("complete_cut");
  FHP_COUNTER_ADD("complete_cut/exact_runs", 1);
  const std::vector<std::uint8_t> side_vec(side.begin(), side.end());
  const MatchingResult matching = max_bipartite_matching(bg, side_vec);
  const std::vector<std::uint8_t> cover =
      minimum_vertex_cover(bg, side_vec, matching);
  CompletionResult result;
  result.winner.assign(bg.num_vertices(), 0);
  for (VertexId v = 0; v < bg.num_vertices(); ++v) {
    if (cover[v]) {
      ++result.loser_count;
    } else {
      result.winner[v] = 1;
      ++result.winner_count;
    }
  }
  return result;
}

void validate_completion(const Graph& bg, const CompletionResult& result) {
  FHP_ASSERT(result.winner.size() == bg.num_vertices(),
             "completion must label every boundary vertex");
  VertexId winners = 0;
  VertexId losers = 0;
  for (VertexId v = 0; v < bg.num_vertices(); ++v) {
    if (result.winner[v]) {
      ++winners;
      for (VertexId w : bg.neighbors(v)) {
        FHP_ASSERT(!result.winner[w],
                   "adjacent boundary nets cannot both be winners");
      }
    } else {
      ++losers;
      bool has_winner_neighbor = bg.degree(v) == 0;
      for (VertexId w : bg.neighbors(v)) {
        if (result.winner[w]) {
          has_winner_neighbor = true;
          break;
        }
      }
      FHP_ASSERT(has_winner_neighbor,
                 "loser without winner neighbor: completion not maximal");
    }
  }
  FHP_ASSERT(winners == result.winner_count, "stale winner count");
  FHP_ASSERT(losers == result.loser_count, "stale loser count");
}

}  // namespace fhp
