#include "multilevel/coarsen.hpp"

#include <algorithm>
#include <utility>

#include "hypergraph/contract.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace fhp::ml {

namespace {

/// Per-lane rating scratch: a dense score accumulator plus the list of
/// slots touched for the current vertex (cleared between vertices, so the
/// accumulator is reusable without an O(n) wipe).
struct LaneScratch {
  std::vector<double> rating;
  std::vector<VertexId> touched;
};

}  // namespace

ClusteringResult heavy_edge_clustering(const Hypergraph& h,
                                       std::span<const VertexId> tie_rank,
                                       const CoarseningOptions& options,
                                       ThreadPool* pool) {
  const VertexId n = h.num_vertices();
  FHP_REQUIRE(tie_rank.empty() || tie_rank.size() == n,
              "tie_rank must be empty or cover every vertex");

  Weight max_vertex = 1;
  for (VertexId v = 0; v < n; ++v) {
    max_vertex = std::max(max_vertex, h.vertex_weight(v));
  }
  // The cap must never make the coarsening target unreachable: at least
  // total/coarsest_size weight per cluster is needed to shrink down to
  // coarsest_size clusters, whatever the fraction says.
  const Weight cluster_cap = std::max<Weight>(
      {max_vertex,
       static_cast<Weight>(static_cast<double>(h.total_vertex_weight()) *
                           kClusterWeightFraction) +
           1,
       h.total_vertex_weight() /
               std::max<Weight>(1, options.coarsest_size) +
           1});

  const auto rank_of = [&tie_rank](VertexId v) {
    return tie_rank.empty() ? v : tie_rank[v];
  };

  // ---- Rating phase (parallel): each vertex's preferred partner is a
  // pure function of the hypergraph, so the parallel map is bit-identical
  // at any lane count (chunk boundaries never influence the values).
  std::vector<VertexId> preference(n, kInvalidVertex);
  const int lanes = pool != nullptr ? pool->thread_count() : 1;
  std::vector<LaneScratch> scratch(static_cast<std::size_t>(lanes));

  const auto rate_range = [&](std::size_t begin, std::size_t end,
                              LaneScratch& s) {
    if (s.rating.size() < n) s.rating.assign(n, 0.0);
    for (std::size_t i = begin; i < end; ++i) {
      const auto v = static_cast<VertexId>(i);
      const Weight wv = h.vertex_weight(v);
      s.touched.clear();
      for (EdgeId e : h.nets_of(v)) {
        const Count size = h.edge_size(e);
        if (size < 2) continue;
        if (options.rating_net_cap > 0 && size > options.rating_net_cap) {
          continue;
        }
        const double score = static_cast<double>(h.edge_weight(e)) /
                             static_cast<double>(size - 1);
        for (VertexId u : h.pins(e)) {
          if (u == v) continue;
          if (h.vertex_weight(u) + wv > cluster_cap) continue;
          if (s.rating[u] == 0.0) s.touched.push_back(u);
          s.rating[u] += score;
        }
      }
      VertexId best = kInvalidVertex;
      double best_rating = 0.0;
      for (VertexId u : s.touched) {
        // Ties break toward the smaller original-id rank: coarse-vertex
        // numbering is a contraction artifact and must not leak into the
        // result (docs/multilevel.md).
        if (s.rating[u] > best_rating ||
            (s.rating[u] == best_rating && best != kInvalidVertex &&
             rank_of(u) < rank_of(best))) {
          best = u;
          best_rating = s.rating[u];
        }
      }
      for (VertexId u : s.touched) s.rating[u] = 0.0;
      preference[i] = best;
    }
  };
  // current_lane() indexes `scratch` only inside a region of this pool;
  // the serial path may execute on an outer pool's worker (whose lane id
  // is unrelated to this scratch vector), so it uses lane 0 explicitly.
  if (pool != nullptr && pool->thread_count() > 1 && n > 1) {
    pool->parallel_for(n, 128, [&](std::size_t begin, std::size_t end) {
      rate_range(begin, end,
                 scratch[static_cast<std::size_t>(
                     ThreadPool::current_lane())]);
    });
  } else {
    rate_range(0, n, scratch[0]);
  }

  // ---- Agglomeration phase (serial, O(n)): sweep vertices in id order,
  // joining each unassigned vertex to its preferred partner's cluster when
  // the weight cap admits. Cluster ids are dense, assigned in creation
  // order, so the whole map is deterministic given the preferences.
  ClusteringResult result;
  result.cluster.assign(n, kInvalidVertex);
  std::vector<Weight> cluster_weight;
  cluster_weight.reserve(n);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (result.cluster[v] != kInvalidVertex) continue;
    VertexId target = preference[v];
    if (target != kInvalidVertex &&
        result.cluster[target] != kInvalidVertex) {
      // Partner already clustered: join its cluster if the cap admits
      // (the cap was checked pairwise at rating time, but the cluster may
      // have grown since).
      const VertexId c = result.cluster[target];
      if (cluster_weight[c] + h.vertex_weight(v) <= cluster_cap) {
        result.cluster[v] = c;
        cluster_weight[c] += h.vertex_weight(v);
        continue;
      }
      target = kInvalidVertex;
    }
    if (target != kInvalidVertex &&
        h.vertex_weight(v) + h.vertex_weight(target) <= cluster_cap) {
      // Partner still unassigned (it has a larger id — smaller ids were
      // already swept): found a fresh pair cluster.
      result.cluster[v] = next;
      result.cluster[target] = next;
      cluster_weight.push_back(h.vertex_weight(v) +
                               h.vertex_weight(target));
    } else {
      result.cluster[v] = next;
      cluster_weight.push_back(h.vertex_weight(v));
    }
    ++next;
  }
  result.num_clusters = next;
  return result;
}

Hierarchy build_hierarchy(const Hypergraph& h,
                          const CoarseningOptions& options, ThreadPool* pool) {
  FHP_TRACE_SCOPE("ml_coarsen");
  FHP_REQUIRE(options.coarsest_size >= 2, "coarsest size must be >= 2");

  Hierarchy hierarchy(h);
  const auto target = std::max<VertexId>(
      options.coarsest_size,
      static_cast<VertexId>(options.coarsest_fraction *
                            static_cast<double>(h.num_vertices())));
  // Original-id rank per current-level vertex (empty = identity at the
  // finest level); recomputed per level as the member minimum so the
  // rating tie-break always compares in original-id space.
  std::vector<VertexId> rank;
  const Hypergraph* current = &h;
  while (current->num_vertices() > target &&
         static_cast<int>(hierarchy.num_levels()) < kMaxCoarseningLevels) {
    FHP_HIST_SCOPE_US("ml/coarsen_us");
    ClusteringResult clustering =
        heavy_edge_clustering(*current, rank, options, pool);
    if (static_cast<double>(clustering.num_clusters) >
        options.min_shrink * static_cast<double>(current->num_vertices())) {
      break;  // clustering stalled (e.g. star-shaped netlists)
    }
    std::vector<VertexId> next_rank(clustering.num_clusters, kInvalidVertex);
    for (VertexId v = 0; v < current->num_vertices(); ++v) {
      const VertexId r = rank.empty() ? v : rank[v];
      VertexId& slot = next_rank[clustering.cluster[v]];
      slot = std::min(slot, r);
    }
    ContractionResult contracted = contract(
        *current, std::move(clustering.cluster), clustering.num_clusters);
    hierarchy.push(
        {std::move(contracted.hypergraph), std::move(contracted.cluster)});
    rank = std::move(next_rank);
    current = &hierarchy.level(hierarchy.num_levels() - 1).coarse;
  }
  FHP_COUNTER_ADD("ml/levels",
                  static_cast<long long>(hierarchy.num_levels()));
  return hierarchy;
}

}  // namespace fhp::ml
