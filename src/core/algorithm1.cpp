#include "core/algorithm1.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <map>
#include <utility>

#include "core/boundary.hpp"
#include "core/intersection.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "graph/reorder.hpp"
#include "hypergraph/transform.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace fhp {

namespace {

/// Forced-side markers for modules during assembly.
constexpr std::uint8_t kSide0 = 0;
constexpr std::uint8_t kSide1 = 1;
constexpr std::uint8_t kPending = 2;  ///< only boundary nets touch it
constexpr std::uint8_t kFree = 3;     ///< no (filtered) nets touch it

/// Lexicographic "is better" for two results under an objective.
bool better(const Algorithm1Result& a, const Algorithm1Result& b,
            Objective objective) {
  if (objective == Objective::kQuotient) {
    if (a.metrics.quotient_cut != b.metrics.quotient_cut) {
      return a.metrics.quotient_cut < b.metrics.quotient_cut;
    }
    return a.metrics.cut_edges < b.metrics.cut_edges;
  }
  if (a.metrics.cut_edges != b.metrics.cut_edges) {
    return a.metrics.cut_edges < b.metrics.cut_edges;
  }
  return a.metrics.weight_imbalance < b.metrics.weight_imbalance;
}

/// Distributes the weights of \p vertices (descending weight) onto the
/// lighter of the running side weights; writes sides in-place. \p order is
/// caller-owned sort scratch (the hot path hands in its workspace buffer).
void balance_assign(const Hypergraph& h, const std::vector<VertexId>& vertices,
                    std::vector<std::uint8_t>& sides, Weight weights[2],
                    std::vector<VertexId>& order) {
  order.assign(vertices.begin(), vertices.end());
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const Weight wa = h.vertex_weight(a);
    const Weight wb = h.vertex_weight(b);
    return wa != wb ? wa > wb : a < b;
  });
  for (VertexId v : order) {
    const std::uint8_t s = (weights[0] <= weights[1]) ? kSide0 : kSide1;
    sides[v] = s;
    weights[s] += h.vertex_weight(v);
  }
}

/// Allocating convenience overload for the cold paths.
void balance_assign(const Hypergraph& h, const std::vector<VertexId>& vertices,
                    std::vector<std::uint8_t>& sides, Weight weights[2]) {
  std::vector<VertexId> order;
  balance_assign(h, vertices, sides, weights, order);
}

/// Guarantees both sides are nonempty by flipping the lightest vertex of
/// the full side if needed (only reachable on tiny or degenerate inputs).
void ensure_proper(const Hypergraph& h, std::vector<std::uint8_t>& sides) {
  VertexId counts[2] = {0, 0};
  for (std::uint8_t s : sides) ++counts[s];
  if (counts[0] > 0 && counts[1] > 0) return;
  const std::uint8_t full = counts[0] == 0 ? kSide1 : kSide0;
  VertexId lightest = kInvalidVertex;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (sides[v] != full) continue;
    if (lightest == kInvalidVertex ||
        h.vertex_weight(v) < h.vertex_weight(lightest)) {
      lightest = v;
    }
  }
  FHP_ASSERT(lightest != kInvalidVertex, "no vertex to rebalance with");
  sides[lightest] = static_cast<std::uint8_t>(1 - full);
}

}  // namespace

Algorithm1Context::Algorithm1Context(const Hypergraph& h,
                                     const Algorithm1Options& options)
    : h_(&h), options_(options) {
  FHP_REQUIRE(h.num_vertices() >= 2,
              "a proper cut needs at least two modules");
  const int lanes = resolve_threads(options.threads);
  if (lanes > 1) pool_ = std::make_unique<ThreadPool>(lanes);
  {
    FHP_TRACE_SCOPE("filter");
    if (options.large_edge_threshold > 0) {
      FHP_REQUIRE(options.large_edge_threshold >= 2,
                  "a net-size threshold below 2 drops every net");
      filtered_ =
          filter_large_edges(h, options.large_edge_threshold).hypergraph;
    } else {
      filtered_ = filter_trivial_edges(h).hypergraph;
    }
  }
  FHP_COUNTER_ADD("alg1/filtered_nets",
                  static_cast<long long>(filtered_edge_count()));
  g_ = intersection_graph(filtered_, pool_.get());
  {
    FHP_TRACE_SCOPE("components");
    const Components comps = connected_components(g_);
    g_component_ = comps.label;
    g_component_count_ = comps.count();
  }
  degenerate_ = (g_.num_vertices() == 0) || (g_component_count_ > 1);
  if (!degenerate_ && g_.num_vertices() >= 2) {
    // Locality permutation for the BFS-heavy steps (graph/reorder.hpp).
    // Results are mapped back to original net ids immediately after the
    // initial cut, so everything downstream — memo keys, boundary
    // extraction, completion, reported cuts — lives in original ids and
    // the partition is provably unaffected (see find_pair/run_from_pair).
    FHP_TRACE_SCOPE("reorder");
    Timer timer;
    perm_ = degree_bucketed_bfs_order(g_);
    if (!perm_.is_identity()) {
      g_perm_ = g_.permuted(perm_);
      traversal_ = &g_perm_;
    }
    FHP_GAUGE_SET("algorithm1/reorder_ms", timer.seconds() * 1e3);
  }
}

Algorithm1Result Algorithm1Context::run_degenerate() const {
  FHP_TRACE_SCOPE("degenerate");
  FHP_COUNTER_ADD("alg1/degenerate_shortcuts", 1);
  const Hypergraph& h = *h_;
  Algorithm1Result result;
  result.disconnected_shortcut = true;
  result.filtered_edges = filtered_edge_count();
  result.sides.assign(h.num_vertices(), kSide0);

  // Blocks of modules glued together by a G-component; modules with no
  // surviving nets float freely.
  std::vector<std::vector<VertexId>> blocks(g_component_count_);
  std::vector<std::uint8_t> placed(h.num_vertices(), 0);
  for (EdgeId e = 0; e < filtered_.num_edges(); ++e) {
    const VertexId comp = g_component_[e];
    for (VertexId v : filtered_.pins(e)) {
      if (!placed[v]) {
        placed[v] = 1;
        blocks[comp].push_back(v);
      }
    }
  }
  std::vector<VertexId> free_vertices;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (!placed[v]) free_vertices.push_back(v);
  }

  // If one block dominates the total weight, packing whole blocks cannot
  // come close to balance: bisect the dominant block with Algorithm I
  // (its dual component is connected, so this does not recurse into the
  // degenerate path again) and treat its halves as two blocks.
  {
    Weight total = 0;
    std::size_t heaviest = 0;
    Weight heaviest_weight = 0;
    std::vector<Weight> weight_of(blocks.size(), 0);
    for (std::size_t bidx = 0; bidx < blocks.size(); ++bidx) {
      for (VertexId v : blocks[bidx]) weight_of[bidx] += h.vertex_weight(v);
      total += weight_of[bidx];
      if (weight_of[bidx] > heaviest_weight) {
        heaviest_weight = weight_of[bidx];
        heaviest = bidx;
      }
    }
    for (VertexId v : free_vertices) total += h.vertex_weight(v);
    if (2 * heaviest_weight > total && blocks[heaviest].size() >= 2) {
      std::vector<std::uint8_t> keep(h.num_vertices(), 0);
      for (VertexId v : blocks[heaviest]) keep[v] = 1;
      const InducedResult sub = induced_subhypergraph(h, keep);
      Algorithm1Options inner_options = options_;
      std::uint64_t sm = options_.seed;
      inner_options.seed = splitmix64(sm);
      inner_options.collect_trace = false;  // snapshots only at top level
      const Algorithm1Result inner = algorithm1(sub.hypergraph, inner_options);
      std::vector<VertexId> half0;
      std::vector<VertexId> half1;
      for (VertexId u = 0; u < sub.hypergraph.num_vertices(); ++u) {
        (inner.sides[u] == 0 ? half0 : half1)
            .push_back(sub.kept_vertices[u]);
      }
      blocks[heaviest] = std::move(half0);
      blocks.push_back(std::move(half1));
    }
  }

  // Pack blocks (largest weight first) onto the lighter side — a zero cut
  // on the filtered instance in the true c = 0 case, matching the paper's
  // observation; when the dominant block was bisected above, only its
  // internal cut is paid.
  std::vector<VertexId> block_order(blocks.size());
  std::iota(block_order.begin(), block_order.end(), 0U);
  std::vector<Weight> block_weight(blocks.size(), 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (VertexId v : blocks[b]) block_weight[b] += h.vertex_weight(v);
  }
  std::sort(block_order.begin(), block_order.end(),
            [&](VertexId a, VertexId b) {
              return block_weight[a] != block_weight[b]
                         ? block_weight[a] > block_weight[b]
                         : a < b;
            });
  Weight weights[2] = {0, 0};
  for (VertexId b : block_order) {
    const std::uint8_t s = (weights[0] <= weights[1]) ? kSide0 : kSide1;
    for (VertexId v : blocks[b]) result.sides[v] = s;
    weights[s] += block_weight[b];
  }
  balance_assign(h, free_vertices, result.sides, weights);
  ensure_proper(h, result.sides);

  const Bipartition partition(h, result.sides);
  result.metrics = compute_metrics(partition);
  return result;
}

Algorithm1Result Algorithm1Context::run_floating_split() const {
  FHP_TRACE_SCOPE("floating_split");
  const Hypergraph& h = *h_;
  Algorithm1Result result;
  result.filtered_edges = filtered_edge_count();
  result.sides.assign(h.num_vertices(), kSide0);
  std::vector<VertexId> floating;
  Weight netted_weight = 0;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (filtered_.degree(v) == 0) {
      result.sides[v] = kSide1;
      floating.push_back(v);
    } else {
      netted_weight += h.vertex_weight(v);
    }
  }
  if (floating.empty() || floating.size() == h.num_vertices()) {
    // Not applicable; metrics stay improper so callers discard it.
    return result;
  }
  // Floating modules touch no filtered net, so distributing them for
  // balance is free — but side 1 must keep at least one of them for the
  // cut to stay proper, so the heaviest floater is pinned there.
  std::sort(floating.begin(), floating.end(), [&](VertexId a, VertexId b) {
    const Weight wa = h.vertex_weight(a);
    const Weight wb = h.vertex_weight(b);
    return wa != wb ? wa > wb : a < b;
  });
  Weight weights[2] = {netted_weight, h.vertex_weight(floating.front())};
  std::vector<VertexId> rest(floating.begin() + 1, floating.end());
  balance_assign(h, rest, result.sides, weights);
  result.metrics = compute_metrics(Bipartition(h, result.sides));
  result.starts_run = 1;
  return result;
}

Algorithm1Result Algorithm1Context::run_single_net() const {
  FHP_REQUIRE(!degenerate_ && g_.num_vertices() == 1,
              "single-net case expects a one-vertex G");
  FHP_COUNTER_ADD("alg1/starts_examined", 1);
  FHP_HIST_SCOPE_US("alg1/start_latency_us");
  const Hypergraph& h = *h_;
  Algorithm1Result result;
  result.filtered_edges = filtered_edge_count();
  result.sides.assign(h.num_vertices(), kSide0);
  std::vector<std::uint8_t>& sides = result.sides;
  const auto net_pins = filtered_.pins(0);
  if (net_pins.size() < h.num_vertices()) {
    for (VertexId v : net_pins) sides[v] = kSide1;
  } else {
    // Every module is on the lone net: split it as evenly as possible.
    Weight weights[2] = {0, 0};
    std::vector<VertexId> all(net_pins.begin(), net_pins.end());
    balance_assign(h, all, sides, weights);
  }
  ensure_proper(h, sides);
  {
    FHP_TRACE_SCOPE("score");
    result.metrics = compute_metrics(Bipartition(h, sides));
  }
  result.starts_run = 1;
  return result;
}

Algorithm1Result Algorithm1Context::run_single(VertexId start,
                                               StartScratch& scratch) const {
  FHP_REQUIRE(!degenerate_, "degenerate instance: use run_degenerate()");
  FHP_REQUIRE(start < g_.num_vertices(), "start vertex out of range");
  if (g_.num_vertices() == 1) return run_single_net();
  FHP_COUNTER_ADD("alg1/starts_examined", 1);
  FHP_HIST_SCOPE_US("alg1/start_latency_us");
  return run_from_pair(find_pair(start, scratch.ws), scratch);
}

DiameterPair Algorithm1Context::find_pair(VertexId start, Workspace& ws) const {
  FHP_REQUIRE(!degenerate_, "degenerate instance: use run_degenerate()");
  FHP_REQUIRE(start < g_.num_vertices(), "start vertex out of range");
  FHP_REQUIRE(g_.num_vertices() >= 2,
              "a pseudo-diameter pair needs at least two G-vertices");
  // Traverse the locality-permuted graph but break `farthest` ties by
  // original id (tie_rank = inverse permutation): the elected endpoints —
  // and hence the memo keys and everything downstream — are exactly those
  // an unpermuted traversal elects.
  BfsKernelOptions kernel;
  kernel.tie_rank = perm_.to_old.data();
  DiameterPair pair = longest_path_from(*traversal_, perm_.to_new[start],
                                        kPseudoDiameterSweeps, ws, kernel);
  pair.s = perm_.to_old[pair.s];
  pair.t = perm_.to_old[pair.t];
  return pair;
}

Algorithm1Result Algorithm1Context::run_from_pair(const DiameterPair& pair,
                                                  StartScratch& scratch) const {
  FHP_REQUIRE(!degenerate_, "degenerate instance: use run_degenerate()");
  const Hypergraph& h = *h_;
  FHP_ASSERT(pair.s != pair.t, "connected G with >= 2 vertices expected");
  FHP_GAUGE_SET("alg1/pseudo_diameter", pair.distance);

  if (options_.initial_cut == InitialCutStrategy::kLevelSweep) {
    // Try every BFS level-prefix cut from pair.s and keep the best
    // completed partition. Raw cutsize would always elect the degenerate
    // end-of-sweep positions (slicing one corner off), so candidates with
    // a lighter side below a quarter of the total weight only win when no
    // balanced prefix exists.
    std::uint32_t depth = 0;
    {
      FHP_TRACE_SCOPE("initial_cut");
      // Distance labels are relabeling-invariant, so the sweep runs on
      // the permuted graph; the copy-out below indexes through the
      // permutation to land the labels back on original ids. (The
      // completion sweep below reuses the workspace, so the labels must
      // outlive it in their dedicated buffer.)
      depth = bfs_scan(*traversal_, perm_.to_new[pair.s], scratch.ws).depth;
      scratch.levels.resize(g_.num_vertices());
      for (VertexId u = 0; u < g_.num_vertices(); ++u) {
        scratch.levels[u] = scratch.ws.distance.get(perm_.to_new[u]);
      }
    }
    const Weight total = h.total_vertex_weight();
    Algorithm1Result best;
    bool have_best = false;
    bool best_balanced = false;
    for (std::uint32_t cutoff = 0; cutoff < depth; ++cutoff) {
      scratch.g_side.assign(g_.num_vertices(), 1);
      for (VertexId u = 0; u < g_.num_vertices(); ++u) {
        if (scratch.levels[u] <= cutoff) scratch.g_side[u] = 0;
      }
      Algorithm1Result candidate = complete_from_cut(scratch.g_side, scratch);
      candidate.pseudo_diameter = pair.distance;
      const bool balanced =
          2 * candidate.metrics.weight_imbalance <= total;
      bool take;
      if (!have_best) {
        take = true;
      } else if (balanced != best_balanced) {
        take = balanced;
      } else {
        take = candidate.metrics.cut_edges < best.metrics.cut_edges ||
               (candidate.metrics.cut_edges == best.metrics.cut_edges &&
                candidate.metrics.weight_imbalance <
                    best.metrics.weight_imbalance);
      }
      if (take) {
        best = std::move(candidate);
        have_best = true;
        best_balanced = balanced;
      }
    }
    FHP_ASSERT(have_best, "BFS depth >= 1 on a connected G with >= 2 nodes");
    best.starts_run = 1;
    return best;
  }

  // The region-growing cut is a function of adjacency and region sizes
  // only (see bfs.hpp), so it runs on the permuted graph; the claimed
  // sides are mapped back through the inverse permutation BEFORE boundary
  // extraction, whose tie-breaking is index-sensitive and must see
  // original ids.
  bidirectional_bfs_cut(*traversal_, perm_.to_new[pair.s],
                        perm_.to_new[pair.t], scratch.ws, scratch.cut);
  scratch.g_side.resize(g_.num_vertices());
  for (VertexId u = 0; u < g_.num_vertices(); ++u) {
    const std::uint8_t s = scratch.cut.side[perm_.to_new[u]];
    FHP_ASSERT(s != 2, "all G-vertices reachable when G is connected");
    scratch.g_side[u] = s;
  }
  Algorithm1Result completed = complete_from_cut(scratch.g_side, scratch);
  completed.pseudo_diameter = pair.distance;
  completed.starts_run = 1;
  return completed;
}

Algorithm1Result Algorithm1Context::complete_from_cut(
    std::span<const std::uint8_t> g_side, StartScratch& scratch) const {
  FHP_REQUIRE(!degenerate_, "degenerate instance: use run_degenerate()");
  FHP_REQUIRE(g_side.size() == g_.num_vertices(),
              "one side per G-vertex expected");
  const Hypergraph& h = *h_;
  Algorithm1Result result;
  result.filtered_edges = filtered_edge_count();
  result.sides.assign(h.num_vertices(), kSide0);

  extract_boundary(g_, g_side, scratch.ws, scratch.boundary);
  const BoundaryStructure& boundary = scratch.boundary;
  result.boundary_size = boundary.size();
  FHP_COUNTER_ADD("alg1/boundary_nodes",
                  static_cast<long long>(boundary.size()));
  FHP_GAUGE_SET("alg1/boundary_size", boundary.size());

  std::vector<std::uint8_t>& forced = scratch.forced;
  forced.assign(h.num_vertices(), kFree);
  {
    FHP_TRACE_SCOPE("assemble");
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      if (v < filtered_.num_vertices() && filtered_.degree(v) > 0) {
        forced[v] = kPending;
      }
    }
    for (EdgeId e = 0; e < filtered_.num_edges(); ++e) {
      if (boundary.is_boundary[e]) continue;
      const std::uint8_t s = boundary.g_side[e];
      for (VertexId v : filtered_.pins(e)) {
        FHP_ASSERT(forced[v] == kPending || forced[v] == s,
                   "module forced to both sides by non-boundary nets");
        forced[v] = s;
      }
    }
  }

  // --- Step 4: complete the boundary partition.
  CompletionResult& completion = scratch.completion;
  switch (options_.completion) {
    case CompletionStrategy::kGreedy:
      complete_cut_greedy(boundary.boundary_graph, scratch.ws, completion);
      break;
    case CompletionStrategy::kExact:
      completion = complete_cut_exact(boundary.boundary_graph,
                                      boundary.boundary_side);
      break;
    case CompletionStrategy::kWeightedGreedy: {
      Weight initial[2] = {0, 0};
      for (VertexId v = 0; v < h.num_vertices(); ++v) {
        if (forced[v] == kSide0 || forced[v] == kSide1) {
          initial[forced[v]] += h.vertex_weight(v);
        }
      }
      // Weight a winner would pull over: its not-yet-forced pins. Pins
      // shared by several boundary nets are counted once per net — a
      // deliberate approximation of the engineer's rule (see header).
      std::vector<Weight>& node_weight = scratch.node_weight;
      node_weight.assign(boundary.size(), 0);
      for (VertexId b = 0; b < boundary.size(); ++b) {
        const EdgeId e = boundary.boundary_nodes[b];
        for (VertexId v : filtered_.pins(e)) {
          if (forced[v] == kPending) node_weight[b] += h.vertex_weight(v);
        }
      }
      complete_cut_weighted(boundary.boundary_graph, boundary.boundary_side,
                            node_weight, initial[0], initial[1], scratch.ws,
                            completion);
      break;
    }
  }
  result.winner_count = completion.winner_count;
  result.loser_count = completion.loser_count;
  FHP_COUNTER_ADD("alg1/completion_winners",
                  static_cast<long long>(completion.winner_count));
  FHP_COUNTER_ADD("alg1/completion_losers",
                  static_cast<long long>(completion.loser_count));

  // --- Step 5: assemble module sides. Winner nets force their pins.
  std::vector<std::uint8_t>& sides = result.sides;
  {
    FHP_TRACE_SCOPE("assemble");
    std::vector<VertexId>& unforced = scratch.unforced;
    unforced.clear();
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      if (forced[v] == kSide0 || forced[v] == kSide1) {
        sides[v] = forced[v];
        continue;
      }
      if (forced[v] == kFree) {
        unforced.push_back(v);
        continue;
      }
      // Pending: adopt the side of a winner net touching it, if any.
      std::uint8_t chosen = kPending;
      for (EdgeId e : filtered_.nets_of(v)) {
        const VertexId b = boundary.boundary_index[e];
        FHP_ASSERT(b != kInvalidVertex,
                   "pending module must only touch boundary nets");
        if (completion.winner[b]) {
          const std::uint8_t s = boundary.boundary_side[b];
          FHP_ASSERT(chosen == kPending || chosen == s,
                     "winners on both sides share a module");
          chosen = s;
        }
      }
      if (chosen == kPending) {
        // Touched only by loser nets: free to go wherever balance wants.
        unforced.push_back(v);
      } else {
        sides[v] = chosen;
      }
    }
    {
      std::vector<std::uint8_t>& is_unforced = scratch.is_unforced;
      is_unforced.assign(h.num_vertices(), 0);
      for (VertexId u : unforced) is_unforced[u] = 1;
      Weight weights[2] = {0, 0};
      for (VertexId v = 0; v < h.num_vertices(); ++v) {
        if (!is_unforced[v]) weights[sides[v]] += h.vertex_weight(v);
      }
      balance_assign(h, unforced, sides, weights, scratch.ws.order);
    }
    ensure_proper(h, sides);
  }

  {
    FHP_TRACE_SCOPE("score");
    result.metrics = compute_metrics(Bipartition(h, sides));
  }
  result.starts_run = 1;
  return result;
}

std::vector<std::size_t> memo_owners(std::span<const DiameterPair> pairs) {
  std::vector<std::size_t> owner(pairs.size());
  std::map<std::pair<VertexId, VertexId>, std::size_t> first_of;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    owner[i] = first_of.try_emplace({pairs[i].s, pairs[i].t}, i).first->second;
  }
  return owner;
}

namespace {

/// The multi-start driver. Distinct random starts frequently converge to
/// the same pseudo-diameter pair after the BFS sweeps, and everything
/// downstream of the pair is a pure function of it, so four phases keep
/// the answer independent of the lane count and of how many starts
/// repeat a pair:
///   1. find every start's endpoint pair (parallel);
///   2. dedup pairs by ordered (s, t) (memo_owners(), serial);
///   3. complete each unique pair once (parallel);
///   4. reduce in start order, repeats referencing their owner's result —
///      with the strict better() this elects exactly the candidate a
///      per-start loop over run_single() would.
Algorithm1Result run_starts(const Algorithm1Context& context,
                            const std::vector<VertexId>& starts,
                            Objective objective) {
  ThreadPool* pool = context.pool();
  const bool parallel =
      pool != nullptr && pool->thread_count() > 1 && starts.size() > 1;

  // One scratch bundle per execution lane (worker lanes 1..N-1 plus the
  // region caller as lane 0): the steady-state start loop then reuses warm
  // buffers instead of allocating per start. Workspace is intentionally
  // non-movable, hence the indirection.
  const std::size_t lanes =
      static_cast<std::size_t>(pool != nullptr ? pool->thread_count() : 1);
  std::vector<std::unique_ptr<Algorithm1Context::StartScratch>> scratch;
  scratch.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    scratch.push_back(std::make_unique<Algorithm1Context::StartScratch>());
  }
  // Runs body(i, scratch) for i in [0, n): on the pool when parallel, each
  // lane on its own scratch; otherwise serially on lane 0's. current_lane()
  // is only a valid index into `scratch` INSIDE a region of this call's
  // own pool (where the caller is normalized to 0 and workers are
  // 1..N-1). On the serial path the executing thread may be a worker of an
  // *outer* pool — e.g. the serving layer batching independent partition
  // calls across its lanes — whose lane id has nothing to do with this
  // scratch vector, so the serial path indexes lane 0 explicitly.
  const auto for_each = [&](std::size_t n, const auto& body) {
    if (parallel && n > 1) {
      pool->parallel_for(n, 1, [&](std::size_t begin, std::size_t end) {
        const auto lane = static_cast<std::size_t>(ThreadPool::current_lane());
        for (std::size_t i = begin; i < end; ++i) body(i, *scratch[lane]);
      });
    } else {
      for (std::size_t i = 0; i < n; ++i) body(i, *scratch[0]);
    }
  };

  std::vector<DiameterPair> pairs(starts.size());
  if (parallel) FHP_COUNTER_ADD("alg1/parallel_start_batches", 1);
  for_each(starts.size(),
           [&](std::size_t i, Algorithm1Context::StartScratch& s) {
             FHP_COUNTER_ADD("alg1/starts_examined", 1);
             FHP_HIST_SCOPE_US("alg1/pair_find_us");
             pairs[i] = context.find_pair(starts[i], s.ws);
           });

  const std::vector<std::size_t> owner = memo_owners(pairs);
  std::vector<std::size_t> owners;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    if (owner[i] == i) owners.push_back(i);
  }
  FHP_COUNTER_ADD("algorithm1/starts_memo_hits",
                  static_cast<long long>(starts.size() - owners.size()));
  FHP_COUNTER_ADD("algorithm1/starts_memo_misses",
                  static_cast<long long>(owners.size()));

  std::vector<Algorithm1Result> completed(starts.size());
  for_each(owners.size(),
           [&](std::size_t i, Algorithm1Context::StartScratch& s) {
             // A start's latency is its unique pair's completion.
             FHP_HIST_SCOPE_US("alg1/start_latency_us");
             completed[owners[i]] = context.run_from_pair(pairs[owners[i]], s);
           });

  std::size_t best = 0;
  for (std::size_t i = 1; i < starts.size(); ++i) {
    if (better(completed[owner[i]], completed[owner[best]], objective)) {
      best = i;
    }
  }

  // Workspace accounting for the whole multi-start run: the per-lane
  // steady state grows each buffer once, so this total stays a small
  // multiple of the lane count however many starts executed.
  std::size_t ws_grows = 0;
  std::size_t ws_bytes = 0;
  for (const auto& s : scratch) {
    ws_grows += s->ws.grow_events();
    ws_bytes += s->ws.allocated_bytes();
  }
  FHP_COUNTER_ADD("workspace/buffer_grows", static_cast<long long>(ws_grows));
  FHP_GAUGE_SET("alg1/scratch_bytes", static_cast<double>(ws_bytes));
  return std::move(completed[owner[best]]);
}

/// Body of algorithm1(); split out so the caller can snapshot the tracer
/// after the root span has closed (an open span has no completed total).
Algorithm1Result algorithm1_impl(const Hypergraph& h,
                                 const Algorithm1Options& options) {
  const Algorithm1Context context(h, options);
  if (context.is_degenerate()) {
    Algorithm1Result result = context.run_degenerate();
    result.starts_run = 1;
    return result;
  }

  const VertexId n = context.intersection().num_vertices();
  Rng rng(options.seed);
  // Starts are a prefix of one seeded permutation, so that examining more
  // starts under the same seed can only extend — never replace — the set
  // already examined (a k-start run dominates a j-start run for j < k).
  std::vector<VertexId> starts(n);
  std::iota(starts.begin(), starts.end(), 0U);
  rng.shuffle(starts);
  if (static_cast<std::uint64_t>(options.num_starts) < n) {
    starts.resize(static_cast<std::size_t>(options.num_starts));
  }

  Algorithm1Result best = n == 1 ? context.run_single_net()
                                 : run_starts(context, starts,
                                              options.objective);

  // Optional extra candidate: when some modules sit on no (surviving)
  // net, the cut "all netted modules | floating modules" loses no
  // filtered net at all — the analogue of the c = 0 shortcut with a
  // connected G. It can be arbitrarily unbalanced, so it only competes
  // when explicitly requested.
  if (options.consider_floating_split) {
    Algorithm1Result floating = context.run_floating_split();
    if (floating.metrics.proper &&
        better(floating, best, options.objective)) {
      best = std::move(floating);
    }
  }

  best.starts_run = static_cast<int>(starts.size());
  return best;
}

}  // namespace

Algorithm1Result algorithm1(const Hypergraph& h,
                            const Algorithm1Options& options) {
  FHP_REQUIRE(options.num_starts >= 1, "need at least one start");
  Algorithm1Result result;
  {
    FHP_TRACE_SCOPE("algorithm1");
    FHP_COUNTER_ADD("alg1/runs", 1);
    result = algorithm1_impl(h, options);
  }
  if (options.collect_trace) result.trace = obs::snapshot();
  return result;
}

}  // namespace fhp
