#include "validate/reference.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "multilevel/refine.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "partition/partition.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fhp::validate {

namespace {

/// Start-order reduction shared by both references.
void keep_better(Algorithm1Result candidate, Algorithm1Result& best,
                 bool& have_best) {
  const bool take =
      !have_best || candidate.metrics.cut_edges < best.metrics.cut_edges ||
      (candidate.metrics.cut_edges == best.metrics.cut_edges &&
       candidate.metrics.weight_imbalance < best.metrics.weight_imbalance);
  if (take) {
    best = std::move(candidate);
    have_best = true;
  }
}

void require_supported(const Algorithm1Context& context,
                       const Algorithm1Options& options) {
  FHP_REQUIRE(!context.is_degenerate(),
              "the references cover the multi-start path only");
  FHP_REQUIRE(options.objective == Objective::kCutsize,
              "the references reduce under the cutsize objective");
}

/// The starts algorithm1() examines under \p options: the first
/// num_starts G-vertices of one seeded shuffle.
std::vector<VertexId> algorithm1_starts(const Algorithm1Context& context,
                                        const Algorithm1Options& options) {
  std::vector<VertexId> starts(context.intersection().num_vertices());
  std::iota(starts.begin(), starts.end(), VertexId{0});
  Rng rng(options.seed);
  rng.shuffle(starts);
  if (static_cast<std::uint64_t>(options.num_starts) < starts.size()) {
    starts.resize(static_cast<std::size_t>(options.num_starts));
  }
  return starts;
}

/// Lazy max-heap entry: (gain, vertex). Entries go stale when the vertex
/// moves, locks, or its gain changes; staleness is detected at pop time
/// against the authoritative gain/lock arrays.
using HeapEntry = std::pair<Weight, VertexId>;
using GainHeap = std::priority_queue<HeapEntry>;

class FmPass {
 public:
  FmPass(Bipartition& p, Weight tolerance, int& moves_budget,
         std::span<const std::uint8_t> fixed)
      : p_(p),
        tolerance_(tolerance),
        moves_budget_(moves_budget),
        fixed_(fixed) {}

  /// Runs one pass; returns true if the cut (or, at equal cut, the weight
  /// imbalance) improved.
  bool run() {
    const Hypergraph& h = p_.hypergraph();
    const VertexId n = h.num_vertices();
    if (fixed_.empty()) {
      locked_.assign(n, 0);
    } else {
      locked_.assign(fixed_.begin(), fixed_.end());  // fixed stay locked
    }
    gain_.resize(n);
    heap_[0] = GainHeap();
    heap_[1] = GainHeap();
    for (VertexId v = 0; v < n; ++v) {
      if (locked_[v]) continue;
      gain_[v] = p_.move_gain(v);
      heap_[p_.side(v)].emplace(gain_[v], v);
    }

    const Weight start_cut = p_.cut_weight();
    const Weight start_imbalance = p_.weight_imbalance();
    Weight best_cut = start_cut;
    Weight best_imbalance = start_imbalance;
    std::size_t best_prefix = 0;
    std::vector<VertexId> moves;

    while (moves_budget_ > 0) {
      const VertexId v = pick_move();
      if (v == kInvalidVertex) break;
      --moves_budget_;
      apply_move(v);
      moves.push_back(v);
      const Weight cut = p_.cut_weight();
      const Weight imbalance = p_.weight_imbalance();
      if (cut < best_cut || (cut == best_cut && imbalance < best_imbalance)) {
        best_cut = cut;
        best_imbalance = imbalance;
        best_prefix = moves.size();
      }
    }

    FHP_COUNTER_ADD("fm/moves", static_cast<long long>(moves.size()));
    FHP_COUNTER_ADD("fm/moves_rolled_back",
                    static_cast<long long>(moves.size() - best_prefix));

    // Roll back to the best prefix.
    while (moves.size() > best_prefix) {
      p_.flip(moves.back());
      moves.pop_back();
    }
    return best_cut < start_cut ||
           (best_cut == start_cut && best_imbalance < start_imbalance &&
            best_prefix > 0);
  }

 private:
  /// True iff moving \p v keeps the partition within tolerance.
  [[nodiscard]] bool legal(VertexId v) const {
    const Hypergraph& h = p_.hypergraph();
    const std::uint8_t s = p_.side(v);
    const Weight w = h.vertex_weight(v);
    const Weight from = p_.weight(s) - w;
    const Weight to = p_.weight(static_cast<std::uint8_t>(1 - s)) + w;
    return std::max(from, to) - std::min(from, to) <= tolerance_;
  }

  /// Highest-gain unlocked legal move across both side heaps.
  VertexId pick_move() {
    HeapEntry best{0, kInvalidVertex};
    bool have = false;
    std::vector<HeapEntry> stash;
    for (int s = 0; s < 2; ++s) {
      GainHeap& heap = heap_[s];
      stash.clear();
      while (!heap.empty()) {
        const HeapEntry top = heap.top();
        const VertexId v = top.second;
        if (locked_[v] || p_.side(v) != s || gain_[v] != top.first) {
          heap.pop();  // stale
          continue;
        }
        if (!legal(v)) {
          stash.push_back(top);  // valid but currently illegal: keep
          heap.pop();
          continue;
        }
        if (!have || top.first > best.first) {
          best = top;
          have = true;
        }
        break;
      }
      for (const HeapEntry& entry : stash) heap.push(entry);
    }
    return have ? best.second : kInvalidVertex;
  }

  /// Executes the move and refreshes gains of affected unlocked pins.
  void apply_move(VertexId v) {
    const Hypergraph& h = p_.hypergraph();
    locked_[v] = 1;
    p_.flip(v);
    for (EdgeId e : h.nets_of(v)) {
      for (VertexId u : h.pins(e)) {
        if (locked_[u]) continue;
        const Weight g = p_.move_gain(u);
        if (g != gain_[u]) {
          gain_[u] = g;
          heap_[p_.side(u)].emplace(g, u);
        }
      }
    }
  }

  Bipartition& p_;
  Weight tolerance_;
  int& moves_budget_;
  std::span<const std::uint8_t> fixed_;
  std::vector<std::uint8_t> locked_;
  std::vector<Weight> gain_;
  GainHeap heap_[2];
};

/// Marks the cut frontier free (0) and the interior fixed (1): every pin
/// of every cut net, expanded by one hop. Returns false when no net is cut.
bool boundary_mask(const Hypergraph& h, std::span<const std::uint8_t> sides,
                   std::vector<std::uint8_t>& fixed,
                   std::vector<VertexId>& frontier) {
  fixed.assign(h.num_vertices(), 1);
  frontier.clear();
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    const std::span<const VertexId> pins = h.pins(e);
    bool on[2] = {false, false};
    for (VertexId v : pins) {
      on[sides[v]] = true;
      if (on[0] && on[1]) break;
    }
    if (on[0] && on[1]) {
      for (VertexId v : pins) {
        if (fixed[v]) {
          fixed[v] = 0;
          frontier.push_back(v);
        }
      }
    }
  }
  if (frontier.empty()) return false;
  for (const VertexId v : frontier) {
    for (EdgeId e : h.nets_of(v)) {
      for (VertexId u : h.pins(e)) fixed[u] = 0;
    }
  }
  return true;
}

}  // namespace

Algorithm1Result per_start_reference(const Algorithm1Context& context,
                                     const Algorithm1Options& options) {
  require_supported(context, options);
  Algorithm1Result best;
  bool have_best = false;
  for (const VertexId start : algorithm1_starts(context, options)) {
    Algorithm1Context::StartScratch scratch;
    keep_better(context.run_single(start, scratch), best, have_best);
  }
  return best;
}

Algorithm1Result unpermuted_reference(const Algorithm1Context& context,
                                      const Algorithm1Options& options) {
  require_supported(context, options);
  FHP_REQUIRE(options.initial_cut == InitialCutStrategy::kBidirectionalBfs,
              "the unpermuted reference runs the bidirectional cut");
  const Graph& g = context.intersection();
  FHP_REQUIRE(g.num_vertices() >= 2, "a pair needs two G-vertices");
  Algorithm1Result best;
  bool have_best = false;
  for (const VertexId start : algorithm1_starts(context, options)) {
    Algorithm1Context::StartScratch scratch;
    const DiameterPair pair =
        longest_path_from(g, start, kPseudoDiameterSweeps, scratch.ws);
    bidirectional_bfs_cut(g, pair.s, pair.t, scratch.ws, scratch.cut);
    keep_better(context.complete_from_cut(scratch.cut.side, scratch), best,
                have_best);
  }
  return best;
}

BaselineResult fm_reference(const Hypergraph& h, const FmOptions& options,
                            std::span<const std::uint8_t> fixed) {
  FHP_TRACE_SCOPE("fm");
  FHP_COUNTER_ADD("fm/runs", 1);
  FHP_REQUIRE(options.max_passes >= 1, "need at least one pass");
  if (is_degenerate_instance(h)) return trivial_baseline_result(h);

  std::vector<std::uint8_t> sides;
  if (options.initial.has_value()) {
    sides = *options.initial;
    FHP_REQUIRE(sides.size() == h.num_vertices(),
                "initial partition must cover every module");
  } else {
    sides = random_bisection(h, options.seed).sides;
  }
  Bipartition p(h, std::move(sides));

  Weight tolerance = options.max_weight_imbalance;
  if (tolerance <= 0) {
    Weight max_w = 1;
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      max_w = std::max(max_w, h.vertex_weight(v));
    }
    tolerance = 2 * max_w;
  }
  tolerance = std::max(tolerance, p.weight_imbalance());

  BaselineResult result;
  int moves_budget =
      options.max_passes * static_cast<int>(h.num_vertices()) * 2;
  FHP_REQUIRE(fixed.empty() || fixed.size() == h.num_vertices(),
              "fixed mask must be empty or cover every module");
  int passes = 0;
  for (; passes < options.max_passes; ++passes) {
    FmPass pass(p, tolerance, moves_budget, fixed);
    if (!pass.run()) break;
  }
  FHP_COUNTER_ADD("fm/passes", passes);
  result.sides = p.sides();
  result.metrics = compute_metrics(p);
  result.iterations = passes;
  return result;
}

Weight fm_refine_reference(const Hypergraph& h,
                           std::vector<std::uint8_t>& sides, int max_passes) {
  if (h.num_vertices() < 2 || max_passes <= 0) return 0;
  const Weight before = cut_weight_of(h, sides);

  if (h.num_vertices() <= ml::kFullFmThreshold) {
    FmOptions fm;
    fm.max_passes = max_passes;
    fm.initial = sides;
    BaselineResult result = fm_reference(h, fm);
    if (result.metrics.cut_weight > before) return 0;
    sides = std::move(result.sides);
    return before - result.metrics.cut_weight;
  }

  Weight current = before;
  std::vector<std::uint8_t> fixed;
  std::vector<VertexId> frontier;
  for (int pass = 0; pass < max_passes; ++pass) {
    if (!boundary_mask(h, sides, fixed, frontier)) break;
    FmOptions fm;
    fm.max_passes = max_passes;
    fm.initial = sides;
    BaselineResult result = fm_reference(h, fm, fixed);
    if (result.metrics.cut_weight >= current) break;  // frontier converged
    current = result.metrics.cut_weight;
    sides = std::move(result.sides);
  }
  return before - current;
}

DinicNetwork::DinicNetwork(Count num_nodes) {
  FHP_REQUIRE(static_cast<std::uint64_t>(num_nodes) <= kMaxIndexCount,
              "flow network node count exceeds the index range");
  head_.assign(num_nodes, kNoArc);
}

Count DinicNetwork::add_arc(Count from, Count to, Capacity capacity) {
  FHP_REQUIRE(from < num_nodes() && to < num_nodes(),
              "arc endpoint out of range");
  FHP_REQUIRE(capacity >= 0, "arc capacity must be non-negative");
  FHP_REQUIRE(capacity <= kInfiniteCapacity,
              "arc capacity exceeds kInfiniteCapacity");
  FHP_REQUIRE(!solved_, "network already solved");
  FHP_REQUIRE(static_cast<std::uint64_t>(arcs_.size()) + 1 <= kMaxIndexCount,
              "flow network arc count exceeds the index range");
  const auto id = static_cast<Count>(arcs_.size());
  arcs_.push_back(Arc{to, head_[from], capacity});
  head_[from] = id;
  arcs_.push_back(Arc{from, head_[to], 0});
  head_[to] = id + 1;
  return id;
}

bool DinicNetwork::build_levels(Count source, Count sink) {
  level_.assign(num_nodes(), kNoLevel);
  level_[source] = 0;
  std::vector<Count> queue{source};
  for (std::size_t headpos = 0; headpos < queue.size(); ++headpos) {
    const Count u = queue[headpos];
    for (Count a = head_[u]; a != kNoArc; a = arcs_[a].next) {
      const Arc& arc = arcs_[a];
      if (arc.residual > 0 && level_[arc.to] == kNoLevel) {
        level_[arc.to] = level_[u] + 1;
        queue.push_back(arc.to);
      }
    }
  }
  return level_[sink] != kNoLevel;
}

DinicNetwork::Capacity DinicNetwork::push(Count node, Count sink,
                                          Capacity limit) {
  if (node == sink) return limit;
  for (Count& a = iter_[node]; a != kNoArc; a = arcs_[a].next) {
    Arc& arc = arcs_[a];
    if (arc.residual <= 0 || level_[arc.to] != level_[node] + 1) continue;
    const Capacity sent =
        push(arc.to, sink, std::min(limit, arc.residual));
    if (sent > 0) {
      arc.residual -= sent;
      arcs_[a ^ 1].residual += sent;
      return sent;
    }
  }
  return 0;
}

DinicNetwork::Capacity DinicNetwork::max_flow(Count source, Count sink) {
  FHP_REQUIRE(source < num_nodes() && sink < num_nodes(),
              "terminal out of range");
  FHP_REQUIRE(source != sink, "source and sink must differ");
  FHP_REQUIRE(!solved_, "network already solved");
  solved_ = true;
  source_ = source;

  Capacity total = 0;
  while (build_levels(source, sink)) {
    iter_ = head_;
    for (;;) {
      const Capacity sent = push(source, sink, kInfiniteCapacity);
      if (sent == 0) break;
      total += sent;
    }
  }
  return total;
}

std::vector<std::uint8_t> DinicNetwork::min_cut_side() const {
  FHP_REQUIRE(solved_, "call max_flow() first");
  std::vector<std::uint8_t> side(num_nodes(), 0);
  std::vector<Count> queue{source_};
  side[source_] = 1;
  for (std::size_t headpos = 0; headpos < queue.size(); ++headpos) {
    const Count u = queue[headpos];
    for (Count a = head_[u]; a != kNoArc; a = arcs_[a].next) {
      const Arc& arc = arcs_[a];
      if (arc.residual > 0 && !side[arc.to]) {
        side[arc.to] = 1;
        queue.push_back(arc.to);
      }
    }
  }
  return side;
}

ml::CorridorSolve solve_corridor_reference(
    const Hypergraph& h, const std::vector<std::uint8_t>& sides,
    const std::vector<std::uint8_t>& in_corridor) {
  require_sides(h, sides);
  FHP_REQUIRE(in_corridor.size() == h.num_vertices(),
              "one corridor flag per module");
  ml::CorridorSolve result;
  result.sides = sides;

  const VertexId n = h.num_vertices();
  std::vector<Count> local(n, kInvalidVertex);
  Count movable = 0;
  VertexId exterior[2] = {0, 0};
  for (VertexId v = 0; v < n; ++v) {
    if (in_corridor[v] != 0) {
      local[v] = movable++;
    } else {
      ++exterior[sides[v]];
    }
  }
  if (movable == 0 || exterior[0] == 0 || exterior[1] == 0) return result;

  std::vector<EdgeId> relevant;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    for (VertexId v : h.pins(e)) {
      if (in_corridor[v] != 0) {
        relevant.push_back(e);
        break;
      }
    }
  }
  if (relevant.empty()) return result;

  const std::uint64_t nodes64 =
      static_cast<std::uint64_t>(movable) +
      2 * static_cast<std::uint64_t>(relevant.size()) + 2;
  FHP_REQUIRE(nodes64 <= kMaxIndexCount,
              "flow gadget node count exceeds the index range");

  Weight weight_sum = 0;
  for (const EdgeId e : relevant) {
    const Weight w = h.edge_weight(e);
    FHP_REQUIRE(w < DinicNetwork::kInfiniteCapacity - weight_sum,
                "flow gadget capacity overflow: summed net weight reaches "
                "the uncuttable-arc capacity");
    weight_sum += w;
  }

  const auto super_s =
      static_cast<Count>(movable + 2 * static_cast<Count>(relevant.size()));
  const Count super_t = super_s + 1;
  DinicNetwork net(super_t + 1);

  for (std::size_t j = 0; j < relevant.size(); ++j) {
    const EdgeId e = relevant[j];
    const auto in = static_cast<Count>(movable + 2 * j);
    const Count out = in + 1;
    net.add_arc(in, out, h.edge_weight(e));
    bool wired[2] = {false, false};
    for (VertexId v : h.pins(e)) {
      Count node;
      if (in_corridor[v] != 0) {
        node = local[v];
      } else {
        const std::uint8_t s = sides[v];
        if (wired[s]) continue;
        wired[s] = true;
        node = s == 0 ? super_s : super_t;
      }
      net.add_arc(node, in, DinicNetwork::kInfiniteCapacity);
      net.add_arc(out, node, DinicNetwork::kInfiniteCapacity);
    }
  }

  result.flow_value = net.max_flow(super_s, super_t);
  result.gadget_arcs = net.num_arcs();
  const std::vector<std::uint8_t> reach = net.min_cut_side();
  for (VertexId v = 0; v < n; ++v) {
    if (in_corridor[v] != 0) result.sides[v] = reach[local[v]] != 0 ? 0 : 1;
  }
  result.cut_weight = cut_weight_of(h, result.sides);
  result.solved = true;
  return result;
}

}  // namespace fhp::validate
