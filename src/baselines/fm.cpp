#include "baselines/fm.hpp"

#include <algorithm>
#include <queue>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace fhp {

namespace {

/// Lazy max-heap entry: (gain, vertex). Entries go stale when the vertex
/// moves, locks, or its gain changes; staleness is detected at pop time
/// against the authoritative gain/lock arrays.
using HeapEntry = std::pair<Weight, VertexId>;
using GainHeap = std::priority_queue<HeapEntry>;

class FmPass {
 public:
  FmPass(Bipartition& p, Weight tolerance, int& moves_budget,
         const std::vector<std::uint8_t>& fixed)
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
      locked_ = fixed_;  // fixed modules start (and stay) locked
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
  const std::vector<std::uint8_t>& fixed_;
  std::vector<std::uint8_t> locked_;
  std::vector<Weight> gain_;
  GainHeap heap_[2];
};

}  // namespace

BaselineResult fiduccia_mattheyses(const Hypergraph& h,
                                   const FmOptions& options) {
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
  // Never demand a tighter balance than the starting partition satisfies,
  // or no move could ever be rolled into a legal prefix.
  tolerance = std::max(tolerance, p.weight_imbalance());

  BaselineResult result;
  // Global move budget keeps the baseline politely bounded on adversarial
  // instances; ordinary runs converge long before it is reached.
  int moves_budget =
      options.max_passes * static_cast<int>(h.num_vertices()) * 2;
  FHP_REQUIRE(options.fixed.empty() ||
                  options.fixed.size() == h.num_vertices(),
              "fixed mask must be empty or cover every module");
  int passes = 0;
  for (; passes < options.max_passes; ++passes) {
    FmPass pass(p, tolerance, moves_budget, options.fixed);
    if (!pass.run()) break;
  }
  FHP_COUNTER_ADD("fm/passes", passes);
  result.sides = p.sides();
  result.metrics = compute_metrics(p);
  result.iterations = passes;
  return result;
}

}  // namespace fhp
