/// \file algorithm1.hpp
/// Algorithm I — the paper's O(n²) hypergraph min-cut bipartitioner.
///
/// Pipeline per start (paper §2 "The Basic Algorithm"):
///   1. optionally drop nets larger than a threshold (§3);
///   2. build the intersection graph G;
///   3. find a pseudo-diameter pair by random longest BFS path;
///   4. grow BFS regions from both endpoints to cut G;
///   5. extract the boundary set/graph and the induced partial bipartition;
///   6. complete the partition with Complete-Cut (greedy / weighted / exact);
///   7. map back to a module-side assignment and score on the *original*
///      hypergraph (filtered large nets still count if they cross).
///
/// The multi-start extension (§4 "Extensions": "examined 50 random longest
/// paths and selected the best result") reuses G across starts. If G is
/// disconnected (the paper's pathological c = 0 case), the connected
/// blocks are packed onto two sides directly, yielding a zero cut on the
/// filtered instance.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/boundary.hpp"
#include "core/complete_cut.hpp"
#include "graph/bfs.hpp"
#include "graph/reorder.hpp"
#include "hypergraph/hypergraph.hpp"
#include "obs/report.hpp"
#include "partition/metrics.hpp"
#include "partition/partition.hpp"
#include "util/parallel.hpp"
#include "util/workspace.hpp"

namespace fhp {

/// Objective used to pick the best result across starts.
enum class Objective {
  kCutsize,   ///< minimize cut nets, tie-break on weight imbalance
  kQuotient,  ///< minimize cut / (|V_L| * |V_R|) (paper §1, [20])
};

/// How the initial graph cut of G is generated from the pseudo-diameter
/// endpoints (paper §2 uses the bidirectional BFS; the level sweep is one
/// of the §4 "alternative greedy methods" ablations).
enum class InitialCutStrategy {
  /// Grow BFS regions from both endpoints until they meet (the paper's
  /// "BFS from two distant nodes ... to define a cutline").
  kBidirectionalBfs,
  /// BFS from one endpoint only; try *every* level-prefix cut and keep
  /// the best completed result. More thorough, costs a factor of the BFS
  /// depth per start.
  kLevelSweep,
};

/// Tuning knobs of Algorithm I. Defaults reproduce the paper's reported
/// configuration (50 random longest paths, greedy completion, net-size
/// threshold 10).
struct Algorithm1Options {
  /// Nets with more pins than this are ignored while partitioning (they
  /// still count in the reported cut). 0 disables the filter. Paper §3:
  /// "a size threshold as low as k >= 10 [has] very small expected error".
  std::uint32_t large_edge_threshold = 10;
  /// Number of random longest-path starts examined; the best completion
  /// wins. Paper §4 used 50. Distinct starts frequently converge to the
  /// same pseudo-diameter pair, and everything downstream of the pair is a
  /// pure function of it, so each distinct ordered pair is completed once
  /// and repeats reuse its result (the algorithm1/starts_memo_{hits,misses}
  /// counters; docs/performance.md).
  int num_starts = 50;
  /// Boundary completion strategy.
  CompletionStrategy completion = CompletionStrategy::kGreedy;
  /// How the initial cut of G is produced per start.
  InitialCutStrategy initial_cut = InitialCutStrategy::kBidirectionalBfs;
  /// Selection objective across starts.
  Objective objective = Objective::kCutsize;
  /// Also consider the "floating split" candidate — modules on no
  /// surviving net versus everything else — which cuts zero filtered nets
  /// but can be arbitrarily unbalanced. Off by default (the published
  /// Algorithm I never inspects it); turn on when hunting the absolute
  /// minimum proper cut.
  bool consider_floating_split = false;
  /// RNG seed; every run with the same seed and input is identical.
  std::uint64_t seed = 1;
  /// Execution lanes for the multi-start loop and the intersection-graph
  /// build: 1 = serial, N > 1 = a pool of N lanes, 0 = resolve from the
  /// FHP_THREADS environment variable (unset -> serial). The chosen
  /// partition is bit-identical at every setting: starts come from the
  /// same seeded permutation and results are reduced in start order, so
  /// threads only change wall time, never the answer (docs/parallelism.md).
  int threads = 0;
  /// Attach an observability snapshot (phase times + counters recorded
  /// since the last obs::reset()) to the result. Off by default: the
  /// snapshot copies the whole span tree, which multi-run harnesses that
  /// aggregate globally do not want per call.
  bool collect_trace = false;
};

/// Output of Algorithm I, with diagnostics for the experiment harness.
struct Algorithm1Result {
  std::vector<std::uint8_t> sides;  ///< side per module of the input
  PartitionMetrics metrics;         ///< scored on the original hypergraph
  // ---- diagnostics (about the best start) ----
  std::uint32_t pseudo_diameter = 0;   ///< d(s, t) of the chosen pair
  VertexId boundary_size = 0;          ///< |B|
  VertexId winner_count = 0;           ///< winners in the completion
  VertexId loser_count = 0;            ///< losers (upper bound on cut)
  EdgeId filtered_edges = 0;           ///< nets dropped by the threshold
  int starts_run = 0;                  ///< starts actually examined
  bool disconnected_shortcut = false;  ///< took the c = 0 fast path
  /// Observability snapshot (see Algorithm1Options::collect_trace); empty
  /// unless requested. Cumulative since the last obs::reset().
  obs::TraceReport trace;
};

/// Runs Algorithm I on \p h. Requires at least one vertex.
[[nodiscard]] Algorithm1Result algorithm1(const Hypergraph& h,
                                          const Algorithm1Options& options = {});

/// BFS sweeps when hunting for a pseudo-diameter endpoint pair: the
/// classic double sweep (the paper's "longest BFS path" is one sweep).
inline constexpr int kPseudoDiameterSweeps = 2;

/// Start memoization's dedup: owner[i] is the first index j <= i with
/// pairs[j] == pairs[i] as an ORDERED (s, t) pair — the bidirectional
/// cut's tie-breaking is orientation-sensitive, so (s, t) and (t, s) are
/// distinct keys. Keyed on the pair itself, so it is exact at any id
/// width.
[[nodiscard]] std::vector<std::size_t> memo_owners(
    std::span<const DiameterPair> pairs);

/// Precomputed state shared across starts; exposed so tests and benches
/// can run single deterministic starts.
///
/// The BFS-heavy steps (pair finding, initial cut) traverse the
/// intersection graph relabeled for cache locality (graph/reorder.hpp,
/// RCM-lite ordering), so they walk nearly-sequential memory instead of
/// hopping across a CSR laid out in net-numbering order. `farthest`
/// tie-breaks compare original net ids and the initial cut is mapped back
/// through the inverse permutation before boundary extraction, so every
/// result is exactly the one the unpermuted traversal would produce
/// (tests/test_reorder.cpp checks this against a reference that runs the
/// BFS steps on intersection() directly). When the ordering comes out as
/// the identity no relabeled copy is built; traversal goes through the
/// same permutation maps either way.
class Algorithm1Context {
 public:
  /// Prepares the filtered hypergraph, its intersection graph and the
  /// locality permutation.
  Algorithm1Context(const Hypergraph& h, const Algorithm1Options& options);
  // Holds a pointer into itself (traversal_), so it stays put.
  Algorithm1Context(const Algorithm1Context&) = delete;
  Algorithm1Context& operator=(const Algorithm1Context&) = delete;

  /// The original hypergraph.
  [[nodiscard]] const Hypergraph& original() const noexcept { return *h_; }
  /// The filtered hypergraph actually partitioned.
  [[nodiscard]] const Hypergraph& filtered() const noexcept { return filtered_; }
  /// Intersection graph of the filtered hypergraph.
  [[nodiscard]] const Graph& intersection() const noexcept { return g_; }
  /// Nets dropped by the large-net filter.
  [[nodiscard]] EdgeId filtered_edge_count() const noexcept {
    return static_cast<EdgeId>(h_->num_edges() - filtered_.num_edges());
  }
  /// True iff the filtered intersection graph is disconnected or empty.
  [[nodiscard]] bool is_degenerate() const noexcept { return degenerate_; }

  /// Reusable per-start (per-lane) scratch: the Workspace substrate plus
  /// the structures the pipeline refills every start. One StartScratch per
  /// execution lane makes the steady-state hot loop allocation-free;
  /// contents never influence results (docs/performance.md).
  struct StartScratch {
    Workspace ws;
    BidirectionalCut cut;
    BoundaryStructure boundary;
    CompletionResult completion;
    std::vector<std::uint32_t> levels;      ///< level-sweep BFS distances
    std::vector<std::uint8_t> g_side;       ///< candidate G-cut sides
    std::vector<std::uint8_t> forced;       ///< per-module forced sides
    std::vector<VertexId> unforced;         ///< balance-assignable modules
    std::vector<std::uint8_t> is_unforced;  ///< membership bytes for above
    std::vector<Weight> node_weight;        ///< weighted-completion pulls
  };

  /// Runs one start from G-vertex \p start on \p scratch (the caller keeps
  /// one per lane across starts); returns the completed result. This is
  /// find_pair() then run_from_pair(), or run_single_net() when G has one
  /// vertex. Precondition: !is_degenerate() and
  /// start < intersection().num_vertices().
  [[nodiscard]] Algorithm1Result run_single(VertexId start,
                                            StartScratch& scratch) const;

  /// Steps 1-2 only: the pseudo-diameter endpoint pair of \p start's
  /// random longest BFS path, in original G-vertex ids. Everything
  /// downstream of the pair is a pure function of it — the memoization key
  /// (see memo_owners()). Precondition: !is_degenerate() and
  /// intersection().num_vertices() >= 2.
  [[nodiscard]] DiameterPair find_pair(VertexId start, Workspace& ws) const;

  /// Steps 3-7 for an endpoint pair produced by find_pair(): initial cut,
  /// boundary, completion, assembly, scoring.
  [[nodiscard]] Algorithm1Result run_from_pair(const DiameterPair& pair,
                                               StartScratch& scratch) const;

  /// Handles the degenerate cases (no usable nets, or disconnected G):
  /// packs connected blocks onto two sides by weight.
  [[nodiscard]] Algorithm1Result run_degenerate() const;

  /// Handles the single-net case (G is one vertex, so every start is the
  /// same): the only proper options are "net on one side, the rest on the
  /// other" (cut 0) or splitting the net; prefers the former. Counts as
  /// one examined start. Precondition: !is_degenerate() and
  /// intersection().num_vertices() == 1.
  [[nodiscard]] Algorithm1Result run_single_net() const;

  /// Candidate that separates modules on no surviving net from the rest
  /// (cuts no filtered net at all). Returns an improper (rejectable)
  /// result when there are no floating modules.
  [[nodiscard]] Algorithm1Result run_floating_split() const;

  /// Steps 3-5 of the pipeline: given a 0/1 side per G-vertex (original
  /// ids), extract the boundary, complete it with the configured strategy,
  /// and assemble a full module partition on \p scratch. Exposed for
  /// experimentation with custom initial cuts.
  [[nodiscard]] Algorithm1Result complete_from_cut(
      std::span<const std::uint8_t> g_side, StartScratch& scratch) const;

  /// The context's thread pool, or null when the configuration is serial
  /// (Algorithm1Options::threads resolved to 1).
  [[nodiscard]] ThreadPool* pool() const noexcept { return pool_.get(); }

 private:
  const Hypergraph* h_;
  Algorithm1Options options_;
  std::unique_ptr<ThreadPool> pool_;
  Hypergraph filtered_;
  Graph g_;
  Permutation perm_;   ///< locality relabeling of g_ (empty if degenerate)
  Graph g_perm_;       ///< g_ relabeled by perm_ (empty if the identity)
  const Graph* traversal_ = &g_;  ///< g_perm_, or g_ for the identity
  bool degenerate_ = false;
  std::vector<VertexId> g_component_;  ///< component label per G-vertex
  VertexId g_component_count_ = 0;
};

}  // namespace fhp
