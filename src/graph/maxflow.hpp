/// \file maxflow.hpp
/// Maximum s-t flow / minimum s-t cut on a directed capacitated network
/// (FIFO push-relabel with global relabeling).
///
/// Substrate for the network-flow bipartitioning family the paper lists
/// among its competitors (§1: Chopra [7]; Hu–Moerder multiterminal
/// hypergraph flows [16]) and for the multilevel engine's corridor flow
/// refiner (src/multilevel/flow_refine.hpp). Also reusable on its own.
///
/// Which cut. min_cut_side() is the *minimal* minimum cut: the source side
/// that every minimum cut's source side contains. The solver stops at a
/// maximum preflow, where every node still holding excess is dead (it can
/// no longer reach the sink). Call X the nodes reachable in the residual
/// network from the source or from a dead excess node. No residual arc
/// leaves X and all excess outside X sits at the sink, so X's cut capacity
/// equals the flow value: X is a minimum cut. And X lies inside every
/// minimum cut's source side S, because every maximum preflow saturates
/// the arcs leaving S, sends nothing back into S and leaves no excess
/// outside S except at the sink. So X is the minimal minimum cut, which is
/// also the set an augmenting-path solver's source-reachable side is for
/// every maximum flow (Picard–Queyranne). No solver, arc order or
/// discharge order can move it; validate/reference.hpp keeps Dinic's
/// algorithm as the oracle the identity tests hold this solver to.
///
/// Arithmetic. Capacities are int64. kInfiniteCapacity = 2^60 marks an
/// uncuttable arc, and every other capacity lies in [0, 2^60). max_flow()
/// requires the finite capacities to sum below 2^60 and starts the
/// preflow from a source excess of B = 1 + that sum instead of saturating
/// the source's arcs. A push only moves excess between two nodes, so the
/// excesses always sum to B <= 2^60, and an arc and its residual partner
/// always sum to the arc's capacity <= 2^60: no value the solver forms can
/// overflow. B also exceeds every finite cut, so the sink receives B only
/// over a path of uncuttable arcs; max_flow() rejects that network typed.
///
/// Node and arc ids are fhp::Count — the build-configured index width
/// (util/ids.hpp). Under `-DFHP_INDEX_64=ON` the Lawler hyperedge gadget
/// (2·|corridor| + 2·nets nodes) of a million-module corridor indexes
/// without overflow; on the default 32-bit build the constructor and
/// add_arc() reject counts past kMaxIndexCount with a typed error before
/// any count-proportional allocation, so ids can never silently wrap.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "util/error.hpp"
#include "util/ids.hpp"

namespace fhp {

/// Directed flow network with residual bookkeeping. Add nodes and arcs,
/// then call max_flow(); afterwards min_cut_side() exposes the source
/// side of the minimal minimum s-t cut.
class FlowNetwork {
 public:
  /// Capacity type; kInfiniteCapacity models the "uncuttable" arcs of the
  /// standard hyperedge gadget. Finite capacities stay strictly below it
  /// (add_arc rejects larger ones) and must sum below it (max_flow rejects
  /// larger sums); see "Arithmetic" above.
  using Capacity = std::int64_t;
  static constexpr Capacity kInfiniteCapacity =
      std::int64_t{1} << 60;

  /// Creates a network with \p num_nodes nodes and no arcs. \p num_nodes
  /// must be admissible for the build's index width (<= kMaxIndexCount);
  /// violations throw PreconditionError before anything is allocated.
  explicit FlowNetwork(Count num_nodes);

  /// Number of nodes.
  [[nodiscard]] Count num_nodes() const noexcept { return num_nodes_; }

  /// Number of directed arcs stored (two per add_arc call: the forward
  /// arc and its zero-capacity residual partner).
  [[nodiscard]] Count num_arcs() const noexcept {
    return static_cast<Count>(2 * added_.size());
  }

  /// Adds a directed arc from \p from to \p to with capacity \p capacity
  /// (and a zero-capacity reverse residual arc). Returns the arc id.
  /// Capacities above kInfiniteCapacity and arc counts past
  /// kMaxIndexCount fail typed.
  Count add_arc(Count from, Count to, Capacity capacity);

  /// Computes the maximum flow from \p source to \p sink; callable once
  /// per network (capacities are consumed). Packs the arcs per node, then
  /// discharges active nodes in FIFO order, relabeling every node by a
  /// reverse BFS from the sink at the start and again after each O(V + E)
  /// of relabel work. Iterative: the stack stays flat however deep the
  /// network. Throws PreconditionError when the finite capacities sum to
  /// kInfiniteCapacity or more, or when an s-t path of uncuttable arcs
  /// makes the flow unbounded.
  Capacity max_flow(Count source, Count sink);

  /// After max_flow(): marker per node, 1 = on the source side of the
  /// minimal minimum cut (reachable in the residual network from the
  /// source or from a node left holding excess).
  [[nodiscard]] std::vector<std::uint8_t> min_cut_side() const;

 private:
  struct AddedArc {
    Count from;
    Count to;
    Capacity capacity;
  };
  /// One direction of an arc in the packed network.
  struct Slot {
    Count to;
    Count partner;  ///< slot of the opposite direction
    Capacity residual;
  };

  void pack();
  void global_relabel();
  void discharge(Count node);

  Count num_nodes_ = 0;
  std::vector<AddedArc> added_;
  /// Packed network (built by max_flow): node v's slots are
  /// slots_[first_[v]] .. slots_[first_[v + 1] - 1].
  std::vector<Count> first_;
  std::vector<Slot> slots_;
  std::vector<Capacity> excess_;
  /// Lower bound on the residual distance to the sink; num_nodes() = dead.
  std::vector<Count> label_;
  std::vector<Count> current_;  ///< next slot to try per node
  /// Active nodes in FIFO order. A node enters when a push gives it
  /// excess and leaves when it is discharged, so it is queued at most
  /// once; one that died at a global relabel meanwhile is skipped.
  std::queue<Count> active_;
  std::vector<Count> bfs_;  ///< global_relabel() queue
  /// Relabel work since the last global relabel.
  std::uint64_t relabel_work_ = 0;
  Count source_ = 0;
  Count sink_ = 0;
  bool solved_ = false;
};

}  // namespace fhp
