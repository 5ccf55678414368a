#include "multilevel/flow_refine.hpp"

#include <algorithm>
#include <utility>

#include "core/recursive.hpp"
#include "graph/maxflow.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "partition/partition.hpp"

namespace fhp::ml {

namespace {

/// Grows the round's corridor around \p p: every pin of every cut net is
/// seeded (keeping at least one exterior anchor per side so the gadget
/// always has both terminals), then a per-side BFS over the hypergraph
/// (module → nets → modules, staying on the module's own side) expands
/// the corridor breadth-first until the admitted vertex weight of that
/// side reaches \p budget. All traversal state lives in the workspace:
/// epoch-stamped vertex marks, per-side bits in the edge-mark stamps for
/// net dedup, and the two frontier buffers as BFS queues — zero
/// allocations once warm, same as the Algorithm I kernels.
///
/// Deterministic: seeds are collected in (net, pin) CSR order and the
/// expansion consumes each frontier in push order, so equal inputs grow
/// equal corridors at any thread count.
VertexId grow_corridor(const Bipartition& p, double budget, Workspace& ws,
                       std::vector<std::uint8_t>& in_corridor) {
  const Hypergraph& h = p.hypergraph();
  const VertexId n = h.num_vertices();
  in_corridor.assign(n, 0);
  VertexId exterior[2] = {p.count(0), p.count(1)};

  ws.mark.reset(n, 0);
  ws.edge_mark.reset(h.num_edges(), 0);
  ws.reset_buffer(ws.frontier[0], n);
  ws.reset_buffer(ws.frontier[1], n);
  double admitted[2] = {0.0, 0.0};
  VertexId corridor = 0;

  const auto admit = [&](VertexId v, std::uint8_t s) {
    ws.mark.set(v, 1);
    in_corridor[v] = 1;
    ws.frontier[s].push_back(v);
    admitted[s] += static_cast<double>(h.vertex_weight(v));
    --exterior[s];
    ++corridor;
  };

  // Seeds: the cut-net boundary, admitted regardless of budget (the
  // gadget can only move what is in the corridor, and the boundary is
  // where improvement lives) — except the last exterior module of a
  // side, which stays out as that side's terminal anchor.
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    if (!p.is_cut(e)) continue;
    for (VertexId v : h.pins(e)) {
      const std::uint8_t s = p.side(v);
      if (ws.mark.get(v) == 0 && exterior[s] > 1) admit(v, s);
    }
  }

  // Budgeted breadth-first expansion, one side at a time.
  for (int s = 0; s < 2; ++s) {
    const auto side = static_cast<std::uint8_t>(s);
    const std::uint64_t side_bit = std::uint64_t{1} << s;
    for (std::size_t pos = 0;
         pos < ws.frontier[s].size() && admitted[s] < budget &&
         exterior[s] > 1;
         ++pos) {
      const VertexId v = ws.frontier[s][pos];
      for (EdgeId e : h.nets_of(v)) {
        if ((ws.edge_mark.get(e) & side_bit) != 0) continue;
        ws.edge_mark.set(e, ws.edge_mark.get(e) | side_bit);
        for (VertexId u : h.pins(e)) {
          if (p.side(u) != side || ws.mark.get(u) != 0) continue;
          if (admitted[s] >= budget || exterior[s] <= 1) break;
          admit(u, side);
        }
        if (admitted[s] >= budget || exterior[s] <= 1) break;
      }
    }
  }
  return corridor;
}

}  // namespace

CorridorSolve solve_corridor(const Hypergraph& h,
                             const std::vector<std::uint8_t>& sides,
                             const std::vector<std::uint8_t>& in_corridor) {
  require_sides(h, sides);
  FHP_REQUIRE(in_corridor.size() == h.num_vertices(),
              "one corridor flag per module");
  CorridorSolve result;
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
  // Both terminals need a contracted module behind them; otherwise the
  // min cut could legally empty a side, which is never adoptable.
  if (movable == 0 || exterior[0] == 0 || exterior[1] == 0) return result;

  // Only nets touching the corridor can change cut status; everything
  // else is constant and stays out of the gadget.
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

  // Gadget sizing in 64-bit so an inadmissible node count fails typed
  // instead of wrapping before FlowNetwork's own admission check.
  const std::uint64_t nodes64 =
      static_cast<std::uint64_t>(movable) +
      2 * static_cast<std::uint64_t>(relevant.size()) + 2;
  FHP_REQUIRE(nodes64 <= kMaxIndexCount,
              "flow gadget node count exceeds the index range");

  // Capacity-overflow guard: the flow value is bounded by the summed
  // relevant-net weight, which must stay strictly below the uncuttable
  // arc capacity for the gadget's arithmetic to be exact. Weight regimes
  // near the int64 ceiling (contract-test territory) land here.
  Weight weight_sum = 0;
  for (const EdgeId e : relevant) {
    const Weight w = h.edge_weight(e);
    FHP_REQUIRE(w < FlowNetwork::kInfiniteCapacity - weight_sum,
                "flow gadget capacity overflow: summed net weight reaches "
                "the uncuttable-arc capacity");
    weight_sum += w;
  }

  const auto super_s =
      static_cast<Count>(movable + 2 * static_cast<Count>(relevant.size()));
  const Count super_t = super_s + 1;
  FlowNetwork net(super_t + 1);

  // The Lawler hyperedge gadget: net e becomes in→out with capacity
  // edge_weight(e); every pin is wired to both split nodes with
  // uncuttable arcs. Corridor pins connect through their local node,
  // exterior pins through the super terminal of their current side (one
  // arc pair per terminal per net — further exterior pins on the same
  // side are redundant).
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
      net.add_arc(node, in, FlowNetwork::kInfiniteCapacity);
      net.add_arc(out, node, FlowNetwork::kInfiniteCapacity);
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

Weight FlowRefiner::refine(const Hypergraph& h,
                           std::vector<std::uint8_t>& sides,
                           std::uint64_t /*seed: the refiner is fully
                           deterministic — corridor growth and the gadget
                           build iterate in fixed CSR order, and the min
                           cut read is the unique minimal one*/) {
  FHP_TRACE_SCOPE("flow_refine");
  require_sides(h, sides);
  if (h.num_vertices() < options_.min_vertices || h.num_edges() == 0) {
    return 0;
  }
  Bipartition p(h, sides);
  const Weight before = p.cut_weight();
  if (before == 0) return 0;

  const Weight total = h.total_vertex_weight();
  // A candidate must land within the tolerance band — or at least not be
  // more lopsided than the partition we were handed (projected coarse
  // partitions can start outside the band; flow must stay adoptable).
  // The floor of 2 matches what balance recovery can actually reach:
  // rebalance_bipartition guarantees |dev0| <= max(1, eps/2 * total), so
  // the recovered imbalance is <= max(2, eps * total) — without the floor
  // no candidate could ever be adopted on small unit-weight instances.
  const auto tol_abs = static_cast<Weight>(options_.balance_tolerance *
                                           static_cast<double>(total));
  const Weight allowed =
      std::max({Weight{2}, tol_abs, p.weight_imbalance()});

  double budget =
      std::max(1.0, kCorridorWeightFraction * static_cast<double>(total));
  std::vector<std::uint8_t> in_corridor;
  int dry = 0;
  for (int round = 0; round < kMaxFlowRounds && dry < kMaxDryFlowRounds;
       ++round) {
    FHP_COUNTER_ADD("flow/rounds", 1);
    const VertexId corridor = grow_corridor(p, budget, ws_, in_corridor);
    FHP_COUNTER_ADD("flow/corridor_vertices",
                    static_cast<long long>(corridor));
    // Anchors are all that can remain exterior once the corridor covers
    // everything else; a dry round at saturation cannot be outgrown.
    const bool saturated = corridor + 2 >= h.num_vertices();

    bool adopted = false;
    if (corridor > 0) {
      const CorridorSolve solve = solve_corridor(h, p.sides(), in_corridor);
      FHP_COUNTER_ADD("flow/gadget_arcs",
                      static_cast<long long>(solve.gadget_arcs));
      if (solve.solved && solve.cut_weight < p.cut_weight()) {
        Bipartition candidate = p;
        for (VertexId v = 0; v < h.num_vertices(); ++v) {
          if (in_corridor[v] != 0) candidate.move_to(v, solve.sides[v]);
        }
        // Balance recovery: the exact min cut is often lopsided. Let the
        // greedy rebalancer walk it back toward an even split and adopt
        // only if the result is still a strict cut improvement inside the
        // allowance. Halved tolerance (the recursive driver's
        // convention): the rebalancer bounds the *deviation* while the
        // allowance bounds the *imbalance* = 2 x deviation.
        if (candidate.weight_imbalance() > allowed) {
          rebalance_bipartition(candidate, 0.5,
                                options_.balance_tolerance / 2.0);
        }
        adopted = candidate.cut_weight() < p.cut_weight() &&
                  candidate.weight_imbalance() <= allowed;
        if (adopted) {
          p = std::move(candidate);
          FHP_COUNTER_ADD("flow/adopted", 1);
        }
      }
    }

    if (adopted) {
      dry = 0;
      if (p.cut_weight() == 0) break;
    } else {
      ++dry;
      if (saturated) break;
    }
    budget *= kCorridorBudgetGrowth;
  }
  sides = p.sides();
  return before - p.cut_weight();
}

}  // namespace fhp::ml
