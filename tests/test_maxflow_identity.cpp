/// \file test_maxflow_identity.cpp
/// FlowNetwork (push-relabel) against the Dinic oracle in
/// validate/reference.hpp.
///
/// Every maximum flow leaves the same minimal minimum cut, so the two
/// solvers must agree on the flow value and on min_cut_side() node for
/// node: on random networks with parallel, zero-capacity and uncuttable
/// arcs, on flow-bipartition gadgets over random hypergraphs, where the
/// contracted ml::solve_corridor() the flow baseline runs must also leave
/// every module on the whole gadget's side, and on the Lawler gadgets of
/// random corridors of random and bench_flow_refine instances, where
/// ml::solve_corridor() must also equal solve_corridor_reference(). The
/// oracle recurses once per BFS level, so every case here stays shallow.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithm1.hpp"
#include "gen/circuit.hpp"
#include "gen/planted.hpp"
#include "graph/maxflow.hpp"
#include "multilevel/flow_refine.hpp"
#include "util/rng.hpp"
#include "validate/reference.hpp"

namespace fhp {
namespace {

using validate::DinicNetwork;

struct ArcSpec {
  Count from;
  Count to;
  FlowNetwork::Capacity capacity;
};

/// Solves one network with both solvers and compares the flow value, the
/// arc count and the cut side of every node.
void expect_same_cut(Count n, const std::vector<ArcSpec>& arcs, Count source,
                     Count sink, std::uint64_t i) {
  FlowNetwork fast(n);
  DinicNetwork oracle(n);
  for (const ArcSpec& a : arcs) {
    ASSERT_EQ(fast.add_arc(a.from, a.to, a.capacity),
              oracle.add_arc(a.from, a.to, a.capacity))
        << "case " << i;
  }
  ASSERT_EQ(fast.num_arcs(), oracle.num_arcs()) << "case " << i;
  ASSERT_EQ(fast.max_flow(source, sink), oracle.max_flow(source, sink))
      << "case " << i;
  ASSERT_EQ(fast.min_cut_side(), oracle.min_cut_side()) << "case " << i;
}

/// One random network on 2-40 nodes: up to 4n arcs, some self-loops, some
/// parallel to the previous arc, capacities 0-1, 0-9 or 0-10^6, and a
/// random share of uncuttable arcs. Either every arc into the sink or
/// every arc out of the source stays finite, so every s-t path crosses a
/// finite arc.
TEST(MaxFlowIdentity, RandomNetworksMatchDinic) {
  static constexpr FlowNetwork::Capacity kMaxCapacity[] = {1, 9, 1'000'000};
  const Rng master(0xF10E);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    Rng rng = master.fork(i);
    const auto n = static_cast<Count>(rng.next_in(2, 40));
    const auto source = static_cast<Count>(rng.next_below(n));
    auto sink = static_cast<Count>(rng.next_below(n - 1));
    if (sink >= source) ++sink;
    const FlowNetwork::Capacity max_cap = kMaxCapacity[rng.next_below(3)];
    const double uncuttable = 0.5 * rng.next_double();
    const bool finite_into_sink = rng.next_bool(0.5);
    const auto m = static_cast<std::size_t>(rng.next_in(0, 4 * n));
    std::vector<ArcSpec> arcs;
    for (std::size_t k = 0; k < m; ++k) {
      ArcSpec a{};
      if (!arcs.empty() && rng.next_bool(0.15)) {
        a = arcs.back();  // parallel arc
      } else {
        a.from = static_cast<Count>(rng.next_below(n));
        a.to = rng.next_bool(0.05) ? a.from
                                   : static_cast<Count>(rng.next_below(n));
      }
      const bool guarded =
          finite_into_sink ? a.to == sink : a.from == source;
      a.capacity = !guarded && rng.next_bool(uncuttable)
                       ? FlowNetwork::kInfiniteCapacity
                       : rng.next_in(0, max_cap);
      arcs.push_back(a);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_cut(n, arcs, source, sink, i));
  }
}

/// A random hypergraph: \p n modules weighted 1 or 1-20, nets of 1-8 pins
/// weighted 0-1, 1-9 or 1-1000.
Hypergraph random_weighted(Rng& rng, VertexId n, EdgeId m) {
  static constexpr Weight kNetWeight[][2] = {{0, 1}, {1, 9}, {1, 1000}};
  const auto* range = kNetWeight[rng.next_below(3)];
  const Weight max_module = rng.next_bool(0.5) ? 1 : 20;
  HypergraphBuilder b;
  for (VertexId v = 0; v < n; ++v) b.add_vertex(rng.next_in(1, max_module));
  std::vector<VertexId> pins;
  for (EdgeId e = 0; e < m; ++e) {
    const auto size = static_cast<VertexId>(
        rng.next_in(1, std::min<VertexId>(8, n)));
    pins.clear();
    for (VertexId k = 0; k < size; ++k) {
      pins.push_back(static_cast<VertexId>(rng.next_below(n)));
    }
    b.add_edge(pins, rng.next_in(range[0], range[1]));
  }
  return std::move(b).build();
}

/// The whole-instance flow-bipartition gadget: every net an in -> out arc
/// of its weight, uncuttable pin arcs, and the terminal sets wired to a
/// super source and a super sink.
std::vector<ArcSpec> bipartition_gadget(const Hypergraph& h,
                                        const std::vector<std::uint8_t>& in_s,
                                        const std::vector<std::uint8_t>& in_t) {
  const Count n = h.num_vertices();
  const Count super_s = n + 2 * h.num_edges();
  std::vector<ArcSpec> arcs;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    const Count in = n + 2 * e;
    arcs.push_back({in, in + 1, h.edge_weight(e)});
    for (VertexId v : h.pins(e)) {
      arcs.push_back({v, in, FlowNetwork::kInfiniteCapacity});
      arcs.push_back({in + 1, v, FlowNetwork::kInfiniteCapacity});
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (in_s[v]) arcs.push_back({super_s, v, FlowNetwork::kInfiniteCapacity});
    if (in_t[v]) {
      arcs.push_back({v, super_s + 1, FlowNetwork::kInfiniteCapacity});
    }
  }
  return arcs;
}

TEST(MaxFlowIdentity, BipartitionGadgetsMatchDinic) {
  const Rng master(0xF10F);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    Rng rng = master.fork(i);
    const auto n = static_cast<VertexId>(rng.next_in(2, 60));
    const Hypergraph h = random_weighted(
        rng, n, static_cast<EdgeId>(rng.next_in(1, 2 * n)));
    // Disjoint, non-empty terminal sets.
    std::vector<std::uint8_t> in_s(n, 0);
    std::vector<std::uint8_t> in_t(n, 0);
    const double share = 0.3 * rng.next_double();
    in_s[0] = 1;
    in_t[n - 1] = 1;
    for (VertexId v = 1; v + 1 < n; ++v) {
      if (rng.next_bool(share)) (rng.next_bool(0.5) ? in_s : in_t)[v] = 1;
    }
    const Count super_s = n + 2 * h.num_edges();
    const std::vector<ArcSpec> arcs = bipartition_gadget(h, in_s, in_t);
    ASSERT_NO_FATAL_FAILURE(
        expect_same_cut(super_s + 2, arcs, super_s, super_s + 1, i));

    // The flow baseline's solve (baselines/flow.cpp): the terminal sets
    // as the exterior of a corridor over every other module, contracted
    // into the super terminals. It must leave every module on the side of
    // the whole gadget's minimal minimum cut.
    DinicNetwork oracle(super_s + 2);
    for (const ArcSpec& a : arcs) {
      (void)oracle.add_arc(a.from, a.to, a.capacity);
    }
    (void)oracle.max_flow(super_s, super_s + 1);
    const std::vector<std::uint8_t> reach = oracle.min_cut_side();
    std::vector<std::uint8_t> sides(n, 1);
    std::vector<std::uint8_t> movable(n, 1);
    for (VertexId v = 0; v < n; ++v) {
      if (in_s[v]) sides[v] = 0;
      if (in_s[v] || in_t[v]) movable[v] = 0;
    }
    const ml::CorridorSolve solve = ml::solve_corridor(h, sides, movable);
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(solve.sides[v], reach[v] != 0 ? 0 : 1)
          << "case " << i << " module " << v;
    }
  }
}

/// The Lawler gadget solve_corridor() builds: corridor modules numbered
/// in id order, an in -> out pair per net with a corridor pin, and
/// exterior pins contracted into the super terminal of their side (one
/// arc pair per terminal per net). Returns the node count; the super
/// source and super sink are the last two nodes.
Count corridor_gadget(const Hypergraph& h,
                      const std::vector<std::uint8_t>& sides,
                      const std::vector<std::uint8_t>& in_corridor,
                      std::vector<ArcSpec>& arcs) {
  std::vector<Count> local(h.num_vertices(), 0);
  Count movable = 0;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    if (in_corridor[v] != 0) local[v] = movable++;
  }
  std::vector<EdgeId> relevant;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    const auto pins = h.pins(e);
    if (std::any_of(pins.begin(), pins.end(),
                    [&](VertexId v) { return in_corridor[v] != 0; })) {
      relevant.push_back(e);
    }
  }
  const Count super_s = movable + 2 * static_cast<Count>(relevant.size());
  arcs.clear();
  for (std::size_t j = 0; j < relevant.size(); ++j) {
    const Count in = movable + 2 * static_cast<Count>(j);
    arcs.push_back({in, in + 1, h.edge_weight(relevant[j])});
    bool wired[2] = {false, false};
    for (VertexId v : h.pins(relevant[j])) {
      Count node = local[v];
      if (in_corridor[v] == 0) {
        if (wired[sides[v]]) continue;
        wired[sides[v]] = true;
        node = super_s + sides[v];
      }
      arcs.push_back({node, in, FlowNetwork::kInfiniteCapacity});
      arcs.push_back({in + 1, node, FlowNetwork::kInfiniteCapacity});
    }
  }
  return super_s + 2;
}

/// solve_corridor() against the reference over the Dinic oracle: every
/// field of the CorridorSolve, and for a solved corridor the flow value
/// and cut side of every node of its gadget.
void expect_same_solve(const Hypergraph& h,
                       const std::vector<std::uint8_t>& sides,
                       const std::vector<std::uint8_t>& in_corridor,
                       std::uint64_t i) {
  const ml::CorridorSolve got = ml::solve_corridor(h, sides, in_corridor);
  const ml::CorridorSolve want =
      validate::solve_corridor_reference(h, sides, in_corridor);
  ASSERT_EQ(got.solved, want.solved) << "case " << i;
  ASSERT_EQ(got.sides, want.sides) << "case " << i;
  ASSERT_EQ(got.cut_weight, want.cut_weight) << "case " << i;
  ASSERT_EQ(got.flow_value, want.flow_value) << "case " << i;
  ASSERT_EQ(got.gadget_arcs, want.gadget_arcs) << "case " << i;
  if (!got.solved) return;
  std::vector<ArcSpec> arcs;
  const Count nodes = corridor_gadget(h, sides, in_corridor, arcs);
  ASSERT_EQ(2 * arcs.size(), got.gadget_arcs) << "case " << i;
  ASSERT_NO_FATAL_FAILURE(
      expect_same_cut(nodes, arcs, nodes - 2, nodes - 1, i));
}

/// Corridor of modules within \p hops of a cut net's pin (on the module's
/// own side), or a random share of the modules; either way one module of
/// each side, when it has one, stays exterior as its terminal's anchor.
std::vector<std::uint8_t> random_corridor(Rng& rng, const Hypergraph& h,
                                          const std::vector<std::uint8_t>& sides) {
  const VertexId n = h.num_vertices();
  std::vector<std::uint8_t> in_corridor(n, 0);
  if (rng.next_bool(0.5)) {
    const double share = rng.next_double();
    for (auto& c : in_corridor) c = rng.next_bool(share) ? 1 : 0;
  } else {
    for (EdgeId e = 0; e < h.num_edges(); ++e) {
      bool on[2] = {false, false};
      for (VertexId v : h.pins(e)) on[sides[v]] = true;
      if (!(on[0] && on[1])) continue;
      for (VertexId v : h.pins(e)) in_corridor[v] = 1;
    }
    for (auto hops = rng.next_below(4); hops > 0; --hops) {
      std::vector<std::uint8_t> grown = in_corridor;
      for (EdgeId e = 0; e < h.num_edges(); ++e) {
        for (VertexId v : h.pins(e)) {
          if (!in_corridor[v]) continue;
          for (VertexId u : h.pins(e)) {
            if (sides[u] == sides[v]) grown[u] = 1;
          }
        }
      }
      in_corridor = std::move(grown);
    }
  }
  for (std::uint8_t s = 0; s < 2; ++s) {
    const auto it = std::find(sides.begin(), sides.end(), s);
    if (it != sides.end()) {
      in_corridor[static_cast<std::size_t>(it - sides.begin())] = 0;
    }
  }
  return in_corridor;
}

TEST(MaxFlowIdentity, RandomCorridorsMatchReference) {
  const Rng master(0xF110);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    Rng rng = master.fork(i);
    const auto n = static_cast<VertexId>(rng.next_in(2, 120));
    const Hypergraph h = random_weighted(
        rng, n, static_cast<EdgeId>(rng.next_in(1, 2 * n)));
    std::vector<std::uint8_t> sides(n);
    if (rng.next_bool(0.5)) {
      for (auto& s : sides) s = rng.next_bool(0.5) ? 1 : 0;
    } else {
      for (VertexId v = 0; v < n; ++v) {
        sides[v] = (v >= n / 2) != rng.next_bool(0.1) ? 1 : 0;
      }
    }
    const std::vector<std::uint8_t> in_corridor = random_corridor(rng, h, sides);
    ASSERT_NO_FATAL_FAILURE(expect_same_solve(h, sides, in_corridor, i));
  }
}

TEST(MaxFlowIdentity, BenchFlowRefineInstancesMatchReference) {
  // bench_flow_refine's gated instances (FlowSC1/2: standard cell,
  // FlowPl1/2: multi-pin planted), each from an Algorithm I start and
  // from a noisy planted-halves start, under grown and random corridors.
  struct Instance {
    bool planted;
    VertexId modules;
    EdgeId nets;
    EdgeId planted_cut;
  };
  constexpr Instance kInstances[] = {{false, 900, 1400, 0},
                                     {false, 1600, 2400, 0},
                                     {true, 1200, 1900, 6},
                                     {true, 2000, 3200, 8}};
  const Rng master(0xF111);
  std::uint64_t i = 0;
  for (const Instance& inst : kInstances) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      Hypergraph h = [&] {
        if (!inst.planted) {
          return generate_circuit(
              table2_params(inst.modules, inst.nets,
                            Technology::kStandardCell),
              seed);
        }
        PlantedParams p;
        p.num_vertices = inst.modules;
        p.num_edges = inst.nets;
        p.planted_cut = inst.planted_cut;
        p.min_edge_size = 2;
        p.max_edge_size = 4;
        p.max_degree = 6;
        return planted_instance(p, seed).hypergraph;
      }();
      Algorithm1Options a1;
      a1.num_starts = 4;
      a1.seed = seed;
      const std::vector<std::uint8_t> start = algorithm1(h, a1).sides;
      for (int k = 0; k < 8; ++k, ++i) {
        Rng rng = master.fork(i);
        std::vector<std::uint8_t> sides = start;
        if (k % 2 == 1) {
          for (VertexId v = 0; v < h.num_vertices(); ++v) {
            sides[v] = (v >= h.num_vertices() / 2) != rng.next_bool(0.05) ? 1 : 0;
          }
        }
        const std::vector<std::uint8_t> in_corridor =
            random_corridor(rng, h, sides);
        ASSERT_NO_FATAL_FAILURE(expect_same_solve(h, sides, in_corridor, i));
      }
    }
  }
}

}  // namespace
}  // namespace fhp
