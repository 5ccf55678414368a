/// \file test_workspace.cpp
/// The workspace substrate: EpochArray semantics, growth accounting, and
/// the long-haul property that a reused workspace gives results
/// bit-identical to a fresh one across thousands of reuses with
/// interleaved shrink-then-grow problem sizes (the epoch-stamp trick's
/// dangerous regime: stale stamps from a larger, older epoch must never
/// leak into a smaller, newer one and vice versa).
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

namespace fhp {
namespace {

TEST(EpochArrayTest, UnwrittenSlotsReadTheEpochDefault) {
  EpochArray<std::uint32_t> a;
  a.reset(4, 7U);
  EXPECT_EQ(a.size(), 4U);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(a.is_set(i));
    EXPECT_EQ(a.get(i), 7U);
  }
  a.set(2, 99U);
  EXPECT_TRUE(a.is_set(2));
  EXPECT_EQ(a.get(2), 99U);
  EXPECT_EQ(a.get(1), 7U);
}

TEST(EpochArrayTest, ResetClearsInConstantTimeWithNewDefault) {
  EpochArray<std::uint8_t> a;
  a.reset(8, 0);
  for (std::size_t i = 0; i < 8; ++i) a.set(i, 1);
  a.reset(8, 2);  // same size, new epoch: every write forgotten
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(a.is_set(i));
    EXPECT_EQ(a.get(i), 2);
  }
}

TEST(EpochArrayTest, ShrinkThenGrowNeverResurrectsStaleWrites) {
  EpochArray<std::uint32_t> a;
  a.reset(10, 0U);
  for (std::size_t i = 0; i < 10; ++i) {
    a.set(i, 100U + static_cast<std::uint32_t>(i));
  }
  a.reset(3, 0U);  // shrink: slots 3..9 keep old stamps
  a.reset(10, 5U);  // grow back: old stamps are from an older generation
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(a.is_set(i)) << i;
    EXPECT_EQ(a.get(i), 5U) << i;
  }
}

TEST(WorkspaceTest, AccountsGrowthOnceAndStopsWhenWarm) {
  Workspace ws;
  EXPECT_EQ(ws.grow_events(), 0U);
  ws.distance.reset(100, 0U);
  const std::size_t after_first = ws.grow_events();
  EXPECT_GE(after_first, 1U);
  EXPECT_GT(ws.allocated_bytes(), 0U);
  // Same-or-smaller epochs and warm plain buffers add nothing.
  ws.distance.reset(100, 1U);
  ws.distance.reset(40, 2U);
  ws.reset_buffer(ws.queue, 50);
  const std::size_t after_queue = ws.grow_events();
  ws.reset_buffer(ws.queue, 50);
  EXPECT_EQ(ws.grow_events(), after_queue);
  EXPECT_EQ(ws.distance.size(), 40U);
}

/// Deterministic random connected graph on n vertices: a Hamiltonian-ish
/// chain plus extra random edges, so BFS has nontrivial depth and shape.
Graph random_connected_graph(VertexId n, Rng& rng) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v < n; ++v) {
    edges.emplace_back(static_cast<VertexId>(rng.next_below(v)), v);
  }
  const std::size_t extra = static_cast<std::size_t>(n);
  for (std::size_t i = 0; i < extra; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (u != v) edges.emplace_back(u, v);
  }
  return Graph::from_edges(n, edges);
}

TEST(WorkspaceTest, TenThousandReusesMatchFreshWorkspaces) {
  // One workspace (and one BidirectionalCut output) survives 10,000
  // iterations over graphs whose sizes interleave shrink-then-grow; every
  // iteration must agree exactly with the same kernel on a fresh
  // workspace.
  Workspace ws;
  BidirectionalCut ws_cut;
  Rng rng(2026);
  // A fixed bank of graphs with deliberately alternating sizes.
  constexpr VertexId kSizes[] = {120, 7, 260, 2, 33, 500, 9, 64};
  std::vector<Graph> graphs;
  for (const VertexId n : kSizes) graphs.push_back(random_connected_graph(n, rng));

  for (int iter = 0; iter < 10000; ++iter) {
    const Graph& g = graphs[static_cast<std::size_t>(iter) % graphs.size()];
    const auto source = static_cast<VertexId>(rng.next_below(g.num_vertices()));

    Workspace fresh;
    const BfsSummary expect = bfs_scan(g, source, fresh);
    const BfsSummary got = bfs_scan(g, source, ws);
    ASSERT_EQ(got.farthest, expect.farthest);
    ASSERT_EQ(got.depth, expect.depth);
    ASSERT_EQ(got.reached, expect.reached);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(ws.distance.get(v), fresh.distance.get(v)) << "iter " << iter;
    }

    // Exercise the composite kernels on a sparser cadence (they run many
    // BFS passes internally, so every iteration would be overkill).
    if (iter % 10 == 0 && g.num_vertices() >= 2) {
      Workspace fresh_pair_ws;
      const DiameterPair expect_pair =
          longest_path_from(g, source, 2, fresh_pair_ws);
      const DiameterPair got_pair = longest_path_from(g, source, 2, ws);
      ASSERT_EQ(got_pair.s, expect_pair.s);
      ASSERT_EQ(got_pair.t, expect_pair.t);
      ASSERT_EQ(got_pair.distance, expect_pair.distance);

      Workspace fresh_cut_ws;
      BidirectionalCut expect_cut;
      bidirectional_bfs_cut(g, expect_pair.s, expect_pair.t, fresh_cut_ws,
                            expect_cut);
      bidirectional_bfs_cut(g, expect_pair.s, expect_pair.t, ws, ws_cut);
      ASSERT_EQ(ws_cut.side, expect_cut.side) << "iter " << iter;
      ASSERT_EQ(ws_cut.reached_s, expect_cut.reached_s);
      ASSERT_EQ(ws_cut.reached_t, expect_cut.reached_t);
    }
  }

  // Warmed up long ago: the growth tally is bounded by the size bank, not
  // by the iteration count (reuse actually reused).
  EXPECT_LT(ws.grow_events(), 64U);
}

}  // namespace
}  // namespace fhp
