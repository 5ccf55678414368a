#include "graph/maxflow.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/rng.hpp"

namespace fhp {
namespace {

TEST(MaxFlow, SingleArc) {
  FlowNetwork net(2);
  net.add_arc(0, 1, 5);
  EXPECT_EQ(net.max_flow(0, 1), 5);
}

TEST(MaxFlow, SeriesTakesMinimum) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 7);
  net.add_arc(1, 2, 3);
  EXPECT_EQ(net.max_flow(0, 2), 3);
}

TEST(MaxFlow, ParallelPathsAdd) {
  FlowNetwork net(4);
  net.add_arc(0, 1, 2);
  net.add_arc(1, 3, 2);
  net.add_arc(0, 2, 3);
  net.add_arc(2, 3, 3);
  EXPECT_EQ(net.max_flow(0, 3), 5);
}

TEST(MaxFlow, ClassicCrossNetwork) {
  // The textbook 6-node example with a cross arc; max flow 23.
  FlowNetwork net(6);
  net.add_arc(0, 1, 16);
  net.add_arc(0, 2, 13);
  net.add_arc(1, 2, 10);
  net.add_arc(2, 1, 4);
  net.add_arc(1, 3, 12);
  net.add_arc(3, 2, 9);
  net.add_arc(2, 4, 14);
  net.add_arc(4, 3, 7);
  net.add_arc(3, 5, 20);
  net.add_arc(4, 5, 4);
  EXPECT_EQ(net.max_flow(0, 5), 23);
}

TEST(MaxFlow, DisconnectedIsZero) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 4);
  EXPECT_EQ(net.max_flow(0, 2), 0);
}

TEST(MaxFlow, MinCutSideSeparatesTerminals) {
  FlowNetwork net(4);
  net.add_arc(0, 1, 1);
  net.add_arc(1, 2, 10);
  net.add_arc(2, 3, 10);
  net.max_flow(0, 3);
  const auto side = net.min_cut_side();
  EXPECT_EQ(side[0], 1);
  EXPECT_EQ(side[3], 0);
  // The bottleneck (0,1) is the cut: 1,2 unreachable.
  EXPECT_EQ(side[1], 0);
  EXPECT_EQ(side[2], 0);
}

TEST(MaxFlow, CutCapacityEqualsFlowValue) {
  // Max-flow min-cut duality, fuzzed on random DAG-ish networks.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const std::uint32_t n = 10;
    struct ArcSpec {
      std::uint32_t from;
      std::uint32_t to;
      FlowNetwork::Capacity cap;
    };
    std::vector<ArcSpec> specs;
    FlowNetwork net(n);
    for (int i = 0; i < 25; ++i) {
      const auto u = static_cast<std::uint32_t>(rng.next_below(n));
      const auto v = static_cast<std::uint32_t>(rng.next_below(n));
      if (u == v) continue;
      const auto cap = static_cast<FlowNetwork::Capacity>(rng.next_in(1, 9));
      net.add_arc(u, v, cap);
      specs.push_back({u, v, cap});
    }
    const FlowNetwork::Capacity flow = net.max_flow(0, n - 1);
    const auto side = net.min_cut_side();
    EXPECT_EQ(side[0], 1);
    EXPECT_EQ(side[n - 1], 0);
    FlowNetwork::Capacity cut = 0;
    for (const ArcSpec& a : specs) {
      if (side[a.from] && !side[a.to]) cut += a.cap;
    }
    EXPECT_EQ(cut, flow) << "seed " << seed;
  }
}

TEST(MaxFlow, Preconditions) {
  FlowNetwork net(2);
  EXPECT_THROW(net.add_arc(0, 2, 1), PreconditionError);
  EXPECT_THROW(net.add_arc(0, 1, -1), PreconditionError);
  EXPECT_THROW((void)net.max_flow(0, 0), PreconditionError);
  EXPECT_THROW((void)net.min_cut_side(), PreconditionError);
  net.add_arc(0, 1, 1);
  (void)net.max_flow(0, 1);
  EXPECT_THROW(net.add_arc(0, 1, 1), PreconditionError);  // solved
}

TEST(MaxFlow, TenUncuttableSourcePinsIntoOneNet) {
  // Ten source-set pins of one capacity-3 net (Lawler gadget: pin -> in
  // and out -> pin uncuttable, in -> out the net), and one sink-side pin.
  // Pushing kInfiniteCapacity down each source arc would put ten times
  // 2^60 on the net's in node and overflow int64.
  constexpr Count kSource = 0;
  constexpr Count kIn = 11;
  constexpr Count kOut = 12;
  constexpr Count kSinkPin = 13;
  constexpr Count kSink = 14;
  constexpr FlowNetwork::Capacity kInf = FlowNetwork::kInfiniteCapacity;
  FlowNetwork net(15);
  for (Count pin = 1; pin <= 10; ++pin) {
    net.add_arc(kSource, pin, kInf);
    net.add_arc(pin, kIn, kInf);
    net.add_arc(kOut, pin, kInf);
  }
  net.add_arc(kIn, kOut, 3);
  net.add_arc(kSinkPin, kIn, kInf);
  net.add_arc(kOut, kSinkPin, kInf);
  net.add_arc(kSinkPin, kSink, kInf);
  EXPECT_EQ(net.max_flow(kSource, kSink), 3);
  const auto side = net.min_cut_side();
  EXPECT_EQ(side[kIn], 1);
  EXPECT_EQ(side[kOut], 0);
  for (Count pin = 1; pin <= 10; ++pin) EXPECT_EQ(side[pin], 1) << pin;
  EXPECT_EQ(side[kSinkPin], 0);
}

TEST(MaxFlow, ParallelUncuttableSourceArcs) {
  FlowNetwork net(3);
  net.add_arc(0, 1, FlowNetwork::kInfiniteCapacity);
  net.add_arc(0, 1, FlowNetwork::kInfiniteCapacity);
  net.add_arc(0, 1, FlowNetwork::kInfiniteCapacity);
  net.add_arc(1, 2, 5);
  EXPECT_EQ(net.max_flow(0, 2), 5);
  EXPECT_EQ(net.min_cut_side(), (std::vector<std::uint8_t>{1, 1, 0}));
}

TEST(MaxFlow, MinimalMinCutOfATiedNetwork) {
  // Two minimum cuts of weight 2 in series: {0} | {1, 2, 3} and
  // {0, 1} | {2, 3}. The minimal one keeps only the source.
  FlowNetwork net(4);
  net.add_arc(0, 1, 2);
  net.add_arc(1, 2, 2);
  net.add_arc(2, 3, 7);
  EXPECT_EQ(net.max_flow(0, 3), 2);
  EXPECT_EQ(net.min_cut_side(), (std::vector<std::uint8_t>{1, 0, 0, 0}));
}

TEST(MaxFlow, FiniteCapacitySumReachingInfinityFailsTyped) {
  // Each capacity is admissible, but together they reach the uncuttable
  // capacity: max_flow refuses before solving.
  constexpr FlowNetwork::Capacity kHalf = FlowNetwork::kInfiniteCapacity / 2;
  FlowNetwork net(3);
  net.add_arc(0, 1, kHalf);
  net.add_arc(1, 2, kHalf);
  EXPECT_THROW((void)net.max_flow(0, 2), PreconditionError);

  FlowNetwork fits(3);
  fits.add_arc(0, 1, kHalf);
  fits.add_arc(1, 2, kHalf - 1);
  EXPECT_EQ(fits.max_flow(0, 2), kHalf - 1);
}

TEST(MaxFlow, UncuttablePathFailsTyped) {
  FlowNetwork net(3);
  net.add_arc(0, 1, FlowNetwork::kInfiniteCapacity);
  net.add_arc(1, 2, FlowNetwork::kInfiniteCapacity);
  net.add_arc(0, 2, 4);
  EXPECT_THROW((void)net.max_flow(0, 2), PreconditionError);
}

TEST(MaxFlow, DeepChainSolvesIteratively) {
  // A 300,000-arc path: a solver that recursed once per level would need
  // that many stack frames.
  constexpr Count kNodes = 300'001;
  FlowNetwork net(kNodes);
  for (Count v = 0; v + 1 < kNodes; ++v) {
    net.add_arc(v, v + 1, v == 200'000 ? 1 : 2);
  }
  EXPECT_EQ(net.max_flow(0, kNodes - 1), 1);
  const auto side = net.min_cut_side();
  EXPECT_EQ(side[200'000], 1);
  EXPECT_EQ(side[200'001], 0);
}

TEST(MaxFlow, CapacityCeilingIsTypedNotSaturating) {
  // kInfiniteCapacity itself is the uncuttable-arc sentinel and is
  // admitted; anything beyond it must fail typed so gadget builders in a
  // near-int64 weight regime cannot silently saturate past it.
  FlowNetwork net(2);
  net.add_arc(0, 1, FlowNetwork::kInfiniteCapacity);
  EXPECT_THROW(net.add_arc(0, 1, FlowNetwork::kInfiniteCapacity + 1),
               PreconditionError);
  EXPECT_THROW(net.add_arc(1, 0, std::numeric_limits<Weight>::max()),
               PreconditionError);
  EXPECT_EQ(net.num_arcs(), 2);  // forward + residual of the single arc
}

}  // namespace
}  // namespace fhp
