/// Large-id boundary matrix: counts near the id-range limits must either
/// parse (when the build's fhp::Index admits them and the body is really
/// present) or fail with a *typed* IoError — never a bad_alloc from
/// trusting a hostile header, and never silent truncation. Every case runs
/// through both parser stacks (istream oracle and the zero-copy overload)
/// so their error classification stays aligned.
///
/// Deliberate constraint: no test here feeds a parser a header whose
/// declared counts are both admissible *and* backed by a matching body —
/// that would genuinely allocate count-proportional memory (a 2^31-vertex
/// weight vector is 16 GiB). Near-limit counts appear only in inputs that
/// must be rejected before any count-proportional allocation happens.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "core/algorithm1.hpp"
#include "graph/maxflow.hpp"
#include "hypergraph/bookshelf.hpp"
#include "hypergraph/io.hpp"
#include "test_helpers.hpp"
#include "util/ids.hpp"

namespace fhp {
namespace {

void expect_both_hmetis_parsers_throw(const std::string& text) {
  std::istringstream in(text);
  EXPECT_THROW((void)read_hmetis(in), IoError) << "istream: " << text;
  EXPECT_THROW((void)read_hmetis(std::string_view(text)), IoError)
      << "string_view: " << text;
}

void expect_both_bookshelf_parsers_throw(const std::string& nodes,
                                         const std::string& nets) {
  std::istringstream nodes_in(nodes);
  std::istringstream nets_in(nets);
  EXPECT_THROW((void)read_bookshelf(nodes_in, nets_in), IoError);
  EXPECT_THROW(
      (void)read_bookshelf(std::string_view(nodes), std::string_view(nets)),
      IoError);
}

TEST(LargeIds, IndexWidthMatchesBuildConfiguration) {
#if FHP_INDEX_64
  static_assert(sizeof(Index) == 8, "FHP_INDEX_64 implies 64-bit ids");
#else
  static_assert(sizeof(Index) == 4, "default build uses 32-bit ids");
#endif
  static_assert(sizeof(VertexId) == sizeof(Index));
  static_assert(sizeof(EdgeId) == sizeof(Index));
  EXPECT_EQ(kMaxIndexCount,
            static_cast<unsigned long long>(std::numeric_limits<Index>::max()));
}

TEST(LargeIds, MemoKeySeparatesPairsDifferingAboveBit31) {
  // Start memoization must key on the full (s, t) pair: packing it into
  // one 64-bit word would merge these pairs once ids pass 2^32.
  if constexpr (sizeof(VertexId) < 8) {
    GTEST_SKIP() << "ids above 2^32 need FHP_INDEX_64";
  } else {
    const auto high = static_cast<VertexId>(std::uint64_t{1} << 32);
    const std::vector<DiameterPair> pairs = {
        {5, 7, 3}, {5 | high, 7, 3}, {5, 7 | high, 3},
        {5 | high, 7 | high, 3}, {5, 7, 3}, {5, 7 | high, 3}};
    EXPECT_EQ(memo_owners(pairs),
              (std::vector<std::size_t>{0, 1, 2, 3, 0, 2}));
  }
}

TEST(LargeIds, HmetisCountsBeyondInt32AreRejectedOn32BitBuilds) {
  // 2^31 exceeds kMaxIndexCount only when Index is int32; on 64-bit builds
  // this header is admissible and would honestly allocate gigabytes, so
  // the case is gated to the narrow build.
  if constexpr (sizeof(VertexId) == 4) {
    expect_both_hmetis_parsers_throw("1 2147483648\n1 2\n");
    expect_both_hmetis_parsers_throw("2147483648 4\n1 2\n");
  }
}

TEST(LargeIds, HmetisCountsBeyondInt64AreRejectedOnEveryBuild) {
  expect_both_hmetis_parsers_throw("1 9999999999999999999\n1 2\n");
  expect_both_hmetis_parsers_throw("9999999999999999999 4\n1 2\n");
  expect_both_hmetis_parsers_throw("1 99999999999999999999\n1 2\n");  // >u64
}

TEST(LargeIds, HostileEdgeCountFailsBeforeAllocation) {
  // A billion declared edges backed by one body line: the census must
  // reject this as truncation *before* any edge-proportional allocation.
  // A bad_alloc instead of IoError fails the EXPECT_THROW type match.
  expect_both_hmetis_parsers_throw("1000000000 4\n1 2\n");
  // Same with edge weights (fmt 1) so the weighted sizing path is covered.
  expect_both_hmetis_parsers_throw("1000000000 4 1\n5 1 2\n");
}

TEST(LargeIds, HmetisPinValuesBeyondRangeAreTyped) {
  expect_both_hmetis_parsers_throw("1 4\n1 2147483647\n");  // pin >> n
  expect_both_hmetis_parsers_throw("1 2\n1 99999999999999999999\n");
  expect_both_hmetis_parsers_throw("1 2 10\n1 2\n1\n99999999999999999999\n");
}

TEST(LargeIds, ModerateLargeInstanceRoundTripsIdentically) {
  // Positive control at a size that is big for ids but small for memory:
  // three million vertices, one edge touching the extremes.
  const std::string text = "1 3000000\n1 3000000\n";
  std::istringstream in(text);
  const Hypergraph oracle = read_hmetis(in);
  const Hypergraph fast = read_hmetis(std::string_view(text));
  ASSERT_EQ(oracle.num_vertices(), 3000000U);
  ASSERT_EQ(fast.num_vertices(), 3000000U);
  ASSERT_EQ(fast.num_edges(), 1U);
  EXPECT_EQ(fast.pins(0)[0], oracle.pins(0)[0]);
  EXPECT_EQ(fast.pins(0)[1], oracle.pins(0)[1]);
  EXPECT_EQ(fast.pins(0)[1], 2999999U);
}

constexpr const char* kSmallNodes =
    "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n  a 1 1\n";
constexpr const char* kSmallNets =
    "UCLA nets 1.0\nNumNets : 1\nNumPins : 1\nNetDegree : 1\n  a B\n";

TEST(LargeIds, BookshelfCountsBeyondInt32AreRejectedOn32BitBuilds) {
  if constexpr (sizeof(VertexId) == 4) {
    expect_both_bookshelf_parsers_throw(
        "UCLA nodes 1.0\nNumNodes : 2147483648\nNumTerminals : 0\n  a 1 1\n",
        kSmallNets);
    expect_both_bookshelf_parsers_throw(
        kSmallNodes,
        "UCLA nets 1.0\nNumNets : 2147483648\nNumPins : 1\n"
        "NetDegree : 1\n  a B\n");
  }
}

TEST(LargeIds, BookshelfCountsBeyondInt64AreRejectedOnEveryBuild) {
  expect_both_bookshelf_parsers_throw(
      "UCLA nodes 1.0\nNumNodes : 9999999999999999999\nNumTerminals : 0\n"
      "  a 1 1\n",
      kSmallNets);
  expect_both_bookshelf_parsers_throw(
      kSmallNodes,
      "UCLA nets 1.0\nNumNets : 9999999999999999999\nNumPins : 1\n"
      "NetDegree : 1\n  a B\n");
}

TEST(LargeIds, FlowNetworkNodeCountBeyondIndexRangeIsRejected) {
  // The Lawler gadget sizes a FlowNetwork at 2·|corridor| + 2·nets + 2
  // nodes; on 32-bit-index builds a corridor past 2^31 nodes must fail
  // typed in the constructor *before* any per-node allocation. (On idx64
  // builds the same count is admissible — and a multi-GiB adjacency — so
  // the hostile probe only runs where rejection is the contract.)
  if constexpr (sizeof(VertexId) == 4) {
    EXPECT_THROW(FlowNetwork net(static_cast<Count>(2147483648ULL)),
                 PreconditionError);
  }
  static_assert(FlowNetwork::kInfiniteCapacity <
                std::numeric_limits<FlowNetwork::Capacity>::max() / 2);
}

TEST(LargeIds, HostileBookshelfCountsFailBeforeAllocation) {
  // A billion declared nodes / pins backed by a couple of lines: the line
  // census rejects before any count-proportional reservation.
  expect_both_bookshelf_parsers_throw(
      "UCLA nodes 1.0\nNumNodes : 1000000000\nNumTerminals : 0\n  a 1 1\n",
      kSmallNets);
  expect_both_bookshelf_parsers_throw(
      kSmallNodes,
      "UCLA nets 1.0\nNumNets : 2\nNumPins : 1000000000\n"
      "NetDegree : 1\n  a B\n");
}

}  // namespace
}  // namespace fhp
