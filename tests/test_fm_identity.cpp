/// \file test_fm_identity.cpp
/// FmCore against the rebuild-per-pass reference (validate/reference.hpp).
///
/// The core keeps its pin counts across passes, changes gains by deltas and
/// skips sides with no legal move; none of that may change a single move.
/// Each case runs both on one seeded random instance and compares the
/// sides, the pass count or cut delta, and the fm/* counter deltas (zero on
/// both sides in a tracing-OFF build) — through fiduccia_mattheyses(),
/// through a fixed-mask FmCore::run(), and through ml::FmRefiner in its
/// whole-instance and boundary modes.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/fm.hpp"
#include "multilevel/refine.hpp"
#include "obs/counters.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"
#include "validate/reference.hpp"

namespace fhp {
namespace {

struct FmCounts {
  long long runs = 0;
  long long passes = 0;
  long long moves = 0;
  long long rolled_back = 0;

  bool operator==(const FmCounts&) const = default;
};

FmCounts read_fm_counts() {
  const obs::Counters& c = obs::Counters::instance();
  return {c.value("fm/runs"), c.value("fm/passes"), c.value("fm/moves"),
          c.value("fm/moves_rolled_back")};
}

/// fm/* counter deltas of one call.
template <typename Fn>
FmCounts fm_counts_of(Fn&& fn) {
  const FmCounts before = read_fm_counts();
  fn();
  const FmCounts after = read_fm_counts();
  return {after.runs - before.runs, after.passes - before.passes,
          after.moves - before.moves, after.rolled_back - before.rolled_back};
}

std::string to_string(const FmCounts& c) {
  std::ostringstream os;
  os << "runs " << c.runs << ", passes " << c.passes << ", moves " << c.moves
     << ", rolled back " << c.rolled_back;
  return os.str();
}

/// One random instance: \p n modules whose weights follow one of four
/// regimes (all 1, 1-3, 1-20, 1-1000), some instances with zero-weight
/// modules mixed in, and \p m nets of 1 to \p max_pins pins (1-30 across
/// the cases) weighted 1-9. With \p planted, 95% of the nets stay inside
/// one half of the modules, so a start near the halves has a small cut
/// frontier.
Hypergraph random_instance(Rng& rng, VertexId n, EdgeId m, VertexId max_pins,
                           bool planted) {
  static constexpr Weight kMaxModuleWeight[] = {1, 3, 20, 1000};
  const Weight max_w = kMaxModuleWeight[rng.next_below(4)];
  const double zero_share = rng.next_bool(0.25) ? 0.1 : 0.0;
  HypergraphBuilder b;
  for (VertexId v = 0; v < n; ++v) {
    b.add_vertex(rng.next_bool(zero_share) ? 0 : rng.next_in(1, max_w));
  }
  const VertexId half = n / 2;
  std::vector<VertexId> pins;
  for (EdgeId e = 0; e < m; ++e) {
    VertexId lo = 0;
    VertexId hi = n;
    if (planted && !rng.next_bool(0.05)) {
      const bool upper = rng.next_bool(0.5);
      lo = upper ? half : 0;
      hi = upper ? n : half;
    }
    const auto size = static_cast<VertexId>(
        rng.next_in(1, std::min<VertexId>(max_pins, hi - lo)));
    pins.clear();
    for (VertexId i = 0; i < size; ++i) {
      pins.push_back(lo + static_cast<VertexId>(rng.next_below(hi - lo)));
    }
    b.add_edge(pins, rng.next_in(1, 9));
  }
  return std::move(b).build();
}

/// A random, a planted-halves-with-noise, or a skewed (mostly side 0)
/// start.
std::vector<std::uint8_t> random_start(Rng& rng, VertexId n) {
  std::vector<std::uint8_t> sides(n);
  switch (rng.next_below(3)) {
    case 0:
      for (auto& s : sides) s = rng.next_bool(0.5) ? 1 : 0;
      break;
    case 1:
      for (VertexId v = 0; v < n; ++v) {
        sides[v] = (v >= n / 2) != rng.next_bool(0.03) ? 1 : 0;
      }
      break;
    default: {
      const double ones = 0.15 * rng.next_double();
      for (auto& s : sides) s = rng.next_bool(ones) ? 1 : 0;
    }
  }
  return sides;
}

/// Auto (0), small (below twice the largest module weight) or large.
Weight random_tolerance(Rng& rng, const Hypergraph& h) {
  Weight max_w = 1;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    max_w = std::max(max_w, h.vertex_weight(v));
  }
  switch (rng.next_below(3)) {
    case 0:
      return 0;
    case 1:
      return rng.next_in(1, 2 * max_w - 1);
    default:
      return rng.next_in(2 * max_w, 2 * max_w + h.total_vertex_weight());
  }
}

TEST(FmIdentity, BaselineMatchesReference) {
  const Rng master(0xF1D0);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    Rng rng = master.fork(i);
    const auto n = static_cast<VertexId>(rng.next_in(2, 80));
    const auto m = static_cast<EdgeId>(rng.next_in(1, 2 * n));
    const Hypergraph h = random_instance(
        rng, n, m, static_cast<VertexId>(rng.next_in(1, 30)),
        rng.next_bool(0.5));
    FmOptions options;
    options.seed = rng();
    options.max_passes = static_cast<int>(rng.next_in(1, 32));
    options.max_weight_imbalance = random_tolerance(rng, h);
    if (rng.next_bool(2.0 / 3.0)) options.initial = random_start(rng, n);

    BaselineResult got;
    BaselineResult want;
    const FmCounts got_counts =
        fm_counts_of([&] { got = fiduccia_mattheyses(h, options); });
    const FmCounts want_counts =
        fm_counts_of([&] { want = validate::fm_reference(h, options); });
    ASSERT_EQ(got.sides, want.sides) << "case " << i;
    ASSERT_EQ(got.iterations, want.iterations) << "case " << i;
    ASSERT_EQ(got.metrics.cut_weight, want.metrics.cut_weight) << "case " << i;
    ASSERT_EQ(got_counts, want_counts)
        << "case " << i << ": " << to_string(got_counts) << " vs "
        << to_string(want_counts);
  }
}

TEST(FmIdentity, FixedMaskRunMatchesReference) {
  const Rng master(0xF1D1);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    Rng rng = master.fork(i);
    const auto n = static_cast<VertexId>(rng.next_in(2, 80));
    const auto m = static_cast<EdgeId>(rng.next_in(1, 2 * n));
    const Hypergraph h = random_instance(
        rng, n, m, static_cast<VertexId>(rng.next_in(1, 30)),
        rng.next_bool(0.5));
    const std::vector<std::uint8_t> start = random_start(rng, n);
    const double fixed_share = rng.next_double();
    std::vector<std::uint8_t> fixed(n);
    for (auto& f : fixed) f = rng.next_bool(fixed_share) ? 1 : 0;
    FmOptions options;
    options.initial = start;
    options.max_passes = static_cast<int>(rng.next_in(1, 32));
    options.max_weight_imbalance = random_tolerance(rng, h);

    FmCore fm(h, start);
    int passes = 0;
    BaselineResult want;
    const FmCounts got_counts = fm_counts_of([&] {
      passes = fm.run(options.max_weight_imbalance, options.max_passes, fixed);
    });
    const FmCounts want_counts = fm_counts_of(
        [&] { want = validate::fm_reference(h, options, fixed); });
    ASSERT_EQ(fm.partition().sides(), want.sides) << "case " << i;
    ASSERT_EQ(passes, want.iterations) << "case " << i;
    ASSERT_EQ(fm.partition().cut_weight(), want.metrics.cut_weight)
        << "case " << i;
    ASSERT_EQ(got_counts, want_counts)
        << "case " << i << ": " << to_string(got_counts) << " vs "
        << to_string(want_counts);
    for (VertexId v = 0; v < n; ++v) {
      if (fixed[v]) {
        ASSERT_EQ(fm.partition().side(v), start[v]) << "case " << i;
      }
    }
  }
}

/// Refines one random start with ml::FmRefiner and with the reference
/// composition; both must agree on sides, gain and fm/* counter deltas.
void expect_refiner_matches(const Hypergraph& h, Rng& rng, std::uint64_t i) {
  const std::vector<std::uint8_t> start = random_start(rng, h.num_vertices());
  ml::FmRefinerOptions options;
  options.max_passes = static_cast<int>(rng.next_in(1, 8));
  std::vector<std::uint8_t> got = start;
  std::vector<std::uint8_t> want = start;
  Weight got_gain = 0;
  Weight want_gain = 0;
  const FmCounts got_counts = fm_counts_of(
      [&] { got_gain = ml::FmRefiner(options).refine(h, got, rng()); });
  const FmCounts want_counts = fm_counts_of([&] {
    want_gain = validate::fm_refine_reference(h, want, options.max_passes);
  });
  ASSERT_EQ(got, want) << "case " << i;
  ASSERT_EQ(got_gain, want_gain) << "case " << i;
  ASSERT_EQ(cut_weight_of(h, start) - cut_weight_of(h, got), got_gain)
      << "case " << i;
  ASSERT_EQ(got_counts, want_counts)
      << "case " << i << ": " << to_string(got_counts) << " vs "
      << to_string(want_counts);
}

TEST(FmIdentity, WholeInstanceRefinerMatchesReference) {
  const Rng master(0xF1D2);
  for (std::uint64_t i = 0; i < 900; ++i) {
    Rng rng = master.fork(i);
    const auto n = static_cast<VertexId>(rng.next_in(2, 200));
    const auto m = static_cast<EdgeId>(rng.next_in(1, 2 * n));
    const Hypergraph h = random_instance(
        rng, n, m, static_cast<VertexId>(rng.next_in(1, 30)),
        rng.next_bool(0.5));
    ASSERT_NO_FATAL_FAILURE(expect_refiner_matches(h, rng, i));
  }
}

TEST(FmIdentity, BoundaryRefinerMatchesReference) {
  const Rng master(0xF1D3);
  for (std::uint64_t i = 0; i < 100; ++i) {
    Rng rng = master.fork(i);
    const auto n = static_cast<VertexId>(
        rng.next_in(ml::kFullFmThreshold + 1, ml::kFullFmThreshold + 128));
    const auto m = static_cast<EdgeId>(rng.next_in(n / 2, n));
    const Hypergraph h = random_instance(
        rng, n, m, static_cast<VertexId>(rng.next_in(2, 30)),
        rng.next_bool(0.75));
    ASSERT_NO_FATAL_FAILURE(expect_refiner_matches(h, rng, i));
  }
}

}  // namespace
}  // namespace fhp
