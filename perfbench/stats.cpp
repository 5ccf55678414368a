/// \file stats.cpp
/// The benchmark's own statistics and open-loop scheduling, plus the
/// self-test that checks them before every run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "gen/circuit.hpp"
#include "perfbench.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {
/// Nearest rank: index of the smallest sample with at least q of the mass
/// at or below it; every later sample is "beyond" it.
std::size_t rank_index(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}
}  // namespace

std::optional<double> percentile(std::vector<double> xs, double q) {
  if (xs.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  const std::size_t index = rank_index(xs.size(), q);
  if (xs.size() - 1 - index < kMinBeyond) return std::nullopt;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(index),
                   xs.end());
  return xs[index];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

const char* class_name(RequestClass c) {
  switch (c) {
    case RequestClass::kHot:
      return "hot";
    case RequestClass::kSmall:
      return "small";
    case RequestClass::kLarge:
      return "large";
  }
  return "?";
}

std::vector<Arrival> make_schedule(std::uint64_t seed, std::size_t count,
                                   double seconds, const ServeSpec& spec) {
  fhp::Rng rng(derive_seed(seed, 0x5c4ed, 0));
  const auto hot = static_cast<std::size_t>(
      std::llround(spec.hot_share * static_cast<double>(count)));
  const auto small = static_cast<std::size_t>(
      std::llround(spec.small_share * static_cast<double>(count)));
  // Hot and small requests are shuffled; the few large ones sit at evenly
  // spaced positions among the arrivals, so two whole-pool jobs rarely
  // collide and p99 (about the median large request) measures service,
  // not the luck of Poisson bunching among ~20 events.
  std::vector<RequestClass> mixed(hot + small, RequestClass::kSmall);
  std::fill_n(mixed.begin(), hot, RequestClass::kHot);
  rng.shuffle(mixed);
  const std::size_t large = count - mixed.size();
  std::vector<RequestClass> classes(count, RequestClass::kHot);
  for (std::size_t k = 0; k < large; ++k) {
    classes[(2 * k + 1) * count / (2 * large)] = RequestClass::kLarge;
  }
  for (std::size_t i = 0, next = 0; i < count; ++i) {
    if (classes[i] != RequestClass::kLarge) classes[i] = mixed[next++];
  }

  // Exponential gaps, scaled so the last arrival lands at `seconds`: the
  // offered rate is fixed, the spacing is Poisson-like.
  std::vector<double> gaps(count);
  double total = 0;
  for (double& gap : gaps) {
    gap = -std::log(1.0 - rng.next_double());
    total += gap;
  }
  std::vector<Arrival> schedule(count);
  double t = 0;
  int next_small = 0;
  int next_large = static_cast<int>(small);
  for (std::size_t i = 0; i < count; ++i) {
    t += gaps[i] * seconds / total;
    Arrival& a = schedule[i];
    a.due_s = t;
    a.cls = classes[i];
    switch (a.cls) {
      case RequestClass::kHot:
        a.payload = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(spec.hot_count)));
        break;
      case RequestClass::kSmall:
        a.payload = next_small++;
        break;
      case RequestClass::kLarge:
        a.payload = next_large++;
        break;
    }
  }
  return schedule;
}

std::size_t goodput_count(const std::vector<Outcome>& outcomes,
                          double limit_s) {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(), [&](const Outcome& o) {
        return o.transport_ok && o.status == "ok" && o.latency_s() <= limit_s;
      }));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void run_sender(const NextFn& next, const std::vector<Arrival>& schedule,
                double t0_s, const SendFn& send, std::vector<Outcome>& outcomes) {
  for (std::size_t i = 0; next(i);) {
    const double due = t0_s + schedule[i].due_s;
    const double wait = due - now_s();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    Outcome& out = outcomes[i];
    out.due_s = due;
    out.send_s = now_s();
    send(i, out);
    out.done_s = now_s();
  }
}

std::vector<std::string> self_test() {
  std::vector<std::string> failures;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) failures.emplace_back(what);
  };

  // Percentiles with fewer than ten samples beyond them are refused.
  std::vector<double> xs(999);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  expect(!percentile(xs, 0.99).has_value(), "p99 of 999 samples not refused");
  xs.push_back(999.0);
  const std::optional<double> p99 = percentile(xs, 0.99);
  expect(p99.has_value() && *p99 == 989.0, "p99 of 1000 samples wrong");
  expect(percentile(xs, 0.5) == 499.0, "p50 of 1000 samples wrong");
  expect(!percentile(std::vector<double>(105, 1.0), 0.95).has_value(),
         "p95 of 105 samples not refused");

  // Latency counts from the due time: one stalled request delays the ones
  // queued behind it on the same sender, and they show it.
  {
    std::vector<Arrival> schedule(6);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      schedule[i].due_s = 0.005 * static_cast<double>(i);
    }
    std::vector<Outcome> outcomes(schedule.size());
    std::size_t pos = 0;
    run_sender([&](std::size_t& item) {
                 item = pos++;
                 return item < schedule.size();
               },
               schedule, now_s(),
               [](std::size_t i, Outcome& out) {
                 if (i == 1) std::this_thread::sleep_for(std::chrono::milliseconds(60));
                 out.transport_ok = true;
                 out.status = "ok";
               },
               outcomes);
    expect(outcomes[1].latency_s() >= 0.055, "stalled request latency lost");
    expect(outcomes[2].latency_s() >= 0.045 && outcomes[2].late_s() >= 0.045,
           "stall not counted against the next request");
    expect(outcomes[5].latency_s() >= 0.030, "stall not counted downstream");
    expect(outcomes[0].latency_s() < 0.03, "unstalled request charged");
  }

  // Refused or failed requests are goodput misses.
  {
    std::vector<Outcome> outcomes(4);
    for (Outcome& o : outcomes) {
      o.transport_ok = true;
      o.status = "ok";
      o.done_s = 0.01;
    }
    outcomes[1].status = "rejected";
    outcomes[2].status = "error";
    outcomes[3].transport_ok = false;
    expect(goodput_count(outcomes, 1.0) == 1, "refusals counted as goodput");
    outcomes[0].done_s = 2.0;
    expect(goodput_count(outcomes, 1.0) == 0, "late response counted");
  }

  // Equal seeds give identical schedules and inputs; other seeds do not.
  {
    const ServeSpec& spec = serve_spec();
    const auto a = make_schedule(7, 1000, 20.0, spec);
    const auto b = make_schedule(7, 1000, 20.0, spec);
    const auto c = make_schedule(8, 1000, 20.0, spec);
    const auto same = [](const std::vector<Arrival>& x,
                         const std::vector<Arrival>& y) {
      return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                        [](const Arrival& p, const Arrival& q) {
                          return p.due_s == q.due_s && p.cls == q.cls &&
                                 p.payload == q.payload;
                        });
    };
    expect(same(a, b), "equal seeds gave different schedules");
    expect(!same(a, c), "different seeds gave the same schedule");
    std::size_t hot = 0;
    for (const Arrival& x : a) hot += x.cls == RequestClass::kHot;
    expect(hot == static_cast<std::size_t>(std::llround(spec.hot_share * 1000)),
           "schedule class counts wrong");
    expect(std::abs(a.back().due_s - 20.0) < 1e-9, "schedule span wrong");

    const auto fingerprint = [](std::uint64_t seed) {
      return make_netlist(600, derive_seed(seed, 1, 0)).fingerprint();
    };
    expect(fingerprint(7) == fingerprint(7), "equal seeds gave other inputs");
    expect(!(fingerprint(7) == fingerprint(8)),
           "different seeds gave equal inputs");
    expect(stratified_sizes(5, 100, 200, 3) == stratified_sizes(5, 100, 200, 3),
           "size mix not reproducible");
  }
  return failures;
}

}  // namespace perfbench
