/// \file serve_mix.cpp
/// serve-mix: the shipped fhp_serve daemon in its own process, driven
/// open-loop on a seeded Poisson schedule by this generator process.
///
/// Threads: two senders own one persistent connection each and carry the
/// hot repeats; two senders carry cold requests, each on a fresh
/// connection (the way fhp_client connects), so at most two cold
/// requests are in flight. The generator runs no other threads meanwhile.
/// Hot and cold traffic never share a connection, which keeps a slow cold
/// answer from blocking hot ones behind it.
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "hypergraph/io.hpp"
#include "perfbench.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "validate/audit.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace serve = fhp::serve;

constexpr int kAuditThreads = 4;
/// Lead time between the senders being ready and the first due time.
constexpr double kLeadS = 0.1;

/// The daemon process. The destructor stops and reaps it on every path.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& socket, int threads)
      : socket_(socket) {
    ::unlink(socket.c_str());
    const std::string threads_arg = std::to_string(threads);
    std::vector<std::string> args = {bin, "--socket", socket, "--threads",
                                     threads_arg};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    start_s_ = now_s();
    if (posix_spawn(&pid_, bin.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
      pid_ = -1;
      throw fhp::IoError("cannot start " + bin);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      rusage ru{};
      int status = 0;
      ::wait4(pid_, &status, 0, &ru);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits until the daemon answers a ping.
  void wait_ready() {
    const double deadline = now_s() + 30.0;
    while (true) {
      try {
        serve::Client c;
        c.connect(socket_);
        if (c.ping().ok()) return;
      } catch (const std::exception&) {
        if (now_s() > deadline) throw;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw fhp::IoError("fhp_serve exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Sends the shutdown op and reaps the process; returns its usage.
  rusage stop(double& lifetime_s) {
    {
      serve::Client c;
      c.connect(socket_);
      static_cast<void>(c.shutdown_server());
    }
    rusage ru{};
    int status = 0;
    ::wait4(pid_, &status, 0, &ru);
    lifetime_s = now_s() - start_s_;
    pid_ = -1;
    return ru;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double start_s_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  FHP_REQUIRE(in.good() || in.eof(), "cannot read " + path);
  return std::move(buffer).str();
}

/// The plan the daemon runs for a non-deadline request (its
/// Scheduler::partition path), with the thread count it dispatches with.
ml::PartitionPlan daemon_plan(const serve::RequestOptions& options,
                              int threads) {
  ml::PartitionPlan plan =
      serve::make_plan(options, serve::BudgetDecision{options.starts, false});
  plan.algorithm1.threads = threads;
  return plan;
}

double ms(double s) { return s * 1e3; }

/// Runs the jobs concurrently, the first on the calling thread, and joins
/// every thread before returning (or rethrowing the first job's error).
void run_concurrently(const std::vector<std::function<void()>>& jobs) {
  std::vector<std::thread> threads;
  for (std::size_t k = 1; k < jobs.size(); ++k) threads.emplace_back(jobs[k]);
  std::exception_ptr error;
  try {
    jobs.front()();
  } catch (...) {
    error = std::current_exception();
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace

RunResult run_serve_mix(const RunOptions& options) {
  RunResult out;
  const ServeSpec& spec = serve_spec();
  const std::vector<Arrival> schedule =
      make_schedule(options.seed, serve_request_count(options.seconds),
                    serve_window_s(options.seconds), spec);
  const std::size_t n = schedule.size();
  std::vector<std::string> hot_text;
  for (int i = 0; i < spec.hot_count; ++i) {
    hot_text.push_back(slurp(options.dir + "/hot" + std::to_string(i) + ".hgr"));
  }
  std::vector<std::string> cold_text;
  for (const Arrival& a : schedule) {
    if (a.cls != RequestClass::kHot) cold_text.emplace_back();
  }
  for (std::size_t i = 0; i < cold_text.size(); ++i) {
    cold_text[i] = slurp(options.dir + "/cold" + std::to_string(i) + ".hgr");
  }
  const auto text_of = [&](const Arrival& a) -> const std::string& {
    return a.cls == RequestClass::kHot
               ? hot_text[static_cast<std::size_t>(a.payload)]
               : cold_text[static_cast<std::size_t>(a.payload)];
  };
  std::vector<std::size_t> hot_pins;
  for (const std::string& text : hot_text) {
    hot_pins.push_back(fhp::read_hmetis(text).num_pins());
  }
  std::size_t offered_pins = 0;
  for (const Arrival& a : schedule) {
    offered_pins += a.cls == RequestClass::kHot
                        ? hot_pins[static_cast<std::size_t>(a.payload)]
                        : fhp::read_hmetis(text_of(a)).num_pins();
  }
  const serve::RequestOptions request_options;  // defaults: seed 1, 50 starts
  // A unix socket path must fit in 108 bytes, and a checkout path may not:
  // bind relative to the work directory, which the daemon inherits.
  std::filesystem::current_path(options.dir);
  const std::string socket = "fhp.sock";
  out.provenance["daemon_flags"] =
      "\"--socket " + socket + " --threads " +
      std::to_string(spec.daemon_threads) +
      " (queue, cache and batch at their defaults)\"";

  // ---- Set-up: daemon start until it answers, plus priming the hot set
  // into its result cache. Repeated; the last daemon serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::vector<Answer> primed(hot_text.size());
  for (int rep = 0; rep < spec.setup_repeats; ++rep) {
    if (daemon) {
      double unused = 0;
      static_cast<void>(daemon->stop(unused));
      daemon.reset();
    }
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(options.serve_bin, socket,
                                      spec.daemon_threads);
    daemon->wait_ready();
    serve::Client c;
    c.connect(socket);
    for (std::size_t i = 0; i < hot_text.size(); ++i) {
      const serve::Response r = c.partition(hot_text[i], request_options);
      if (!r.ok()) {
        out.fail("priming failed: " + r.error, false);
        return out;
      }
      if (rep > 0 &&
          (r.sides != primed[i].sides || r.cut_weight != primed[i].cut)) {
        out.fail("primed answer of hot key " + std::to_string(i) +
                     " changed between set-ups",
                 false);
      }
      primed[i] = Answer{r.sides, r.cut_weight};
    }
    setup_s.push_back(now_s() - t0);
  }

  // ---- The open-loop schedule.
  std::vector<Outcome> outcomes(n);
  std::vector<serve::Response> responses(n);
  std::vector<std::vector<std::size_t>> hot_items(
      static_cast<std::size_t>(spec.hot_connections));
  std::vector<std::size_t> cold_items;
  for (std::size_t i = 0, h = 0; i < n; ++i) {
    if (schedule[i].cls == RequestClass::kHot) {
      hot_items[h++ % hot_items.size()].push_back(i);
    } else {
      cold_items.push_back(i);
    }
  }
  std::vector<serve::Client> hot_clients(hot_items.size());
  for (serve::Client& c : hot_clients) c.connect(socket);
  const auto transport = [&](std::size_t i, Outcome& o,
                             const std::function<serve::Response()>& call) {
    try {
      responses[i] = call();
      o.transport_ok = true;
      o.status = responses[i].status;
    } catch (const std::exception& e) {
      o.status = std::string("transport: ") + e.what();
    }
  };
  std::atomic<std::size_t> next_cold{0};
  const double t0 = now_s() + kLeadS;
  {
    // Four senders in all, the first on this thread.
    std::vector<std::function<void()>> senders;
    for (std::size_t k = 0; k < hot_items.size(); ++k) {
      senders.emplace_back([&, k] {
        std::size_t pos = 0;
        run_sender(
            [&](std::size_t& item) {
              if (pos == hot_items[k].size()) return false;
              item = hot_items[k][pos++];
              return true;
            },
            schedule, t0,
            [&](std::size_t i, Outcome& o) {
              transport(i, o, [&] {
                return hot_clients[k].partition(text_of(schedule[i]),
                                                request_options);
              });
            },
            outcomes);
      });
    }
    for (int k = 0; k < spec.cold_in_flight; ++k) {
      senders.emplace_back([&] {
        run_sender(
            [&](std::size_t& item) {
              const std::size_t pos = next_cold.fetch_add(1);
              if (pos >= cold_items.size()) return false;
              item = cold_items[pos];
              return true;
            },
            schedule, t0,
            [&](std::size_t i, Outcome& o) {
              transport(i, o, [&] {
                serve::Client c;
                const double c0 = now_s();
                c.connect(socket);
                o.connect_s = now_s() - c0;
                return c.partition(text_of(schedule[i]), request_options);
              });
            },
            outcomes);
      });
    }
    run_concurrently(senders);
  }
  for (serve::Client& c : hot_clients) c.close();
  double t_end = t0;
  for (const Outcome& o : outcomes) t_end = std::max(t_end, o.done_s);

  // ---- Daemon-side counters, then stop it and take its usage.
  fhp::json::Value stats;
  {
    serve::Client c;
    c.connect(socket);
    stats = fhp::json::parse(c.stats().stats_json);
  }
  double lifetime_s = 0;
  const rusage daemon_usage = daemon->stop(lifetime_s);
  daemon.reset();
  const auto stat = [&](std::string_view a, std::string_view b) {
    const fhp::json::Value* v = stats.find_path({a, b});
    return v != nullptr && v->is_number() ? v->as_number() : -1.0;
  };

  // ---- Correctness. Hot answers equal their primed answers; every unique
  // key is replayed below. Single-flight makes the cache counts exact. The
  // priming requests of the serving daemon count as operations: a primed
  // answer that fails its audit is a failed one.
  out.attempted = static_cast<long long>(n + primed.size());
  std::size_t hot_ok = 0;
  std::vector<std::size_t> cold_ok;
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = outcomes[i];
    const serve::Response& r = responses[i];
    if (!o.transport_ok || !r.ok()) {
      out.fail("request " + std::to_string(i) + " failed: " + o.status + " " +
               r.error);
      continue;
    }
    if (schedule[i].cls == RequestClass::kHot) {
      const Answer& want = primed[static_cast<std::size_t>(schedule[i].payload)];
      if (r.sides != want.sides || r.cut_weight != want.cut || !r.cached) {
        out.fail("hot answer differs from its primed answer");
      } else {
        ++hot_ok;
      }
    } else {
      cold_ok.push_back(i);
    }
  }
  const double unique_keys = static_cast<double>(hot_text.size() + cold_ok.size());
  if (stat("cache", "hits") != static_cast<double>(hot_ok) ||
      stat("cache", "misses") != unique_keys) {
    out.fail("cache hits/misses " + std::to_string(stat("cache", "hits")) +
                 "/" + std::to_string(stat("cache", "misses")) +
                 " differ from the schedule's repeats/unique keys",
             false);
  }

  // Direct replays of every unique key: the answer must equal a direct
  // partition_auto on the plan the daemon runs, bit for bit, and pass an
  // independent re-scoring. A hot key's answer is its primed answer, a
  // cold key's the response to its one request.
  const auto replay_plan = [&](RequestClass cls) {
    return daemon_plan(request_options,
                       cls == RequestClass::kLarge ? spec.daemon_threads : 1);
  };
  const auto answer_of = [&](std::size_t i) {
    return schedule[i].cls == RequestClass::kHot
               ? primed[static_cast<std::size_t>(schedule[i].payload)]
               : Answer{responses[i].sides, responses[i].cut_weight};
  };
  std::mutex fail_mutex;
  const auto audit_direct = [&](const std::string& text, const Answer& want,
                                RequestClass cls, const std::string& what,
                                double* seconds) {
    bool same = false;
    try {
      const Hypergraph h = fhp::read_hmetis(text);
      const double c0 = now_s();
      const ml::EngineResult direct = ml::partition_auto(h, replay_plan(cls));
      if (seconds != nullptr) *seconds = now_s() - c0;
      same = direct.sides == want.sides &&
             direct.metrics.cut_weight == want.cut &&
             fhp::validate::audit_metrics(h, want.sides, direct.metrics).ok();
    } catch (const std::exception&) {
      same = false;
    }
    if (!same) {
      const std::lock_guard<std::mutex> lock(fail_mutex);
      out.fail(what + " differs from a direct partition_auto");
    }
  };
  const auto audit_hot_key = [&](std::size_t k) {
    audit_direct(hot_text[k], primed[k], RequestClass::kHot,
                 "primed answer of hot key " + std::to_string(k), nullptr);
  };
  if (!options.trace) {
    // The hot keys first (the largest inputs), spread over a few threads;
    // in the traced run the replay below does this instead.
    const std::size_t keys = primed.size() + cold_ok.size();
    std::atomic<std::size_t> next{0};
    const std::function<void()> auditor = [&] {
      for (std::size_t j; (j = next.fetch_add(1)) < keys;) {
        if (j < primed.size()) {
          audit_hot_key(j);
          continue;
        }
        const std::size_t i = cold_ok[j - primed.size()];
        audit_direct(text_of(schedule[i]), answer_of(i), schedule[i].cls,
                     "cold answer " + std::to_string(i), nullptr);
      }
    };
    run_concurrently(
        std::vector<std::function<void()>>(kAuditThreads, auditor));
  }

  // ---- Latency metrics, from each request's due time.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  for (std::size_t i = 0; i < n; ++i) {
    late_ms.push_back(ms(outcomes[i].late_s()));
    if (outcomes[i].transport_ok && responses[i].ok()) {
      latency_ms.push_back(ms(outcomes[i].latency_s()));
    }
  }
  const std::optional<double> late_p99 = percentile(late_ms, 0.99);
  out.provenance["generator_late_ms"] =
      "{\"p50\":" + std::to_string(median(late_ms)) + ",\"p99\":" +
      std::to_string(late_p99.value_or(-1)) + ",\"max\":" +
      std::to_string(*std::max_element(late_ms.begin(), late_ms.end())) + "}";
  Weight cut_total = 0;
  for (const Answer& a : primed) cut_total += a.cut;
  for (const std::size_t i : cold_ok) cut_total += responses[i].cut_weight;

  if (!options.trace) {
    for (const auto& [name, q] : {std::pair{"latency_p50_ms", 0.50},
                                  std::pair{"latency_p90_ms", 0.90},
                                  std::pair{"latency_p99_ms", 0.99}}) {
      const std::optional<double> p = percentile(latency_ms, q);
      if (!p) {
        out.fail(std::string(name) + " refused: fewer than ten samples beyond",
                 false);
        continue;
      }
      out.set(name, *p, "ms", latency_ms.size());
    }
    const double schedule_s = t_end - t0;
    // Below saturation an open loop's throughput is its offered load; it
    // drops only when the daemon falls behind the schedule.
    out.set("throughput_pins_per_s", static_cast<double>(offered_pins) / schedule_s,
            "pins/s", n);
    out.set("goodput_rps",
            static_cast<double>(goodput_count(outcomes, spec.latency_limit_s)) /
                schedule_s,
            "1/s", n);
    out.set("cut_total", static_cast<double>(cut_total), "weight",
            static_cast<std::size_t>(unique_keys));
    out.set_setup(setup_s);
    out.set("peak_rss_mb", static_cast<double>(daemon_usage.ru_maxrss) / 1024.0,
            "MB");
    return out;
  }

  // ---- Traced run: the live schedule as spans, then a replay of each
  // request's client- and daemon-side layer calls.
  SpanLog log;
  const auto to_ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = outcomes[i];
    const std::int32_t root =
        log.add("request", to_ns(o.due_s), to_ns(o.done_s), -1,
                static_cast<std::int64_t>(i));
    if (schedule[i].cls != RequestClass::kHot) {
      log.add("serve.connect", to_ns(o.send_s), to_ns(o.send_s + o.connect_s),
              root, static_cast<std::int64_t>(i));
    }
    log.add("serve.round_trip", to_ns(o.send_s + o.connect_s), to_ns(o.done_s),
            root, static_cast<std::int64_t>(i));
  }
  const std::size_t replay_begin = log.size();

  struct Layers {
    double parse_ms = 0, fingerprint_ms = 0, request_codec_ms = 0,
           response_codec_ms = 0, compute_ms = 0;
  };
  std::vector<Layers> layers(n);
  const auto timed = [&](const char* name, std::size_t i, const auto& fn) {
    const std::size_t id = log.size();
    {
      ScopedSpan span(log, name, static_cast<std::int64_t>(i));
      fn();
    }
    const SpanLog::Span& s = log.spans()[id];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  };
  LayerCounters counters;
  double direct_s = 0, mirror_s = 0, levels = 0, coarsest = 0,
         initial_cut = 0, final_cut = 0;
  int multilevel_runs = 0;
  std::vector<bool> computed(hot_text.size(), false);
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = schedule[i];
    if (!outcomes[i].transport_ok || !responses[i].ok()) continue;
    Layers& l = layers[i];
    std::optional<Hypergraph> h;
    l.parse_ms = timed("hypergraph.parse_text", i,
                       [&] { h.emplace(fhp::read_hmetis(text_of(a))); });
    l.fingerprint_ms = timed("hypergraph.fingerprint", i,
                             [&] { static_cast<void>(h->fingerprint()); });
    serve::Request request;
    request.op = serve::Request::Op::kPartition;
    request.hypergraph = text_of(a);
    request.options = request_options;
    l.request_codec_ms = timed("serve.request_codec", i, [&] {
      static_cast<void>(serve::parse_request(serve::to_json(request)));
    });
    l.response_codec_ms = timed("serve.response_codec", i, [&] {
      static_cast<void>(serve::parse_response(serve::to_json(responses[i])));
    });
    // Compute: every unique key once (each hot key, every cold request),
    // direct and mirrored back to back; the mirror's answer must equal the
    // daemon's bit for bit.
    if (a.cls == RequestClass::kHot) {
      if (computed[static_cast<std::size_t>(a.payload)]) continue;
      computed[static_cast<std::size_t>(a.payload)] = true;
    }
    double direct_one = 0;
    audit_direct(
        text_of(a), answer_of(i), a.cls,
        std::string(class_name(a.cls)) + " answer " + std::to_string(i),
        &direct_one);
    direct_s += direct_one;
    const std::size_t mirror_begin = log.size();
    const LayerCounters c0 = read_counters();
    MirrorResult m;
    {
      ScopedSpan span(log, "serve.compute", static_cast<std::int64_t>(i));
      m = mirror_partition(*h, replay_plan(a.cls), log,
                           static_cast<std::int64_t>(i));
    }
    counters += read_counters() - c0;
    const SpanLog::Totals mt = log.totals(mirror_begin, log.size());
    l.compute_ms = mt.root_ms - mt.probe_ms;
    mirror_s += l.compute_ms * 1e-3;
    if (m.sides != answer_of(i).sides) {
      out.fail("traced partition differs from the daemon's answer");
    }
    if (m.multilevel) {
      ++multilevel_runs;
      levels += m.levels;
      coarsest += m.coarsest_vertices;
      initial_cut += static_cast<double>(m.initial_cut);
      final_cut += static_cast<double>(m.metrics.cut_weight);
    }
  }

  // A hot key no scheduled request carried is still audited.
  for (std::size_t k = 0; k < computed.size(); ++k) {
    if (!computed[k]) audit_hot_key(k);
  }

  // Engine layers over every computed key.
  // The per-request replay spans are roots beside serve.compute; only the
  // compute subtrees count as engine wall.
  SpanLog::Totals compute_totals = log.totals(replay_begin, log.size());
  for (const char* name : {"hypergraph.parse_text", "hypergraph.fingerprint",
                           "serve.request_codec", "serve.response_codec"}) {
    compute_totals.root_ms -= compute_totals.total_ms[name];
  }
  const double runs = multilevel_runs > 0 ? multilevel_runs : 1;
  report_engine_layers(compute_totals, counters, levels / runs, coarsest / runs,
                       initial_cut > 0 ? (initial_cut - final_cut) / initial_cut
                                       : 0.0,
                       out);

  // Serve layers: per-class medians of per-request values.
  std::map<RequestClass, std::vector<double>> e2e, daemon_ms, compute, queue;
  std::vector<double> parse_us, fp_us, req_us, resp_us, wire_ms, connect_us,
      residual_ms, hot_rt_ms;
  for (std::size_t i = 0; i < n; ++i) {
    if (!outcomes[i].transport_ok || !responses[i].ok()) continue;
    const RequestClass c = schedule[i].cls;
    const Outcome& o = outcomes[i];
    const Layers& l = layers[i];
    const double round_trip = ms(o.done_s - o.send_s - o.connect_s);
    const double in_daemon = static_cast<double>(responses[i].latency_us) * 1e-3;
    e2e[c].push_back(ms(o.latency_s()));
    daemon_ms[c].push_back(in_daemon);
    if (c == RequestClass::kHot) {
      parse_us.push_back(l.parse_ms * 1e3);
      fp_us.push_back(l.fingerprint_ms * 1e3);
      req_us.push_back(l.request_codec_ms * 1e3);
      resp_us.push_back(l.response_codec_ms * 1e3);
      wire_ms.push_back(round_trip - in_daemon);
      hot_rt_ms.push_back(round_trip);
      residual_ms.push_back(round_trip - l.parse_ms - l.fingerprint_ms -
                            l.request_codec_ms - l.response_codec_ms);
    } else {
      connect_us.push_back(ms(o.connect_s) * 1e3);
      compute[c].push_back(l.compute_ms);
      queue[c].push_back(in_daemon - l.parse_ms - l.fingerprint_ms - l.compute_ms);
    }
  }
  out.set("hypergraph.parse_text_us", median(parse_us), "us", parse_us.size());
  out.set("hypergraph.fingerprint_us", median(fp_us), "us", fp_us.size());
  out.set("serve.request_codec_us", median(req_us), "us", req_us.size());
  out.set("serve.response_codec_us", median(resp_us), "us", resp_us.size());
  out.set("serve.wire_ms", median(wire_ms), "ms", wire_ms.size());
  out.set("serve.connect_us", median(connect_us), "us", connect_us.size());
  for (const RequestClass c :
       {RequestClass::kHot, RequestClass::kSmall, RequestClass::kLarge}) {
    const std::string cls = class_name(c);
    out.set("serve.daemon_ms." + cls, median(daemon_ms[c]), "ms",
            daemon_ms[c].size());
    out.set("serve." + cls + "_ms", median(e2e[c]), "ms", e2e[c].size());
    if (c != RequestClass::kHot) {
      out.set("serve.compute_ms." + cls, median(compute[c]), "ms",
              compute[c].size());
      out.set("serve.queue_wait_ms." + cls, median(queue[c]), "ms",
              queue[c].size());
    }
  }
  const double hits = stat("cache", "hits");
  const double misses = stat("cache", "misses");
  out.set("serve.cache_hit_ratio", hits / (hits + misses), "ratio");
  out.set("serve.coalesced", stat("requests", "coalesced"), "count");
  out.set("serve.rejected", stat("requests", "rejected"), "count");
  out.set("serve.errors", stat("requests", "errors"), "count");
  const double cpu_s =
      static_cast<double>(daemon_usage.ru_utime.tv_sec + daemon_usage.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(daemon_usage.ru_utime.tv_usec +
                                 daemon_usage.ru_stime.tv_usec);
  out.set("proc.cpu_util", cpu_s / lifetime_s, "ratio");
  out.set("proc.minor_faults", static_cast<double>(daemon_usage.ru_minflt), "count");
  out.set("proc.ctx_switches",
          static_cast<double>(daemon_usage.ru_nvcsw + daemon_usage.ru_nivcsw),
          "count");
  out.set("loadgen.late_p99_ms", late_p99.value_or(0.0), "ms", late_ms.size());
  out.set("bench.residual_ms", median(residual_ms), "ms", residual_ms.size());
  out.set("bench.trace_overhead", mirror_s / direct_s - 1.0, "ratio");
  out.set("share.hot_client_work",
          (median(parse_us) + median(fp_us) + median(req_us)) * 1e-3 /
              median(hot_rt_ms),
          "ratio");
  log.write(options.dir + "/spans.jsonl");
  return out;
}

}  // namespace perfbench
