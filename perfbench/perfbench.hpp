/// \file perfbench.hpp
/// Shared declarations of the repository benchmark driver (NOTES.md).
///
/// perfbench_driver runs each step in its own process, called by run.py:
///   gen      — writes a workload's inputs (hMETIS files) from a seed;
///   run      — loads them, measures, audits, and prints one result line;
///   selftest — checks the statistics code (run does this first too).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "multilevel/engine.hpp"

namespace perfbench {

namespace ml = fhp::ml;
using fhp::Hypergraph;
using fhp::VertexId;
using fhp::Weight;

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// One reported metric: value, unit, and how many samples it summarizes.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// What a workload run reports. `metrics` holds the end-to-end metrics of
/// an untraced run or the per-layer metrics of a traced one.
struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, Metric> metrics;
  /// Extra provenance members (already JSON), e.g. daemon flags.
  std::map<std::string, std::string> provenance;
  /// Records a failed operation (\p op) or a failed run-level check; the
  /// run then reports correct = false.
  void fail(const std::string& what, bool op = true);
  void set(const std::string& name, double value, const char* unit,
           std::size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Reports `setup_s` as the median of the set-up repeats, and every
  /// repeat in the provenance line.
  void set_setup(const std::vector<double>& repeats_s);
};

/// Batch set-up is repeated and its median reported, so one slow repeat
/// does not move `setup_s` (serve-mix: ServeSpec::setup_repeats).
inline constexpr int kSetupRepeats = 5;

/// A partition answer kept for later comparison.
struct Answer {
  std::vector<std::uint8_t> sides;
  Weight cut = 0;
};

/// Options every workload run receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;        ///< the workload's generated inputs
  std::string serve_bin;  ///< path of the fhp_serve executable
  std::string git_sha = "unknown";        ///< commit of the sources (run.py)
  std::string source_digest = "unknown";  ///< digest of the sources (run.py)
};

// ---------------------------------------------------------------------------
// Workloads (workloads.cpp)
// ---------------------------------------------------------------------------

/// A batch workload: distinct standard-cell netlists partitioned in a
/// closed loop.
struct BatchSpec {
  const char* name;
  int count;              ///< distinct timed instances
  VertexId min_modules;   ///< sizes are stratified over [min, max]
  VertexId max_modules;
  VertexId warmup_modules;  ///< the untimed warm-up instance
  ml::EngineChoice engine;
  ml::RefinerChoice refiner;
};

/// The serve-mix traffic: class shares, sizes and the arrival rate.
struct ServeSpec {
  double rate_per_s = 40.0;  ///< Poisson arrival rate
  double hot_share = 0.80;
  double small_share = 0.18;  ///< the rest (2%) are cold large
  int hot_count = 8;
  VertexId hot_min = 1200, hot_max = 4700;
  VertexId small_min = 600, small_max = 1900;
  VertexId large_min = 2000, large_max = 2400;
  int daemon_threads = 2;
  int hot_connections = 2;
  int cold_in_flight = 2;
  double latency_limit_s = 1.0;  ///< goodput limit
  /// Each set-up starts a daemon and primes the hot set (~2.5 s, the
  /// costliest set-up); three repeats keep a 30 s run under a minute.
  int setup_repeats = 3;
};

[[nodiscard]] const BatchSpec* find_batch(const std::string& name);
[[nodiscard]] const ServeSpec& serve_spec();
[[nodiscard]] bool is_serve(const std::string& name);

/// The serve-mix schedule window for a run of \p seconds: never shorter
/// than 1,000 requests at the fixed rate need (ten samples beyond the
/// p99), so a short run does not raise the offered load.
[[nodiscard]] double serve_window_s(double seconds);
/// Requests in that window at the fixed rate.
[[nodiscard]] std::size_t serve_request_count(double seconds);

/// Sizes of \p count instances stratified evenly over [lo, hi] and
/// shuffled by \p seed: seeds change structure and order, not the size mix.
[[nodiscard]] std::vector<VertexId> stratified_sizes(int count, VertexId lo,
                                                     VertexId hi,
                                                     std::uint64_t seed);

/// A generated standard-cell netlist of \p modules modules.
[[nodiscard]] Hypergraph make_netlist(VertexId modules, std::uint64_t seed);

/// Per-item seed derived from the run seed (a splitmix fork).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::uint64_t index);

/// The partition plan a batch workload runs, on one thread.
[[nodiscard]] ml::PartitionPlan batch_plan(const BatchSpec& spec);

/// Writes the workload's inputs into \p dir.
void generate(const std::string& workload, std::uint64_t seed, double seconds,
              const std::string& dir);

/// Input file names inside a workload directory.
[[nodiscard]] std::string batch_file(const std::string& dir, int index);
[[nodiscard]] std::string warmup_file(const std::string& dir);

// ---------------------------------------------------------------------------
// Statistics (stats.cpp)
// ---------------------------------------------------------------------------

/// Samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile \p q in (0, 1) of \p xs; nullopt (refused) when
/// fewer than kMinBeyond samples lie beyond it.
[[nodiscard]] std::optional<double> percentile(std::vector<double> xs,
                                               double q);
[[nodiscard]] double median(std::vector<double> xs);

enum class RequestClass : std::uint8_t { kHot, kSmall, kLarge };
[[nodiscard]] const char* class_name(RequestClass c);

/// One request of an open-loop schedule.
struct Arrival {
  double due_s = 0;      ///< offset from the schedule start
  RequestClass cls = RequestClass::kHot;
  int payload = 0;       ///< hot-set index, or cold payload index
};

/// Seeded Poisson schedule of \p count requests over \p seconds: exact
/// class counts, shuffled, exponential gaps scaled to span the window.
[[nodiscard]] std::vector<Arrival> make_schedule(std::uint64_t seed,
                                                 std::size_t count,
                                                 double seconds,
                                                 const ServeSpec& spec);

/// Outcome of one request, as the generator saw it.
struct Outcome {
  bool transport_ok = false;
  std::string status;        ///< daemon status ("ok", "rejected", ...)
  double due_s = 0;
  double send_s = 0;         ///< when the request left (>= due)
  double connect_s = 0;      ///< connect() duration (cold requests)
  double done_s = 0;         ///< when the response was parsed
  [[nodiscard]] double latency_s() const { return done_s - due_s; }
  [[nodiscard]] double late_s() const { return send_s - due_s; }
};

/// Ok responses within \p limit_s of their due time. Refused, failed and
/// transport-broken requests are misses.
[[nodiscard]] std::size_t goodput_count(const std::vector<Outcome>& outcomes,
                                        double limit_s);

/// One sender: takes items from \p next (in due order) until it returns
/// false, waits for each due time (never sends early), calls \p send, and
/// stamps the outcome. A request due while the sender is still busy is
/// sent late; its latency still counts from its due time.
using NextFn = std::function<bool(std::size_t& item)>;
using SendFn = std::function<void(std::size_t item, Outcome& out)>;
void run_sender(const NextFn& next, const std::vector<Arrival>& schedule,
                double t0_s, const SendFn& send, std::vector<Outcome>& outcomes);

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

/// Checks the statistics code above; returns the failures (empty = ok).
[[nodiscard]] std::vector<std::string> self_test();

// ---------------------------------------------------------------------------
// Tracing (trace.cpp)
// ---------------------------------------------------------------------------

/// In-memory span log of the traced run. Spans are recorded by the
/// benchmark around its calls into the library, on one thread.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index, or -1 for a root
    std::int64_t request;
    /// Work the benchmark adds to measure a layer (a separately built
    /// Algorithm I context, a re-score); excluded from the traced wall.
    bool probe;
  };
  [[nodiscard]] std::int32_t open(const char* name, std::int64_t request,
                                  bool probe);
  void close(std::int32_t id);
  /// Adds a closed span with known times (used for live-schedule spans).
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::int64_t request);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Milliseconds per span name over spans [begin, end): self time
  /// (duration minus the children's) and inclusive time.
  struct Totals {
    std::map<std::string, double> self_ms;
    std::map<std::string, double> total_ms;
    double root_ms = 0;   ///< sum of root durations
    double probe_ms = 0;  ///< sum of probe durations
  };
  [[nodiscard]] Totals totals(std::size_t begin, std::size_t end) const;
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::int64_t request = -1,
             bool probe = false)
      : log_(log), id_(log.open(name, request, probe)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

[[nodiscard]] std::int64_t steady_ns();

/// partition_auto() re-composed from its public parts, with a span
/// around each layer call. Bit-identical to partition_auto(h, plan).
struct MirrorResult {
  std::vector<std::uint8_t> sides;
  fhp::PartitionMetrics metrics;
  bool multilevel = false;
  int levels = 0;
  VertexId coarsest_vertices = 0;
  Weight initial_cut = 0;  ///< Algorithm I's cut before refinement
};
[[nodiscard]] MirrorResult mirror_partition(const Hypergraph& h,
                                            const ml::PartitionPlan& plan,
                                            SpanLog& log,
                                            std::int64_t request);

/// The library's own obs counters the traced run reports. Readings are
/// cumulative; the difference of two readings covers a pass.
struct LayerCounters {
  double starts_examined = 0, memo_hits = 0, memo_misses = 0;
  double bfs_edges = 0, fm_moves = 0, fm_rolled_back = 0;
  double flow_rounds = 0, flow_adopted = 0, flow_gadget_arcs = 0;
  LayerCounters& operator+=(const LayerCounters& delta);
};
[[nodiscard]] LayerCounters read_counters();
[[nodiscard]] LayerCounters operator-(const LayerCounters& a,
                                       const LayerCounters& b);

/// Fills the layer metrics every traced workload reports from span totals
/// of its mirrored partitions and the counter deltas.
void report_engine_layers(const SpanLog::Totals& t, const LayerCounters& c,
                          double levels_mean, double coarsest_mean,
                          double refine_gain, RunResult& out);

// ---------------------------------------------------------------------------
// Workload runners
// ---------------------------------------------------------------------------

[[nodiscard]] RunResult run_batch(const BatchSpec& spec,
                                  const RunOptions& options);
[[nodiscard]] RunResult run_serve_mix(const RunOptions& options);

}  // namespace perfbench
