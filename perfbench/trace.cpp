/// \file trace.cpp
/// Span log of the traced run and the outside mirror of partition_auto().
///
/// Spans are recorded by the benchmark around its own calls into each
/// module's public functions; the library is not instrumented further.
/// The library's existing obs counters are read by snapshot deltas.
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>

#include "core/algorithm1.hpp"
#include "multilevel/coarsen.hpp"
#include "multilevel/flow_refine.hpp"
#include "multilevel/hierarchy.hpp"
#include "multilevel/refine.hpp"
#include "obs/report.hpp"
#include "partition/metrics.hpp"
#include "perfbench.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanLog::open(const char* name, std::int64_t request,
                           bool probe) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, steady_ns(), 0,
                        stack_.empty() ? -1 : stack_.back(), request, probe});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::int32_t id) {
  FHP_ASSERT(!stack_.empty() && stack_.back() == id, "span closed out of order");
  spans_[static_cast<std::size_t>(id)].end_ns = steady_ns();
  stack_.pop_back();
}

std::int32_t SpanLog::add(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns, std::int32_t parent,
                          std::int64_t request) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request, false});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

SpanLog::Totals SpanLog::totals(std::size_t begin, std::size_t end) const {
  Totals t;
  for (std::size_t i = begin; i < end; ++i) {
    const Span& s = spans_[i];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    t.total_ms[s.name] += ms;
    t.self_ms[s.name] += ms;
    if (s.parent >= 0) {
      t.self_ms[spans_[static_cast<std::size_t>(s.parent)].name] -= ms;
    } else {
      t.root_ms += ms;
    }
    if (s.probe) t.probe_ms += ms;
  }
  return t;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request
        << ",\"probe\":" << (s.probe ? "true" : "false") << "}\n";
  }
}

MirrorResult mirror_partition(const Hypergraph& h,
                              const ml::PartitionPlan& plan, SpanLog& log,
                              std::int64_t request) {
  MirrorResult out;
  const auto refine = [&](ml::RefinerChoice choice, const Hypergraph& level,
                          std::vector<std::uint8_t>& sides,
                          std::uint64_t seed, ml::FlowRefiner& flow,
                          ml::FmRefiner& fm) {
    // FlowFmRefiner is exactly flow then FM with the same seed.
    Weight gain = 0;
    if (choice != ml::RefinerChoice::kFm) {
      ScopedSpan span(log, "multilevel.refine_flow", request);
      gain += flow.refine(level, sides, seed);
    }
    if (choice != ml::RefinerChoice::kFlow) {
      ScopedSpan span(log, "multilevel.refine_fm", request);
      gain += fm.refine(level, sides, seed);
    }
    return gain;
  };
  ml::FlowRefiner flow(plan.flow_refine);
  ml::FmRefiner fm(plan.refine);

  out.multilevel = plan.engine == ml::EngineChoice::kMultilevel ||
                   (plan.engine == ml::EngineChoice::kAuto &&
                    h.num_vertices() >= plan.multilevel_threshold);
  if (!out.multilevel) {
    {
      ScopedSpan span(log, "core.context", request, true);
      const fhp::Algorithm1Context context(h, plan.algorithm1);
    }
    fhp::Algorithm1Result flat;
    {
      ScopedSpan span(log, "core.algorithm1", request);
      flat = fhp::algorithm1(h, plan.algorithm1);
    }
    out.sides = std::move(flat.sides);
    out.metrics = flat.metrics;
    out.initial_cut = flat.metrics.cut_weight;
    if (plan.refiner != ml::RefinerChoice::kFm && h.num_vertices() >= 2 &&
        refine(plan.refiner, h, out.sides, plan.algorithm1.seed, flow, fm) > 0) {
      ScopedSpan span(log, "partition.score", request);
      out.metrics = fhp::compute_metrics(fhp::Bipartition(h, out.sides));
    } else {
      // Algorithm I scored its answer already; re-scoring measures the
      // scoring layer without being part of the flat path.
      ScopedSpan span(log, "partition.score", request, true);
      static_cast<void>(fhp::compute_metrics(fhp::Bipartition(h, out.sides)));
    }
    return out;
  }

  // multilevel_partition() as partition_auto() configures it.
  fhp::Algorithm1Options initial = plan.algorithm1;
  initial.num_starts = plan.coarse_num_starts;
  initial.collect_trace = false;
  const int lanes = fhp::resolve_threads(plan.algorithm1.threads);
  std::unique_ptr<fhp::ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<fhp::ThreadPool>(lanes);

  std::optional<ml::Hierarchy> hierarchy;
  {
    ScopedSpan span(log, "multilevel.coarsen", request);
    hierarchy.emplace(ml::build_hierarchy(h, plan.coarsening, pool.get()));
  }
  const Hypergraph& coarsest = hierarchy->coarsest();
  out.levels = static_cast<int>(hierarchy->num_levels());
  out.coarsest_vertices = coarsest.num_vertices();
  {
    ScopedSpan span(log, "core.context", request, true);
    const fhp::Algorithm1Context context(coarsest, initial);
  }
  std::vector<std::uint8_t> sides;
  {
    ScopedSpan span(log, "multilevel.initial", request);
    fhp::Algorithm1Result coarse = fhp::algorithm1(coarsest, initial);
    out.initial_cut = coarse.metrics.cut_weight;
    sides = std::move(coarse.sides);
  }
  sides.reserve(h.num_vertices());
  const fhp::Rng master(plan.algorithm1.seed);
  const std::size_t levels = hierarchy->num_levels();
  static_cast<void>(
      refine(plan.refiner, coarsest, sides, master.fork(levels)(), flow, fm));
  for (std::size_t i = levels; i-- > 0;) {
    {
      ScopedSpan span(log, "multilevel.project", request);
      const std::span<const std::uint8_t> projected =
          hierarchy->project(i, sides);
      sides.assign(projected.begin(), projected.end());
    }
    static_cast<void>(refine(plan.refiner, hierarchy->input_of(i), sides,
                             master.fork(i)(), flow, fm));
  }
  {
    ScopedSpan span(log, "partition.score", request);
    out.metrics = fhp::compute_metrics(fhp::Bipartition(h, sides));
  }
  out.sides = std::move(sides);
  return out;
}

LayerCounters read_counters() {
  const fhp::obs::TraceReport r = fhp::obs::snapshot();
  const auto c = [&](const char* name) {
    return static_cast<double>(r.counter(name));
  };
  LayerCounters out;
  out.starts_examined = c("alg1/starts_examined");
  out.memo_hits = c("algorithm1/starts_memo_hits");
  out.memo_misses = c("algorithm1/starts_memo_misses");
  out.bfs_edges = c("bfs/edges_scanned_topdown") + c("bfs/edges_scanned_bottomup");
  out.fm_moves = c("fm/moves");
  out.fm_rolled_back = c("fm/moves_rolled_back");
  out.flow_rounds = c("flow/rounds");
  out.flow_adopted = c("flow/adopted");
  out.flow_gadget_arcs = c("flow/gadget_arcs");
  return out;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& d) {
  starts_examined += d.starts_examined;
  memo_hits += d.memo_hits;
  memo_misses += d.memo_misses;
  bfs_edges += d.bfs_edges;
  fm_moves += d.fm_moves;
  fm_rolled_back += d.fm_rolled_back;
  flow_rounds += d.flow_rounds;
  flow_adopted += d.flow_adopted;
  flow_gadget_arcs += d.flow_gadget_arcs;
  return *this;
}

LayerCounters operator-(const LayerCounters& a, const LayerCounters& b) {
  LayerCounters d = b;
  for (double* f : {&d.starts_examined, &d.memo_hits, &d.memo_misses,
                    &d.bfs_edges, &d.fm_moves, &d.fm_rolled_back,
                    &d.flow_rounds, &d.flow_adopted, &d.flow_gadget_arcs}) {
    *f = -*f;
  }
  d += a;
  return d;
}

namespace {
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double get(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}
}  // namespace

void report_engine_layers(const SpanLog::Totals& t, const LayerCounters& c,
                          double levels_mean, double coarsest_mean,
                          double refine_gain, RunResult& out) {
  const double context = get(t.total_ms, "core.context");
  const double alg1 =
      get(t.total_ms, "core.algorithm1") + get(t.total_ms, "multilevel.initial");
  const double starts = std::max(0.0, alg1 - context);
  const double coarsen = get(t.total_ms, "multilevel.coarsen");
  const double fm = get(t.total_ms, "multilevel.refine_fm");
  const double flow = get(t.total_ms, "multilevel.refine_flow");
  const double wall = t.root_ms - t.probe_ms;
  out.set("core.context_ms", context, "ms");
  out.set("core.starts_ms", starts, "ms");
  out.set("core.starts_examined", c.starts_examined, "count");
  out.set("core.memo_hit_ratio", ratio(c.memo_hits, c.memo_hits + c.memo_misses),
          "ratio");
  out.set("graph.bfs_edges_scanned", c.bfs_edges, "count");
  out.set("multilevel.coarsen_ms", coarsen, "ms");
  out.set("multilevel.levels", levels_mean, "count");
  out.set("multilevel.coarsest_vertices", coarsest_mean, "count");
  out.set("multilevel.initial_ms", get(t.total_ms, "multilevel.initial"), "ms");
  out.set("multilevel.refine_fm_ms", fm, "ms");
  out.set("multilevel.fm_moves", c.fm_moves, "count");
  out.set("multilevel.fm_rollback_ratio", ratio(c.fm_rolled_back, c.fm_moves),
          "ratio");
  out.set("multilevel.refine_flow_ms", flow, "ms");
  out.set("multilevel.flow_gadget_arcs", c.flow_gadget_arcs, "count");
  out.set("multilevel.flow_adopted_ratio", ratio(c.flow_adopted, c.flow_rounds),
          "ratio");
  out.set("multilevel.project_ms", get(t.total_ms, "multilevel.project"), "ms");
  out.set("multilevel.refine_gain", refine_gain, "ratio");
  out.set("partition.score_ms", get(t.total_ms, "partition.score"), "ms");
  out.set("share.multistart", ratio(starts, wall), "ratio");
  out.set("share.fm_flow", ratio(fm + flow, wall), "ratio");
  out.set("share.coarsen_context", ratio(coarsen + context, wall), "ratio");
}

}  // namespace perfbench
