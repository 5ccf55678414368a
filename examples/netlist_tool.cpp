/// fhp-partition — command-line netlist bipartitioner.
///
/// Reads a hypergraph (hMETIS `.hgr` or named `signal: modules` netlist),
/// partitions it with Algorithm I or one of the baselines, prints quality
/// metrics, and optionally writes a partition file (one 0/1 per module).
///
/// Usage:
///   netlist_tool [options] <input>
///     --format hmetis|netlist     input format        (default hmetis)
///     --algorithm alg1|fm|kl|sa|random                (default alg1)
///     --engine flat|multilevel|auto   alg1 engine routing (default auto:
///                                 multilevel V-cycle at scale, flat below)
///     --flat                      shorthand for --engine flat
///     --refiner fm|flow|flow+fm   alg1 engine refinement (default fm)
///     --starts N                  Alg I start budget  (default 50)
///     --threads N                 Alg I execution lanes (default serial)
///     --threshold K               ignore nets with > K pins; 0 = keep all
///                                                     (default 10)
///     --completion greedy|weighted|exact              (default greedy)
///     --objective cut|quotient                        (default cut)
///     --seed S                    RNG seed            (default 1)
///     --output FILE               write partition file
///     --refine                    FM-refine the result
///     --trace                     print the phase tree + counters
///     --json FILE                 write the trace report as JSON
///     --chrome-trace FILE         write a chrome://tracing event file
///     --metrics-out FILE          write a machine-readable JSON summary
///                                 (input, config, quality metrics,
///                                 runtime, peak RSS, trace report)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "baselines/flow.hpp"
#include "baselines/fm.hpp"
#include "baselines/kl.hpp"
#include "baselines/multilevel.hpp"
#include "baselines/random_cut.hpp"
#include "baselines/sa.hpp"
#include "baselines/spectral.hpp"
#include "core/algorithm1.hpp"
#include "core/recursive.hpp"
#include "hypergraph/bookshelf.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/stats.hpp"
#include "multilevel/engine.hpp"
#include "obs/report.hpp"
#include "partition/report.hpp"
#include "util/json.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

namespace {

using namespace fhp;

struct CliOptions {
  std::string input;
  std::string format = "hmetis";
  std::string algorithm = "alg1";
  std::string engine = "auto";
  std::string completion = "greedy";
  std::string objective = "cut";
  std::string refiner = "fm";
  std::string output;
  std::string json_path;
  std::string chrome_trace_path;
  std::string metrics_path;
  int starts = 50;
  int threads = 0;
  std::uint32_t kway = 2;
  std::uint32_t threshold = 10;
  std::uint64_t seed = 1;
  bool refine = false;
  bool verbose = false;
  bool trace = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n(run with --help for usage)\n",
               message.c_str());
  std::exit(2);
}

void print_usage() {
  std::printf(
      "usage: netlist_tool [options] <input>\n"
      "  --format hmetis|netlist|bookshelf   (default hmetis; bookshelf\n"
      "                            takes the .nodes file, .nets beside it)\n"
      "  --algorithm alg1|fm|kl|sa|flow|multilevel|spectral|random\n"
      "  --engine flat|multilevel|auto  alg1 engine routing (default auto:\n"
      "                            instances with >= 2000 modules run the\n"
      "                            multilevel V-cycle, smaller ones flat\n"
      "                            Algorithm I; see docs/multilevel.md)\n"
      "  --flat                    shorthand for --engine flat\n"
      "  --refiner fm|flow|flow+fm alg1 engine refinement: per-level FM,\n"
      "                            corridor flow, or flow then FM polish\n"
      "                            (flat runs get a flow post-pass;\n"
      "                            default fm)\n"
      "  --starts N                Alg I multi-start budget (default 50)\n"
      "  --threads N               Alg I execution lanes (default: the\n"
      "                            FHP_THREADS env var, else serial); the\n"
      "                            partition is identical at any setting\n"
      "  --kway N                  recursive N-way partition (default 2;\n"
      "                            alg1 engine only, one part id per line)\n"
      "  --threshold K             ignore nets with > K pins, 0 keeps all\n"
      "  --completion greedy|weighted|exact (default greedy)\n"
      "  --objective cut|quotient  start-selection objective\n"
      "  --seed S                  RNG seed (default 1)\n"
      "  --output FILE             write the partition (one 0/1 per line)\n"
      "  --refine                  FM-refine the chosen partition\n"
      "  --verbose                 print the full cut analysis\n"
      "  --trace                   print the phase tree and counters\n"
      "  --json FILE               write the trace report as JSON\n"
      "  --chrome-trace FILE       write a chrome://tracing event file\n"
      "  --metrics-out FILE        write a machine-readable JSON summary\n"
      "                            (input, config, quality metrics,\n"
      "                            runtime, peak RSS, trace report)\n");
}

CliOptions parse(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      std::exit(0);
    } else if (arg == "--format") {
      options.format = value();
    } else if (arg == "--algorithm") {
      options.algorithm = value();
    } else if (arg == "--engine") {
      options.engine = value();
    } else if (arg == "--flat") {
      options.engine = "flat";
    } else if (arg == "--refiner") {
      options.refiner = value();
    } else if (arg == "--completion") {
      options.completion = value();
    } else if (arg == "--objective") {
      options.objective = value();
    } else if (arg == "--output") {
      options.output = value();
    } else if (arg == "--starts") {
      options.starts = std::atoi(value().c_str());
    } else if (arg == "--threads") {
      options.threads = std::atoi(value().c_str());
    } else if (arg == "--kway") {
      options.kway = static_cast<std::uint32_t>(std::atoi(value().c_str()));
    } else if (arg == "--threshold") {
      options.threshold = static_cast<std::uint32_t>(
          std::atoi(value().c_str()));
    } else if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(
          std::atoll(value().c_str()));
    } else if (arg == "--refine") {
      options.refine = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--json") {
      options.json_path = value();
    } else if (arg == "--chrome-trace") {
      options.chrome_trace_path = value();
    } else if (arg == "--metrics-out") {
      options.metrics_path = value();
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown option " + arg);
    } else if (options.input.empty()) {
      options.input = arg;
    } else {
      usage_error("multiple inputs given");
    }
  }
  if (options.input.empty()) usage_error("no input file");
  return options;
}

/// What partitioned the input: the sides plus the engine that produced
/// them ("flat" / "multilevel" for the alg1 path, the baseline's name
/// otherwise) and the hierarchy depth (0 off the multilevel path).
struct RunResult {
  std::vector<std::uint8_t> sides;
  std::string engine;
  int ml_levels = 0;
};

RunResult run(const CliOptions& cli, const Hypergraph& h) {
  if (cli.algorithm == "alg1") {
    Algorithm1Options options;
    options.num_starts = cli.starts;
    options.large_edge_threshold = cli.threshold;
    options.seed = cli.seed;
    options.threads = cli.threads;
    if (cli.completion == "weighted") {
      options.completion = CompletionStrategy::kWeightedGreedy;
    } else if (cli.completion == "exact") {
      options.completion = CompletionStrategy::kExact;
    } else if (cli.completion != "greedy") {
      usage_error("unknown completion " + cli.completion);
    }
    if (cli.objective == "quotient") {
      options.objective = Objective::kQuotient;
    } else if (cli.objective != "cut") {
      usage_error("unknown objective " + cli.objective);
    }
    ml::PartitionPlan plan;
    plan.algorithm1 = options;
    if (cli.engine == "flat") {
      plan.engine = ml::EngineChoice::kFlat;
    } else if (cli.engine == "multilevel") {
      plan.engine = ml::EngineChoice::kMultilevel;
    } else if (cli.engine != "auto") {
      usage_error("unknown engine " + cli.engine);
    }
    if (cli.refiner == "flow") {
      plan.refiner = ml::RefinerChoice::kFlow;
    } else if (cli.refiner == "flow+fm") {
      plan.refiner = ml::RefinerChoice::kFlowFm;
    } else if (cli.refiner != "fm") {
      usage_error("unknown refiner " + cli.refiner);
    }
    ml::EngineResult r = ml::partition_auto(h, plan);
    return {std::move(r.sides), ml::to_string(r.engine_used), r.levels};
  }
  if (cli.algorithm == "fm") {
    FmOptions options;
    options.seed = cli.seed;
    return {fiduccia_mattheyses(h, options).sides, cli.algorithm};
  }
  if (cli.algorithm == "kl") {
    KlOptions options;
    options.seed = cli.seed;
    return {kernighan_lin(h, options).sides, cli.algorithm};
  }
  if (cli.algorithm == "sa") {
    SaOptions options;
    options.seed = cli.seed;
    return {simulated_annealing(h, options).sides, cli.algorithm};
  }
  if (cli.algorithm == "random") {
    return {random_bisection(h, cli.seed).sides, cli.algorithm};
  }
  if (cli.algorithm == "flow") {
    FlowOptions options;
    options.seed = cli.seed;
    return {flow_bipartition(h, options).sides, cli.algorithm};
  }
  if (cli.algorithm == "multilevel") {
    MultilevelOptions options;
    options.seed = cli.seed;
    return {multilevel_bipartition(h, options).sides, cli.algorithm};
  }
  if (cli.algorithm == "spectral") {
    SpectralOptions options;
    options.seed = cli.seed;
    return {spectral_bipartition(h, options).sides, cli.algorithm};
  }
  usage_error("unknown algorithm " + cli.algorithm);
}

/// Writes \p text to \p path; returns false (with a message) on failure.
bool write_text_file(const std::string& path, const std::string& text,
                     const char* what) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  std::printf("%s written to %s\n", what, path.c_str());
  return true;
}

/// Emits the phase tree / JSON / Chrome trace requested on the command
/// line. Returns false if a requested file could not be written.
bool emit_observability(const CliOptions& cli) {
  if (!cli.trace && cli.json_path.empty() && cli.chrome_trace_path.empty()) {
    return true;
  }
  const obs::TraceReport report = obs::snapshot();
  if (cli.trace) {
    if (report.tracing_compiled) {
      std::printf("\n%s", obs::to_tree_string(report).c_str());
    } else {
      std::printf("\n(tracing compiled out; rebuild with "
                  "-DFHP_ENABLE_TRACING=ON for the phase tree)\n");
    }
  }
  bool ok = true;
  if (!cli.json_path.empty()) {
    ok &= write_text_file(cli.json_path, obs::to_json(report),
                          "trace report");
  }
  if (!cli.chrome_trace_path.empty()) {
    ok &= write_text_file(cli.chrome_trace_path, obs::to_chrome_trace(report),
                          "chrome trace");
  }
  return ok;
}

/// Common prefix of the --metrics-out document: the invocation that
/// produced the run, so a metrics file is self-describing. The returned
/// writer holds an open root object for the caller to extend and close.
json::Writer metrics_prelude(const CliOptions& cli, double seconds) {
  json::Writer w;
  w.begin_object();
  w.member("tool", "netlist_tool");
  w.member("input", cli.input);
  w.member("format", cli.format);
  w.member("algorithm", cli.algorithm);
  w.member("kway", cli.kway > 2 ? cli.kway : 2);
  w.member("starts", cli.starts);
  w.member("threshold", cli.threshold);
  w.member("seed", cli.seed);
  w.member("refined", cli.refine);
  w.member("runtime_seconds", seconds);
  w.member("peak_rss_bytes", peak_rss_bytes());
  return w;
}

/// Writes the --metrics-out document for the bipartition path. \p engine
/// is what actually partitioned ("flat"/"multilevel" for alg1, the
/// baseline name otherwise); \p ml_levels the hierarchy depth (0 off the
/// multilevel path).
bool write_metrics_file(const CliOptions& cli, const PartitionMetrics& m,
                        double seconds, const std::string& engine,
                        int ml_levels) {
  if (cli.metrics_path.empty()) return true;
  json::Writer w = metrics_prelude(cli, seconds);
  w.member("engine", engine);
  w.member("ml_levels", ml_levels);
  w.key("metrics").begin_object();
  w.member("cut_edges", m.cut_edges);
  w.member("cut_weight", m.cut_weight);
  w.member("left_count", m.left_count);
  w.member("right_count", m.right_count);
  w.member("left_weight", m.left_weight);
  w.member("right_weight", m.right_weight);
  w.member("cardinality_imbalance", m.cardinality_imbalance);
  w.member("weight_imbalance", m.weight_imbalance);
  w.member("quotient_cut", m.quotient_cut);
  w.member("ratio_cut", m.ratio_cut);
  w.member("proper", m.proper);
  w.end_object();
  w.member_raw("trace", obs::to_json(obs::snapshot()));
  w.end_object();
  return write_text_file(cli.metrics_path, std::move(w).take() + "\n",
                         "metrics");
}

/// Writes the --metrics-out document for the recursive k-way path.
bool write_metrics_file(const CliOptions& cli, const KWayResult& r,
                        double seconds) {
  if (cli.metrics_path.empty()) return true;
  json::Writer w = metrics_prelude(cli, seconds);
  w.key("metrics").begin_object();
  w.member("parts", cli.kway);
  w.member("spanning_nets", r.cut_edges);
  w.member("min_part_weight", static_cast<long long>(r.min_part_weight));
  w.member("max_part_weight", static_cast<long long>(r.max_part_weight));
  w.end_object();
  w.member_raw("trace", obs::to_json(obs::snapshot()));
  w.end_object();
  return write_text_file(cli.metrics_path, std::move(w).take() + "\n",
                         "metrics");
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse(argc, argv);
  try {
    Hypergraph h;
    if (cli.format == "hmetis") {
      h = read_hmetis_file(cli.input);
    } else if (cli.format == "netlist") {
      h = read_netlist_file(cli.input).hypergraph;
    } else if (cli.format == "bookshelf") {
      // Input names the .nodes file; the .nets file sits beside it.
      std::string nets_path = cli.input;
      const std::size_t ext = nets_path.rfind(".nodes");
      if (ext != std::string::npos) {
        nets_path.replace(ext, 6, ".nets");
      } else {
        nets_path += ".nets";
      }
      h = read_bookshelf_files(cli.input, nets_path).netlist.hypergraph;
    } else {
      usage_error("unknown format " + cli.format);
    }
    std::printf("%s", to_string(compute_stats(h)).c_str());

    if (cli.kway > 2) {
      // Recursive k-way mode (Algorithm I engine).
      Algorithm1Options a1;
      a1.num_starts = cli.starts;
      a1.large_edge_threshold = cli.threshold;
      a1.seed = cli.seed;
      a1.threads = cli.threads;
      RecursiveOptions recursive;
      recursive.algorithm1 = a1;
      recursive.rebalance = true;
      Timer timer;
      const KWayResult r = recursive_partition(h, cli.kway, recursive);
      const double kway_seconds = timer.seconds();
      std::printf("k-way partition: %u parts, %u spanning nets, part "
                  "weights %lld..%lld\n",
                  cli.kway, r.cut_edges,
                  static_cast<long long>(r.min_part_weight),
                  static_cast<long long>(r.max_part_weight));
      std::printf("runtime: %.3f s\n", kway_seconds);
      if (!cli.output.empty()) {
        std::ofstream out(cli.output);
        if (!out) {
          std::fprintf(stderr, "error: cannot write %s\n",
                       cli.output.c_str());
          return 1;
        }
        for (std::uint32_t part : r.part) out << part << '\n';
        std::printf("part ids written to %s\n", cli.output.c_str());
      }
      bool ok = write_metrics_file(cli, r, kway_seconds);
      ok &= emit_observability(cli);
      return ok ? 0 : 1;
    }

    Timer timer;
    RunResult result = run(cli, h);
    std::vector<std::uint8_t> sides = std::move(result.sides);
    if (cli.refine) {
      FmOptions fm;
      fm.seed = cli.seed;
      fm.initial = sides;
      sides = fiduccia_mattheyses(h, fm).sides;
    }
    const double seconds = timer.seconds();

    const Bipartition partition(h, sides);
    const PartitionMetrics metrics = compute_metrics(partition);
    if (cli.verbose) {
      std::printf("%s", to_string(analyze(partition)).c_str());
    } else {
      std::printf("partition: %s\n", to_string(metrics).c_str());
    }
    if (result.ml_levels > 0) {
      std::printf("engine: %s (%d level%s)\n", result.engine.c_str(),
                  result.ml_levels, result.ml_levels == 1 ? "" : "s");
    } else {
      std::printf("engine: %s\n", result.engine.c_str());
    }
    std::printf("runtime: %.3f s\n", seconds);

    if (!cli.output.empty()) {
      std::ofstream out(cli.output);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", cli.output.c_str());
        return 1;
      }
      write_partition(out, sides);
      std::printf("partition written to %s\n", cli.output.c_str());
    }
    if (!write_metrics_file(cli, metrics, seconds, result.engine,
                            result.ml_levels)) {
      return 1;
    }
    if (!emit_observability(cli)) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
