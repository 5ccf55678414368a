/// \file driver.cpp
/// Entry point of the benchmark driver; run.py calls it once per step.
///
///   perfbench_driver gen --workload W --seed S --seconds R --dir D
///   perfbench_driver run --workload W --seed S --seconds R --trace 0|1
///                        --dir D --serve-bin PATH
///                        [--git-sha SHA] [--source-digest HEX]
///   perfbench_driver selftest
///
/// `run` checks the benchmark's own statistics first, then measures the
/// workload, prints a table of its metrics (unit, sample count), one
/// provenance line, and last one JSON result line. Exit code 0 = every
/// operation and audit passed, 1 = a failure or an error.
#include <fcntl.h>
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"
#include "util/ids.hpp"
#include "util/json.hpp"

namespace perfbench {

void RunResult::fail(const std::string& what, bool op) {
  std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
  correct = false;
  if (op) ++failed;
}

void RunResult::set_setup(const std::vector<double>& repeats_s) {
  set("setup_s", median(repeats_s), "s", repeats_s.size());
  fhp::json::Writer w;
  w.begin_array();
  for (const double s : repeats_s) w.value(s);
  w.end_array();
  provenance["setup_repeats_s"] = std::move(w).take();
}

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// CPU cache sizes as the kernel reports them, e.g. "L1d 48K, L2 2048K".
std::string cache_sizes() {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string size = read_line(base + "size");
    if (size.empty()) break;
    const std::string type = read_line(base + "type");
    if (!out.empty()) out += ", ";
    out += 'L';
    out += read_line(base + "level");
    out += type == "Data" ? "d" : type == "Instruction" ? "i" : "";
    out += ' ';
    out += size;
  }
  return out.empty() ? "unknown" : out;
}

/// Whether hardware perf events exist here. Nothing in the benchmark
/// reads them; the run says which counters it has instead.
std::string hardware_counters() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = PERF_COUNT_HW_CPU_CYCLES;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) {
    return std::string("unavailable (") + std::strerror(errno) +
           "); software counters only (getrusage)";
  }
  close(static_cast<int>(fd));
  return "available, unused; software counters (getrusage)";
}

void print_result(const RunOptions& options, const RunResult& r) {
  for (const auto& [name, m] : r.metrics) {
    std::printf("  %-32s %16.6g %-8s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("  attempted=%lld failed=%lld correct=%s\n", r.attempted,
              r.failed, r.correct ? "true" : "false");

  fhp::json::Writer p;
  p.begin_object().key("provenance").begin_object();
  p.member("workload", options.workload);
  p.member("seed", static_cast<unsigned long long>(options.seed));
  p.member("seconds", options.seconds);
  p.member("trace", options.trace);
  p.member("git_sha", options.git_sha);
  p.member("source_digest", options.source_digest);
  p.member("build_type", FHP_BUILD_TYPE);
  p.member("tracing_compiled", FHP_TRACING_ENABLED != 0);
  p.member("index_bits", static_cast<int>(sizeof(fhp::Index) * 8));
  p.member("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  p.member("caches", cache_sizes());
  p.member("hardware_counters", hardware_counters());
  for (const auto& [key, json] : r.provenance) p.member_raw(key, json);
  p.end_object().end_object();
  std::printf("%s\n", std::move(p).take().c_str());

  fhp::json::Writer w;
  w.begin_object();
  w.member("correct", r.correct);
  w.member("attempted", r.attempted);
  w.member("failed", r.failed);
  w.key("metrics").begin_object();
  for (const auto& [name, m] : r.metrics) {
    w.key(name).begin_object();
    w.member("value", m.value);
    w.member("unit", m.unit);
    w.end_object();
  }
  w.end_object().end_object();
  std::printf("%s\n", std::move(w).take().c_str());
  std::fflush(stdout);
}

/// Flushes the generated inputs to disk, so that their write-back (which
/// the kernel starts about 30 s after the writes) does not run during the
/// measured run.
void sync_files(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const int fd = ::open(entry.path().c_str(), O_RDONLY | O_CLOEXEC);
    const bool flushed = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0) ::close(fd);
    if (!flushed) {
      throw std::runtime_error("cannot flush " + entry.path().string());
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver gen|run|selftest --workload W --seed S "
               "--seconds R [--trace 0|1] --dir D [--serve-bin PATH] "
               "[--git-sha SHA] [--source-digest HEX]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  RunOptions options;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--dir") {
      options.dir = value;
    } else if (key == "--serve-bin") {
      options.serve_bin = value;
    } else if (key == "--git-sha") {
      options.git_sha = value;
    } else if (key == "--source-digest") {
      options.source_digest = value;
    } else {
      return usage();
    }
  }
  try {
    if (command == "selftest" || command == "run") {
      const std::vector<std::string> failures = self_test();
      for (const std::string& f : failures) {
        std::fprintf(stderr, "perfbench: self-test failed: %s\n", f.c_str());
      }
      if (!failures.empty()) return 1;
      if (command == "selftest") {
        std::printf("perfbench self-test passed\n");
        return 0;
      }
    }
    const BatchSpec* batch = find_batch(options.workload);
    if ((batch == nullptr && !is_serve(options.workload)) ||
        options.dir.empty() || options.seconds <= 0) {
      return usage();
    }
    // The serve-mix generator runs inside its work directory; keep every
    // path valid from there.
    options.dir = std::filesystem::absolute(options.dir).string();
    if (!options.serve_bin.empty()) {
      options.serve_bin = std::filesystem::absolute(options.serve_bin).string();
    }
    if (command == "gen") {
      generate(options.workload, options.seed, options.seconds, options.dir);
      sync_files(options.dir);
      return 0;
    }
    if (command != "run") return usage();
    const RunResult result = batch != nullptr ? run_batch(*batch, options)
                                              : run_serve_mix(options);
    print_result(options, result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
