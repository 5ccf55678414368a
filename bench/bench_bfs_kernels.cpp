/// \file bench_bfs_kernels.cpp
/// Differential harness for the BFS traversal kernels: top-down-only vs
/// direction-optimizing, original vertex order vs cache-locality reordered
/// (graph/reorder.hpp). Like bench_hotpath this is a CI correctness gate:
/// it ABORTS (nonzero exit) when
///   - the direction-optimizing kernel does not reproduce the top-down
///     kernel's distance labels, farthest election, or bidirectional cut,
///   - traversing the reordered graph changes any of those results after
///     mapping back through the permutation, or
///   - (tracing builds) direction optimization does not cut total edge
///     scans by >= 1.5x on the dense difficult planted instances — the
///     large-frontier regime it exists for.
/// Timing numbers (ns/traversal for every kernel x order leg) are recorded
/// into BENCH_bfs_kernels.json; only counters are asserted, never wall
/// time, so the gate is scheduler-noise free.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/intersection.hpp"
#include "gen/grid.hpp"
#include "graph/bfs.hpp"
#include "graph/reorder.hpp"
#include "obs/counters.hpp"
#include "util/timer.hpp"

namespace {

using namespace fhp;
using namespace fhp::bench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("  [ok]   %s\n", what.c_str());
  } else {
    std::printf("  [FAIL] %s\n", what.c_str());
    ++failures;
  }
}

constexpr int kSources = 16;  ///< deterministic source spread per graph

/// Evenly spread BFS sources (deterministic, covers the id range).
std::vector<VertexId> pick_sources(const Graph& g) {
  std::vector<VertexId> sources;
  const VertexId n = g.num_vertices();
  for (int i = 0; i < kSources; ++i) {
    sources.push_back(static_cast<VertexId>(
        (static_cast<std::uint64_t>(i) * n) / kSources));
  }
  return sources;
}

BfsKernelOptions top_down_only() {
  BfsKernelOptions kernel;
  kernel.direction_optimizing = false;
  return kernel;
}

/// One traversal workload: full BFS from every source plus a bidirectional
/// cut between the first source's double-sweep endpoints. Returns a
/// checksum of reached counts and depths (defeats dead-code elimination;
/// also a cheap cross-kernel consistency probe).
std::uint64_t workload(const Graph& g, const std::vector<VertexId>& sources,
                       Workspace& ws, const BfsKernelOptions& kernel) {
  std::uint64_t checksum = 0;
  for (VertexId s : sources) {
    const BfsSummary r = bfs_scan(g, s, ws, kernel);
    checksum = checksum * 1099511628211ULL + r.reached * 31 + r.depth;
  }
  const DiameterPair pair = longest_path_from(g, sources.front(), 2, ws,
                                              kernel);
  if (pair.s != pair.t) {
    BidirectionalCut cut;
    bidirectional_bfs_cut(g, pair.s, pair.t, ws, cut, kernel);
    checksum = checksum * 1099511628211ULL + cut.reached_s * 31 +
               cut.reached_t;
  }
  return checksum;
}

/// Cross-kernel / cross-order identity: DO and top-down must agree on the
/// original graph, and the reordered graph must agree with the original
/// after mapping labels back through the permutation.
void check_identity(const std::string& name, const Graph& g,
                    const Graph& g_perm, const Permutation& perm) {
  Workspace ws;
  const std::vector<VertexId> sources = pick_sources(g);
  BfsKernelOptions reordered_kernel;  // ties in original-id space
  reordered_kernel.tie_rank = perm.to_old.data();

  Workspace td_ws;  // the top-down reference's labels
  bool distances_ok = true;
  bool farthest_ok = true;
  bool cut_ok = true;
  for (VertexId s : sources) {
    const BfsSummary td = bfs_scan(g, s, td_ws, top_down_only());

    // Leg 1: direction-optimizing on the original order.
    const BfsSummary dopt = bfs_scan(g, s, ws, {});
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      distances_ok &= ws.distance.get(v) == td_ws.distance.get(v);
    }
    farthest_ok &= dopt.farthest == td.farthest && dopt.depth == td.depth &&
                   dopt.reached == td.reached;

    // Leg 2: direction-optimizing on the reordered graph, mapped back.
    const BfsSummary rd =
        bfs_scan(g_perm, perm.to_new[s], ws, reordered_kernel);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      distances_ok &=
          ws.distance.get(perm.to_new[v]) == td_ws.distance.get(v);
    }
    farthest_ok &= perm.to_old[rd.farthest] == td.farthest &&
                   rd.depth == td.depth && rd.reached == td.reached;
  }
  check(distances_ok, name + ": distance labels identical across kernels");
  check(farthest_ok, name + ": farthest/depth/reached identical");

  // Bidirectional cut across kernels and orders.
  const DiameterPair pair = longest_path_from(g, sources.front(), 2, ws);
  if (pair.s != pair.t) {
    BidirectionalCut td;
    bidirectional_bfs_cut(g, pair.s, pair.t, td_ws, td, top_down_only());
    BidirectionalCut dopt;
    bidirectional_bfs_cut(g, pair.s, pair.t, ws, dopt, {});
    cut_ok &= dopt.side == td.side;
    BidirectionalCut rd;
    bidirectional_bfs_cut(g_perm, perm.to_new[pair.s], perm.to_new[pair.t],
                          ws, rd, reordered_kernel);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      cut_ok &= rd.side[perm.to_new[v]] == td.side[v];
    }
    check(cut_ok, name + ": bidirectional cut identical across kernels");
  }
}

#if FHP_TRACING_ENABLED
/// Total edge inspections of one workload under \p kernel.
long long count_scans(const Graph& g, const std::vector<VertexId>& sources,
                      const BfsKernelOptions& kernel) {
  Workspace ws;
  obs::Counters::instance().reset();
  static_cast<void>(workload(g, sources, ws, kernel));
  return obs::Counters::instance().value("bfs/edges_scanned_topdown") +
         obs::Counters::instance().value("bfs/edges_scanned_bottomup");
}
#endif

/// Timing legs: ns per workload for kernel x order, min-of-k after warmup.
void measure_legs(const std::string& name, const Graph& g,
                  const Graph& g_perm, const Permutation& perm) {
  const std::vector<VertexId> sources = pick_sources(g);
  std::vector<VertexId> perm_sources;
  for (VertexId s : sources) perm_sources.push_back(perm.to_new[s]);
  BfsKernelOptions reordered_kernel;
  reordered_kernel.tie_rank = perm.to_old.data();

  struct Leg {
    const char* label;
    const Graph* graph;
    const std::vector<VertexId>* sources;
    BfsKernelOptions kernel;
  };
  const Leg legs[] = {
      {"topdown_original", &g, &sources, top_down_only()},
      {"diropt_original", &g, &sources, {}},
      {"topdown_reordered", &g_perm, &perm_sources,
       [&] {
         BfsKernelOptions k = top_down_only();
         k.tie_rank = perm.to_old.data();
         return k;
       }()},
      {"diropt_reordered", &g_perm, &perm_sources, reordered_kernel},
  };
  constexpr int kWarmup = 2;
  constexpr int kReps = 7;
  for (const Leg& leg : legs) {
    Workspace ws;
    std::uint64_t checksum = 0;
    for (int i = 0; i < kWarmup; ++i) {
      checksum ^= workload(*leg.graph, *leg.sources, ws, leg.kernel);
    }
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer timer;
      checksum ^= workload(*leg.graph, *leg.sources, ws, leg.kernel);
      const double seconds = timer.seconds();
      if (rep == 0 || seconds < best) best = seconds;
    }
    const std::string label = name + "/" + leg.label;
    BenchRecorder::instance().add(label, best,
                                  static_cast<double>(checksum & 0xff));
    std::printf("  %-28s %9.1f us/workload\n", label.c_str(), best * 1e6);
  }
}

}  // namespace

int main() {
  BenchSession session("bfs_kernels");

  // Gate shapes: dense difficult planted bisections, whose intersection
  // graphs have low diameter and mid-BFS frontiers that swallow most of
  // the graph — the regime bottom-up expansion exists for. The sparse
  // 2-pin table2 "Diff" family and a grid ride along informationally
  // (deep, thin frontiers; the heuristic must not lose there, but the
  // achievable saving is bounded well under the gate's 1.5x), as does a
  // standard-cell circuit.
  struct Shape {
    std::string name;
    Hypergraph h;
    bool gated;
  };
  auto dense_planted = [](VertexId n, EdgeId nets, EdgeId cut,
                          std::uint64_t seed) {
    PlantedParams params;
    params.num_vertices = n;
    params.num_edges = nets;
    params.planted_cut = cut;
    params.min_edge_size = 2;
    params.max_edge_size = 4;
    params.max_degree = 0;
    return planted_instance(params, seed).hypergraph;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"DiffDense1", dense_planted(500, 1500, 8, 13), true});
  shapes.push_back({"DiffDense2", dense_planted(800, 3200, 4, 17), true});
  for (const Table2Instance& inst : table2_instances()) {
    if (inst.difficult) {
      shapes.push_back({inst.name, make_instance(inst, 13), false});
    }
  }
  shapes.push_back(
      {"IC", make_instance({"IC", 800, 1200, Technology::kStandardCell, false,
                            0}, 13),
       false});
  shapes.push_back({"grid16", grid_circuit({16, 16, 0.3, false}, 3), false});

#if FHP_TRACING_ENABLED
  long long scans_topdown = 0;
  long long scans_diropt = 0;
  struct ScanRow {
    std::string name;
    long long topdown = 0;
    long long diropt = 0;
  };
  std::vector<ScanRow> scan_rows;  // gauges written after the loop:
                                   // count_scans() resets the registry,
                                   // so mid-loop writes would be wiped
#endif
  for (const Shape& shape : shapes) {
    print_header("instance " + shape.name);
    const Graph g = intersection_graph(shape.h);
    if (g.num_vertices() < 2) {
      std::printf("  [skip] intersection graph too small\n");
      continue;
    }
    const Permutation perm = degree_bucketed_bfs_order(g);
    const Graph g_perm = g.permuted(perm);
    check_identity(shape.name, g, g_perm, perm);
#if FHP_TRACING_ENABLED
    const std::vector<VertexId> sources = pick_sources(g);
    const long long td = count_scans(g, sources, top_down_only());
    const long long dopt = count_scans(g, sources, {});
    std::printf("  edge scans: topdown-only %lld, direction-opt %lld "
                "(%.2fx fewer)\n",
                td, dopt, dopt > 0 ? static_cast<double>(td) /
                                         static_cast<double>(dopt)
                                   : 0.0);
    scan_rows.push_back({shape.name, td, dopt});
    if (shape.gated) {
      scans_topdown += td;
      scans_diropt += dopt;
    }
#endif
    measure_legs(shape.name, g, g_perm, perm);
  }

#if FHP_TRACING_ENABLED
  print_header("edge-scan gate (dense difficult planted instances)");
  const double ratio = scans_diropt > 0
                           ? static_cast<double>(scans_topdown) /
                                 static_cast<double>(scans_diropt)
                           : 0.0;
  std::printf("  total: topdown-only %lld, direction-opt %lld (%.2fx)\n",
              scans_topdown, scans_diropt, ratio);
  for (const ScanRow& row : scan_rows) {
    obs::Counters::instance().set_gauge(
        ("bfs_kernels/" + row.name + "/scans_topdown_only").c_str(),
        static_cast<double>(row.topdown));
    obs::Counters::instance().set_gauge(
        ("bfs_kernels/" + row.name + "/scans_dirop").c_str(),
        static_cast<double>(row.diropt));
  }
  obs::Counters::instance().set_gauge("bfs_kernels/difficult_scan_ratio",
                                      ratio);
  check(ratio >= 1.5,
        "direction optimization scans >= 1.5x fewer edges on difficult "
        "planted instances");
#else
  std::printf("\ntracing compiled out; edge-scan counters unavailable\n");
#endif

  if (failures > 0) {
    std::printf("\nbench_bfs_kernels: %d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nbench_bfs_kernels: all checks passed\n");
  return 0;
}
