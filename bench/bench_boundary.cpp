/// Claim C3 (paper §3 corollary): the expected boundary-set size |B| is a
/// constant *fraction* of |G| for bounded-degree intersection graphs —
/// partition quality does not degrade with instance size.
///
/// We sweep instance sizes for two families (hierarchical circuits and
/// bounded-degree random hypergraphs) and report |B|/|G| of the chosen
/// (best) start of Algorithm I.
#include <cstdio>

#include "bench_common.hpp"
#include "gen/random_hypergraph.hpp"
#include "util/stats.hpp"

int main() {
  using namespace fhp;
  using namespace fhp::bench;
  fhp::bench::BenchSession session("boundary");

  print_header("C3 — boundary fraction |B| / |G| across instance sizes");

  AsciiTable table({"family", "modules", "|G|", "|B|", "|B|/|G|"});

  for (VertexId n : {100U, 200U, 400U, 800U, 1600U}) {
    RunningStats fraction;
    RunningStats bsize;
    RunningStats gsize;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const Hypergraph h = generate_circuit(
          table2_params(n, static_cast<EdgeId>(n * 7 / 4),
                        Technology::kStandardCell),
          seed);
      Algorithm1Options options;
      options.seed = seed;
      Algorithm1Context ctx(h, options);
      if (ctx.is_degenerate()) continue;
      Algorithm1Context::StartScratch scratch;
      const Algorithm1Result r = ctx.run_single(0, scratch);
      gsize.add(ctx.intersection().num_vertices());
      bsize.add(r.boundary_size);
      fraction.add(static_cast<double>(r.boundary_size) /
                   static_cast<double>(ctx.intersection().num_vertices()));
    }
    table.add_row({"circuit", std::to_string(n),
                   AsciiTable::num(gsize.mean(), 0),
                   AsciiTable::num(bsize.mean(), 0),
                   AsciiTable::num(fraction.mean(), 3)});
  }
  table.add_separator();
  for (VertexId n : {100U, 200U, 400U, 800U, 1600U}) {
    RunningStats fraction;
    RunningStats bsize;
    RunningStats gsize;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      RandomHypergraphParams params;
      params.num_vertices = n;
      params.num_edges = static_cast<EdgeId>(n);
      params.max_edge_size = 3;
      params.max_degree = 3;
      const Hypergraph h = random_hypergraph(params, seed);
      Algorithm1Options options;
      options.seed = seed;
      Algorithm1Context ctx(h, options);
      if (ctx.is_degenerate()) continue;
      Algorithm1Context::StartScratch scratch;
      const Algorithm1Result r = ctx.run_single(0, scratch);
      gsize.add(ctx.intersection().num_vertices());
      bsize.add(r.boundary_size);
      fraction.add(static_cast<double>(r.boundary_size) /
                   static_cast<double>(ctx.intersection().num_vertices()));
    }
    if (gsize.count() == 0) continue;
    table.add_row({"random H(n,3,3)", std::to_string(n),
                   AsciiTable::num(gsize.mean(), 0),
                   AsciiTable::num(bsize.mean(), 0),
                   AsciiTable::num(fraction.mean(), 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nReading: the fraction stays bounded (and for hierarchical"
      "\ncircuits, small) as n grows 16x — the corollary behind the"
      "\npaper's 'partition quality does not vary with input size'.\n");
  return 0;
}
