#include "validate/fuzz.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/fm.hpp"
#include "core/algorithm1.hpp"
#include "core/intersection.hpp"
#include "gen/circuit.hpp"
#include "gen/grid.hpp"
#include "gen/planted.hpp"
#include "gen/random_hypergraph.hpp"
#include "gen/structured.hpp"
#include "hypergraph/io.hpp"
#include "multilevel/flow_refine.hpp"
#include "multilevel/refine.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"
#include "validate/audit.hpp"
#include "validate/reference.hpp"

namespace fhp::validate {

namespace {

/// Draws one small instance of the named family. Parameter ranges are
/// deliberately tiny (tens of modules): the invariants are size-agnostic
/// and small instances let a 200-per-family run finish in seconds.
Hypergraph make_instance(const std::string& family, Rng& rng) {
  if (family == "circuit") {
    CircuitParams p;
    p.num_modules = static_cast<VertexId>(10 + rng.next_below(50));
    p.num_nets = static_cast<EdgeId>(p.num_modules + rng.next_below(40));
    p.max_net_size = static_cast<std::uint32_t>(4 + rng.next_below(8));
    p.bus_fraction = rng.next_bool(0.5) ? 0.05 : 0.0;
    p.bus_size_min = 6;
    p.bus_size_max = 12;
    p.weight_geometric_p = rng.next_bool(0.5) ? 0.4 : 0.0;
    return generate_circuit(p, rng());
  }
  if (family == "grid") {
    GridParams p;
    p.rows = static_cast<std::uint32_t>(1 + rng.next_below(8));
    p.cols = static_cast<std::uint32_t>(1 + rng.next_below(8));
    if (p.rows * p.cols < 2) p.cols = 2;
    p.segment_fraction = 0.5 * rng.next_double();
    p.torus = rng.next_bool(0.3);
    return grid_circuit(p, rng());
  }
  if (family == "planted") {
    PlantedParams p;
    p.num_vertices = static_cast<VertexId>(8 + rng.next_below(40));
    p.num_edges = static_cast<EdgeId>(10 + rng.next_below(50));
    p.planted_cut = static_cast<EdgeId>(rng.next_below(5));
    p.max_edge_size = static_cast<std::uint32_t>(2 + rng.next_below(3));
    p.max_degree = rng.next_bool(0.5) ? 0 : 6;
    return planted_instance(p, rng()).hypergraph;
  }
  if (family == "random") {
    RandomHypergraphParams p;
    p.num_vertices = static_cast<VertexId>(2 + rng.next_below(50));
    p.num_edges = static_cast<EdgeId>(rng.next_below(80));
    p.max_edge_size = static_cast<std::uint32_t>(2 + rng.next_below(4));
    p.max_degree = rng.next_bool(0.5) ? 0 : 5;
    return random_hypergraph(p, rng());
  }
  // "structured": rotate through the four deterministic topologies.
  switch (rng.next_below(4)) {
    case 0:
      return ripple_carry_adder(static_cast<std::uint32_t>(1 + rng.next_below(6)));
    case 1:
      return array_multiplier(static_cast<std::uint32_t>(2 + rng.next_below(4)));
    case 2:
      return butterfly_network(static_cast<std::uint32_t>(1 + rng.next_below(3)),
                               static_cast<std::uint32_t>(1 + rng.next_below(4)));
    default:
      return h_tree(static_cast<std::uint32_t>(2 + rng.next_below(4)));
  }
}

/// Replacement tokens for the token-swap mutation. Values stay small so a
/// mutated header cannot demand a multi-gigabyte allocation from a parser
/// that (correctly) accepts large-but-representable counts.
const char* const kTokenPool[] = {"0",  "1",   "2",  "-1", "999",
                                  "13", "x7f", ":",  "%",  ""};

/// Applies 1-3 random text mutations: line duplication/deletion, token
/// replacement, garbage/comment insertion, truncation, extra tokens.
std::string mutate_text(std::string text, Rng& rng) {
  const int ops = 1 + static_cast<int>(rng.next_below(3));
  for (int op = 0; op < ops; ++op) {
    // Split into lines fresh each op (earlier ops change the layout).
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
    if (lines.empty()) lines.emplace_back();
    const std::size_t row = rng.next_below(lines.size());
    switch (rng.next_below(7)) {
      case 0:  // duplicate a line
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(row),
                     lines[row]);
        break;
      case 1:  // delete a line
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(row));
        break;
      case 2: {  // replace one whitespace-separated token
        std::istringstream ts(lines[row]);
        std::vector<std::string> tokens;
        for (std::string t; ts >> t;) tokens.push_back(t);
        if (!tokens.empty()) {
          tokens[rng.next_below(tokens.size())] =
              kTokenPool[rng.next_below(std::size(kTokenPool))];
          std::string rebuilt;
          for (const std::string& t : tokens) {
            if (!rebuilt.empty()) rebuilt += ' ';
            rebuilt += t;
          }
          lines[row] = rebuilt;
        }
        break;
      }
      case 3:  // insert a garbage line
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(row),
                     "!! garbage 1 2 three");
        break;
      case 4:  // insert a blank or comment line (often semantics-preserving)
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(row),
                     rng.next_bool(0.5) ? "" : "% comment # comment");
        break;
      case 5:  // append an extra token to a line
        lines[row] += ' ';
        lines[row] += kTokenPool[rng.next_below(std::size(kTokenPool))];
        break;
      default: {  // truncate the whole text mid-line
        std::string joined;
        for (const std::string& line : lines) {
          joined += line;
          joined += '\n';
        }
        if (!joined.empty()) joined.resize(rng.next_below(joined.size()));
        text = std::move(joined);
        continue;
      }
    }
    std::string joined;
    for (const std::string& line : lines) {
      joined += line;
      joined += '\n';
    }
    text = std::move(joined);
  }
  return text;
}

/// Fork streams of the FM leg and of the corridor-solve check (any fixed
/// ids: fork() leaves the parent stream where it was).
constexpr std::uint64_t kFmStream = 0x464d;
constexpr std::uint64_t kCorridorStream = 0x4353;

/// Shared state of one run.
struct Harness {
  const FuzzOptions& options;
  FuzzStats stats;
  std::string family;
  std::uint64_t instance = 0;

  void fail(std::string what) {
    stats.failures.push_back({family, instance, std::move(what)});
  }

  /// Algorithm I + postcondition audit + intersection-build differential.
  void partition_checks(const Hypergraph& h, Rng& rng) {
    Algorithm1Options a1;
    a1.num_starts = options.algorithm_starts;
    a1.threads = 1;
    a1.seed = rng();
    try {
      const Algorithm1Result result = algorithm1(h, a1);
      AuditReport report = audit_algorithm1(h, a1, result);
      const Graph fast = intersection_graph(h);
      report.merge(audit_graph(fast));
      report.merge(audit_graphs_identical(fast, intersection_graph_reference(h)));
      if (!report.ok()) {
        fail("algorithm1 audit: " + report.to_string());
        return;
      }
      ++stats.partitioned;
      flow_refine_checks(h, result.sides, rng);
      corridor_solve_check(h, result.sides, rng.fork(kCorridorStream));
      fm_refine_checks(h, result.sides, rng.fork(kFmStream));
    } catch (const std::exception& ex) {
      fail(std::string("algorithm1 raised on a well-formed instance: ") +
           ex.what());
    }
  }

  /// A refiner's contract on one refined partition: the cut never grows,
  /// the claimed \p improvement is exactly the cut delta, and \p sides
  /// still audit clean. Records a failure naming \p who otherwise.
  bool refinement_contract_holds(const char* who, const Hypergraph& h,
                                 Weight before,
                                 const std::vector<std::uint8_t>& sides,
                                 Weight improvement) {
    const Weight after = cut_weight_of(h, sides);
    if (after > before || improvement != before - after) {
      std::ostringstream os;
      os << who << " broke its cut contract: before " << before << ", after "
         << after << ", claimed improvement " << improvement;
      fail(os.str());
      return false;
    }
    const AuditReport report = audit_partition(h, sides);
    if (!report.ok()) {
      fail(std::string(who) + " result failed audit: " + report.to_string());
      return false;
    }
    return true;
  }

  /// The corridor-flow leg of the partition stage: refine the audited
  /// Algorithm I result and hold the refiner to its contract.
  void flow_refine_checks(const Hypergraph& h,
                          const std::vector<std::uint8_t>& start, Rng& rng) {
    std::vector<std::uint8_t> sides = start;
    try {
      const Weight before = cut_weight_of(h, sides);
      ml::FlowRefiner refiner;
      const Weight improvement = refiner.refine(h, sides, rng());
      if (refinement_contract_holds("flow refiner", h, before, sides,
                                    improvement)) {
        ++stats.flow_refined;
      }
    } catch (const std::exception& ex) {
      fail(std::string("flow refiner raised on a well-formed instance: ") +
           ex.what());
    }
  }

  /// One corridor solve over a random corridor of the audited Algorithm I
  /// result (one exterior anchor kept per side), which must equal the
  /// reference solve over the Dinic oracle field for field. \p rng is a
  /// fork, so this check leaves the other channels' draws unchanged.
  void corridor_solve_check(const Hypergraph& h,
                            const std::vector<std::uint8_t>& start, Rng rng) {
    try {
      const VertexId n = h.num_vertices();
      const double share = rng.next_double();
      std::vector<std::uint8_t> in_corridor(n);
      for (auto& c : in_corridor) c = rng.next_bool(share) ? 1 : 0;
      for (std::uint8_t s = 0; s < 2; ++s) {
        const auto it = std::find(start.begin(), start.end(), s);
        if (it != start.end()) {
          in_corridor[static_cast<std::size_t>(it - start.begin())] = 0;
        }
      }
      const ml::CorridorSolve got = ml::solve_corridor(h, start, in_corridor);
      const ml::CorridorSolve want =
          solve_corridor_reference(h, start, in_corridor);
      if (got.solved != want.solved || got.sides != want.sides ||
          got.cut_weight != want.cut_weight ||
          got.flow_value != want.flow_value ||
          got.gadget_arcs != want.gadget_arcs) {
        fail("corridor solve differs from the Dinic reference");
        return;
      }
      ++stats.corridor_solves;
    } catch (const std::exception& ex) {
      fail(std::string("corridor solve raised on a well-formed instance: ") +
           ex.what());
    }
  }

  /// The FM leg of the partition stage: refine the audited Algorithm I
  /// result with ml::FmRefiner, and run FmCore from it with a random fixed
  /// mask. Both must hold the refiner contract and match the
  /// rebuild-per-pass reference FM (validate/reference.hpp) bit for bit.
  /// \p rng is a fork, so this leg leaves the other channels' draws
  /// unchanged.
  void fm_refine_checks(const Hypergraph& h,
                        const std::vector<std::uint8_t>& start, Rng rng) {
    try {
      const Weight before = cut_weight_of(h, start);
      std::vector<std::uint8_t> sides = start;
      const Weight improvement = ml::FmRefiner().refine(h, sides, rng());
      if (!refinement_contract_holds("fm refiner", h, before, sides,
                                     improvement)) {
        return;
      }
      std::vector<std::uint8_t> want = start;
      const Weight want_improvement = fm_refine_reference(
          h, want, ml::FmRefinerOptions{}.max_passes);
      if (sides != want || improvement != want_improvement) {
        fail("fm refiner differs from the reference FM");
        return;
      }

      std::vector<std::uint8_t> fixed(h.num_vertices());
      for (auto& f : fixed) f = rng.next_bool(0.3) ? 1 : 0;
      FmOptions fm_options;
      fm_options.initial = start;
      FmCore fm(h, start);
      const int passes = fm.run(0, fm_options.max_passes, fixed);
      const Bipartition& p = fm.partition();
      if (!refinement_contract_holds("fixed-mask fm", h, before, p.sides(),
                                     before - p.cut_weight())) {
        return;
      }
      for (VertexId v = 0; v < h.num_vertices(); ++v) {
        if (fixed[v] != 0 && p.side(v) != start[v]) {
          fail("fixed-mask fm moved a fixed module");
          return;
        }
      }
      const BaselineResult reference = fm_reference(h, fm_options, fixed);
      if (p.sides() != reference.sides || passes != reference.iterations) {
        fail("fixed-mask fm differs from the reference FM");
        return;
      }
      ++stats.fm_refined;
    } catch (const std::exception& ex) {
      fail(std::string("fm raised on a well-formed instance: ") + ex.what());
    }
  }

  /// Channel 1: hMETIS serialize -> (mutate) -> parse -> audit -> run.
  void hmetis_channel(const Hypergraph& h, Rng& rng) {
    std::ostringstream os;
    write_hmetis(os, h);
    std::string text = os.str();
    const bool mutated = rng.next_bool(options.mutate_probability);
    if (mutated) {
      text = mutate_text(std::move(text), rng);
      ++stats.mutated;
    }
    try {
      std::istringstream is(text);
      const Hypergraph parsed = read_hmetis(is);
      ++stats.parsed;
      const AuditReport report = audit_hypergraph(parsed);
      if (!report.ok()) {
        fail("hmetis parse produced ill-formed hypergraph: " +
             report.to_string());
        return;
      }
      if (!mutated) {
        std::ostringstream os2;
        write_hmetis(os2, parsed);
        if (os2.str() != text) {
          fail("hmetis round-trip not byte-identical");
          return;
        }
        ++stats.round_trips;
      }
      if (parsed.num_vertices() >= 2 && parsed.num_edges() >= 1) {
        partition_checks(parsed, rng);
      }
    } catch (const IoError& ex) {
      ++stats.rejected;
      if (!mutated) {
        fail(std::string("parser rejected writer output: ") + ex.what());
      }
    } catch (const std::exception& ex) {
      fail(std::string("read_hmetis raised non-IoError: ") + ex.what());
    }
  }

  /// Channel 2: named netlist with a fixed-point (idempotence) check.
  void netlist_channel(const Hypergraph& h, Rng& rng) {
    if (h.num_edges() == 0) return;  // the format holds no vertex-only info
    NamedNetlist nl;
    nl.hypergraph = h;
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      nl.vertex_names.push_back("m" + std::to_string(v));
    }
    for (EdgeId e = 0; e < h.num_edges(); ++e) {
      nl.edge_names.push_back("s" + std::to_string(e));
    }
    std::ostringstream os;
    write_netlist(os, nl);
    std::string text = os.str();
    const bool mutated = rng.next_bool(options.mutate_probability);
    if (mutated) {
      text = mutate_text(std::move(text), rng);
      ++stats.mutated;
    }
    try {
      std::istringstream is(text);
      const NamedNetlist parsed = read_netlist(is);
      ++stats.parsed;
      const AuditReport report = audit_hypergraph(parsed.hypergraph);
      if (!report.ok()) {
        fail("netlist parse produced ill-formed hypergraph: " +
             report.to_string());
        return;
      }
      if (!mutated) {
        // One read may relabel modules (ids follow first appearance), but
        // a second write/read must be a fixed point of that relabeling.
        if (parsed.hypergraph.num_edges() != h.num_edges() ||
            parsed.hypergraph.num_pins() != h.num_pins()) {
          fail("netlist round-trip changed edge or pin counts");
          return;
        }
        std::ostringstream once;
        write_netlist(once, parsed);
        std::istringstream again(once.str());
        const NamedNetlist reparsed = read_netlist(again);
        std::ostringstream twice;
        write_netlist(twice, reparsed);
        if (once.str() != twice.str()) {
          fail("netlist write/read is not idempotent");
          return;
        }
        ++stats.round_trips;
      }
    } catch (const IoError& ex) {
      ++stats.rejected;
      if (!mutated) {
        fail(std::string("parser rejected writer output: ") + ex.what());
      }
    } catch (const std::exception& ex) {
      fail(std::string("read_netlist raised non-IoError: ") + ex.what());
    }
  }

  /// Channel 3: partition files with an exact read-back check.
  void partition_channel(const Hypergraph& h, Rng& rng) {
    std::vector<std::uint8_t> sides(h.num_vertices());
    for (auto& s : sides) s = rng.next_bool(0.5) ? 1 : 0;
    std::ostringstream os;
    write_partition(os, sides);
    std::string text = os.str();
    const bool mutated = rng.next_bool(options.mutate_probability);
    if (mutated) {
      text = mutate_text(std::move(text), rng);
      ++stats.mutated;
    }
    try {
      std::istringstream is(text);
      const auto got = read_partition(is, h.num_vertices());
      ++stats.parsed;
      if (!mutated) {
        if (got != sides) {
          fail("partition round-trip changed sides");
          return;
        }
        ++stats.round_trips;
      }
    } catch (const IoError& ex) {
      ++stats.rejected;
      if (!mutated) {
        fail(std::string("parser rejected writer output: ") + ex.what());
      }
    } catch (const std::exception& ex) {
      fail(std::string("read_partition raised non-IoError: ") + ex.what());
    }
  }

  void run_instance(std::uint64_t family_index) {
    // The fork stream id encodes (family, instance) so every triple is
    // independently reproducible at any instances_per_generator setting.
    Rng rng = Rng(options.seed).fork((family_index << 32) | instance);
    Hypergraph h;
    try {
      h = make_instance(family, rng);
    } catch (const std::exception& ex) {
      fail(std::string("generator raised: ") + ex.what());
      return;
    }
    ++stats.instances;
    const AuditReport report = audit_hypergraph(h);
    if (!report.ok()) {
      fail("generator produced ill-formed hypergraph: " + report.to_string());
      return;
    }
    hmetis_channel(h, rng);
    netlist_channel(h, rng);
    partition_channel(h, rng);
  }
};

}  // namespace

const std::vector<std::string>& fuzz_generator_names() {
  static const std::vector<std::string> names = {"circuit", "grid", "planted",
                                                 "random", "structured"};
  return names;
}

FuzzStats run_fuzz(const FuzzOptions& options) {
  Harness harness{options, {}, {}, 0};
  const auto& families = fuzz_generator_names();
  for (std::size_t f = 0; f < families.size(); ++f) {
    if (!options.only_generator.empty() &&
        families[f] != options.only_generator) {
      continue;
    }
    harness.family = families[f];
    for (int i = 0; i < options.instances_per_generator; ++i) {
      if (options.only_instance >= 0 &&
          options.only_instance != static_cast<std::int64_t>(i)) {
        continue;
      }
      harness.instance = static_cast<std::uint64_t>(i);
      harness.run_instance(f);
    }
  }
  return harness.stats;
}

std::string FuzzStats::to_string() const {
  std::ostringstream os;
  os << instances << " instances, " << mutated << " mutated, " << parsed
     << " parsed, " << rejected << " rejected, " << partitioned
     << " partitioned, " << flow_refined << " flow-refined, "
     << corridor_solves << " corridor solves matched, " << fm_refined
     << " fm-refined, " << round_trips
     << " round-trips, " << failures.size() << " failures";
  for (const FuzzFailure& f : failures) {
    os << "\n  [" << f.generator << " #" << f.instance << "] " << f.what;
  }
  return os.str();
}

}  // namespace fhp::validate
