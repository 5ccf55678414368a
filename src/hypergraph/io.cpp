#include "hypergraph/io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace fhp {

namespace {

/// Strips comments ('%' for hMETIS, '#' for named netlists) and trailing
/// whitespace; returns false at end of stream.
bool next_content_line(std::istream& in, std::string& line, char comment) {
  while (std::getline(in, line)) {
    const std::size_t cut = line.find(comment);
    if (cut != std::string::npos) line.erase(cut);
    // Trim.
    const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
    while (!line.empty() && is_space(static_cast<unsigned char>(line.back())))
      line.pop_back();
    std::size_t start = 0;
    while (start < line.size() &&
           is_space(static_cast<unsigned char>(line[start])))
      ++start;
    line.erase(0, start);
    if (!line.empty()) return true;
  }
  return false;
}

std::vector<long long> parse_ints(const std::string& line,
                                  const char* context) {
  // Tokenize, then convert with from_chars: `is >> v` would consume an
  // overflowing token, set eofbit, and silently drop the value — turning
  // an out-of-range pin into truncated-but-accepted input.
  std::istringstream is(line);
  std::vector<long long> values;
  std::string tok;
  while (is >> tok) {
    long long v = 0;
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec == std::errc::result_out_of_range) {
      throw IoError(std::string("integer overflow in ") + context + ": '" +
                    tok + "'");
    }
    if (ec != std::errc() || ptr != tok.data() + tok.size()) {
      throw IoError(std::string("non-numeric token in ") + context + ": '" +
                    line + "'");
    }
    values.push_back(v);
  }
  return values;
}

}  // namespace

VertexId NamedNetlist::vertex(const std::string& name) const {
  const auto it = std::find(vertex_names.begin(), vertex_names.end(), name);
  if (it == vertex_names.end()) {
    throw IoError("unknown module name '" + name + "'");
  }
  return static_cast<VertexId>(it - vertex_names.begin());
}

EdgeId NamedNetlist::edge(const std::string& name) const {
  const auto it = std::find(edge_names.begin(), edge_names.end(), name);
  if (it == edge_names.end()) {
    throw IoError("unknown signal name '" + name + "'");
  }
  return static_cast<EdgeId>(it - edge_names.begin());
}

Hypergraph read_hmetis(std::istream& in) {
  std::string line;
  if (!next_content_line(in, line, '%')) {
    throw IoError("empty hMETIS input");
  }
  const auto header = parse_ints(line, "hMETIS header");
  if (header.size() < 2 || header.size() > 3) {
    throw IoError("hMETIS header must be 'edges vertices [fmt]'");
  }
  const long long num_edges = header[0];
  const long long num_vertices = header[1];
  const long long fmt = header.size() == 3 ? header[2] : 0;
  if (num_edges < 0 || num_vertices < 0) {
    throw IoError("negative counts in hMETIS header");
  }
  if (static_cast<unsigned long long>(num_vertices) > kMaxIndexCount ||
      static_cast<unsigned long long>(num_edges) > kMaxIndexCount) {
    throw IoError(
        "hMETIS header counts exceed the supported id range (" +
        std::to_string(kMaxIndexCount) +
        "); rebuild with -DFHP_INDEX_64=ON for larger instances");
  }
  if (fmt != 0 && fmt != 1 && fmt != 10 && fmt != 11) {
    throw IoError("unsupported hMETIS fmt " + std::to_string(fmt));
  }
  const bool edge_weights = (fmt == 1 || fmt == 11);
  const bool vertex_weights = (fmt == 10 || fmt == 11);

  HypergraphBuilder builder;
  builder.add_vertices(static_cast<VertexId>(num_vertices));

  for (long long e = 0; e < num_edges; ++e) {
    if (!next_content_line(in, line, '%')) {
      throw IoError("hMETIS input ends before edge " + std::to_string(e + 1));
    }
    auto values = parse_ints(line, "hMETIS edge line");
    Weight weight = 1;
    std::size_t first_pin = 0;
    if (edge_weights) {
      if (values.empty()) throw IoError("missing edge weight");
      weight = values[0];
      if (weight < 0) throw IoError("negative edge weight");
      first_pin = 1;
    }
    std::vector<VertexId> pins;
    for (std::size_t i = first_pin; i < values.size(); ++i) {
      const long long pin = values[i];
      if (pin < 1 || pin > num_vertices) {
        throw IoError("pin " + std::to_string(pin) + " out of range in edge " +
                      std::to_string(e + 1));
      }
      pins.push_back(static_cast<VertexId>(pin - 1));
    }
    if (pins.empty()) {
      throw IoError("edge " + std::to_string(e + 1) + " has no pins");
    }
    builder.add_edge(std::span<const VertexId>(pins), weight);
  }
  if (vertex_weights) {
    for (long long v = 0; v < num_vertices; ++v) {
      if (!next_content_line(in, line, '%')) {
        throw IoError("hMETIS input ends before vertex weight " +
                      std::to_string(v + 1));
      }
      const auto values = parse_ints(line, "hMETIS vertex weight");
      if (values.size() != 1 || values[0] < 0) {
        throw IoError("bad vertex weight line '" + line + "'");
      }
      builder.set_vertex_weight(static_cast<VertexId>(v), values[0]);
    }
  }
  try {
    return std::move(builder).build();
  } catch (const PreconditionError& e) {
    throw IoError(e.what());  // weight totals past the Weight range
  }
}

// read_hmetis_file lives in io_scan.cpp: the disk entry point maps the file
// and runs the zero-copy parser; this translation unit keeps the istream
// oracle and the writers.

void write_hmetis(std::ostream& out, const Hypergraph& h) {
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    FHP_REQUIRE(h.edge_size(e) > 0,
                "hMETIS format cannot represent zero-pin nets");
  }
  bool weighted = false;
  for (EdgeId e = 0; e < h.num_edges() && !weighted; ++e) {
    weighted = h.edge_weight(e) != 1;
  }
  for (VertexId v = 0; v < h.num_vertices() && !weighted; ++v) {
    weighted = h.vertex_weight(v) != 1;
  }
  out << h.num_edges() << ' ' << h.num_vertices();
  if (weighted) out << " 11";
  out << '\n';
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    if (weighted) out << h.edge_weight(e) << ' ';
    bool first = true;
    for (VertexId v : h.pins(e)) {
      if (!first) out << ' ';
      out << (v + 1);
      first = false;
    }
    out << '\n';
  }
  if (weighted) {
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      out << h.vertex_weight(v) << '\n';
    }
  }
}

void write_hmetis_file(const std::string& path, const Hypergraph& h) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open '" + path + "' for writing");
  write_hmetis(out, h);
}

NamedNetlist read_netlist(std::istream& in) {
  NamedNetlist netlist;
  HypergraphBuilder builder;
  std::unordered_map<std::string, VertexId> vertex_ids;
  std::unordered_map<std::string, EdgeId> edge_ids;

  std::string line;
  while (next_content_line(in, line, '#')) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      throw IoError("netlist line missing ':' separator: '" + line + "'");
    }
    std::istringstream name_stream(line.substr(0, colon));
    std::string signal;
    name_stream >> signal;
    std::string extra;
    if (signal.empty() || (name_stream >> extra)) {
      throw IoError("bad signal name in line '" + line + "'");
    }
    if (edge_ids.contains(signal)) {
      throw IoError("duplicate signal '" + signal + "'");
    }

    std::istringstream pin_stream(line.substr(colon + 1));
    std::vector<VertexId> pins;
    std::string module;
    while (pin_stream >> module) {
      auto [it, inserted] =
          vertex_ids.try_emplace(module, builder.num_vertices());
      if (inserted) {
        builder.add_vertex();
        netlist.vertex_names.push_back(module);
      }
      pins.push_back(it->second);
    }
    if (pins.empty()) {
      throw IoError("signal '" + signal + "' has no pins");
    }
    edge_ids.emplace(signal, builder.num_edges());
    netlist.edge_names.push_back(signal);
    builder.add_edge(std::span<const VertexId>(pins));
  }
  netlist.hypergraph = std::move(builder).build();
  return netlist;
}

NamedNetlist read_netlist_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open '" + path + "' for reading");
  return read_netlist(in);
}

void write_netlist(std::ostream& out, const NamedNetlist& netlist) {
  const Hypergraph& h = netlist.hypergraph;
  FHP_REQUIRE(netlist.vertex_names.size() == h.num_vertices() &&
                  netlist.edge_names.size() == h.num_edges(),
              "names must cover every module and signal");
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    FHP_REQUIRE(h.edge_size(e) > 0,
                "netlist format cannot represent zero-pin signals");
  }
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    out << netlist.edge_names[e] << ':';
    for (VertexId v : h.pins(e)) out << ' ' << netlist.vertex_names[v];
    out << '\n';
  }
}

std::vector<std::uint8_t> read_partition(std::istream& in,
                                         VertexId expected_vertices) {
  std::vector<std::uint8_t> sides;
  std::string line;
  while (next_content_line(in, line, '#')) {
    const auto values = parse_ints(line, "partition line");
    for (long long v : values) {
      if (v != 0 && v != 1) {
        throw IoError("partition entries must be 0 or 1, got " +
                      std::to_string(v));
      }
      sides.push_back(static_cast<std::uint8_t>(v));
    }
  }
  if (sides.size() != expected_vertices) {
    throw IoError("partition has " + std::to_string(sides.size()) +
                  " entries, expected " + std::to_string(expected_vertices));
  }
  return sides;
}

void write_partition(std::ostream& out,
                     const std::vector<std::uint8_t>& sides) {
  for (std::uint8_t s : sides) out << static_cast<int>(s) << '\n';
}

}  // namespace fhp
