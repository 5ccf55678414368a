/// \file io_scan.cpp
/// Zero-copy hMETIS parser over an in-memory buffer (mmap'ed file).
///
/// Strategy: three cheap passes over the bytes instead of one expensive
/// istream pass.
///   1. Count content lines and parse the header. Truncated input is
///      rejected here with the same typed IoError the legacy parser
///      throws, *before* any edge/pin-proportional allocation — a header
///      declaring a billion edges over a three-line body fails in
///      microseconds instead of attempting a multi-GB allocation.
///   2. Record each needed line's span (arena scratch) and count pin
///      tokens, so the CSR arrays are allocated exactly once at final
///      size — no vector<vector> staging, no reallocation.
///   3. Parse tokens with the SWAR integer decoder straight into the CSR
///      arrays, sorting + deduping each edge's pins in place with a
///      single write cursor.
/// The result is assembled with Hypergraph::from_csr, skipping
/// HypergraphBuilder entirely. Differential tests assert bit-identical
/// results against the legacy istream parser (the oracle) on the full
/// corpus and on generator round-trips.
#include <algorithm>
#include <string_view>

#include "hypergraph/io.hpp"
#include "hypergraph/scan.hpp"
#include "util/arena.hpp"
#include "util/mmap.hpp"

namespace fhp {

namespace {

struct HmetisHeader {
  std::int64_t num_edges = 0;
  std::int64_t num_vertices = 0;
  std::int64_t fmt = 0;
};

HmetisHeader parse_header(LineSpan line) {
  TokenScanner tokens(line);
  std::string_view tok;
  std::int64_t values[3] = {0, 0, 0};
  std::size_t n = 0;
  while (tokens.next(tok)) {
    if (n == 3) throw IoError("hMETIS header must be 'edges vertices [fmt]'");
    values[n++] = parse_i64(tok, "hMETIS header");
  }
  if (n < 2) throw IoError("hMETIS header must be 'edges vertices [fmt]'");
  HmetisHeader h;
  h.num_edges = values[0];
  h.num_vertices = values[1];
  h.fmt = n == 3 ? values[2] : 0;
  if (h.num_edges < 0 || h.num_vertices < 0) {
    throw IoError("negative counts in hMETIS header");
  }
  if (static_cast<std::uint64_t>(h.num_vertices) > kMaxIndexCount ||
      static_cast<std::uint64_t>(h.num_edges) > kMaxIndexCount) {
    throw IoError(
        "hMETIS header counts exceed the supported id range (" +
        std::to_string(kMaxIndexCount) +
        "); rebuild with -DFHP_INDEX_64=ON for larger instances");
  }
  if (h.fmt != 0 && h.fmt != 1 && h.fmt != 10 && h.fmt != 11) {
    throw IoError("unsupported hMETIS fmt " + std::to_string(h.fmt));
  }
  return h;
}

}  // namespace

Hypergraph read_hmetis(std::string_view text) {
  // ---- Pass 1: header + line census (no allocations yet) ----
  ByteScanner counter(text, '%');
  LineSpan line;
  if (!counter.next(line)) throw IoError("empty hMETIS input");
  const HmetisHeader header = parse_header(line);
  const bool has_edge_weights = header.fmt == 1 || header.fmt == 11;
  const bool has_vertex_weights = header.fmt == 10 || header.fmt == 11;
  const auto num_edges = static_cast<std::uint64_t>(header.num_edges);
  const auto num_vertices = static_cast<std::uint64_t>(header.num_vertices);

  std::uint64_t remaining = 0;
  while (counter.next(line)) ++remaining;
  if (remaining < num_edges) {
    throw IoError("hMETIS input ends before edge " +
                  std::to_string(remaining + 1));
  }
  const std::uint64_t needed =
      num_edges + (has_vertex_weights ? num_vertices : 0);
  if (remaining < needed) {
    throw IoError("hMETIS input ends before vertex weight " +
                  std::to_string(remaining - num_edges + 1));
  }

  // ---- Pass 2: line spans + exact pin counts (arena scratch) ----
  // `needed <= remaining <= bytes(text)`, so this scratch is bounded by the
  // real file size, never by the header's claims.
  Arena arena;
  const std::span<LineSpan> spans =
      arena.alloc<LineSpan>(static_cast<std::size_t>(needed));
  ByteScanner filler(text, '%');
  (void)filler.next(line);  // header, already parsed
  std::uint64_t total_tokens = 0;
  for (std::uint64_t i = 0; i < needed; ++i) {
    (void)filler.next(spans[static_cast<std::size_t>(i)]);
    if (i < num_edges) {
      total_tokens += count_tokens(spans[static_cast<std::size_t>(i)]);
    }
  }
  // Content lines are non-empty, so a weighted edge line holds >= 1 token
  // (its weight) and the subtraction cannot underflow.
  const std::uint64_t max_pins =
      total_tokens - (has_edge_weights ? num_edges : 0);

  // ---- Allocate the CSR at exact (pre-dedupe) size ----
  std::vector<std::size_t> edge_offsets(static_cast<std::size_t>(num_edges) +
                                        1);
  std::vector<VertexId> edge_pins(static_cast<std::size_t>(max_pins));
  std::vector<Weight> edge_weights(static_cast<std::size_t>(num_edges),
                                   Weight{1});
  std::vector<Weight> vertex_weights(static_cast<std::size_t>(num_vertices),
                                     Weight{1});

  // ---- Pass 3: parse straight into the arrays ----
  std::string_view tok;
  std::size_t write = 0;
  for (std::uint64_t e = 0; e < num_edges; ++e) {
    TokenScanner tokens(spans[static_cast<std::size_t>(e)]);
    if (has_edge_weights) {
      if (!tokens.next(tok)) throw IoError("missing edge weight");
      const std::int64_t w = parse_i64(tok, "hMETIS edge line");
      if (w < 0) throw IoError("negative edge weight");
      edge_weights[static_cast<std::size_t>(e)] = w;
    }
    const std::size_t row_begin = write;
    edge_offsets[static_cast<std::size_t>(e)] = row_begin;
    while (tokens.next(tok)) {
      const std::int64_t pin = parse_i64(tok, "hMETIS edge line");
      if (pin < 1 || pin > header.num_vertices) {
        throw IoError("pin " + std::to_string(pin) + " out of range in edge " +
                      std::to_string(e + 1));
      }
      edge_pins[write++] = static_cast<VertexId>(pin - 1);
    }
    if (write == row_begin) {
      throw IoError("edge " + std::to_string(e + 1) + " has no pins");
    }
    // Sort + dedupe this row in place; the write cursor absorbs the shrink.
    const auto row = edge_pins.begin() + static_cast<std::ptrdiff_t>(row_begin);
    const auto row_end = edge_pins.begin() + static_cast<std::ptrdiff_t>(write);
    std::sort(row, row_end);
    write = static_cast<std::size_t>(
        std::distance(edge_pins.begin(), std::unique(row, row_end)));
  }
  edge_offsets[static_cast<std::size_t>(num_edges)] = write;
  edge_pins.resize(write);

  if (has_vertex_weights) {
    for (std::uint64_t v = 0; v < num_vertices; ++v) {
      const LineSpan weight_line = spans[static_cast<std::size_t>(num_edges + v)];
      TokenScanner tokens(weight_line);
      std::int64_t w = -1;
      bool ok = tokens.next(tok);
      if (ok) {
        w = parse_i64(tok, "hMETIS vertex weight");
        ok = !tokens.next(tok);  // exactly one token
      }
      if (!ok || w < 0) {
        throw IoError("bad vertex weight line '" +
                      std::string(weight_line.view()) + "'");
      }
      vertex_weights[static_cast<std::size_t>(v)] = w;
    }
  }

  try {
    return Hypergraph::from_csr(std::move(edge_offsets), std::move(edge_pins),
                                std::move(vertex_weights),
                                std::move(edge_weights));
  } catch (const PreconditionError& e) {
    throw IoError(e.what());  // weight totals past the Weight range
  }
}

Hypergraph read_hmetis_file(const std::string& path) {
  const MappedFile file(path);
  return read_hmetis(file.view());
}

}  // namespace fhp
