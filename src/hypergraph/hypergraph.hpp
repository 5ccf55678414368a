/// \file hypergraph.hpp
/// Immutable CSR hypergraph: the netlist model of the paper.
///
/// Vertices model circuit modules, hyperedges model signal nets; each net is
/// a set of distinct modules ("pins"). Both directions of incidence are
/// stored in compressed sparse row form so that `pins(e)` and `nets_of(v)`
/// are O(1) span lookups — the intersection-graph construction and all cut
/// metrics iterate these heavily.
#pragma once

#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/ids.hpp"

namespace fhp {

/// Immutable weighted hypergraph. Build instances via HypergraphBuilder or
/// the from_edges() convenience factory; an already-built hypergraph never
/// changes (transforms produce new hypergraphs).
class Hypergraph {
 public:
  /// Empty hypergraph (no vertices, no edges).
  Hypergraph() = default;

  /// Convenience factory: unit-weight hypergraph over \p num_vertices
  /// vertices with the given pin lists. Pins must be valid vertex ids;
  /// duplicate pins within an edge are merged. Zero-pin edges are rejected
  /// (see HypergraphBuilder::add_edge and docs/formats.md).
  [[nodiscard]] static Hypergraph from_edges(
      VertexId num_vertices, const std::vector<std::vector<VertexId>>& edges);

  /// Adopts a prebuilt edge CSR without copying: \p edge_offsets has
  /// num_edges + 1 entries with edge_offsets[0] == 0 and
  /// edge_offsets.back() == edge_pins.size(); each row
  /// [edge_offsets[e], edge_offsets[e+1]) must be sorted ascending, free
  /// of duplicates, and reference vertices below vertex_weights.size().
  /// The streaming parsers produce rows in exactly this form, skipping the
  /// per-edge vector staging of HypergraphBuilder entirely. The inverse
  /// incidence is derived here by counting sort. Row preconditions are
  /// checked in debug builds only; size/shape preconditions and the
  /// weight totals (each must fit in Weight) always.
  [[nodiscard]] static Hypergraph from_csr(
      std::vector<std::size_t> edge_offsets, std::vector<VertexId> edge_pins,
      std::vector<Weight> vertex_weights, std::vector<Weight> edge_weights);

  /// Number of modules.
  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(vertex_offsets_.empty()
                                     ? 0
                                     : vertex_offsets_.size() - 1);
  }
  /// Number of nets.
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(edge_offsets_.empty() ? 0
                                                     : edge_offsets_.size() - 1);
  }
  /// Total pin count (sum of edge sizes).
  [[nodiscard]] std::size_t num_pins() const noexcept {
    return edge_pins_.size();
  }

  /// Pins (modules) of net \p e, sorted ascending.
  [[nodiscard]] std::span<const VertexId> pins(EdgeId e) const {
    FHP_DEBUG_ASSERT(e < num_edges(), "edge id out of range");
    return {edge_pins_.data() + edge_offsets_[e],
            edge_pins_.data() + edge_offsets_[e + 1]};
  }
  /// Number of pins of net \p e.
  [[nodiscard]] Count edge_size(EdgeId e) const {
    FHP_DEBUG_ASSERT(e < num_edges(), "edge id out of range");
    return static_cast<Count>(edge_offsets_[e + 1] - edge_offsets_[e]);
  }
  /// Nets incident to module \p v, sorted ascending.
  [[nodiscard]] std::span<const EdgeId> nets_of(VertexId v) const {
    FHP_DEBUG_ASSERT(v < num_vertices(), "vertex id out of range");
    return {vertex_edges_.data() + vertex_offsets_[v],
            vertex_edges_.data() + vertex_offsets_[v + 1]};
  }
  /// Number of nets incident to module \p v (its degree).
  [[nodiscard]] Count degree(VertexId v) const {
    FHP_DEBUG_ASSERT(v < num_vertices(), "vertex id out of range");
    return static_cast<Count>(vertex_offsets_[v + 1] - vertex_offsets_[v]);
  }

  /// Weight (e.g. area) of module \p v.
  [[nodiscard]] Weight vertex_weight(VertexId v) const {
    FHP_DEBUG_ASSERT(v < num_vertices(), "vertex id out of range");
    return vertex_weights_[v];
  }
  /// Weight of net \p e (cut cost contribution).
  [[nodiscard]] Weight edge_weight(EdgeId e) const {
    FHP_DEBUG_ASSERT(e < num_edges(), "edge id out of range");
    return edge_weights_[e];
  }
  /// Sum of all module weights.
  [[nodiscard]] Weight total_vertex_weight() const noexcept {
    return total_vertex_weight_;
  }
  /// Sum of all net weights.
  [[nodiscard]] Weight total_edge_weight() const noexcept {
    return total_edge_weight_;
  }
  /// Largest net size (0 for an edgeless hypergraph).
  [[nodiscard]] Count max_edge_size() const noexcept { return max_edge_size_; }
  /// Largest module degree (0 for a vertexless hypergraph).
  [[nodiscard]] Count max_degree() const noexcept { return max_degree_; }
  /// True if every edge has exactly two pins, i.e. the hypergraph is a
  /// plain graph (the paper's definition in §1).
  [[nodiscard]] bool is_graph() const noexcept;

  /// Full structural self-check (CSR consistency, sortedness, weights);
  /// aborts on violation. Intended for tests and post-transform paranoia.
  void validate() const;

  /// 128-bit content fingerprint: two independently seeded 64-bit mixing
  /// lanes absorbed over the shape and the edge CSR + weight arrays.
  struct Fingerprint {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    bool operator==(const Fingerprint&) const = default;
  };

  /// Content hash of this hypergraph: two structurally identical
  /// hypergraphs (same vertex/edge counts, pin rows, and weights) have
  /// equal fingerprints no matter how they were built (builder, from_csr,
  /// either parser stack) or which index width the build uses — every
  /// absorbed word is widened to 64 bits first, so a 32-bit client and a
  /// 64-bit server agree. O(pins + vertices + edges); nothing is cached,
  /// callers that key caches on it (the serving layer's result cache,
  /// docs/serving.md) compute it once per ingest.
  [[nodiscard]] Fingerprint fingerprint() const noexcept;

 private:
  friend class HypergraphBuilder;

  /// Derives the inverse incidence, weight totals and maxima from the edge
  /// CSR + weight vectors already moved into place. Shared tail of
  /// HypergraphBuilder::build() and from_csr().
  void finalize_from_edge_csr();

  std::vector<std::size_t> edge_offsets_{0};    // size num_edges+1
  std::vector<VertexId> edge_pins_;             // size num_pins
  std::vector<std::size_t> vertex_offsets_{0};  // size num_vertices+1
  std::vector<EdgeId> vertex_edges_;            // size num_pins
  std::vector<Weight> vertex_weights_;
  std::vector<Weight> edge_weights_;
  Weight total_vertex_weight_ = 0;
  Weight total_edge_weight_ = 0;
  Count max_edge_size_ = 0;
  Count max_degree_ = 0;
};

/// Incremental constructor for Hypergraph. Typical use:
///
///   HypergraphBuilder b;
///   b.add_vertices(12);
///   b.add_edge({0, 1, 10});
///   Hypergraph h = std::move(b).build();
class HypergraphBuilder {
 public:
  /// Adds one module of weight \p weight (default 1); returns its id.
  VertexId add_vertex(Weight weight = 1);
  /// Adds \p count unit-weight modules; returns the id of the first.
  VertexId add_vertices(VertexId count);
  /// Adds a net over \p pins with weight \p weight; duplicate pins are
  /// merged. All pins must reference vertices already added. Zero-pin nets
  /// are rejected (they are unrepresentable in hMETIS and silently break
  /// write/read round-trips) unless allow_empty_edges() opted in. Returns
  /// the new net's id.
  EdgeId add_edge(std::span<const VertexId> pins, Weight weight = 1);
  /// Initializer-list convenience overload.
  EdgeId add_edge(std::initializer_list<VertexId> pins, Weight weight = 1);

  /// Opts in to zero-pin nets (for experiments that need them; the text
  /// writers still refuse to serialize such hypergraphs). Returns *this.
  HypergraphBuilder& allow_empty_edges(bool allow = true) noexcept {
    allow_empty_edges_ = allow;
    return *this;
  }

  /// Overrides the weight of an existing vertex.
  void set_vertex_weight(VertexId v, Weight weight);

  /// Number of vertices added so far.
  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(vertex_weights_.size());
  }
  /// Number of edges added so far.
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(edge_weights_.size());
  }

  /// Finalizes into an immutable Hypergraph. The builder is consumed.
  /// Throws PreconditionError when the module or net weights sum past
  /// the Weight range.
  [[nodiscard]] Hypergraph build() &&;

 private:
  std::vector<std::size_t> edge_offsets_{0};
  std::vector<VertexId> edge_pins_;
  std::vector<Weight> vertex_weights_;
  std::vector<Weight> edge_weights_;
  bool allow_empty_edges_ = false;
};

}  // namespace fhp
