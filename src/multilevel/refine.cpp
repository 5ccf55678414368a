#include "multilevel/refine.hpp"

#include "baselines/fm.hpp"
#include "partition/partition.hpp"

namespace fhp::ml {

namespace {

/// Marks the cut frontier free (0) and the interior fixed (1): every pin
/// of every cut net, expanded by one hop (all pins sharing a net with a
/// frontier pin) so FM has room for the short excursions its best-prefix
/// rollback thrives on. Returns false when no net is cut.
bool boundary_mask(const Bipartition& p, std::vector<std::uint8_t>& fixed,
                   std::vector<VertexId>& frontier) {
  const Hypergraph& h = p.hypergraph();
  fixed.assign(h.num_vertices(), 1);
  frontier.clear();
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    if (!p.is_cut(e)) continue;
    for (VertexId v : h.pins(e)) {
      if (fixed[v]) {
        fixed[v] = 0;
        frontier.push_back(v);
      }
    }
  }
  if (frontier.empty()) return false;
  for (const VertexId v : frontier) {
    for (EdgeId e : h.nets_of(v)) {
      for (VertexId u : h.pins(e)) fixed[u] = 0;
    }
  }
  return true;
}

}  // namespace

Weight FmRefiner::refine(const Hypergraph& h,
                         std::vector<std::uint8_t>& sides,
                         std::uint64_t /*seed*/) {
  FmCore fm(h, sides);  // rejects malformed sides before anything reads them
  if (h.num_vertices() < 2 || options_.max_passes <= 0) return 0;
  const Bipartition& p = fm.partition();
  const Weight before = p.cut_weight();

  if (h.num_vertices() <= kFullFmThreshold) {
    fm.run(0, options_.max_passes);
  } else {
    // Boundary mode: each round runs FM with every vertex off the cut
    // frontier fixed, then recomputes the frontier — moves shift the
    // boundary, so the candidate set follows it round over round. A round
    // that does not lower the cut is taken back and ends the refinement.
    std::vector<std::uint8_t> fixed;
    std::vector<VertexId> frontier;
    for (int round = 0; round < options_.max_passes; ++round) {
      if (!boundary_mask(p, fixed, frontier)) break;
      const Weight current = p.cut_weight();
      fm.run(0, options_.max_passes, fixed);
      if (p.cut_weight() >= current) {
        fm.undo_last_run();
        break;
      }
    }
  }
  sides = p.sides();
  return before - p.cut_weight();
}

}  // namespace fhp::ml
