/// \file intersection.hpp
/// Construction of the intersection graph G dual to a netlist hypergraph H
/// (paper §2): one G-vertex per net of H, two G-vertices adjacent iff the
/// nets share a module. G-vertex i corresponds to edge i of H.
#pragma once

#include "graph/graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "util/parallel.hpp"

namespace fhp {

/// Builds the intersection graph of \p h with the two-pass counting
/// construction: per-net degree counting (64-bit dedup stamps, one marker
/// array per lane), a prefix sum into CSR offsets, then a fill pass with a
/// per-row sort only. Cost is O(sum over modules of degree^2) — for
/// bounded module degree (the regime the paper analyses and the reason for
/// its large-net filter, which callers apply to \p h beforehand) this is
/// O(pins) — with no candidate-pair materialization and no global sort.
/// \p pool shards the net range across lanes (null or a 1-lane pool runs
/// serially); the CSR is bit-identical to intersection_graph_reference()
/// at any lane count (test-enforced).
[[nodiscard]] Graph intersection_graph(const Hypergraph& h,
                                       ThreadPool* pool = nullptr);

/// Reference builder (the pre-optimization pipeline): emit every candidate
/// pair per module, shard-locally dedup, globally sort + unique, then
/// assemble the CSR. Kept as the differential-testing oracle for the
/// counting build and as the baseline leg of bench_hotpath; its output is
/// bit-identical to intersection_graph() by construction and by test.
/// Module ranges are chunked by size only, so the shard layout (and after
/// global canonicalization the CSR) is the same at any lane count.
[[nodiscard]] Graph intersection_graph_reference(const Hypergraph& h,
                                                 ThreadPool* pool = nullptr);

}  // namespace fhp
