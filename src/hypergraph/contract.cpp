#include "hypergraph/contract.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/rng.hpp"

namespace fhp {

namespace {

/// Order-independent hash of a sorted pin vector.
std::uint64_t hash_pins(const std::vector<VertexId>& pins) {
  std::uint64_t state = 0x51ed2701a3c5e891ULL + pins.size();
  for (VertexId v : pins) {
    state ^= v + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2);
    state = splitmix64(state);
  }
  return state;
}

}  // namespace

ContractionResult contract(const Hypergraph& h, std::vector<VertexId> cluster,
                           VertexId num_clusters) {
  FHP_REQUIRE(cluster.size() == h.num_vertices(),
              "one cluster id per fine vertex expected");
  FHP_REQUIRE(num_clusters >= 1, "need at least one cluster");
  for (VertexId c : cluster) {
    FHP_REQUIRE(c < num_clusters, "cluster id out of range");
  }

  HypergraphBuilder builder;
  builder.add_vertices(num_clusters);
  {
    std::vector<Weight> weights(num_clusters, 0);
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      weights[cluster[v]] += h.vertex_weight(v);
    }
    for (VertexId c = 0; c < num_clusters; ++c) {
      builder.set_vertex_weight(c, weights[c]);
    }
  }

  // Re-pin nets; coalesce identical coarse nets (hash + verify).
  std::unordered_map<std::uint64_t, std::vector<EdgeId>> buckets;
  std::vector<std::vector<VertexId>> net_pins;
  std::vector<Weight> net_weight;
  std::vector<VertexId> scratch;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    scratch.clear();
    for (VertexId v : h.pins(e)) scratch.push_back(cluster[v]);
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    if (scratch.size() < 2) continue;

    const std::uint64_t key = hash_pins(scratch);
    bool merged = false;
    for (EdgeId candidate : buckets[key]) {
      if (net_pins[candidate] == scratch) {
        net_weight[candidate] += h.edge_weight(e);
        merged = true;
        break;
      }
    }
    if (!merged) {
      buckets[key].push_back(static_cast<EdgeId>(net_pins.size()));
      net_pins.push_back(scratch);
      net_weight.push_back(h.edge_weight(e));
    }
  }
  for (std::size_t i = 0; i < net_pins.size(); ++i) {
    builder.add_edge(std::span<const VertexId>(net_pins[i]), net_weight[i]);
  }

  ContractionResult result;
  result.hypergraph = std::move(builder).build();
  result.cluster = std::move(cluster);
  return result;
}

}  // namespace fhp
