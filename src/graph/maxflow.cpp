#include "graph/maxflow.hpp"

#include <algorithm>

namespace fhp {

namespace {

/// Relabel work charged per relabel on top of the slots it scans. A global
/// relabel (cost: nodes plus slots) runs once the relabel work since the
/// last one exceeds that cost.
constexpr std::uint64_t kRelabelCost = 12;

}  // namespace

FlowNetwork::FlowNetwork(Count num_nodes) {
  // Admission before allocation: a hostile or miscomputed node count must
  // fail typed, never wrap an id or demand count-proportional memory
  // first. (Count can represent values past kMaxIndexCount — the unsigned
  // range exceeds the signed Index range — so the check is meaningful on
  // both index widths.)
  FHP_REQUIRE(static_cast<std::uint64_t>(num_nodes) <= kMaxIndexCount,
              "flow network node count exceeds the index range");
  num_nodes_ = num_nodes;
}

Count FlowNetwork::add_arc(Count from, Count to, Capacity capacity) {
  FHP_REQUIRE(from < num_nodes() && to < num_nodes(),
              "arc endpoint out of range");
  FHP_REQUIRE(capacity >= 0, "arc capacity must be non-negative");
  FHP_REQUIRE(capacity <= kInfiniteCapacity,
              "arc capacity exceeds kInfiniteCapacity");
  FHP_REQUIRE(!solved_, "network already solved");
  // Arc ids must fit the index range with room for the residual partner
  // (ids id and id + 1).
  FHP_REQUIRE(2 * static_cast<std::uint64_t>(added_.size()) + 1 <=
                  kMaxIndexCount,
              "flow network arc count exceeds the index range");
  const auto id = static_cast<Count>(2 * added_.size());
  added_.push_back(AddedArc{from, to, capacity});
  return id;
}

void FlowNetwork::pack() {
  const Count n = num_nodes();
  first_.assign(static_cast<std::size_t>(n) + 1, 0);
  // Self-loops carry no s-t flow and never cross a cut: not packed.
  for (const AddedArc& arc : added_) {
    if (arc.from == arc.to) continue;
    ++first_[arc.from + 1];
    ++first_[arc.to + 1];
  }
  for (Count v = 0; v < n; ++v) first_[v + 1] += first_[v];
  slots_.resize(first_[n]);
  std::vector<Count> fill(first_.begin(), first_.end() - 1);
  for (const AddedArc& arc : added_) {
    if (arc.from == arc.to) continue;
    const Count forward = fill[arc.from]++;
    const Count backward = fill[arc.to]++;
    slots_[forward] = Slot{arc.to, backward, arc.capacity};
    slots_[backward] = Slot{arc.from, forward, 0};
  }
}

void FlowNetwork::global_relabel() {
  // Exact residual distances to the sink by a reverse BFS: node w gets
  // label d + 1 when its slot toward a node at distance d has residual
  // capacity. Nodes the BFS misses cannot reach the sink and are dead.
  const Count n = num_nodes();
  std::fill(label_.begin(), label_.end(), n);
  label_[sink_] = 0;
  bfs_.clear();
  bfs_.push_back(sink_);
  for (std::size_t pos = 0; pos < bfs_.size(); ++pos) {
    const Count u = bfs_[pos];
    const Count next = label_[u] + 1;
    for (Count a = first_[u]; a < first_[u + 1]; ++a) {
      const Slot& slot = slots_[a];
      if (label_[slot.to] == n && slots_[slot.partner].residual > 0) {
        label_[slot.to] = next;
        bfs_.push_back(slot.to);
      }
    }
  }
  std::copy(first_.begin(), first_.end() - 1, current_.begin());
  relabel_work_ = 0;
}

void FlowNetwork::discharge(Count node) {
  const Count n = num_nodes();
  const Count end = first_[node + 1];
  Capacity& excess = excess_[node];
  for (;;) {
    // Push along admissible slots (residual > 0, one label down).
    const Count down = label_[node] - 1;
    Count a = current_[node];
    for (; a < end; ++a) {
      Slot& slot = slots_[a];
      if (slot.residual == 0 || label_[slot.to] != down) continue;
      const Capacity delta = std::min(excess, slot.residual);
      slot.residual -= delta;
      slots_[slot.partner].residual += delta;
      if (excess_[slot.to] == 0 && slot.to != sink_) active_.push(slot.to);
      excess_[slot.to] += delta;
      excess -= delta;
      if (excess == 0) break;
    }
    if (excess == 0) {
      current_[node] = a;
      return;
    }
    // Relabel: one above the lowest residual neighbour, or dead.
    Count lowest = n;
    Count lowest_slot = end;
    for (a = first_[node]; a < end; ++a) {
      const Slot& slot = slots_[a];
      if (slot.residual > 0 && label_[slot.to] < lowest) {
        lowest = label_[slot.to];
        lowest_slot = a;
      }
    }
    relabel_work_ += kRelabelCost + (end - first_[node]);
    if (lowest + 1 >= n) {
      label_[node] = n;
      return;
    }
    label_[node] = lowest + 1;
    current_[node] = lowest_slot;
  }
}

FlowNetwork::Capacity FlowNetwork::max_flow(Count source, Count sink) {
  FHP_REQUIRE(source < num_nodes() && sink < num_nodes(),
              "terminal out of range");
  FHP_REQUIRE(source != sink, "source and sink must differ");
  FHP_REQUIRE(!solved_, "network already solved");
  // The arithmetic contract (maxflow.hpp): finite capacities sum below
  // kInfiniteCapacity. Each term is below 2^60, so the running sum cannot
  // overflow before the check sees it.
  Capacity finite = 0;
  for (const AddedArc& arc : added_) {
    if (arc.capacity == kInfiniteCapacity) continue;
    finite += arc.capacity;
    FHP_REQUIRE(finite < kInfiniteCapacity,
                "flow network capacity overflow: finite capacities sum to "
                "kInfiniteCapacity or more");
  }
  solved_ = true;
  source_ = source;
  sink_ = sink;
  pack();

  const Count n = num_nodes();
  excess_.assign(n, 0);
  label_.assign(n, n);
  current_.assign(n, 0);
  bfs_.reserve(n);
  // The bounded source excess stands in for a super-source arc of
  // capacity B = finite + 1 into the source.
  excess_[source] = finite + 1;
  global_relabel();
  active_.push(source);

  const std::uint64_t period = static_cast<std::uint64_t>(n) + slots_.size();
  while (!active_.empty()) {
    const Count u = active_.front();
    active_.pop();
    if (label_[u] >= n) continue;  // died at a global relabel; keeps excess
    discharge(u);
    if (relabel_work_ > period) global_relabel();
  }
  FHP_REQUIRE(excess_[sink] <= finite,
              "flow network has a source-sink path of uncuttable arcs");
  return excess_[sink];
}

std::vector<std::uint8_t> FlowNetwork::min_cut_side() const {
  FHP_REQUIRE(solved_, "call max_flow() first");
  // Seeds: the source and every dead node left holding excess (the sink
  // holds excess too, but it is never dead).
  const Count n = num_nodes();
  std::vector<std::uint8_t> side(n, 0);
  std::vector<Count> queue{source_};
  side[source_] = 1;
  for (Count v = 0; v < n; ++v) {
    if (excess_[v] > 0 && label_[v] >= n && side[v] == 0) {
      side[v] = 1;
      queue.push_back(v);
    }
  }
  for (std::size_t pos = 0; pos < queue.size(); ++pos) {
    const Count u = queue[pos];
    for (Count a = first_[u]; a < first_[u + 1]; ++a) {
      const Slot& slot = slots_[a];
      if (slot.residual > 0 && side[slot.to] == 0) {
        side[slot.to] = 1;
        queue.push_back(slot.to);
      }
    }
  }
  return side;
}

}  // namespace fhp
