#include "flow/mcmf.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "audit/audit.h"
#include "common/logging.h"
#include "common/vet.h"

namespace tango::flow {

namespace {
constexpr std::size_t Z(int v) { return static_cast<std::size_t>(v); }
}  // namespace

MinCostMaxFlow::MinCostMaxFlow(int num_nodes) { Reset(num_nodes); }

TANGO_COLD void MinCostMaxFlow::Reset(int num_nodes) {
  TANGO_CHECK(num_nodes > 0, "graph needs at least one node");
  num_nodes_ = num_nodes;
  const auto n = Z(num_nodes);
  arc_to_.clear();
  arc_cost_.clear();
  arc_cap_.clear();
  initial_cap_.clear();
  finalized_ = false;
  stamp_ = 0;
  AssignCounted(head_, n + 1, 0);
  AssignCounted(csr_cursor_, n, 0);
  AssignCounted(potential_, n, CostUnit{0});
  AssignCounted(dist_, n, kInfCost);
  AssignCounted(prev_slot_, n, -1);
  AssignCounted(dist_stamp_, n, std::uint64_t{0});
  AssignCounted(visited_stamp_, n, std::uint64_t{0});
  AssignCounted(in_queue_, n, char{0});
  // SPFA ring buffer: a node is enqueued at most once at a time, so
  // num_nodes + 1 slots always suffice.
  AssignCounted(spfa_queue_, n + 1, 0);
}

void MinCostMaxFlow::ReserveArcs(std::size_t num_arcs) {
  ReserveCounted(arc_to_, 2 * num_arcs);
  ReserveCounted(arc_cost_, 2 * num_arcs);
  ReserveCounted(arc_cap_, 2 * num_arcs);
  ReserveCounted(initial_cap_, num_arcs);
  ReserveCounted(csr_arc_, 2 * num_arcs);
  ReserveCounted(arc_slot_, 2 * num_arcs);
  ReserveCounted(csr_to_, 2 * num_arcs);
  ReserveCounted(csr_cap_, 2 * num_arcs);
  ReserveCounted(csr_cost_, 2 * num_arcs);
  // Dijkstra pushes at most once per successful relaxation, so the heap
  // never outgrows the residual arc count (+1 for the source seed).
  ReserveCounted(heap_, 2 * num_arcs + 1);
}

TANGO_COLD int MinCostMaxFlow::AddArc(int from, int to, FlowUnit capacity,
                           CostUnit cost) {
  TANGO_CHECK(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_,
              "arc endpoints out of range: %d -> %d", from, to);
  TANGO_CHECK(capacity >= 0, "negative capacity");
  if (finalized_) Definalize();
  const int id = static_cast<int>(arc_to_.size());
  if (arc_to_.size() + 2 > arc_to_.capacity()) ++alloc_events_;
  if (arc_cost_.size() + 2 > arc_cost_.capacity()) ++alloc_events_;
  if (arc_cap_.size() + 2 > arc_cap_.capacity()) ++alloc_events_;
  if (initial_cap_.size() + 1 > initial_cap_.capacity()) ++alloc_events_;
  arc_to_.push_back(to);
  arc_to_.push_back(from);
  arc_cost_.push_back(cost);
  arc_cost_.push_back(-cost);
  arc_cap_.push_back(capacity);
  arc_cap_.push_back(0);
  initial_cap_.push_back(capacity);
  return id / 2;
}

TANGO_COLD void MinCostMaxFlow::Finalize() {
  const auto n = Z(num_nodes_);
  const std::size_t num_logical = arc_to_.size();
  AssignCounted(head_, n + 1, 0);
  AssignCounted(csr_cursor_, n, 0);
  for (std::size_t l = 0; l < num_logical; ++l) {
    ++head_[Z(arc_to_[l ^ 1]) + 1];
  }
  for (std::size_t u = 0; u < n; ++u) {
    head_[u + 1] += head_[u];
    csr_cursor_[u] = head_[u];
  }
  AssignCounted(csr_arc_, num_logical, 0);
  AssignCounted(arc_slot_, num_logical, 0);
  AssignCounted(csr_to_, num_logical, 0);
  AssignCounted(csr_cap_, num_logical, FlowUnit{0});
  AssignCounted(csr_cost_, num_logical, CostUnit{0});
  // Fill each tail's slots with its arcs in descending logical id, which
  // fixes relaxation order — and every tie-break — by build order.
  for (std::size_t li = num_logical; li > 0; --li) {
    const std::size_t l = li - 1;
    const int tail = arc_to_[l ^ 1];
    const int slot = csr_cursor_[Z(tail)]++;
    csr_arc_[Z(slot)] = static_cast<int>(l);
    arc_slot_[l] = slot;
    csr_to_[Z(slot)] = arc_to_[l];
    csr_cap_[Z(slot)] = arc_cap_[l];
    csr_cost_[Z(slot)] = arc_cost_[l];
  }
  ReserveCounted(heap_, num_logical + 1);
  finalized_ = true;
}

void MinCostMaxFlow::Definalize() {
  for (std::size_t l = 0; l < arc_to_.size(); ++l) {
    arc_cap_[l] = csr_cap_[Z(arc_slot_[l])];
  }
  finalized_ = false;
}

FlowUnit MinCostMaxFlow::Flow(int arc_id) const {
  // Flow on the forward arc equals the residual capacity of its reverse.
  const auto rev = Z(2 * arc_id + 1);
  return finalized_ ? csr_cap_[Z(arc_slot_[rev])] : arc_cap_[rev];
}

FlowUnit MinCostMaxFlow::Residual(int arc_id) const {
  const auto fwd = Z(2 * arc_id);
  return finalized_ ? csr_cap_[Z(arc_slot_[fwd])] : arc_cap_[fwd];
}

void MinCostMaxFlow::ResetFlow() {
  if (finalized_) {
    for (std::size_t s = 0; s < csr_arc_.size(); ++s) {
      const int l = csr_arc_[s];
      csr_cap_[s] = (l & 1) != 0 ? FlowUnit{0} : initial_cap_[Z(l / 2)];
    }
  } else {
    for (std::size_t i = 0; i < initial_cap_.size(); ++i) {
      arc_cap_[2 * i] = initial_cap_[i];
      arc_cap_[2 * i + 1] = 0;
    }
  }
  std::fill(potential_.begin(), potential_.end(), CostUnit{0});
}

void MinCostMaxFlow::Spfa(int source) {
  ++stamp_;
  std::fill(in_queue_.begin(), in_queue_.end(), char{0});
  dist_[Z(source)] = 0;
  dist_stamp_[Z(source)] = stamp_;
  // SPFA queue-based relaxation over the preallocated ring buffer.
  const std::size_t ring = spfa_queue_.size();
  std::size_t qhead = 0, qtail = 0;
  spfa_queue_[qtail] = source;
  qtail = (qtail + 1) % ring;
  in_queue_[Z(source)] = 1;
  while (qhead != qtail) {
    const int u = spfa_queue_[qhead];
    qhead = (qhead + 1) % ring;
    in_queue_[Z(u)] = 0;
    const CostUnit du = dist_[Z(u)];
    const int end = head_[Z(u) + 1];
    for (int s = head_[Z(u)]; s < end; ++s) {
      if (csr_cap_[Z(s)] <= 0) continue;
      const int v = csr_to_[Z(s)];
      const CostUnit nd = du + csr_cost_[Z(s)];
      if (dist_stamp_[Z(v)] != stamp_ || nd < dist_[Z(v)]) {
        dist_[Z(v)] = nd;
        dist_stamp_[Z(v)] = stamp_;
        if (in_queue_[Z(v)] == 0) {
          spfa_queue_[qtail] = v;
          qtail = (qtail + 1) % ring;
          in_queue_[Z(v)] = 1;
        }
      }
    }
  }
  // Exact shortest distances become the working potentials.
  for (std::size_t v = 0; v < Z(num_nodes_); ++v) {
    if (dist_stamp_[v] == stamp_) potential_[v] = dist_[v];
  }
}

bool MinCostMaxFlow::DijkstraToSink(int source, int sink) {
  ++stamp_;
  heap_.clear();
  dist_[Z(source)] = 0;
  dist_stamp_[Z(source)] = stamp_;
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  heap_.emplace_back(0, source);
  CostUnit dist_sink = kInfCost;
  while (!heap_.empty()) {
    const auto [d, u] = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    if (visited_stamp_[Z(u)] == stamp_) continue;
    visited_stamp_[Z(u)] = stamp_;
    if (u == sink) {
      // Early exit: the sink is finalized, so its label — and the shortest
      // augmenting path recorded in prev_slot_ — can no longer change.
      dist_sink = d;
      break;
    }
    const int end = head_[Z(u) + 1];
    for (int s = head_[Z(u)]; s < end; ++s) {
      if (csr_cap_[Z(s)] <= 0) continue;
      const int v = csr_to_[Z(s)];
      if (visited_stamp_[Z(v)] == stamp_) continue;
      const CostUnit reduced =
          csr_cost_[Z(s)] + potential_[Z(u)] - potential_[Z(v)];
      if constexpr (audit::kEnabled) {
        TANGO_CHECK(reduced >= 0, "negative reduced cost %lld",
                    static_cast<long long>(reduced));
      }
      const CostUnit nd = d + reduced;
      if (dist_stamp_[Z(v)] != stamp_ || nd < dist_[Z(v)]) {
        dist_[Z(v)] = nd;
        dist_stamp_[Z(v)] = stamp_;
        prev_slot_[Z(v)] = s;
        if (heap_.size() + 1 > heap_.capacity()) ++alloc_events_;
        // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    }
  }
  if (dist_sink >= kInfCost) return false;
  // Capped potential update pi(v) += min(dist(v), dist(sink)): every node
  // settled before the sink has its exact distance, every other node's
  // distance is at least dist(sink), so capping keeps all residual reduced
  // costs non-negative without the labels the early exit never computed.
  for (std::size_t v = 0; v < Z(num_nodes_); ++v) {
    const bool labeled =
        dist_stamp_[v] == stamp_ && dist_[v] < dist_sink;
    potential_[v] += labeled ? dist_[v] : dist_sink;
  }
  return true;
}

MinCostMaxFlow::Result MinCostMaxFlow::RunSsp(int source, int sink,
                                              FlowUnit amount) {
  Result result;
  while (result.max_flow < amount) {
    if (!DijkstraToSink(source, sink)) break;
    // Find bottleneck along the shortest path.
    FlowUnit push = amount - result.max_flow;
    for (int v = sink; v != source;) {
      const int s = prev_slot_[Z(v)];
      push = std::min(push, csr_cap_[Z(s)]);
      v = TailOf(s);
    }
    // Apply it.
    for (int v = sink; v != source;) {
      const int s = prev_slot_[Z(v)];
      csr_cap_[Z(s)] -= push;
      csr_cap_[Z(RevSlot(s))] += push;
      result.total_cost += push * csr_cost_[Z(s)];
      v = TailOf(s);
    }
    result.max_flow += push;
  }
  result.saturated = (result.max_flow == amount);
  return result;
}

MinCostMaxFlow::Result MinCostMaxFlow::Solve(int source, int sink,
                                             FlowUnit amount) {
  TANGO_CHECK(source != sink, "source == sink");
  TANGO_CHECK(num_nodes_ > 0, "Reset(num_nodes) before Solve");
  if (!finalized_) Finalize();
  // Admit negative costs once, then switch to Dijkstra on reduced costs.
  Spfa(source);
  const Result result = RunSsp(source, sink, amount);
  if constexpr (audit::kEnabled) {
    AuditSolution(source, sink, result.max_flow, result.saturated);
  }
  return result;
}

TANGO_COLD void MinCostMaxFlow::AuditSolution(int source, int sink,
                                   FlowUnit expected_flow,
                                   bool saturated) const {
  if (!finalized_) return;
  // Scratch lives locally: this sweep only runs in audit builds, where the
  // zero-steady-state-allocation contract is deliberately suspended.
  const auto n = Z(num_nodes_);
  std::vector<FlowUnit> net(n, 0);
  for (int i = 0; i < num_arcs(); ++i) {
    const auto fwd = Z(2 * i);
    const FlowUnit flow = csr_cap_[Z(arc_slot_[fwd ^ 1])];
    const FlowUnit residual = csr_cap_[Z(arc_slot_[fwd])];
    const FlowUnit cap = initial_cap_[Z(i)];
    AUDIT_CHECK(flow >= 0 && flow <= cap && residual + flow == cap,
                .subsystem = "flow", .invariant = "flow.capacity_respect",
                .detail = audit::Detail(
                    "arc %d: flow %lld residual %lld capacity %lld", i,
                    static_cast<long long>(flow),
                    static_cast<long long>(residual),
                    static_cast<long long>(cap)));
    const int from = arc_to_[fwd ^ 1];
    const int to = arc_to_[fwd];
    net[Z(from)] += flow;
    net[Z(to)] -= flow;
  }
  for (int v = 0; v < num_nodes_; ++v) {
    if (v == source || v == sink) continue;
    AUDIT_CHECK(net[Z(v)] == 0, .subsystem = "flow",
                .invariant = "flow.conservation",
                .detail = audit::Detail("node %d: net outflow %lld", v,
                                        static_cast<long long>(net[Z(v)])));
  }
  AUDIT_CHECK(net[Z(source)] == expected_flow,
              .subsystem = "flow", .invariant = "flow.source_outflow",
              .detail = audit::Detail("source pushes %lld, solver reported "
                                      "%lld",
                                      static_cast<long long>(net[Z(source)]),
                                      static_cast<long long>(expected_flow)));
  // Residual reachability from the source (DFS over a local stack).
  std::vector<char> reach(n, 0);
  std::vector<int> stack = {source};
  reach[Z(source)] = 1;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    const int end = head_[Z(u) + 1];
    for (int s = head_[Z(u)]; s < end; ++s) {
      if (csr_cap_[Z(s)] <= 0 || reach[Z(csr_to_[Z(s)])] != 0) continue;
      reach[Z(csr_to_[Z(s)])] = 1;
      stack.push_back(csr_to_[Z(s)]);
    }
  }
  // Max-flow certificate: an unsaturated solve means a saturated s-t cut.
  AUDIT_CHECK(saturated || reach[Z(sink)] == 0,
              .subsystem = "flow", .invariant = "flow.maxflow_certificate",
              .detail = audit::Detail("solve stopped below the requested "
                                      "amount but the sink is still "
                                      "reachable in the residual graph"));
  // Cost-optimality certificate: Johnson potentials stay feasible on the
  // source-reachable residual subgraph, which certifies no negative residual
  // cycle (the solution cost cannot be improved).
  for (std::size_t l = 0; l < arc_to_.size(); ++l) {
    const FlowUnit cap = csr_cap_[Z(arc_slot_[l])];
    const int from = arc_to_[l ^ 1];
    if (cap <= 0 || reach[Z(from)] == 0) continue;
    const CostUnit reduced =
        arc_cost_[l] + potential_[Z(from)] - potential_[Z(arc_to_[l])];
    AUDIT_CHECK(reduced >= 0, .subsystem = "flow",
                .invariant = "flow.reduced_cost_optimality",
                .detail = audit::Detail(
                    "residual arc %d -> %d has reduced cost %lld", from,
                    arc_to_[l], static_cast<long long>(reduced)));
  }
}

}  // namespace tango::flow
