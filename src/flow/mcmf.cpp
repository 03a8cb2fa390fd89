#include "flow/mcmf.h"

#include <algorithm>
#include <vector>

#include "audit/audit.h"
#include "common/logging.h"

namespace tango::flow {

namespace {
constexpr CostUnit kUnreached = std::numeric_limits<CostUnit>::max();
constexpr std::size_t Z(int v) { return static_cast<std::size_t>(v); }
}  // namespace

MinCostMaxFlow::MinCostMaxFlow(int num_nodes)
    : num_nodes_(num_nodes), out_(Z(num_nodes)) {
  TANGO_CHECK(num_nodes > 0, "graph needs at least one node");
}

int MinCostMaxFlow::AddArc(int from, int to, FlowUnit capacity,
                           CostUnit cost) {
  TANGO_CHECK(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_,
              "arc endpoints out of range: %d -> %d", from, to);
  TANGO_CHECK(capacity >= 0, "negative capacity");
  const int id = num_arcs();
  out_[Z(from)].push_back(2 * id);
  out_[Z(to)].push_back(2 * id + 1);
  arcs_.push_back({to, capacity, cost});
  arcs_.push_back({from, 0, -cost});
  capacity_.push_back(capacity);
  return id;
}

FlowUnit MinCostMaxFlow::Flow(int arc_id) const {
  // Flow on the forward arc equals the residual capacity of its reverse.
  return arcs_[Z(2 * arc_id + 1)].residual;
}

FlowUnit MinCostMaxFlow::Residual(int arc_id) const {
  return arcs_[Z(2 * arc_id)].residual;
}

void MinCostMaxFlow::ResetFlow() {
  for (int i = 0; i < num_arcs(); ++i) {
    arcs_[Z(2 * i)].residual = capacity_[Z(i)];
    arcs_[Z(2 * i + 1)].residual = 0;
  }
}

bool MinCostMaxFlow::ShortestPaths(std::vector<CostUnit>& dist,
                                   std::vector<int>& prev) const {
  prev.assign(Z(num_nodes_), -1);
  // Without a negative cycle every shortest path has at most num_nodes - 1
  // arcs, so some pass among the first num_nodes relaxes nothing.
  for (int pass = 0; pass < num_nodes_; ++pass) {
    bool relaxed = false;
    for (int u = 0; u < num_nodes_; ++u) {
      if (dist[Z(u)] == kUnreached) continue;
      for (const int e : out_[Z(u)]) {
        const Arc& arc = arcs_[Z(e)];
        if (arc.residual <= 0 || dist[Z(u)] + arc.cost >= dist[Z(arc.to)]) {
          continue;
        }
        dist[Z(arc.to)] = dist[Z(u)] + arc.cost;
        prev[Z(arc.to)] = e;
        relaxed = true;
      }
    }
    if (!relaxed) return true;
  }
  return false;
}

MinCostMaxFlow::Result MinCostMaxFlow::Solve(int source, int sink,
                                             FlowUnit amount) {
  TANGO_CHECK(source != sink, "source == sink");
  Result result;
  std::vector<CostUnit> dist;
  std::vector<int> prev;
  while (result.max_flow < amount) {
    dist.assign(Z(num_nodes_), kUnreached);
    dist[Z(source)] = 0;
    const bool settled = ShortestPaths(dist, prev);
    TANGO_CHECK(settled, "negative-cost cycle reachable from node %d",
                source);
    if (dist[Z(sink)] == kUnreached) break;
    FlowUnit push = amount - result.max_flow;
    for (int v = sink; v != source; v = TailOf(prev[Z(v)])) {
      push = std::min(push, arcs_[Z(prev[Z(v)])].residual);
    }
    for (int v = sink; v != source; v = TailOf(prev[Z(v)])) {
      const int e = prev[Z(v)];
      arcs_[Z(e)].residual -= push;
      arcs_[Z(e ^ 1)].residual += push;
      result.total_cost += push * arcs_[Z(e)].cost;
    }
    result.max_flow += push;
  }
  result.saturated = (result.max_flow == amount);
  if constexpr (audit::kEnabled) {
    AuditSolution(source, sink, result.max_flow, result.saturated);
  }
  return result;
}

void MinCostMaxFlow::AuditSolution(int source, int sink,
                                   FlowUnit expected_flow,
                                   bool saturated) const {
  std::vector<FlowUnit> net(Z(num_nodes_), 0);
  for (int i = 0; i < num_arcs(); ++i) {
    const FlowUnit flow = Flow(i);
    const FlowUnit residual = Residual(i);
    const FlowUnit cap = capacity_[Z(i)];
    AUDIT_CHECK(flow >= 0 && flow <= cap && residual + flow == cap,
                .subsystem = "flow", .invariant = "flow.capacity_respect",
                .detail = audit::Detail(
                    "arc %d: flow %lld residual %lld capacity %lld", i,
                    static_cast<long long>(flow),
                    static_cast<long long>(residual),
                    static_cast<long long>(cap)));
    net[Z(TailOf(2 * i))] += flow;
    net[Z(arcs_[Z(2 * i)].to)] -= flow;
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
  std::vector<CostUnit> dist(Z(num_nodes_), kUnreached);
  std::vector<int> prev;
  dist[Z(source)] = 0;
  ShortestPaths(dist, prev);  // only reachability; cycles are checked below
  // Max-flow certificate: an unsaturated solve means a saturated s-t cut.
  AUDIT_CHECK(saturated || dist[Z(sink)] == kUnreached,
              .subsystem = "flow", .invariant = "flow.maxflow_certificate",
              .detail = audit::Detail("solve stopped below the requested "
                                      "amount but the sink is still "
                                      "reachable in the residual graph"));
  // Optimality certificate: a flow is min-cost for its value iff its
  // residual graph has no negative-cost cycle. Starting every label at 0
  // finds one anywhere, not only where the source reaches.
  dist.assign(Z(num_nodes_), 0);
  const bool no_negative_cycle = ShortestPaths(dist, prev);
  AUDIT_CHECK(no_negative_cycle, .subsystem = "flow",
              .invariant = "flow.reduced_cost_optimality",
              .detail = audit::Detail("the residual graph has a "
                                      "negative-cost cycle"));
}

}  // namespace tango::flow
