// Min-cost max-flow by successive shortest augmenting paths, in textbook
// form: each augmentation runs Bellman-Ford from the source over the arcs
// with residual capacity and pushes the bottleneck along the cheapest path.
// Costs may be negative as long as no cycle is; a negative-cost cycle
// aborts the solve. For integer MCNF instances it returns the optimum
// OR-Tools' SimpleMinCostFlow would (the paper's §5.2.2 dependency).
//
// DSS-LC does not run this solver: every graph Alg. 2 builds is a dispatch
// star, which sched::FillStar solves directly. The solver is kept as the
// test oracle for that greedy — the executable form of the paper's MCNF
// formulation — and for the audit's flow certificates, so it is written to
// be obviously correct rather than fast.
//
// Tie-break: Bellman-Ford scans nodes in index order and each node's arcs in
// AddArc order, relaxing only on strict improvement, so of two equal-cost
// paths the one that scan reaches first wins. On a dispatch star this fills
// workers in (cost, worker index) order, as FillStar does.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace tango::flow {

using FlowUnit = std::int64_t;
using CostUnit = std::int64_t;

class MinCostMaxFlow {
 public:
  /// Create a solver over `num_nodes` graph nodes (0-based indices).
  explicit MinCostMaxFlow(int num_nodes);

  /// Add a directed arc; returns an arc id usable with Flow(arc).
  /// Capacity must be >= 0. Cost may be negative.
  int AddArc(int from, int to, FlowUnit capacity, CostUnit cost);

  int num_nodes() const { return num_nodes_; }
  int num_arcs() const { return static_cast<int>(capacity_.size()); }

  struct Result {
    FlowUnit max_flow = 0;
    CostUnit total_cost = 0;
    bool saturated = false;  ///< true iff max_flow == requested amount
  };

  /// Push up to `amount` flow from `source` to `sink` at minimum cost.
  /// Pass kMaxFlow to compute the true max flow.
  static constexpr FlowUnit kMaxFlow =
      std::numeric_limits<FlowUnit>::max() / 4;
  Result Solve(int source, int sink, FlowUnit amount = kMaxFlow);

  /// Flow pushed through arc `arc_id` by the last Solve call.
  FlowUnit Flow(int arc_id) const;

  /// Residual capacity of arc `arc_id`.
  FlowUnit Residual(int arc_id) const;

  /// Remove all flow (keeps the graph).
  void ResetFlow();

  /// Audit the last Solve's solution (§5.2): per-arc capacity respect, flow
  /// conservation at every interior node, the source's outflow, the
  /// max-flow certificate (an unsaturated solve leaves the sink unreachable
  /// in the residual graph) and the optimality certificate (the residual
  /// graph has no negative-cost cycle). Solve() re-runs this automatically
  /// in audit builds; every check inside compiles to nothing when
  /// TANGO_AUDIT is off.
  void AuditSolution(int source, int sink, FlowUnit expected_flow,
                     bool saturated) const;

#if defined(TANGO_AUDIT)
  /// Seeded-bug hook for the audit death tests: clobber a forward arc's
  /// residual capacity so AuditSolution provably fires.
  void CorruptArcForTest(int arc_id, FlowUnit residual) {
    arcs_[static_cast<std::size_t>(2 * arc_id)].residual = residual;
  }
#endif

 private:
  struct Arc {
    int to;
    FlowUnit residual;
    CostUnit cost;
  };

  int TailOf(int arc) const {
    return arcs_[static_cast<std::size_t>(arc ^ 1)].to;
  }

  /// Bellman-Ford over the arcs with residual capacity from the start
  /// labels in `dist` (kUnreached: no path yet): lowers dist[v] to the cost
  /// of the cheapest path to v and sets prev[v] to its last arc. Returns
  /// false iff a negative-cost cycle keeps the labels from settling.
  bool ShortestPaths(std::vector<CostUnit>& dist,
                     std::vector<int>& prev) const;

  int num_nodes_;
  std::vector<Arc> arcs_;              ///< arc 2i is forward, 2i+1 its reverse
  std::vector<FlowUnit> capacity_;     ///< per forward arc, as added
  std::vector<std::vector<int>> out_;  ///< per node: its arcs in AddArc order
};

}  // namespace tango::flow
