// Min-cost max-flow by successive shortest augmenting paths with Johnson
// potentials: an initial Bellman-Ford (SPFA) pass admits negative edge
// costs, after which each augmentation runs Dijkstra on reduced costs. For
// integer MCNF instances it returns the optimum OR-Tools' SimpleMinCostFlow
// would (the paper's §5.2.2 dependency).
//
// DSS-LC does not run this solver: every graph Alg. 2 builds is a dispatch
// star, which sched::FillStar solves directly. The solver is kept as the
// test oracle for that greedy — the executable form of the paper's MCNF
// formulation — and for the audit's flow certificates.
//
// Arcs are described through AddArc in build order (logical id 2i forward,
// 2i+1 reverse) and lazily finalized into CSR-sorted structure-of-arrays
// (`head_[]` per-tail slot ranges over contiguous `csr_to_/csr_cap_/
// csr_cost_[]`), so every relaxation scans cache-linear memory. The counting
// sort fills each tail's slots in descending logical id, so equal-cost ties
// break towards the arc added first.
//
// Solvers are reusable: Reset(num_nodes) clears the graph while keeping every
// internal vector's heap storage, so a solver that is Reset and refilled with
// a same-shaped graph performs zero allocations; alloc_events() counts how
// often any internal buffer actually had to grow.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace tango::flow {

using FlowUnit = std::int64_t;
using CostUnit = std::int64_t;

constexpr CostUnit kInfCost = std::numeric_limits<CostUnit>::max() / 4;

class MinCostMaxFlow {
 public:
  /// An empty solver; call Reset(num_nodes) before adding arcs.
  MinCostMaxFlow() = default;

  /// Create a solver over `num_nodes` graph nodes (0-based indices).
  explicit MinCostMaxFlow(int num_nodes);

  /// Drop all arcs and resize to `num_nodes` nodes, retaining the heap
  /// storage of every internal vector so subsequent AddArc/Solve calls on a
  /// graph no larger than any previously-seen one allocate nothing.
  void Reset(int num_nodes);

  /// Pre-size arc storage for `num_arcs` forward arcs (e.g. the previous
  /// round's count) so AddArc never has to grow mid-build.
  void ReserveArcs(std::size_t num_arcs);

  /// Add a directed arc; returns an arc id usable with Flow(arc).
  /// Capacity must be >= 0. Cost may be negative.
  int AddArc(int from, int to, FlowUnit capacity, CostUnit cost);

  int num_nodes() const { return num_nodes_; }
  int num_arcs() const { return static_cast<int>(arc_to_.size()) / 2; }

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

  /// Reset all flow and potentials (keeps the graph).
  void ResetFlow();

  /// Times any internal vector's capacity grew (construction included).
  /// Flat across Reset/AddArc/Solve cycles ⇔ the solver is allocation-free.
  std::int64_t alloc_events() const { return alloc_events_; }

  /// Audit the last Solve's solution (§5.2): per-arc capacity respect, flow
  /// conservation at every interior node, the max-flow certificate (an
  /// unsaturated solve leaves the sink unreachable in the residual graph),
  /// and the reduced-cost optimality certificate (no residual arc reachable
  /// from `source` has negative reduced cost under the Johnson potentials).
  /// Solve() re-runs this automatically in audit builds; every check inside
  /// compiles to nothing when TANGO_AUDIT is off.
  void AuditSolution(int source, int sink, FlowUnit expected_flow,
                     bool saturated) const;

#if defined(TANGO_AUDIT)
  /// Seeded-bug hook for the audit death tests: clobber a forward arc's
  /// residual capacity so AuditSolution provably fires.
  void CorruptArcForTest(int arc_id, FlowUnit residual) {
    const auto l = static_cast<std::size_t>(2 * arc_id);
    if (finalized_) {
      csr_cap_[static_cast<std::size_t>(arc_slot_[l])] = residual;
    } else {
      arc_cap_[l] = residual;
    }
  }
#endif

 private:
  /// Build the CSR slot layout from the logical arc arrays. Within each
  /// tail, slots hold arcs in descending logical id, so relaxation order —
  /// and with it every tie-break — is fixed by build order.
  void Finalize();

  /// Re-open the graph for AddArc after a Finalize (copies residual caps
  /// back to the logical arrays).
  void Definalize();

  int TailOf(int slot) const {
    return arc_to_[static_cast<std::size_t>(csr_arc_[static_cast<std::size_t>(
                       slot)] ^
                   1)];
  }
  int RevSlot(int slot) const {
    return arc_slot_[static_cast<std::size_t>(
        csr_arc_[static_cast<std::size_t>(slot)] ^ 1)];
  }

  /// SPFA over positive-cap slots; sets potential_[v] to the exact shortest
  /// distance for every source-reachable v (cold start).
  void Spfa(int source);

  /// One SSP augmentation step: early-exit Dijkstra to the sink on reduced
  /// costs. On success stores the path in prev_slot_ and applies the capped
  /// potential update pi[v] += min(dist[v], dist[sink]).
  bool DijkstraToSink(int source, int sink);

  /// The successive-shortest-paths loop (potentials must already be valid).
  Result RunSsp(int source, int sink, FlowUnit amount);

  /// assign() that counts a capacity growth as an allocation event.
  template <class V, class T>
  void AssignCounted(V& v, std::size_t n, const T& value) {
    if (n > v.capacity()) ++alloc_events_;
    v.assign(n, value);
  }
  template <class V>
  void ReserveCounted(V& v, std::size_t n) {
    if (n > v.capacity()) {
      ++alloc_events_;
      // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
      v.reserve(n);
    }
  }

  int num_nodes_ = 0;

  // Logical (build-order) arc arrays: arc 2i is forward, 2i+1 its reverse.
  // arc_cap_ holds residual capacity only until Finalize; afterwards
  // csr_cap_ is the single source of truth.
  std::vector<int> arc_to_;
  std::vector<CostUnit> arc_cost_;
  std::vector<FlowUnit> arc_cap_;
  std::vector<FlowUnit> initial_cap_;  // per forward arc id

  // CSR/SoA layout (valid while finalized_): slots grouped by tail node,
  // head_[u]..head_[u+1] spanning node u's arcs.
  bool finalized_ = false;
  std::vector<int> head_;      // num_nodes + 1 prefix offsets
  std::vector<int> csr_arc_;   // slot -> logical arc id
  std::vector<int> arc_slot_;  // logical arc id -> slot
  std::vector<int> csr_to_;
  std::vector<FlowUnit> csr_cap_;
  std::vector<CostUnit> csr_cost_;
  std::vector<int> csr_cursor_;  // counting-sort scratch

  // Per-solve scratch kept across calls so Solve allocates nothing once the
  // buffers have grown to the working-set size. dist_/visited validity is
  // stamp-checked instead of cleared (O(touched) per Dijkstra, not O(n)).
  std::vector<CostUnit> potential_;
  std::vector<CostUnit> dist_;
  std::vector<int> prev_slot_;
  std::vector<std::uint64_t> dist_stamp_;
  std::vector<std::uint64_t> visited_stamp_;
  std::uint64_t stamp_ = 0;
  std::vector<int> spfa_queue_;
  std::vector<char> in_queue_;
  std::vector<std::pair<CostUnit, int>> heap_;

  std::int64_t alloc_events_ = 0;
};

}  // namespace tango::flow
