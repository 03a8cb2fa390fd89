// DSS-LC: Distributed Service request Scheduling for LC requests (§5.2,
// Algorithm 2).
//
// Per dispatch round and per request type k, Alg. 2 states a min-cost-flow
// instance G_k over the master (supply = pending requests) and the reachable
// workers (capacity t_i^k from Eq. 2, edge cost = one-way delay plus the
// estimated queueing delay) and routes every request at minimum total delay.
// When demand exceeds capacity (Σ t_i^k > 0), requests are split by the
// sorting policy ρ into an immediate set R_k (routed on G_k as above) and a
// queued set R'_k routed on Ĝ'_k, whose capacities come from *total* node
// resources scaled by the augmentation factor λ (Eqs. 7–8) so the backlog
// spreads proportionally to heterogeneous node sizes.
//
// Greedy star dispatch (DESIGN.md §9): every G_k and Ĝ'_k is a star
// source → master → workers → sink, and the min-cost flow of a star is a
// greedy fill in ascending (path cost, worker index) order. FillStar does
// exactly that, with no graph; plain successive-shortest-paths
// flow::MinCostMaxFlow stays as its test oracle.
//
// Round contract:
//   * types are routed in ascending service id, each on its own RNG stream
//     derived from (seed, service id, round index);
//   * every type sees the identical round-start view (snapshots plus the
//     dispatcher's commitments as of the top of the round); the round's own
//     commitments are applied after the last type;
//   * the round works in scheduler-owned scratch, so a steady-state round
//     allocates only the assignment vector Schedule returns.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "k8s/scheduling_api.h"
#include "scope/metrics.h"

namespace tango::sched {

/// ρ(·): how the overload split orders requests. The paper uses random
/// (all LC services share one priority) and notes the policy is pluggable.
enum class SplitPolicy { kRandom, kFifo, kDeadline };
const char* SplitPolicyName(SplitPolicy p);

struct DssLcConfig {
  /// Per-(master,worker) transmission capacity c_ij, in requests per round
  /// (Eq. 4's bound).
  std::int64_t edge_capacity = 4096;
  SplitPolicy split_policy = SplitPolicy::kRandom;
  std::uint64_t seed = 97;
  /// Record a wall-clock profile of each round's phases (round-start view,
  /// capacity view, split ordering, greedy fill, assignment/commit) into
  /// the scheduler's metric registry as "sched.phase.*_us", µs per round.
  /// Off by default: the extra steady_clock reads sit on the per-type path.
  bool profile_phases = false;
};

/// One filled worker of a star dispatch.
struct StarFill {
  std::int32_t worker = 0;  ///< index into the cost/cap arrays
  std::int64_t count = 0;   ///< units routed to it
};

/// (path cost, worker index): the order FillStar fills workers in.
using StarKey = std::pair<std::int64_t, std::int32_t>;

/// Exact min-cost dispatch of up to `amount` units over the star
/// source → master → workers → sink in which worker i's chain costs
/// cost[i], its master→worker arc carries min(cap[i], edge_capacity) and its
/// worker→sink arc cap[i] (caps ≥ 0). Fills workers in ascending
/// (cost, index) order, each taking min(remaining, edge_capacity, cap[i]) —
/// the order successive shortest paths augments a star in, so the
/// per-worker counts are SSP's. Replaces `fills` with the filled workers in
/// fill order and returns the units routed. `heap` is caller-owned scratch.
/// TANGO_AUDIT builds certify the result with AuditStarFill.
std::int64_t FillStar(std::span<const std::int64_t> cost,
                      std::span<const std::int64_t> cap, std::int64_t amount,
                      std::int64_t edge_capacity, std::vector<StarKey>& heap,
                      std::vector<StarFill>& fills);

/// FillStar's certificate: the counts sum to min(amount, Σ usable cap), no
/// worker gets more than min(cap, edge_capacity), and no worker with spare
/// capacity precedes a filled one in (cost, index) order. Compiles to
/// nothing unless TANGO_AUDIT is on.
void AuditStarFill(std::span<const std::int64_t> cost,
                   std::span<const std::int64_t> cap, std::int64_t amount,
                   std::int64_t edge_capacity,
                   std::span<const StarFill> fills);

class DssLcScheduler : public k8s::LcScheduler {
 public:
  DssLcScheduler(const workload::ServiceCatalog* catalog,
                 DssLcConfig cfg = {});

  std::vector<k8s::Assignment> Schedule(
      ClusterId cluster, const std::vector<k8s::PendingRequest>& queue,
      const metrics::StateStorage& storage, SimTime now) override;

  std::string name() const override { return "DSS-LC"; }
  double decision_seconds() const override { return decision_seconds_; }
  std::int64_t decisions() const override { return decisions_; }
  k8s::LcRoundStats last_round_stats() const override { return last_round_; }
  k8s::LcRoundStats total_round_stats() const override {
    return total_round_;
  }

  /// λ of the most recent overload split (0 when no split happened) —
  /// exposed for tests of Eq. 8.
  double last_lambda() const { return last_lambda_; }
  /// Total requests routed through the overflow graph Ĝ'_k so far.
  std::int64_t overflow_routed() const { return overflow_routed_; }

  /// The CPU (millicores) / memory (MiB) this dispatcher has committed to
  /// `node` and not yet decayed; exactly 0 once the decay evicted it.
  double committed_cpu(NodeId node) const {
    return CommitmentOf(committed_cpu_, node);
  }
  double committed_mem(NodeId node) const {
    return CommitmentOf(committed_mem_, node);
  }

  /// Per-scheduler metric registry: "sched.rounds"/"sched.assigned"/
  /// "sched.overflow" counters, the "sched.round_us" histogram and, when
  /// DssLcConfig::profile_phases is set, the "sched.phase.*_us" histograms
  /// (one µs sample per round and phase).
  scope::MetricRegistry& metrics() { return metrics_; }
  const scope::MetricRegistry& metrics() const { return metrics_; }

 private:
  /// Round-start view of one usable worker: the type-independent inputs of
  /// Eq. 2 / Eq. 7 and of the edge cost.
  struct WorkerView {
    NodeId node;
    Millicores cpu_for_lc = 0;  // §4.1 LC view minus our commitment
    MiB mem_for_lc = 0;
    Millicores cpu_total = 0;
    MiB mem_total = 0;
    int queued = 0;              // requests queued at the node
    double committed_cpu = 0.0;  // our not-yet-visible CPU commitment
    SimDuration half_rtt = 0;    // one-way transmission delay
  };

  /// One type's per-node commitment, applied after the round's last type.
  struct NodeCommit {
    NodeId node;
    double cpu = 0.0;
    double mem = 0.0;
  };

  enum Phase { kSnapshot, kCapacity, kSplit, kFill, kCommit, kNumPhases };

  static double CommitmentOf(const std::vector<double>& v, NodeId node) {
    const auto i = static_cast<std::size_t>(node.value);
    return node.valid() && i < v.size() ? v[i] : 0.0;
  }

  /// Multiply every commitment by the decay since the last round and evict
  /// (zero) the ones below the epsilon.
  void DecayCommitments(SimTime now);

  /// Liveness filter plus the round-start WorkerView of every usable
  /// worker; sizes the per-worker scratch.
  void BuildView(const metrics::StateStorage& storage,
                 k8s::LcRoundStats& round);

  /// Route one type's requests: capacity view, ρ ordering, greedy fill of
  /// G_k (and Ĝ'_k on overload), assignments appended to `out` and the
  /// type's commitments queued in round_commits_.
  void DispatchType(ServiceId svc,
                    const std::vector<const k8s::PendingRequest*>& requests,
                    std::uint64_t round, std::vector<k8s::Assignment>& out);

  /// Append one fill's assignments, worker by worker in `fills` order,
  /// taking requests from ordered_[first] on.
  void Emit(const std::vector<StarFill>& fills, std::size_t first,
            std::vector<k8s::Assignment>& out) const;

  /// TANGO_AUDIT post-round sweep: every target survived the liveness
  /// filter and no request is dispatched twice.
  void AuditRound(const std::vector<k8s::Assignment>& out,
                  std::size_t queued, SimTime now);

  /// Close the phase that ran since the previous lap (profile_phases only).
  void Lap(Phase phase);

  const workload::ServiceCatalog* catalog_;
  DssLcConfig cfg_;
  double decision_seconds_ = 0.0;
  std::int64_t decisions_ = 0;
  double last_lambda_ = 0.0;
  std::int64_t overflow_routed_ = 0;
  k8s::LcRoundStats last_round_;
  k8s::LcRoundStats total_round_;

  /// CPU/memory the dispatcher has committed per node (indexed by NodeId
  /// value) since the last state-storage refresh, decaying with the sync
  /// period: without it, every dispatch round between refreshes re-routes
  /// onto the same stale capacity. 0.0 means no commitment.
  std::vector<double> committed_cpu_;
  std::vector<double> committed_mem_;
  /// NodeId values with a nonzero commitment (any order): the decay walks
  /// only these.
  std::vector<std::int32_t> committed_live_;
  SimTime last_decay_ = 0;

  // Round scratch, owned here so steady-state rounds reuse its capacity.
  /// Queued requests by service id; walked in ascending id.
  std::vector<std::vector<const k8s::PendingRequest*>> buckets_;
  std::vector<WorkerView> view_;
  std::vector<std::int64_t> cap_;        // |t_i^k| on available resources
  std::vector<std::int64_t> total_cap_;  // on total resources (Ĝ'_k)
  std::vector<std::int64_t> ovf_cap_;    // ⌈total · λ⌉
  std::vector<std::int64_t> cost_;       // one-way delay + queueing, µs
  std::vector<const k8s::PendingRequest*> ordered_;  // ρ order
  std::vector<StarKey> heap_;
  std::vector<StarFill> fills_;      // G_k
  std::vector<StarFill> ovf_fills_;  // Ĝ'_k
  std::vector<NodeCommit> round_commits_;
  std::vector<std::int32_t> audit_ids_;  // TANGO_AUDIT sweep only
  double round_lambda_ = 0.0;
  bool round_overloaded_ = false;
  std::int64_t round_overflow_ = 0;

  std::array<double, kNumPhases> phase_us_{};
  std::chrono::steady_clock::time_point phase_mark_;

  /// TangoScope metrics (registered once in the constructor; pointers are
  /// stable for the registry's lifetime).
  scope::MetricRegistry metrics_;
  scope::Counter* m_rounds_ = nullptr;
  scope::Counter* m_assigned_ = nullptr;
  scope::Counter* m_overflow_ = nullptr;
  scope::Histogram* h_round_ = nullptr;
  std::array<scope::Histogram*, kNumPhases> h_phase_{};
};

}  // namespace tango::sched
