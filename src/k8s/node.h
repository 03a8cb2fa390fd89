// Worker node: executes service requests under processor-sharing CPU
// semantics, with admission, queuing, eviction, and vertical-scaling latency
// delegated to the installed AllocationPolicy.
//
// Execution model: each admitted request carries remaining CPU work in
// millicore-microseconds. Whenever the running set or the grants change, the
// node re-accounts progress and reschedules completion events — the standard
// processor-sharing discrete-event pattern. Memory is held for a request's
// whole residency; CPU grants are recomputed instantaneously (compressible
// vs incompressible resources, §4.1).
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "cgroup/cgroup.h"
#include "k8s/allocation.h"
#include "metrics/state_storage.h"
#include "scope/scope.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace tango::storm {
class InterferenceModel;
}  // namespace tango::storm

namespace tango::k8s {

/// Emitted when a request finishes on a node.
struct CompletionInfo {
  workload::Request request;
  NodeId node;
  SimTime node_arrival = 0;   // when the request reached this node
  SimTime exec_start = 0;     // when it was admitted
  SimTime completed = 0;
};

struct NodeTunables {
  /// LC requests not started by arrival + factor×γ are abandoned.
  double lc_abandon_factor = 2.0;
  /// BE requests still queued after this long bounce back for
  /// rescheduling (§5.3.2's "returned to the scheduling queue").
  SimDuration be_requeue_timeout = 10 * kSecond;
  /// Per-request CPU grant cap as a multiple of its minimum need
  /// (diminishing returns of extra cores).
  double speedup_cap = 2.0;
  /// Co-location interference model (storm): co-runner CPU/membw/LLC
  /// pressure inflates execution time per the victim's sensitivity
  /// profile. Null (the default) disables the coupling entirely — the
  /// node then executes the exact original float expressions and its
  /// event stream stays byte-identical to an interference-free build.
  const storm::InterferenceModel* interference = nullptr;
};

class WorkerNode {
 public:
  struct Callbacks {
    std::function<void(const CompletionInfo&)> on_complete;
    /// LC request dropped because it aged out before starting execution.
    std::function<void(const workload::Request&, SimTime)> on_abandon;
    /// BE request evicted (memory preemption) or timed out waiting —
    /// the owner should re-queue it for rescheduling.
    std::function<void(const workload::Request&)> on_be_return;
    /// Fired whenever the node's CPU-usage totals change, with the signed
    /// deltas — lets the owner keep system-wide aggregates incrementally
    /// instead of rescanning every node per metrics period.
    std::function<void(Millicores d_total, Millicores d_lc, Millicores d_be)>
        on_usage_delta;
  };

  using Tunables = NodeTunables;

  WorkerNode(sim::Simulator* sim, NodeSpec spec,
             const workload::ServiceCatalog* catalog,
             const AllocationPolicy* policy, Callbacks callbacks,
             NodeTunables tunables = NodeTunables{});

  /// A request arrives at the node (already dispatched + transferred).
  /// Must not be called on a crashed node — the owner checks liveness at
  /// delivery time and re-queues instead.
  void Enqueue(const workload::Request& request);

  /// Swap the allocation policy (used by experiments that toggle HRM).
  void SetPolicy(const AllocationPolicy* policy);

  // ---- Liveness (driven by fault::FaultPlane via the system) -----------
  bool alive() const { return alive_; }
  bool draining() const { return draining_; }

  /// Kill the node: every running and queued request is lost and returned
  /// (id + service only — the owner resolves the full request from its
  /// records and re-queues or drops it). All pending completion/activation
  /// events are cancelled so no callback fires into the dead node.
  std::vector<workload::Request> Crash();

  /// Bring a crashed node back, empty. BE containers restart from scratch
  /// on their next placement (§4.1 semantics: BE is evictable/restartable).
  void Recover();

  /// Stop admitting new work; running requests finish, queued requests are
  /// handed back for rescheduling elsewhere.
  std::vector<workload::Request> Drain();
  void Undrain();

  const NodeSpec& spec() const { return spec_; }
  NodeId id() const { return spec_.id; }

  // ---- Telemetry -------------------------------------------------------
  // Usage totals are maintained incrementally (refreshed whenever the
  // running set or the grants change), so every getter is O(1).
  Millicores cpu_in_use() const { return use_total_; }
  Millicores cpu_in_use_lc() const { return use_lc_; }
  Millicores cpu_in_use_be() const { return use_be_; }
  MiB mem_in_use() const { return mem_use_; }
  MiB mem_in_use_lc() const { return mem_use_lc_; }
  int running_count() const { return static_cast<int>(running_.size()); }
  int running_lc() const { return running_lc_count_; }
  int queued_count() const {
    return static_cast<int>(queue_lc_.size() + queue_be_.size());
  }

  /// Monotonic version, bumped on every transition that can change the
  /// node's snapshot (admission, completion, scaling, queue churn, fault
  /// state, policy swap). Version equality implies snapshot-content
  /// equality (modulo `recorded_at`), which is what lets state sync push
  /// only the nodes that changed.
  std::uint64_t state_version() const { return state_version_; }

  /// The node's current state as its monitoring stack reports it, stamped
  /// with `recorded_at = now`.
  metrics::NodeSnapshot Snapshot(SimTime now) const;

  /// Scaling operations performed (D-VPA ops under HRM; 0 under native).
  std::int64_t scaling_ops() const { return scaling_ops_; }

  /// The node's cgroup view (pods/containers created lazily per service).
  cgroup::Hierarchy& cgroups() { return cgroups_; }
  /// Container cgroup path for a service (created on first use).
  std::string ContainerCgroupPath(ServiceId service);

 private:
  struct Running {
    ExecSlot slot;
    bool active = false;  // false while the admission scaling op runs
    Millicores grant = 0;
    /// Interference slowdown (>= 1) in effect since the last Recompute;
    /// exactly 1.0 whenever NodeTunables::interference is null.
    double slow = 1.0;
    SimTime last_update = 0;
    SimTime node_arrival = 0;
    SimTime exec_start = 0;
    sim::EventHandle completion = sim::kInvalidEvent;
    sim::EventHandle activation = sim::kInvalidEvent;
    /// TangoScope execution span (admission → completion/eviction/crash);
    /// kInvalidSpan unless tracing is active.
    scope::SpanId span = scope::kInvalidSpan;
  };
  struct Queued {
    workload::Request request;
    SimTime enqueued = 0;
  };

  void TryAdmit();
  void Recompute();
  void AccountProgress();
  void CompleteAt(RequestId id);
  void EvictRunning(std::size_t index);
  void SweepQueues();
  ExecSlot MakeSlot(const workload::Request& r, SimTime enqueued) const;
  MiB MemInUseInternal() const;
  void MarkDirty() { ++state_version_; }
  /// Recompute the cached usage totals from `running_` and report the CPU
  /// deltas via `on_usage_delta`.
  void RefreshUsage();

  sim::Simulator* sim_;
  NodeSpec spec_;
  const workload::ServiceCatalog* catalog_;
  const AllocationPolicy* policy_;
  Callbacks callbacks_;
  Tunables tunables_;
  cgroup::Hierarchy cgroups_;

  std::vector<Running> running_;
  std::deque<Queued> queue_lc_;
  std::deque<Queued> queue_be_;
  std::int64_t scaling_ops_ = 0;
  bool in_recompute_ = false;
  bool alive_ = true;
  bool draining_ = false;

  // Incrementally maintained telemetry (see RefreshUsage).
  Millicores use_total_ = 0;
  Millicores use_lc_ = 0;
  Millicores use_be_ = 0;
  MiB mem_use_ = 0;
  MiB mem_use_lc_ = 0;
  int running_lc_count_ = 0;

  std::uint64_t state_version_ = 1;
};

}  // namespace tango::k8s
