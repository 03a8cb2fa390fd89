// EdgeCloudSystem: the dual-space experimental system of §6.1 as one
// deterministic discrete-event simulation.
//
// It owns the simulator, the WAN/LAN topology, every cluster (1 master + N
// workers), the per-master state storages, the QoS detector, and the request
// lifecycle:
//
//   arrival at origin master ──► LC queue (dispatched by the cluster's
//   LcScheduler, geo-nearby targets only) or BE queue (forwarded to the
//   central cluster and dispatched by the BeScheduler) ──► WAN/LAN transfer
//   ──► worker admission/execution ──► result returned to the origin ──►
//   QoS bookkeeping.
//
// Schedulers and allocation policies are plug-ins; swapping them produces
// every row of the paper's evaluation matrix.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "k8s/node.h"
#include "k8s/scheduling_api.h"
#include "metrics/qos_detector.h"
#include "net/egress.h"
#include "net/topology.h"
#include "scope/metrics.h"
#include "scope/scope.h"

namespace tango::k8s {

struct SystemConfig {
  std::vector<ClusterSpec> clusters;
  net::LinkParams link{};
  /// Square side of the deployment region (km) for the random layout.
  double region_km = 1200.0;
  /// LC requests may be dispatched within this radius of home (§5.2, 500 km).
  double lc_nearby_radius_km = 500.0;
  /// Metrics/state push period — matches the 100 ms QoS collection window
  /// (§4.3) that drives the paper's metric pushes.
  SimDuration state_sync_period = 100 * kMillisecond;
  /// Batching windows of the two dispatchers.
  SimDuration lc_dispatch_interval = 2 * kMillisecond;
  SimDuration be_dispatch_interval = 5 * kMillisecond;
  /// Data-collection period — 800 ms per §6.2.
  SimDuration metrics_period = 800 * kMillisecond;
  WorkerNode::Tunables node_tunables{};
  /// Central cluster override (-1 = geographically central one).
  int central_cluster = -1;
  /// Model per-cluster egress bandwidth contention (§4.1 lists bandwidth
  /// among the compressible resources; the regulator gives LC priority
  /// whenever the allocation policy preempts BE for LC).
  bool regulate_bandwidth = true;
  net::EgressConfig egress{};
  std::uint64_t seed = 1234;
  /// How long until a master's failure detector notices lost in-flight
  /// work (missed heartbeat / delivery timeout) and re-queues it.
  SimDuration fault_detect_delay = 100 * kMillisecond;
  /// A request lost this many times is dropped (counted, never silent).
  int max_fault_reroutes = 16;
};

/// Dynamic state of one inter-cluster link under fault injection.
struct LinkFault {
  double latency_mult = 1.0;  // scales propagation delay
  double loss = 0.0;          // per-transfer loss probability, [0,1)
  bool cut = false;           // full partition: nothing gets through
  bool faulty() const { return cut || latency_mult > 1.0 || loss > 0.0; }
};

/// Final outcome of one request. kDropped is fault-induced: the request was
/// lost more often than `max_fault_reroutes` allows, or arrived while no
/// master was reachable — it is counted, never silently discarded.
enum class Outcome { kPending, kCompleted, kAbandoned, kDropped };

struct RequestRecord {
  workload::Request request;
  Outcome outcome = Outcome::kPending;
  NodeId target;                 // last node it was dispatched to
  SimTime dispatched = -1;
  SimTime completed = -1;
  SimDuration latency = 0;       // end-to-end, incl. result return
  bool qos_met = false;          // LC only
  int reschedules = 0;           // BE bounce count
  int fault_reroutes = 0;        // times lost to a fault and re-queued
};

/// Per-800ms-period aggregate row (the unit of every time-series figure).
struct PeriodStats {
  SimTime period_start = 0;
  double util_total = 0.0;  // mean cpu utilization across workers [0,1]
  double util_lc = 0.0;
  double util_be = 0.0;
  int lc_arrived = 0;
  int lc_completed = 0;
  int lc_qos_met = 0;
  int lc_abandoned = 0;
  int be_completed = 0;
  int lost_requeued = 0;  // requests lost to a fault and re-queued
  int dropped = 0;        // requests dropped (re-route budget exhausted)
};

/// End-of-run summary (the paper's three headline metrics).
struct RunSummary {
  int lc_total = 0;
  int lc_completed = 0;
  int lc_qos_met = 0;
  int lc_abandoned = 0;
  int be_total = 0;
  int be_completed = 0;
  int lc_dropped = 0;
  int be_dropped = 0;
  std::int64_t fault_requeues = 0;  // lost-and-requeued transitions
  double qos_satisfaction = 0.0;  // φ  = met / arrived LC
  double be_throughput = 0.0;     // φ' = completed BE
  double mean_util = 0.0;
  double mean_latency_ms = 0.0;   // completed LC
  double p95_latency_ms = 0.0;
};

class EdgeCloudSystem {
 public:
  EdgeCloudSystem(SystemConfig cfg, const workload::ServiceCatalog* catalog);

  // ---- Wiring (call before Run) ----------------------------------------
  void SetLcScheduler(LcScheduler* sched) { lc_sched_ = sched; }
  void SetBeScheduler(BeScheduler* sched) { be_sched_ = sched; }
  /// Install an allocation policy on every worker node.
  void SetAllocationPolicy(const AllocationPolicy* policy);

  /// Queue every request of the trace for arrival at its origin cluster.
  void SubmitTrace(const workload::Trace& trace);

  /// Advance virtual time.
  void Run(SimTime until);

  // ---- Fault injection (driven by fault::FaultPlane) ---------------------
  // All calls are idempotent; each takes effect at the current virtual time.

  /// Kill a worker. Running and queued requests are lost; the owning master
  /// re-queues them after `fault_detect_delay`.
  void CrashWorker(NodeId id);
  /// Bring a crashed worker back, empty; schedulers see it at once and the
  /// BE dispatcher restarts evicted BE work on it (§4.1 restart semantics).
  void RecoverWorker(NodeId id);
  /// Gracefully drain a worker: stop admitting, re-route its queue now.
  void DrainWorker(NodeId id);
  void UndrainWorker(NodeId id);
  /// Install / clear a link fault between two clusters (order-insensitive).
  void SetLinkFault(ClusterId a, ClusterId b, LinkFault fault);
  void ClearLinkFault(ClusterId a, ClusterId b);
  /// Kill / recover a cluster master. A dead master's LC queue fails over
  /// to the nearest live master; if the acting BE central dies, a new
  /// central is elected (original central reclaims the role on recovery).
  void FailMaster(ClusterId cluster);
  void RecoverMaster(ClusterId cluster);

  bool WorkerAlive(NodeId id) const;
  bool MasterAlive(ClusterId cluster) const {
    return cluster.valid() &&
           master_alive_[static_cast<std::size_t>(cluster.value)];
  }
  int workers_alive() const;
  int masters_alive() const;
  ClusterId acting_central() const { return acting_central_; }
  LinkFault LinkStateOf(ClusterId a, ClusterId b) const;
  std::int64_t fault_requeues() const { return m_fault_requeues_->value(); }
  std::int64_t fault_drops() const { return m_fault_drops_->value(); }

  // ---- Introspection -----------------------------------------------------
  sim::Simulator& simulator() { return sim_; }
  const net::Topology& topology() const { return topology_; }
  metrics::QosDetector& qos_detector() { return qos_detector_; }
  const std::vector<RequestRecord>& records() const { return records_; }
  const std::vector<PeriodStats>& periods() const { return period_stats_; }
  RunSummary Summary() const;

  ClusterId central_cluster() const { return central_; }
  int num_clusters() const { return static_cast<int>(clusters_.size()); }
  int num_workers() const { return static_cast<int>(worker_list_.size()); }
  /// The system's TangoScope metric registry: request/QoS counters and
  /// latency histograms, utilization gauges, fault counters and the sync
  /// counters "sync.syncs", "sync.pushes", "sync.pushes_skipped" (workers
  /// a synced pair left unpushed) and "sync.full_resyncs" (view resets on
  /// master failover).
  scope::MetricRegistry& metrics_registry() { return metrics_; }
  const scope::MetricRegistry& metrics_registry() const { return metrics_; }
  WorkerNode* FindWorker(NodeId id);
  /// Every worker, in ascending NodeId order.
  const std::vector<WorkerNode*>& AllWorkers() { return worker_list_; }
  NodeId MasterOf(ClusterId cluster) const;
  ClusterId ClusterOfNode(NodeId node) const;
  const metrics::StateStorage& LcStorage(ClusterId cluster) const;
  const metrics::StateStorage& BeStorage() const { return be_storage_; }
  const net::EgressRegulator& egress() const { return egress_; }
  const workload::ServiceCatalog& catalog() const { return *catalog_; }
  int lc_queue_length(ClusterId cluster) const;
  int be_queue_length() const {
    return static_cast<int>(be_queue_.size());
  }
  std::int64_t total_scaling_ops() const;

 private:
  struct Cluster {
    Cluster() = default;
    Cluster(Cluster&&) noexcept = default;
    Cluster& operator=(Cluster&&) noexcept = default;
    ClusterSpec spec;
    NodeId master;
    std::vector<std::unique_ptr<WorkerNode>> workers;
    std::deque<PendingRequest> lc_queue;
    bool lc_dispatch_pending = false;
    metrics::StateStorage lc_storage;
    /// Geo-nearby clusters (plus self) this master syncs from — the
    /// topology is static, so the scope is computed once at build time.
    std::vector<ClusterId> sync_scope;
    /// Per sync_scope entry: the sync round in which lc_storage last
    /// received that cluster (0 = never, which forces a full catch-up).
    std::vector<std::int64_t> scope_synced;
    /// This cluster's change list for the current sync round: a snapshot
    /// of every worker whose state_version moved since the previous round.
    std::vector<metrics::NodeSnapshot> changes;
  };

  void BuildClusters();
  void OnArrival(const workload::Request& request);
  void ScheduleLcDispatch(ClusterId cluster);
  void DispatchLc(ClusterId cluster);
  void ScheduleBeDispatch();
  void DispatchBe();
  void OnComplete(const CompletionInfo& info);
  void OnAbandon(const workload::Request& request, SimTime now);
  void OnBeReturn(NodeId from, const workload::Request& request);
  void SyncState(SimTime now);
  /// Pushes and skips of one sync round.
  struct SyncTally {
    std::int64_t pushes = 0;
    std::int64_t skipped = 0;
  };
  /// Sync one (view, source cluster) pair in the current round and advance
  /// its `last_synced` round; see SyncState.
  void SyncPair(metrics::StateStorage& view, ClusterId viewer,
                ClusterId source, std::int64_t& last_synced, SimTime now,
                SyncTally& tally);
  void SampleMetrics(SimTime now);
  /// Transfer delay via the topology plus the egress regulator (link-fault
  /// latency multipliers included).
  SimDuration Transfer(ClusterId from, ClusterId to, Bytes size, bool is_lc);
  /// Ship a request towards a worker, honoring link cuts (returns false:
  /// caller keeps it queued) and lossy links (lost in flight, detected and
  /// re-queued after a timeout).
  bool SendToWorker(ClusterId from, NodeId target,
                    const workload::Request& request, bool is_lc);
  /// Delivery-time hand-off: re-queues instead if the target died en route.
  void DeliverToWorker(NodeId target, const workload::Request& request);
  /// Forward a BE request from its origin eAP to the acting central master,
  /// retrying while the path or the master is down.
  void ForwardBeToCentral(const workload::Request& request);
  void ReturnBeToCentral(ClusterId from, const workload::Request& original,
                         int bounces);
  void ReturnLcResult(NodeId node, const workload::Request& original);
  /// Put a fault-lost request back into the right scheduling queue (or drop
  /// it once its re-route budget is spent).
  void RequeueLost(RequestId id);
  void HandleLost(std::vector<workload::Request> lost, SimDuration delay);
  void DropRequest(RequestRecord& rec);
  /// The master that serves `cluster`'s LC arrivals: itself when alive,
  /// else the nearest reachable live master (invalid id if none).
  ClusterId DelegateMaster(ClusterId cluster) const;
  /// The cluster that should host the central BE dispatcher right now.
  ClusterId ElectCentral() const;
  RequestRecord& Record(RequestId id);
  PeriodStats& CurrentPeriod();
  /// Open the root arrival→terminal span for a request (no-op unless
  /// tracing is active) and remember its handle so lifecycle sub-spans
  /// can parent onto it.
  void BeginRequestSpan(const workload::Request& request, bool is_lc);
  scope::SpanId RequestSpan(RequestId id) const;
  void EndRequestSpan(RequestId id, SimTime at);

  SystemConfig cfg_;
  const workload::ServiceCatalog* catalog_;
  sim::Simulator sim_;
  net::Topology topology_;
  Rng rng_;
  std::vector<Cluster> clusters_;
  // Dense node index: node ids are assigned 0..N-1 at build time, so flat
  // vectors replace the former std::map lookups on the hot paths. Masters
  // hold nullptr in node_index_. worker_list_ is in ascending NodeId order
  // (the former map iteration order).
  std::vector<WorkerNode*> node_index_;
  std::vector<ClusterId> node_cluster_;
  std::vector<WorkerNode*> worker_list_;
  ClusterId central_;
  LcScheduler* lc_sched_ = nullptr;
  BeScheduler* be_sched_ = nullptr;
  const AllocationPolicy* default_policy_;
  std::unique_ptr<NativeAllocationPolicy> native_policy_;

  std::deque<PendingRequest> be_queue_;  // at the acting central master
  bool be_dispatch_pending_ = false;
  metrics::StateStorage be_storage_;
  /// Per cluster: the sync round in which be_storage_ last received it
  /// (zeroed on central failover to force a full catch-up).
  std::vector<std::int64_t> be_synced_;

  // Change-list sync state, by NodeId value (masters unused). A worker's
  // state_version as of the last sync round, and the last round in which
  // it moved. Rounds count SyncState calls from 1.
  std::vector<std::uint64_t> synced_version_;
  std::vector<std::int64_t> changed_in_;
  std::int64_t sync_round_ = 0;

  // TangoScope surface. The registry itself is always live (it backs the
  // sync and fault counters); metrics are registered once in the
  // constructor and bumped through these cached pointers — a relaxed
  // atomic add, same cost as the plain ++member it replaced. Span handles
  // in request_spans_ parallel records_ and stay empty unless tracing is
  // active.
  scope::MetricRegistry metrics_;
  scope::Counter* m_syncs_ = nullptr;
  scope::Counter* m_pushes_ = nullptr;
  scope::Counter* m_pushes_skipped_ = nullptr;
  scope::Counter* m_full_resyncs_ = nullptr;
  scope::Counter* m_fault_requeues_ = nullptr;
  scope::Counter* m_fault_drops_ = nullptr;
  scope::Counter* m_lc_arrived_ = nullptr;
  scope::Counter* m_lc_completed_ = nullptr;
  scope::Counter* m_lc_qos_met_ = nullptr;
  scope::Counter* m_lc_abandoned_ = nullptr;
  scope::Counter* m_be_completed_ = nullptr;
  scope::Histogram* h_lc_latency_ = nullptr;
  scope::Histogram* h_be_latency_ = nullptr;
  scope::Gauge* g_util_total_ = nullptr;
  scope::Gauge* g_util_lc_ = nullptr;
  scope::Gauge* g_util_be_ = nullptr;
  std::vector<scope::SpanId> request_spans_;

  // Incremental metrics aggregates, fed by WorkerNode::on_usage_delta.
  Millicores use_total_ = 0;
  Millicores use_lc_ = 0;
  Millicores use_be_ = 0;
  Millicores cap_total_ = 0;

  // Fault-plane state.
  std::vector<bool> master_alive_;
  ClusterId acting_central_;
  std::map<std::pair<std::int32_t, std::int32_t>, LinkFault> link_faults_;

  net::EgressRegulator egress_;
  metrics::QosDetector qos_detector_;
  std::vector<RequestRecord> records_;
  std::vector<PeriodStats> period_stats_;
};

}  // namespace tango::k8s
