// ClusterModel: one edge cluster (master + workers + queues + beliefs) as
// shard-local state for the TangoShard engine.
//
// The monolithic k8s::EdgeCloudSystem holds every cluster in one state
// storage under one global Rng — exactly the coupling that serializes the
// simulation. ClusterModel is the sharded re-derivation of the same
// mechanics with a hard locality contract:
//
//   - a model only ever mutates its own cluster's state, its own Rng
//     stream (seeded from (run seed, cluster id)), and its own shard's
//     simulator; every cross-cluster effect leaves through the mailbox
//     grid (shard/mailbox.h) — even when the peer shares the shard;
//   - remote clusters are *beliefs*: aggregate views fed by kStateDelta
//     messages (delta-synced, version-stamped) and master-liveness bits
//     fed by kMasterDown/Up broadcasts and nacks. Decisions read beliefs,
//     never remote truth, so a cluster's event stream is a pure function
//     of its inputs and the engine stays byte-identical across shard
//     counts.
//
// Scheduling follows the two-tier split of sched/cluster_policy.h: the
// per-cluster loop places LC requests locally (evicting BE under
// hrm::BeGuard pressure rules when needed) and spills to geo-nearby
// clusters when full; BE requests funnel through the believed central
// master, which ranks clusters by synced free capacity and lets the
// target's own admission guard accept or bounce.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "fault/fault_script.h"
#include "hrm/be_guard.h"
#include "k8s/partition.h"
#include "k8s/resources.h"
#include "net/topology.h"
#include "sched/cluster_policy.h"
#include "scope/scope.h"
#include "shard/mailbox.h"
#include "shard/message.h"
#include "sim/simulator.h"
#include "storm/scenario.h"
#include "workload/service.h"

namespace tango::shard {

/// Knobs shared by every cluster, immutable during a run. Defaults mirror
/// k8s::SystemConfig so the sharded engine models the same system.
struct ModelConfig {
  const net::Topology* topology = nullptr;
  const workload::ServiceCatalog* catalog = nullptr;

  double lc_nearby_radius_km = 500.0;  // §5.2 dispatch scope
  SimDuration sync_period = 100 * kMillisecond;
  SimDuration lc_dispatch_interval = 2 * kMillisecond;
  SimDuration be_dispatch_interval = 5 * kMillisecond;
  SimDuration metrics_period = 800 * kMillisecond;
  SimDuration fault_detect_delay = 100 * kMillisecond;
  int max_reroutes = 16;    // LC: fault requeues + spill rejections
  int max_be_bounces = 8;   // BE: placement bounces through the central
  /// An LC request still open this many QoS targets after arrival is
  /// abandoned (client gave up; the record closes, late replies go stale).
  int abandon_after_targets = 4;
  double lc_rps = 50.0;  // per-cluster arrival rates
  double be_rps = 10.0;
  /// TangoStorm streaming arrivals: when set, each cluster pulls its
  /// requests from storm::BuildClusterStream(scenario_kind, *scenario, id)
  /// instead of the flat Poisson generators above — one independent,
  /// seed-derived stream per cluster, so the arrival pattern is identical
  /// no matter how clusters are packed onto shards.
  const storm::ScenarioConfig* scenario = nullptr;
  storm::ScenarioKind scenario_kind = storm::ScenarioKind::kSteady;
  SimTime end_time = 10 * kSecond;
  Bytes delta_bytes = 256;    // state-sync delta payload size
  Bytes control_bytes = 128;  // master up/down, nack, reject payload size
  hrm::BeGuardConfig be_guard;

  /// Clusters by descending centrality (engine precomputes from the
  /// topology): the believed central master is the first entry whose
  /// master this cluster believes alive.
  std::vector<ClusterId> central_rank;
  /// Catalog ids split by class (cached so arrival sampling is O(1)).
  std::vector<ServiceId> lc_services;
  std::vector<ServiceId> be_services;
};

/// Egress fault state toward one peer cluster, as this cluster sees it.
/// fault::SplitByCluster duplicates link events to both endpoints, so the
/// two sides apply the same fault at the same virtual time.
struct LinkFault {
  double latency_mult = 1.0;
  double loss = 0.0;
  bool cut = false;
};

// Per-cluster counters, merged by the engine in cluster-id order.
struct ClusterStats {  // tango-lint: allow(stats-struct)
  std::int64_t lc_arrived = 0;
  std::int64_t lc_completed = 0;
  std::int64_t lc_qos_met = 0;
  std::int64_t lc_abandoned = 0;
  std::int64_t lc_dropped = 0;
  std::int64_t lc_spilled = 0;   // sent to a nearby cluster
  std::int64_t lc_remote = 0;    // executed here for a remote origin
  std::int64_t be_arrived = 0;
  std::int64_t be_completed = 0;
  std::int64_t be_dropped = 0;
  std::int64_t be_bounced = 0;
  std::int64_t be_evicted = 0;
  std::int64_t fault_requeues = 0;
  std::int64_t failovers = 0;
  std::int64_t deltas_sent = 0;
  std::int64_t deltas_skipped = 0;
  std::int64_t full_resyncs = 0;
  std::int64_t nacks = 0;
  std::int64_t msgs_sent = 0;  // mailbox sends (excludes local delivery)
  std::int64_t msgs_lost = 0;  // lossy/cut links, silent kinds only
  std::int64_t latency_sum_us = 0;  // completed LC end-to-end latency
  static constexpr int kLatencyBuckets = 32;
  std::int64_t latency_us_log2[kLatencyBuckets] = {};  // completed LC

  void Merge(const ClusterStats& o);
};

class ClusterModel {
 public:
  /// Engine-owned plumbing. The simulator and tracer belong to the shard
  /// that owns this cluster; the grid and partition are global but only
  /// touched under the mailbox single-writer discipline.
  struct Hookup {
    sim::Simulator* sim = nullptr;
    MailboxGrid* grid = nullptr;
    const k8s::Partition* partition = nullptr;
    scope::Tracer* tracer = nullptr;  // nullptr = tracing off
    int shard = 0;
  };

  ClusterModel(const ModelConfig* cfg, const k8s::ClusterSpec& spec,
               NodeId first_node, std::uint64_t run_seed,
               const Hookup& hookup);
  ClusterModel(const ClusterModel&) = delete;
  ClusterModel& operator=(const ClusterModel&) = delete;

  /// Schedule arrival generators and periodic loops (sync, metrics).
  void Start();
  /// Schedule this cluster's slice of the fault script (engine splits the
  /// global script with fault::SplitByCluster).
  void ScheduleFaults(const fault::FaultScript& script);

  /// Delivery trampoline target: handle one message addressed to this
  /// cluster. Called from this shard's simulator only.
  void OnMessage(const ShardMessage& msg);

  ClusterId id() const { return id_; }
  const ClusterStats& stats() const { return stats_; }
  /// FNV-1a over every externally visible transition, in per-cluster event
  /// order — the determinism witness compared across shard counts.
  std::uint64_t digest() const { return digest_; }

  /// One row per metrics period: mean CPU utilization over alive workers.
  struct PeriodRow {
    SimTime at = 0;
    double util = 0.0;
  };
  const std::vector<PeriodRow>& periods() const { return periods_; }

 private:
  struct Exec {
    Payload req;
    sim::EventHandle done = sim::kInvalidEvent;
    std::int32_t worker = -1;
    bool live = false;
  };
  struct Record {
    std::uint64_t uid = 0;
    std::uint32_t gen = 0;
    bool open = false;
    bool is_lc = false;
    SimTime arrival = 0;
    SimDuration deadline_us = 0;
    sim::EventHandle abandon = sim::kInvalidEvent;
    scope::SpanId span = scope::kInvalidSpan;
  };
  enum class Outcome : std::uint8_t { kCompleted, kAbandoned, kDropped };

  // --- workload ----------------------------------------------------------
  void ScheduleNextLc();
  void ScheduleNextBe();
  void OnLcArrival();
  void OnBeArrival();
  void ScheduleNextStorm();
  void OnStormArrival(const workload::Request& req);
  Payload SampleRequest(bool is_lc);
  /// Shared arrival bookkeeping (record, abandon timer, span, digest) for
  /// both the legacy Poisson path and the storm stream path.
  Payload MakePayload(bool is_lc, ServiceId service, SimDuration exec_us);

  // --- LC path -----------------------------------------------------------
  void RouteLc(const Payload& p);
  void ArmLcTick();
  void LcDispatch();
  bool TryPlaceLc(const Payload& p);
  void OnSpillArrival(const Payload& p);
  void FaultRequeueLc(Payload p);
  void LoseLc(const Payload& p, SimDuration extra_delay);
  void CompleteLc(const Payload& p);
  void AbandonLc(std::int32_t slot, std::uint32_t gen);
  void DropRequest(const Payload& p);

  // --- BE path -----------------------------------------------------------
  void RouteBe(Payload p);
  void ArmBeTick();
  void BeDispatch();
  bool AdmitBeLocal(const Payload& p);
  void BounceBe(Payload p, SimDuration extra_delay);
  void CompleteBe(const Payload& p);
  ClusterId BelievedCentral() const;

  // --- execution ---------------------------------------------------------
  /// The one place a worker's view or BE usage changes (exec start and
  /// release, crash, recover, drain, undrain): writes the new state and
  /// keeps worker_index_ in step with workers_ and be_used_. TANGO_AUDIT
  /// builds rescan the index against the table every 64th call.
  void UpdateWorker(std::int32_t worker, const sched::WorkerView& view,
                    Millicores be_used);
  void StartExec(std::int32_t worker, const Payload& p);
  void FinishExec(std::int32_t slot);
  void ReleaseExec(std::int32_t slot);
  Millicores EvictBeFrom(std::int32_t worker, Millicores need);

  // --- state sync & control ---------------------------------------------
  void SyncTick();
  void MetricsTick();
  void ApplyFault(const fault::FaultEvent& ev);
  void BroadcastControl(MsgKind kind);
  ClusterId FirstAliveDelegate() const;

  // --- transport ---------------------------------------------------------
  /// Send `p` as `kind` to `dst`. Local destinations ride the shard's own
  /// simulator at LAN delay; remote ones go through the mailbox grid with
  /// the egress fault model applied. `extra_delay` models detection lag.
  void Route(MsgKind kind, ClusterId dst, const Payload& p, Bytes bytes,
             SimDuration extra_delay = 0);
  void OnSendFailed(MsgKind kind, const Payload& p);
  void EnqueueLocal(const ShardMessage& msg, SimDuration delay);

  // --- records -----------------------------------------------------------
  std::int32_t AllocRecord();
  bool RecordLive(std::int32_t slot, std::uint32_t gen) const;
  void CloseRecord(std::int32_t slot, std::uint32_t gen, Outcome outcome);

  // --- bookkeeping -------------------------------------------------------
  std::int32_t LocalWorkerIndex(NodeId node) const;
  void Fold(std::uint64_t v) {
    digest_ = (digest_ ^ v) * 1099511628211ULL;
  }
  void FoldEvent(std::uint8_t code, std::uint64_t a, std::uint64_t b = 0);
  void CountLatency(SimDuration latency);

  const ModelConfig* cfg_;
  k8s::ClusterSpec spec_;
  ClusterId id_;
  NodeId first_node_;
  sim::Simulator* sim_;
  MailboxGrid* grid_;
  const k8s::Partition* partition_;
  scope::Tracer* tracer_;
  int shard_;
  Rng rng_;

  bool master_alive_ = true;
  std::vector<sched::WorkerView> workers_;
  std::vector<Millicores> be_used_;
  /// Placement tree and usable/live sums over workers_ and be_used_;
  /// written only by UpdateWorker.
  sched::WorkerIndex worker_index_;
  std::uint64_t index_audit_tick_ = 0;  // UpdateWorker calls since a rescan
  std::vector<std::vector<std::int32_t>> worker_execs_;
  std::unique_ptr<storm::ScenarioSource> storm_source_;

  std::vector<Exec> execs_;
  std::vector<std::int32_t> free_execs_;
  std::vector<Record> records_;
  std::vector<std::int32_t> free_records_;

  std::vector<Payload> lc_queue_;
  std::size_t lc_head_ = 0;
  std::vector<Payload> be_queue_;  // acting-central dispatch queue
  std::vector<Payload> be_keep_;   // BeDispatch retention scratch
  std::vector<ClusterId> be_rank_scratch_;  // BeDispatch ranking scratch
  std::vector<sched::ClusterView> spill_scratch_;  // LC spill candidates
  bool lc_tick_armed_ = false;
  bool be_tick_armed_ = false;

  std::vector<sched::ClusterView> views_;       // indexed by cluster id
  std::vector<std::uint8_t> master_alive_view_;  // believed liveness
  std::vector<LinkFault> links_;                // egress fault state
  std::vector<ClusterId> nearby_;               // LC spill scope
  std::vector<ClusterId> delegate_order_;       // failover preference

  std::uint64_t sync_version_ = 0;
  Millicores last_free_ = -1;
  std::int32_t last_live_ = -1;
  bool force_push_ = false;

  std::vector<ShardMessage> local_slab_;  // pooled local-delivery messages
  std::vector<std::uint32_t> local_free_;

  std::uint64_t seq_next_ = 0;
  std::uint64_t uid_next_ = 0;
  std::uint64_t digest_ = 14695981039346656037ULL;  // FNV-1a offset basis
  ClusterStats stats_;
  std::vector<PeriodRow> periods_;
};

}  // namespace tango::shard
