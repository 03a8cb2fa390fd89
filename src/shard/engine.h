// TangoShard: conservative sharded parallel simulation of the edge-cloud
// system, scaling the dual space to ~100k nodes.
//
// The system is partitioned at cluster granularity (k8s/partition.h); each
// shard owns a disjoint cluster set with its own indexed-heap
// sim::Simulator, its own pooled message slab, and its own TangoScope span
// ring. Shards advance in lockstep epochs bounded by the conservative
// lookahead L = net::Topology::MinCrossClusterLatency(): no cross-cluster
// effect can propagate in less than L of virtual time, so every shard may
// run one L-window independently. Epoch k executes the window
// ((k-1)·L, k·L]; a message sent at time t carries deliver >= t + L > k·L,
// so it is always scheduled at a *later* epoch's start — the engine
// exchanges the per-pair mailboxes (shard/mailbox.h) at the barrier
// between epochs and each shard schedules its inbound messages, sorted by
// the partition-invariant key (deliver, src cluster, seq), before running
// the next window. When every shard's next event lies beyond the next
// bound, the engine fast-forwards the epoch counter (nothing can execute,
// so nothing can send — skipping is safe).
//
// Determinism is a hard contract, not a best effort: with any shard count
// (and with `deterministic_reference`, which runs the same epoch protocol
// on one thread in shard order) the engine produces byte-identical
// per-cluster digests, because cluster state is only ever touched by its
// own cluster's callbacks, per-cluster Rng streams are seeded from
// (run seed, cluster id), and every cross-cluster interaction rides the
// mailbox total order. tests/shard_test.cpp holds this across seeds,
// partition strategies, chaos scripts, and master failovers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "fault/fault_script.h"
#include "k8s/partition.h"
#include "k8s/resources.h"
#include "net/topology.h"
#include "scope/scope.h"
#include "shard/mailbox.h"
#include "shard/model.h"
#include "sim/simulator.h"
#include "workload/service.h"

namespace tango::shard {

struct EngineConfig {
  std::vector<k8s::ClusterSpec> clusters;
  net::LinkParams link;
  double region_km = 1200.0;

  /// Per-cluster knobs (rates, periods, budgets). The engine fills in the
  /// pointers and derived tables (topology, catalog, central rank, service
  /// id caches) and overrides end_time with `duration`.
  ModelConfig model;

  std::uint64_t seed = 1;
  SimTime duration = 10 * kSecond;

  int num_shards = 1;
  /// Run the identical epoch protocol single-threaded in shard order —
  /// the byte-identity reference for any parallel configuration.
  bool deterministic_reference = false;
  k8s::PartitionStrategy partition_strategy =
      k8s::PartitionStrategy::kWorkerBalanced;
  /// Override the epoch length (tests only). Must not exceed the
  /// topology's MinCrossClusterLatency — a longer epoch would violate the
  /// conservative lookahead and the engine refuses it.
  SimDuration epoch_override = 0;

  fault::FaultScript faults;

  bool trace = false;
  std::size_t trace_capacity = std::size_t{1} << 14;  // per shard
};

struct RunResult {
  ClusterStats totals;
  /// FNV-1a over the per-cluster digests in cluster-id order.
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> cluster_digests;

  std::uint64_t executed_events = 0;
  std::int64_t epochs = 0;
  std::int64_t epochs_skipped = 0;  // fast-forwarded empty windows
  std::int64_t mailbox_exchanged = 0;
  std::int64_t mailbox_drained = 0;
  double mean_util = 0.0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;

  double qos_rate() const {
    return totals.lc_completed > 0
               ? static_cast<double>(totals.lc_qos_met) /
                     static_cast<double>(totals.lc_completed)
               : 0.0;
  }
  double mean_latency_ms() const {
    return totals.lc_completed > 0
               ? ToMilliseconds(totals.latency_sum_us) /
                     static_cast<double>(totals.lc_completed)
               : 0.0;
  }
  /// Upper bound of the log2 bucket holding the 95th percentile completed
  /// LC latency (bucketed approximation; exact enough for trend checks).
  double p95_latency_ms() const;
};

class ShardEngine {
 public:
  explicit ShardEngine(EngineConfig cfg);
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Run the whole configured duration. One shot: a second call aborts.
  RunResult Run();

  SimDuration lookahead() const { return lookahead_; }
  int num_shards() const { return partition_.num_shards; }
  const k8s::Partition& partition() const { return partition_; }
  const net::Topology& topology() const { return topology_; }
  int num_nodes() const { return num_nodes_; }

  /// Per-shard tracers (empty unless cfg.trace). Order = shard index; feed
  /// to scope::MergeSnapshots / WriteChromeTrace for one merged timeline.
  std::vector<const scope::Tracer*> tracers() const;
  /// Merge the per-shard span rings and write one Chrome trace.
  bool ExportTrace(const std::string& path) const;

 private:
  struct Shard {
    sim::Simulator sim;
    scope::Tracer tracer;
    std::vector<ShardMessage> inbox;     // drain scratch
    std::vector<ShardMessage> slab;      // pooled delivery messages
    std::vector<std::uint32_t> slab_free;
    std::uint64_t executed = 0;
  };

  void RunShardEpoch(std::size_t s, SimTime bound);

  EngineConfig cfg_;
  net::Topology topology_;
  workload::ServiceCatalog catalog_storage_;
  k8s::Partition partition_;
  ModelConfig model_cfg_;
  SimDuration lookahead_ = 0;
  int num_nodes_ = 0;
  MailboxGrid grid_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ClusterModel>> models_;  // by cluster id
  std::vector<fault::FaultScript> cluster_faults_;     // by cluster id
  std::unique_ptr<ThreadPool> pool_;
  bool ran_ = false;
};

}  // namespace tango::shard
