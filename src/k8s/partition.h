// Cluster → shard partitioning for the sharded simulation engine.
//
// The dual space is partitioned at cluster granularity: a cluster's master,
// workers, queues, and state storages always live together on one shard,
// because everything inside a cluster interacts at LAN latency (below the
// conservative lookahead), while clusters only interact over WAN links.
// The partitioner therefore only has to answer one question well: which
// clusters share a shard so that per-shard work is balanced.
//
// This lives in src/k8s (not src/shard) because it partitions the k8s
// substrate's own layout type (ClusterSpec) and is useful to any layer
// that wants per-cluster parallelism — the shard engine is just the first
// consumer.
#pragma once

#include <vector>

#include "common/ids.h"
#include "k8s/resources.h"

namespace tango::k8s {

enum class PartitionStrategy {
  /// Contiguous runs of cluster ids, sizes as equal as possible. Keeps
  /// geographically adjacent ids (RandomLayout assigns ids arbitrarily, but
  /// hand-built layouts often number neighbors consecutively) together.
  kContiguous,
  /// Round-robin by cluster id — spreads hotspot-adjacent ids apart.
  kRoundRobin,
  /// Greedy balance by worker count: clusters sorted by descending
  /// num_workers, each assigned to the currently lightest shard. Best when
  /// cluster sizes are heterogeneous (the §6.1 hybrid layout's 3–20-worker
  /// virtual clusters).
  kWorkerBalanced,
};

struct Partition {
  int num_shards = 1;
  /// shard_of[c] = shard owning cluster id c.
  std::vector<int> shard_of;
  /// clusters[s] = cluster ids owned by shard s, ascending. Ascending order
  /// is load-bearing for determinism: shard-build code iterates it, so it
  /// must not depend on the strategy's internal visit order.
  std::vector<std::vector<ClusterId>> clusters;

  int shard_of_cluster(ClusterId c) const {
    return shard_of[static_cast<std::size_t>(c.value)];
  }
};

/// Partition `specs` into `num_shards` shards (clamped to [1, #clusters]).
/// Deterministic: same specs + strategy + shard count → same partition.
Partition PartitionClusters(const std::vector<ClusterSpec>& specs,
                            int num_shards, PartitionStrategy strategy);

/// Total workers assigned to each shard (balance diagnostics / tests).
std::vector<int> ShardWorkerCounts(const std::vector<ClusterSpec>& specs,
                                   const Partition& partition);

}  // namespace tango::k8s
