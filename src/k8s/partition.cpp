#include "k8s/partition.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace tango::k8s {

Partition PartitionClusters(const std::vector<ClusterSpec>& specs,
                            int num_shards, PartitionStrategy strategy) {
  const int n = static_cast<int>(specs.size());
  TANGO_CHECK(n > 0, "cannot partition an empty cluster layout");
  num_shards = std::clamp(num_shards, 1, n);

  Partition p;
  p.num_shards = num_shards;
  p.shard_of.assign(static_cast<std::size_t>(n), 0);

  switch (strategy) {
    case PartitionStrategy::kContiguous: {
      // First (n % num_shards) shards take one extra cluster.
      const int base = n / num_shards;
      const int extra = n % num_shards;
      int next = 0;
      for (int s = 0; s < num_shards; ++s) {
        const int take = base + (s < extra ? 1 : 0);
        for (int k = 0; k < take; ++k) {
          p.shard_of[static_cast<std::size_t>(next++)] = s;
        }
      }
      break;
    }
    case PartitionStrategy::kRoundRobin: {
      for (int c = 0; c < n; ++c) {
        p.shard_of[static_cast<std::size_t>(c)] = c % num_shards;
      }
      break;
    }
    case PartitionStrategy::kWorkerBalanced: {
      std::vector<int> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return specs[static_cast<std::size_t>(a)].num_workers >
               specs[static_cast<std::size_t>(b)].num_workers;
      });
      std::vector<std::int64_t> load(static_cast<std::size_t>(num_shards), 0);
      for (const int c : order) {
        // Lightest shard; ties break on the lowest shard index so the
        // assignment is independent of container internals.
        int best = 0;
        for (int s = 1; s < num_shards; ++s) {
          if (load[static_cast<std::size_t>(s)] <
              load[static_cast<std::size_t>(best)]) {
            best = s;
          }
        }
        p.shard_of[static_cast<std::size_t>(c)] = best;
        load[static_cast<std::size_t>(best)] +=
            specs[static_cast<std::size_t>(c)].num_workers;
      }
      break;
    }
  }

  p.clusters.assign(static_cast<std::size_t>(num_shards), {});
  for (int c = 0; c < n; ++c) {  // ascending id order within each shard
    p.clusters[static_cast<std::size_t>(p.shard_of[static_cast<std::size_t>(
                   c)])]
        .push_back(ClusterId{c});
  }
  return p;
}

std::vector<int> ShardWorkerCounts(const std::vector<ClusterSpec>& specs,
                                   const Partition& partition) {
  std::vector<int> counts(static_cast<std::size_t>(partition.num_shards), 0);
  for (std::size_t c = 0; c < specs.size(); ++c) {
    counts[static_cast<std::size_t>(partition.shard_of[c])] +=
        specs[c].num_workers;
  }
  return counts;
}

}  // namespace tango::k8s
