// Per-cluster decision loops for the sharded engine, plus the thin global
// placement layer above them.
//
// DSS-LC and DCG-BE make *per-request* decisions against a full state
// storage; at 100k nodes that global view is exactly what serializes the
// simulation. The sharded engine instead splits scheduling Oakestra-style
// into two tiers:
//
//   - a per-cluster loop (one per master, shard-local): place an LC request
//     on the best local worker, fall back to a geo-nearby cluster chosen
//     from delta-synced aggregate views when the cluster is full;
//   - a thin global layer (the acting central master): rank clusters by
//     synced free capacity to place BE batches, never touching per-worker
//     state of remote clusters.
//
// Everything here is pure functions over POD views, so the policies are
// trivially shard-safe (no hidden shared state) and unit-testable without
// a system. Ties break on the lowest index — determinism is a contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace tango::sched {

/// Local worker as the per-cluster loop sees it (exact, shard-local state).
struct WorkerView {
  Millicores capacity = 0;
  Millicores used = 0;  // LC + BE combined
  bool alive = true;
  bool draining = false;

  Millicores free() const { return capacity - used; }
  bool usable() const { return alive && !draining; }
};

/// Remote cluster as last synced (aggregate, possibly stale — the version
/// stamp tells how stale).
struct ClusterView {
  ClusterId cluster;
  Millicores free_total = 0;
  std::int32_t live_workers = 0;
  std::uint64_t version = 0;  // 0 = never synced
};

/// Best usable local worker with at least `demand` free, by most-free with
/// lowest-index tie-break; -1 when the cluster cannot host the request.
/// O(n) reference scan: the per-cluster loop asks WorkerIndex instead, and
/// this stays as the oracle its tests and audits compare against.
int PickLocalWorker(const std::vector<WorkerView>& workers,
                    Millicores demand);

/// Incremental PickLocalWorker plus the aggregates the per-cluster loop
/// reads on every placement and sync, over a worker table the owner keeps:
///
///   - a max tournament tree over usable workers' free CPU (unusable
///     workers hold kUnusable), whose leftmost maximum is exactly
///     PickLocalWorker's most-free, lowest-index choice;
///   - running sums of usable workers' capacity, used and BE-used CPU, and
///     the count of alive workers.
///
/// The owner reports every change of a worker's view or BE usage through
/// Update (O(log n)); Pick is then O(log n) and every sum O(1).
class WorkerIndex {
 public:
  /// Tree value of a worker that is dead or draining.
  static constexpr Millicores kUnusable =
      std::numeric_limits<Millicores>::min();

  WorkerIndex() : WorkerIndex({}, {}) {}
  /// Index `workers` (with BE usage `be_used`, same length) from scratch.
  WorkerIndex(const std::vector<WorkerView>& workers,
              const std::vector<Millicores>& be_used);

  /// Worker `i` changed from (`before`, `be_before`) to (`after`,
  /// `be_after`).
  void Update(std::size_t i, const WorkerView& before, Millicores be_before,
              const WorkerView& after, Millicores be_after);

  /// Same answer as PickLocalWorker over the indexed table.
  int Pick(Millicores demand) const;

  Millicores usable_capacity() const { return sums_.capacity; }
  Millicores usable_used() const { return sums_.used; }
  Millicores usable_be_used() const { return sums_.be_used; }
  Millicores usable_free() const { return sums_.capacity - sums_.used; }
  std::int32_t live_workers() const { return sums_.live; }

  /// Audit the index against the table it claims to mirror: every tree
  /// leaf and internal node, every sum against a rescan, and Pick against
  /// PickLocalWorker at the demands that bracket the best free value.
  /// O(n); compiles to nothing unless TANGO_AUDIT.
  void Audit(const std::vector<WorkerView>& workers,
             const std::vector<Millicores>& be_used, SimTime now) const;

 private:
  struct Sums {
    Millicores capacity = 0;  // over usable workers
    Millicores used = 0;
    Millicores be_used = 0;
    std::int32_t live = 0;  // alive workers, draining or not

    void Count(const WorkerView& w, Millicores be, int sign);
    bool operator==(const Sums&) const = default;
  };
  static Millicores LeafValue(const WorkerView& w) {
    return w.usable() ? w.free() : kUnusable;
  }

  std::size_t leaves_ = 0;        // power of two >= worker count
  std::vector<Millicores> tree_;  // 1-based heap layout, leaves at leaves_
  Sums sums_;
};

/// Worker holding the most BE usage (eviction victim candidate); -1 when no
/// usable worker has `min_be` or more BE resident.
int PickEvictionWorker(const std::vector<WorkerView>& workers,
                       const std::vector<Millicores>& be_used,
                       Millicores min_be);

/// Best remote cluster for an LC spill-over: most synced free capacity
/// among `candidates` with at least `demand` free and at least one live
/// worker, lowest-cluster-id tie-break. Returns an invalid ClusterId when
/// nothing fits. `candidates` must already be the geo-nearby scope (§5.2's
/// 500 km rule) — the policy does not re-derive geography.
ClusterId PickSpillCluster(const std::vector<ClusterView>& candidates,
                           Millicores demand);

/// The thin global layer: rank every cluster for BE placement by synced
/// free capacity (descending, lowest-id ties). `views` must be indexed by
/// cluster id (views[c].cluster == ClusterId{c}). The central master walks
/// the ranking and sends each BE request to the first cluster that fits;
/// per-worker admission stays with the *target* cluster's loop (see
/// hrm::BeGuard), keeping the global layer aggregate-only.
///
/// The scratch overload fills a caller-retained buffer so steady-state
/// dispatch ticks stay allocation-free once the buffer reaches capacity.
void RankBeClusters(const std::vector<ClusterView>& views,
                    std::vector<ClusterId>* order);
std::vector<ClusterId> RankBeClusters(const std::vector<ClusterView>& views);

}  // namespace tango::sched
