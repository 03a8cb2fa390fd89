#include "sched/cluster_policy.h"

#include <algorithm>
#include <bit>

#include "audit/audit.h"
#include "common/logging.h"

namespace tango::sched {

int PickLocalWorker(const std::vector<WorkerView>& workers,
                    Millicores demand) {
  int best = -1;
  Millicores best_free = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerView& w = workers[i];
    if (!w.usable()) continue;
    const Millicores free = w.free();
    if (free < demand) continue;
    if (best < 0 || free > best_free) {
      best = static_cast<int>(i);
      best_free = free;
    }
  }
  return best;
}

WorkerIndex::WorkerIndex(const std::vector<WorkerView>& workers,
                         const std::vector<Millicores>& be_used)
    : leaves_(std::bit_ceil(std::max<std::size_t>(workers.size(), 1))),
      tree_(2 * leaves_, kUnusable) {
  TANGO_CHECK(be_used.size() == workers.size(),
              "worker index: %zu BE usages for %zu workers", be_used.size(),
              workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    tree_[leaves_ + i] = LeafValue(workers[i]);
    sums_.Count(workers[i], be_used[i], +1);
  }
  for (std::size_t node = leaves_ - 1; node >= 1; --node) {
    tree_[node] = std::max(tree_[2 * node], tree_[2 * node + 1]);
  }
}

void WorkerIndex::Sums::Count(const WorkerView& w, Millicores be,
                              int sign) {
  if (w.usable()) {
    capacity += sign * w.capacity;
    used += sign * w.used;
    be_used += sign * be;
  }
  if (w.alive) live += sign;
}

void WorkerIndex::Update(std::size_t i, const WorkerView& before,
                         Millicores be_before, const WorkerView& after,
                         Millicores be_after) {
  sums_.Count(before, be_before, -1);
  sums_.Count(after, be_after, +1);
  std::size_t node = leaves_ + i;
  tree_[node] = LeafValue(after);
  // Stop at the first ancestor whose maximum did not move: nothing above
  // it can change either.
  for (node /= 2; node >= 1; node /= 2) {
    const Millicores m = std::max(tree_[2 * node], tree_[2 * node + 1]);
    if (tree_[node] == m) break;
    tree_[node] = m;
  }
}

int WorkerIndex::Pick(Millicores demand) const {
  const Millicores best = tree_[1];
  if (best == kUnusable || best < demand) return -1;
  // Descend toward the leftmost leaf holding the maximum: the lowest index
  // among the most-free workers, PickLocalWorker's tie-break.
  std::size_t node = 1;
  while (node < leaves_) {
    node = tree_[2 * node] == best ? 2 * node : 2 * node + 1;
  }
  return static_cast<int>(node - leaves_);
}

void WorkerIndex::Audit(const std::vector<WorkerView>& workers,
                        const std::vector<Millicores>& be_used,
                        SimTime now) const {
  if constexpr (!audit::kEnabled) return;
  for (std::size_t i = 0; i < leaves_; ++i) {
    const Millicores want =
        i < workers.size() ? LeafValue(workers[i]) : kUnusable;
    AUDIT_CHECK(tree_[leaves_ + i] == want, .subsystem = "sched",
                .invariant = "sched.worker_index_tree", .sim_time = now,
                .detail = audit::Detail("leaf %zu holds %lld, worker table "
                                        "says %lld",
                                        i,
                                        static_cast<long long>(
                                            tree_[leaves_ + i]),
                                        static_cast<long long>(want)));
  }
  for (std::size_t node = 1; node < leaves_; ++node) {
    AUDIT_CHECK(
        tree_[node] == std::max(tree_[2 * node], tree_[2 * node + 1]),
        .subsystem = "sched", .invariant = "sched.worker_index_tree",
        .sim_time = now,
        .detail = audit::Detail("node %zu holds %lld, not its children's "
                                "max",
                                node, static_cast<long long>(tree_[node])));
  }
  Sums rescan;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    rescan.Count(workers[i], be_used[i], +1);
  }
  AUDIT_CHECK(rescan == sums_, .subsystem = "sched",
              .invariant = "sched.worker_index_sums", .sim_time = now,
              .detail = audit::Detail(
                  "capacity/used/be_used/live %lld/%lld/%lld/%d, rescan "
                  "%lld/%lld/%lld/%d",
                  static_cast<long long>(sums_.capacity),
                  static_cast<long long>(sums_.used),
                  static_cast<long long>(sums_.be_used), sums_.live,
                  static_cast<long long>(rescan.capacity),
                  static_cast<long long>(rescan.used),
                  static_cast<long long>(rescan.be_used), rescan.live));
  const Millicores best = tree_[1] == kUnusable ? 0 : tree_[1];
  for (const Millicores demand : {Millicores{0}, best, best + 1}) {
    const int want = PickLocalWorker(workers, demand);
    AUDIT_CHECK(Pick(demand) == want, .subsystem = "sched",
                .invariant = "sched.worker_index_pick", .sim_time = now,
                .detail = audit::Detail("demand %lld picks %d, "
                                        "PickLocalWorker says %d",
                                        static_cast<long long>(demand),
                                        Pick(demand), want));
  }
}

int PickEvictionWorker(const std::vector<WorkerView>& workers,
                       const std::vector<Millicores>& be_used,
                       Millicores min_be) {
  int best = -1;
  Millicores best_be = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (!workers[i].usable()) continue;
    const Millicores be = be_used[i];
    if (be < min_be) continue;
    if (best < 0 || be > best_be) {
      best = static_cast<int>(i);
      best_be = be;
    }
  }
  return best;
}

ClusterId PickSpillCluster(const std::vector<ClusterView>& candidates,
                           Millicores demand) {
  ClusterId best;
  Millicores best_free = 0;
  for (const ClusterView& v : candidates) {
    if (v.version == 0 || v.live_workers <= 0) continue;
    if (v.free_total < demand) continue;
    if (!best.valid() || v.free_total > best_free ||
        (v.free_total == best_free && v.cluster < best)) {
      best = v.cluster;
      best_free = v.free_total;
    }
  }
  return best;
}

void RankBeClusters(const std::vector<ClusterView>& views,
                    std::vector<ClusterId>* order) {
  order->clear();
  // Bounded by the cluster count, so the caller's retained buffer stops
  // growing after the first full-view tick.
  // TANGOVET_ALLOW_NEXT(amortized: scratch retains cluster-count capacity)
  order->reserve(views.size());
  for (const ClusterView& v : views) {
    if (v.version == 0 || v.live_workers <= 0) continue;
    // TANGOVET_ALLOW_NEXT(amortized: within capacity reserved above)
    order->push_back(v.cluster);
  }
  std::stable_sort(order->begin(), order->end(),
                   [&](ClusterId a, ClusterId b) {
                     const ClusterView& va =
                         views[static_cast<std::size_t>(a.value)];
                     const ClusterView& vb =
                         views[static_cast<std::size_t>(b.value)];
                     if (va.free_total != vb.free_total) {
                       return va.free_total > vb.free_total;
                     }
                     return a < b;
                   });
}

}  // namespace tango::sched
