// Tests for the sharded engine's placement policies (sched/cluster_policy):
// each pure policy's documented tie-break and skip rules, and the
// incremental WorkerIndex against PickLocalWorker and a rescan under
// seeded random mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "sched/cluster_policy.h"

namespace tango::sched {
namespace {

WorkerView Worker(Millicores capacity, Millicores used, bool alive = true,
                  bool draining = false) {
  WorkerView w;
  w.capacity = capacity;
  w.used = used;
  w.alive = alive;
  w.draining = draining;
  return w;
}

ClusterView View(int cluster, Millicores free, std::int32_t live = 1,
                 std::uint64_t version = 1) {
  ClusterView v;
  v.cluster = ClusterId{cluster};
  v.free_total = free;
  v.live_workers = live;
  v.version = version;
  return v;
}

// ---- PickLocalWorker -------------------------------------------------------

TEST(PickLocalWorker, MostFreeWins) {
  const std::vector<WorkerView> w = {Worker(4000, 3000), Worker(4000, 1000),
                                     Worker(4000, 2000)};
  EXPECT_EQ(PickLocalWorker(w, 500), 1);
}

TEST(PickLocalWorker, TiesBreakOnLowestIndex) {
  const std::vector<WorkerView> w = {Worker(2000, 1500), Worker(4000, 2000),
                                     Worker(3000, 1000), Worker(2000, 0)};
  EXPECT_EQ(PickLocalWorker(w, 100), 1);  // workers 1, 2, 3 all have 2000
}

TEST(PickLocalWorker, SkipsDeadAndDrainingWorkers) {
  const std::vector<WorkerView> w = {Worker(8000, 0, /*alive=*/false),
                                     Worker(8000, 0, true, /*draining=*/true),
                                     Worker(2000, 1000)};
  EXPECT_EQ(PickLocalWorker(w, 500), 2);
  EXPECT_EQ(PickLocalWorker(w, 1500), -1);
}

TEST(PickLocalWorker, DemandMustFitExactly) {
  const std::vector<WorkerView> w = {Worker(2000, 500), Worker(2000, 800)};
  EXPECT_EQ(PickLocalWorker(w, 1500), 0);  // free == demand fits
  EXPECT_EQ(PickLocalWorker(w, 1501), -1);
  EXPECT_EQ(PickLocalWorker({}, 0), -1);
}

// ---- PickEvictionWorker ----------------------------------------------------

TEST(PickEvictionWorker, HeaviestBeWinsLowestIndexOnTies) {
  const std::vector<WorkerView> w = {Worker(4000, 4000), Worker(4000, 4000),
                                     Worker(4000, 4000), Worker(4000, 4000)};
  EXPECT_EQ(PickEvictionWorker(w, {500, 1500, 1500, 1000}, 1), 1);
}

TEST(PickEvictionWorker, SkipsUnusableAndBelowMinimum) {
  const std::vector<WorkerView> w = {
      Worker(4000, 4000, /*alive=*/false),
      Worker(4000, 4000, true, /*draining=*/true), Worker(4000, 4000),
      Worker(4000, 4000)};
  const std::vector<Millicores> be = {3000, 3000, 700, 699};
  EXPECT_EQ(PickEvictionWorker(w, be, 1), 2);
  EXPECT_EQ(PickEvictionWorker(w, be, 700), 2);  // be == min_be qualifies
  EXPECT_EQ(PickEvictionWorker(w, be, 701), -1);
  EXPECT_EQ(PickEvictionWorker(w, {0, 0, 0, 0}, 1), -1);
}

// ---- PickSpillCluster ------------------------------------------------------

TEST(PickSpillCluster, MostFreeWinsLowestClusterIdOnTies) {
  // Candidates arrive in geographic, not id, order: the tie-break is on
  // the cluster id, not the position.
  const std::vector<ClusterView> c = {View(7, 3000), View(2, 5000),
                                      View(9, 5000), View(1, 4000)};
  EXPECT_EQ(PickSpillCluster(c, 1000), ClusterId{2});
  const std::vector<ClusterView> reversed = {View(9, 5000), View(2, 5000)};
  EXPECT_EQ(PickSpillCluster(reversed, 1000), ClusterId{2});
}

TEST(PickSpillCluster, SkipsNeverSyncedDeadAndFull) {
  const std::vector<ClusterView> c = {
      View(0, 9000, 4, /*version=*/0),  // never synced
      View(1, 9000, /*live=*/0),        // no live worker
      View(2, 999), View(3, 1000)};
  EXPECT_EQ(PickSpillCluster(c, 1000), ClusterId{3});  // free == demand fits
  EXPECT_FALSE(PickSpillCluster(c, 1001).valid());
  EXPECT_FALSE(PickSpillCluster({}, 0).valid());
}

// ---- RankBeClusters --------------------------------------------------------

TEST(RankBeClusters, DescendingFreeLowestIdOnTies) {
  const std::vector<ClusterView> v = {View(0, 1000), View(1, 3000),
                                      View(2, 1000), View(3, 3000),
                                      View(4, 2000)};
  const std::vector<ClusterId> want = {ClusterId{1}, ClusterId{3},
                                       ClusterId{4}, ClusterId{0},
                                       ClusterId{2}};
  std::vector<ClusterId> order;
  RankBeClusters(v, &order);
  EXPECT_EQ(order, want);
}

TEST(RankBeClusters, SkipsNeverSyncedAndDeadClustersAndReusesScratch) {
  const std::vector<ClusterView> v = {View(0, 9000, 4, /*version=*/0),
                                      View(1, 100), View(2, 9000, /*live=*/0),
                                      View(3, 200)};
  std::vector<ClusterId> scratch = {ClusterId{7}, ClusterId{8}};
  RankBeClusters(v, &scratch);  // clears what the caller left behind
  EXPECT_EQ(scratch, (std::vector<ClusterId>{ClusterId{3}, ClusterId{1}}));
}

// ---- WorkerIndex -----------------------------------------------------------

TEST(WorkerIndex, PicksLikePickLocalWorker) {
  const std::vector<WorkerView> w = {
      Worker(2000, 1500), Worker(4000, 2000), Worker(3000, 1000),
      Worker(9000, 0, /*alive=*/false),
      Worker(9000, 0, true, /*draining=*/true)};
  const std::vector<Millicores> be = {500, 0, 1000, 0, 0};
  const WorkerIndex ix(w, be);
  for (Millicores demand : {0, 100, 2000, 2001}) {
    EXPECT_EQ(ix.Pick(demand), PickLocalWorker(w, demand)) << demand;
  }
  EXPECT_EQ(ix.Pick(100), 1);  // lowest index of the 2000-free pair
  EXPECT_EQ(ix.usable_capacity(), 9000);
  EXPECT_EQ(ix.usable_used(), 4500);
  EXPECT_EQ(ix.usable_be_used(), 1500);
  EXPECT_EQ(ix.usable_free(), 4500);
  EXPECT_EQ(ix.live_workers(), 4);  // draining workers are still alive
}

TEST(WorkerIndex, EmptyAndAllUnusableTablesPickNothing) {
  const WorkerIndex empty;
  EXPECT_EQ(empty.Pick(0), -1);
  EXPECT_EQ(empty.live_workers(), 0);
  const WorkerIndex down({Worker(4000, 0, false), Worker(4000, 0, true, true)},
                         {0, 0});
  EXPECT_EQ(down.Pick(0), -1);
  EXPECT_EQ(down.usable_capacity(), 0);
  EXPECT_EQ(down.live_workers(), 1);
}

// Mutate a random worker the way the cluster model does: exec start and
// release (LC or BE), crash, recover, drain, undrain.
void Mutate(Rng& rng, std::vector<WorkerView>& w, std::vector<Millicores>& be,
            WorkerIndex& ix) {
  const auto i = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(w.size()) - 1));
  WorkerView next = w[i];
  Millicores next_be = be[i];
  switch (rng.UniformInt(0, 5)) {
    case 0:
    case 1: {  // start an exec that fits
      const Millicores room = next.free();
      if (room <= 0) break;
      const Millicores d = rng.UniformInt(1, room);
      next.used += d;
      if (rng.Bernoulli(0.4)) next_be += d;
      break;
    }
    case 2:
    case 3: {  // release part of the usage, BE first when there is some
      if (next.used <= 0) break;
      const Millicores d = rng.UniformInt(1, next.used);
      next.used -= d;
      next_be -= std::min(next_be, d);
      break;
    }
    case 4:
      next.alive = !next.alive;
      break;
    default:
      next.draining = !next.draining;
      break;
  }
  ix.Update(i, w[i], be[i], next, next_be);
  w[i] = next;
  be[i] = next_be;
}

TEST(WorkerIndex, RandomizedDifferentialAgainstRescan) {
  for (const std::uint64_t seed : {1ull, 7ull, 2024ull}) {
    for (const int n : {1, 2, 5, 64, 100, 800}) {
      Rng rng(seed * 1000003 + static_cast<std::uint64_t>(n));
      std::vector<WorkerView> w(static_cast<std::size_t>(n));
      for (auto& v : w) {
        // Few distinct capacities so ties are common.
        v.capacity = 1000 * rng.UniformInt(1, 4);
      }
      std::vector<Millicores> be(w.size(), 0);
      WorkerIndex ix(w, be);
      for (int step = 0; step < 2000; ++step) {
        Mutate(rng, w, be, ix);
        Millicores cap = 0;
        Millicores used = 0;
        Millicores be_sum = 0;
        std::int32_t live = 0;
        Millicores best = 0;
        for (std::size_t k = 0; k < w.size(); ++k) {
          if (w[k].alive) ++live;
          if (!w[k].usable()) continue;
          cap += w[k].capacity;
          used += w[k].used;
          be_sum += be[k];
          best = std::max(best, w[k].free());
        }
        ASSERT_EQ(ix.usable_capacity(), cap) << "seed " << seed << " n " << n;
        ASSERT_EQ(ix.usable_used(), used);
        ASSERT_EQ(ix.usable_be_used(), be_sum);
        ASSERT_EQ(ix.live_workers(), live);
        const Millicores demands[] = {0, 1, best, best + 1,
                                      rng.UniformInt(0, 4000)};
        for (const Millicores d : demands) {
          ASSERT_EQ(ix.Pick(d), PickLocalWorker(w, d))
              << "seed " << seed << " n " << n << " step " << step
              << " demand " << d;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tango::sched
