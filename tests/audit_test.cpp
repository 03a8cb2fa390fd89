// TangoAudit seeded-bug coverage: every checker must be provably *live* —
// each test plants one corrupt state (via the #if TANGO_AUDIT test hooks or
// by feeding a pure-data checker violating values) and expects the abort
// with the structured "AUDIT VIOLATION" report. When the build has audit
// off, the same translation unit instead proves the layer is inert: the
// checkers no-op on violating input and the check counter stays zero.

#include <gtest/gtest.h>

#include <vector>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "cgroup/cgroup.h"
#include "flow/mcmf.h"
#include "sched/cluster_policy.h"
#include "sched/dss_lc.h"
#include "sim/simulator.h"

namespace tango {
namespace {

using audit::checks::DvpaOrderChecker;
using Level = DvpaOrderChecker::Level;

#if !defined(TANGO_AUDIT)

TEST(AuditDisabled, CheckersAreInert) {
  EXPECT_FALSE(audit::kEnabled);
  // Blatant violations must be ignored: the checks compile to nothing.
  audit::checks::CheckNodeConservation(0, 1, /*cpu_capacity=*/1000,
                                       /*cpu_granted=*/9999, 100, 9999);
  audit::checks::CheckUsageCache(0, 1, "cpu_in_use", 5, 7);
  audit::checks::CheckUsageAggregate(0, "cpu_in_use", 5, 7);
  audit::checks::CheckLcTargetUsable(0, 1, /*usable=*/false);
  audit::checks::CheckUniqueAssignment(0, 1, /*already_assigned=*/true);
  audit::checks::CheckVersionMonotonic(0, 1, /*synced=*/9, /*current=*/3);
  audit::checks::CheckDeltaIdentity(0, 1, /*contents_match=*/false);
  audit::checks::CheckCgroupBound(100, 200, "cpu.cfs_quota_us", "p/c");
  DvpaOrderChecker order(0, 1, 2);
  order.BeginKind("cpu.cfs_quota_us", 100, 50);  // shrink
  order.OnWrite(Level::kPod, false);             // wrong order AND rejected
  order.OnWrite(Level::kContainer, false);
  std::vector<sched::WorkerView> workers(2);
  const std::vector<Millicores> be(workers.size(), 0);
  const sched::WorkerIndex index(workers, be);
  workers[0].used = 5;  // stale index
  index.Audit(workers, be, 0);
  const std::vector<std::int64_t> cost = {1, 2}, cap = {2, 2};
  const std::vector<sched::StarFill> skipped_cheaper = {{1, 2}};
  sched::AuditStarFill(cost, cap, 2, 4096, skipped_cheaper);
  EXPECT_EQ(audit::checks_run(), 0);
}

TEST(AuditDisabled, RegistryIgnoresRegistration) {
  audit::Registry reg;
  reg.Register("never", [] { FAIL() << "must not be stored when off"; });
  EXPECT_EQ(reg.size(), 0u);
  reg.RunAll();
}

#else  // TANGO_AUDIT

TEST(AuditCore, PassingChecksCountAndDoNotAbort) {
  const std::int64_t before = audit::checks_run();
  audit::checks::CheckNodeConservation(5, 1, 1000, 800, 4096, 2048);
  audit::checks::CheckUsageCache(5, 1, "cpu_in_use", 42, 42);
  audit::checks::CheckVersionMonotonic(5, 1, 3, 7);
  EXPECT_GT(audit::checks_run(), before);
}

TEST(AuditCore, RegistryStoresAndRunsCheckers) {
  audit::Registry reg;
  int runs = 0;
  reg.Register("count", [&runs] { ++runs; });
  EXPECT_EQ(reg.size(), 1u);
  reg.RunAll();
  reg.RunAll();
  EXPECT_EQ(runs, 2);
}

using AuditDeathTest = ::testing::Test;

TEST(AuditDeathTest, NodeCpuConservation) {
  EXPECT_DEATH(audit::checks::CheckNodeConservation(7, 3, 1000, 1500, 4096,
                                                    100),
               "AUDIT VIOLATION.*node.cpu_conservation");
}

TEST(AuditDeathTest, NodeMemConservation) {
  EXPECT_DEATH(audit::checks::CheckNodeConservation(7, 3, 1000, 500, 4096,
                                                    8192),
               "AUDIT VIOLATION.*node.mem_conservation");
}

TEST(AuditDeathTest, UsageCacheDrift) {
  EXPECT_DEATH(audit::checks::CheckUsageCache(7, 3, "cpu_in_use", 100, 90),
               "AUDIT VIOLATION.*node.usage_cache");
}

TEST(AuditDeathTest, UsageAggregateDrift) {
  // SampleMetrics' certificate: the incremental system-wide sums against a
  // rescan of every worker.
  EXPECT_DEATH(audit::checks::CheckUsageAggregate(7, "cpu_in_use_be", 300,
                                                  250),
               "AUDIT VIOLATION.*metrics.usage_aggregate");
}

TEST(AuditDeathTest, LcRoutedToDeadNode) {
  EXPECT_DEATH(audit::checks::CheckLcTargetUsable(7, 3, false),
               "AUDIT VIOLATION.*sched.lc_target_usable");
}

TEST(AuditDeathTest, DuplicateAssignment) {
  EXPECT_DEATH(audit::checks::CheckUniqueAssignment(7, 11, true),
               "AUDIT VIOLATION.*sched.unique_assignment");
}

TEST(AuditDeathTest, SeenVersionAheadOfWorker) {
  EXPECT_DEATH(audit::checks::CheckVersionMonotonic(7, 3, 9, 3),
               "AUDIT VIOLATION.*sync.version_monotonic");
}

TEST(AuditDeathTest, DeltaSkipWithStaleContent) {
  EXPECT_DEATH(audit::checks::CheckDeltaIdentity(7, 3, false),
               "AUDIT VIOLATION.*sync.delta_identity");
}

// --- D-VPA ordered-write protocol ---------------------------------------

TEST(AuditDeathTest, DvpaShrinkWritesPodFirst) {
  DvpaOrderChecker order(7, 3, 1);
  order.BeginKind("cpu.cfs_quota_us", /*old_pod_bound=*/100'000,
                  /*new_bound=*/50'000);
  EXPECT_DEATH(order.OnWrite(Level::kPod, true),
               "AUDIT VIOLATION.*dvpa.shrink_order");
}

TEST(AuditDeathTest, DvpaExpandWritesContainerFirst) {
  DvpaOrderChecker order(7, 3, 1);
  order.BeginKind("memory.limit_in_bytes", /*old_pod_bound=*/512,
                  /*new_bound=*/1024);
  EXPECT_DEATH(order.OnWrite(Level::kContainer, true),
               "AUDIT VIOLATION.*dvpa.expand_order");
}

TEST(AuditDeathTest, DvpaRejectedWrite) {
  DvpaOrderChecker order(7, 3, 1);
  order.BeginKind("cpu.cfs_quota_us", 100'000, 200'000);
  EXPECT_DEATH(order.OnWrite(Level::kPod, /*ok=*/false),
               "AUDIT VIOLATION.*dvpa.write_rejected");
}

TEST(AuditDeathTest, DvpaDuplicateWrite) {
  DvpaOrderChecker order(7, 3, 1);
  order.BeginKind("cpu.cfs_quota_us", 100'000, 200'000);
  order.OnWrite(Level::kPod, true);
  EXPECT_DEATH(order.OnWrite(Level::kPod, true),
               "AUDIT VIOLATION.*dvpa.duplicate_write");
}

TEST(AuditCore, DvpaLegalOrdersPass) {
  {
    DvpaOrderChecker order(7, 3, 1);  // expansion: pod then container
    order.BeginKind("cpu.cfs_quota_us", 100'000, 200'000);
    order.OnWrite(Level::kPod, true);
    order.OnWrite(Level::kContainer, true);
  }
  {
    DvpaOrderChecker order(7, 3, 1);  // shrink: container then pod
    order.BeginKind("cpu.cfs_quota_us", 200'000, 100'000);
    order.OnWrite(Level::kContainer, true);
    order.OnWrite(Level::kPod, true);
  }
  {
    DvpaOrderChecker order(7, 3, 1);  // unlimited old bound: either order
    order.BeginKind("memory.limit_in_bytes", -1, 1024);
    order.OnWrite(Level::kContainer, true);
    order.OnWrite(Level::kPod, true);
  }
}

// --- cgroup hierarchy ----------------------------------------------------

cgroup::Hierarchy PodWithContainer(const std::string& pod,
                                   const std::string& container) {
  cgroup::Hierarchy h;
  const std::string qos = cgroup::Hierarchy::QosPath(
      cgroup::QosClass::kBurstable);
  EXPECT_NE(h.Create(qos, pod), nullptr);
  EXPECT_NE(h.Create(qos + "/" + pod, container), nullptr);
  return h;
}

TEST(AuditDeathTest, CgroupChildAbovePlantedParentBound) {
  cgroup::Hierarchy h = PodWithContainer("pod-a", "c0");
  const std::string qos =
      cgroup::Hierarchy::QosPath(cgroup::QosClass::kBurstable);
  ASSERT_EQ(h.WriteCpuQuota(qos, 100'000), cgroup::WriteResult::kOk);
  // Plant a pod quota above the QoS-level bound, bypassing the EINVAL
  // check the kernel (and Hierarchy) would apply — exactly the corruption
  // a missed ordered write would cause. (Planted at the pod level so only
  // the parent-bound invariant trips, not pod-covers-children too.)
  h.SetCpuQuotaUncheckedForTest(qos + "/pod-a", 150'000);
  EXPECT_DEATH(h.Audit(), "AUDIT VIOLATION.*cgroup.child_within_parent");
}

TEST(AuditDeathTest, CgroupPodBelowChildrenSum) {
  cgroup::Hierarchy h = PodWithContainer("pod-a", "c0");
  const std::string pod = "kubepods/burstable/pod-a";
  ASSERT_NE(h.Create(pod, "c1"), nullptr);
  ASSERT_EQ(h.WriteCpuQuota(pod, 100'000), cgroup::WriteResult::kOk);
  ASSERT_EQ(h.WriteCpuQuota(pod + "/c0", 60'000), cgroup::WriteResult::kOk);
  // Each child individually respects the pod bound, but together they
  // overdraw it — the per-write EINVAL rule cannot see this, only the
  // pod-covers-children sweep can.
  EXPECT_DEATH(h.WriteCpuQuota(pod + "/c1", 60'000),
               "AUDIT VIOLATION.*cgroup.pod_covers_children");
}

// --- MCMF certificates ---------------------------------------------------

TEST(AuditDeathTest, FlowCapacityRespect) {
  flow::MinCostMaxFlow mcmf(4);
  const int a = mcmf.AddArc(0, 1, 5, 1);
  mcmf.AddArc(1, 3, 5, 1);
  mcmf.AddArc(0, 2, 3, 2);
  mcmf.AddArc(2, 3, 3, 2);
  const auto result = mcmf.Solve(0, 3);
  EXPECT_EQ(result.max_flow, 8);
  // Clobber one forward arc's residual: residual + flow no longer equals
  // the arc capacity, which also breaks conservation at its head.
  mcmf.CorruptArcForTest(a, 4);
  EXPECT_DEATH(mcmf.AuditSolution(0, 3, result.max_flow, result.saturated),
               "AUDIT VIOLATION.*flow\\.");
}

TEST(AuditDeathTest, FlowSourceOutflowMismatch) {
  flow::MinCostMaxFlow mcmf(2);
  mcmf.AddArc(0, 1, 5, 1);
  const auto result = mcmf.Solve(0, 1);
  EXPECT_EQ(result.max_flow, 5);
  EXPECT_DEATH(mcmf.AuditSolution(0, 1, result.max_flow + 1,
                                  result.saturated),
               "AUDIT VIOLATION.*flow.source_outflow");
}

TEST(AuditCore, FlowSolveSelfAuditsClean) {
  const std::int64_t before = audit::checks_run();
  flow::MinCostMaxFlow mcmf(4);
  mcmf.AddArc(0, 1, 5, 1);
  mcmf.AddArc(1, 3, 4, 1);
  mcmf.AddArc(0, 2, 3, -2);  // negative cost exercises Bellman-Ford
  mcmf.AddArc(2, 3, 3, 2);
  const auto result = mcmf.Solve(0, 3);
  EXPECT_EQ(result.max_flow, 7);
  EXPECT_GT(audit::checks_run(), before);  // Solve ran AuditSolution itself
}

// --- simulator event heap ------------------------------------------------

// FillStar's certificate (the greedy dispatch DSS-LC runs on every G_k and
// Ĝ'_k): each seeded fill breaks exactly one clause.
const std::vector<std::int64_t> kStarCost = {1, 2, 3};
const std::vector<std::int64_t> kStarCap = {2, 2, 2};

TEST(AuditDeathTest, StarFillSkipsACheaperWorker) {
  // Worker 2 filled while cheaper worker 1 keeps spare capacity.
  const std::vector<sched::StarFill> fills = {{0, 2}, {2, 1}};
  EXPECT_DEATH(sched::AuditStarFill(kStarCost, kStarCap, 3, 4096, fills),
               "AUDIT VIOLATION.*sched\\.star_fill_order");
}

TEST(AuditDeathTest, StarFillRoutesTooLittle) {
  const std::vector<sched::StarFill> fills = {{0, 2}};
  EXPECT_DEATH(sched::AuditStarFill(kStarCost, kStarCap, 3, 4096, fills),
               "AUDIT VIOLATION.*sched\\.star_fill_total");
}

TEST(AuditDeathTest, StarFillExceedsEdgeCapacity) {
  const std::vector<sched::StarFill> fills = {{0, 2}, {1, 1}};
  EXPECT_DEATH(sched::AuditStarFill(kStarCost, kStarCap, 3, 1, fills),
               "AUDIT VIOLATION.*sched\\.star_fill_bound");
}

TEST(AuditCore, StarFillSelfAuditsClean) {
  std::vector<sched::StarKey> heap;
  std::vector<sched::StarFill> fills;
  const std::int64_t before = audit::checks_run();
  EXPECT_EQ(sched::FillStar(kStarCost, kStarCap, 5, 4096, heap, fills), 5);
  EXPECT_GT(audit::checks_run(), before);
}

TEST(AuditDeathTest, HeapCorruptionCaught) {
  sim::Simulator sim;
  sim.ScheduleAt(10, [] {});
  sim.ScheduleAt(20, [] {});
  sim.ScheduleAt(30, [] {});
  sim.CorruptHeapForTest();  // swap two heap slots, back-indices now stale
  EXPECT_DEATH(sim.AuditHeap(), "AUDIT VIOLATION.*sim\\.heap");
}

TEST(AuditCore, SimulatorSelfAuditsMutations) {
  const std::int64_t before = audit::checks_run();
  sim::Simulator sim;
  // The mutation-site sweep is throttled 1-in-64, so drive well past one
  // throttle window to prove the wiring is live.
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(i, [] {});
  }
  sim.RunAll();
  EXPECT_GT(audit::checks_run(), before);
}

// --- sharded engine worker index -----------------------------------------

TEST(AuditDeathTest, WorkerIndexMissedMutation) {
  std::vector<sched::WorkerView> workers(6);
  for (auto& w : workers) w.capacity = 4000;
  const std::vector<Millicores> be(workers.size(), 0);
  const sched::WorkerIndex index(workers, be);
  workers[3].used = 1500;  // an exec start that bypassed the index
  EXPECT_DEATH(index.Audit(workers, be, 0),
               "AUDIT VIOLATION.*sched\\.worker_index_tree");
}

TEST(AuditDeathTest, WorkerIndexLiveCountDrift) {
  std::vector<sched::WorkerView> workers(6);
  for (auto& w : workers) w.capacity = 4000;
  const std::vector<Millicores> be(workers.size(), 0);
  sched::WorkerIndex index(workers, be);
  sched::WorkerView drained = workers[2];
  drained.draining = true;
  index.Update(2, workers[2], 0, drained, 0);
  workers[2] = drained;
  // A crash of a draining worker that bypassed the index: its tree leaf
  // stays unusable, so only the live-worker sum can catch it.
  workers[2].alive = false;
  EXPECT_DEATH(index.Audit(workers, be, 0),
               "AUDIT VIOLATION.*sched\\.worker_index_sums");
}

TEST(AuditCore, WorkerIndexAuditPassesWhenInStep) {
  std::vector<sched::WorkerView> workers(5);
  for (auto& w : workers) w.capacity = 2000;
  const std::vector<Millicores> be(workers.size(), 0);
  sched::WorkerIndex index(workers, be);
  sched::WorkerView busy = workers[1];
  busy.used = 700;
  index.Update(1, workers[1], 0, busy, 0);
  workers[1] = busy;
  const std::int64_t before = audit::checks_run();
  index.Audit(workers, be, 0);
  EXPECT_GT(audit::checks_run(), before);
}

#endif  // TANGO_AUDIT

}  // namespace
}  // namespace tango
