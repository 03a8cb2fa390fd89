// Tests for the D-VPA scaler (ordered cgroup writes, §4.2) and the QoS
// re-assurance mechanism (Algorithm 1, §4.3).
#include <gtest/gtest.h>

#include "eval/harness.h"
#include "hrm/dvpa.h"
#include "hrm/reassurance.h"
#include "sched/be_baselines.h"
#include "sched/lc_baselines.h"

namespace tango::hrm {
namespace {

struct DvpaFixture : public ::testing::Test {
  void SetUp() override {
    h.Create("kubepods/burstable", "pod1");
    h.Create("kubepods/burstable/pod1", "c0");
    // Start from a known finite allocation.
    ASSERT_EQ(h.WriteCpuQuota("kubepods/burstable/pod1",
                              QuotaFromMillicores(500)),
              cgroup::WriteResult::kOk);
    ASSERT_EQ(h.WriteCpuQuota("kubepods/burstable/pod1/c0",
                              QuotaFromMillicores(500)),
              cgroup::WriteResult::kOk);
    ASSERT_EQ(h.WriteMemoryLimit("kubepods/burstable/pod1", 512),
              cgroup::WriteResult::kOk);
    ASSERT_EQ(h.WriteMemoryLimit("kubepods/burstable/pod1/c0", 512),
              cgroup::WriteResult::kOk);
  }
  cgroup::Hierarchy h;
  DvpaScaler scaler;
  const std::string pod = "kubepods/burstable/pod1";
  const std::string container = "kubepods/burstable/pod1/c0";
};

TEST_F(DvpaFixture, QuotaConversion) {
  EXPECT_EQ(QuotaFromMillicores(1000), 100'000);  // 1 core
  EXPECT_EQ(QuotaFromMillicores(250), 25'000);
}

TEST_F(DvpaFixture, ExpandSucceedsWithoutInterruption) {
  const ScaleResult r = scaler.Scale(h, pod, container, 1500, 2048);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.uninterrupted);
  EXPECT_EQ(r.writes, 4);
  EXPECT_NEAR(ToMilliseconds(r.latency), 23.0, 0.1);
  EXPECT_EQ(h.Find(container)->knobs().CpuLimitMillicores().value(), 1500);
  EXPECT_EQ(h.Find(container)->knobs().memory_limit, 2048);
  EXPECT_EQ(h.Find(pod)->knobs().memory_limit, 2048);
}

TEST_F(DvpaFixture, ShrinkSucceedsInReverseOrder) {
  const ScaleResult r = scaler.Scale(h, pod, container, 100, 128);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(h.Find(pod)->knobs().CpuLimitMillicores().value(), 100);
  EXPECT_EQ(h.Find(container)->knobs().memory_limit, 128);
}

TEST_F(DvpaFixture, MixedDirectionScale) {
  // Grow CPU while shrinking memory — each dimension orders independently.
  const ScaleResult r = scaler.Scale(h, pod, container, 2000, 128);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(h.Find(container)->knobs().CpuLimitMillicores().value(), 2000);
  EXPECT_EQ(h.Find(container)->knobs().memory_limit, 128);
}

TEST_F(DvpaFixture, UnchangedTargetRewritesBothLevels) {
  // The fixture's own limits: neither an expansion nor a shrink, yet every
  // write must still land.
  const ScaleResult r = scaler.Scale(h, pod, container, 500, 512);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.writes, 4);
  EXPECT_NEAR(ToMilliseconds(r.latency), 23.0, 0.1);
  for (const std::string& path : {pod, container}) {
    EXPECT_EQ(h.Find(path)->knobs().CpuLimitMillicores().value(), 500);
    EXPECT_EQ(h.Find(path)->knobs().memory_limit, 512);
  }
}

TEST(DvpaScaler, FreshPodWithUnlimitedBounds) {
  // A pod that was never limited (-1 on both knobs), as a worker's pod is
  // before its first admission.
  cgroup::Hierarchy h;
  h.Create("kubepods/burstable", "pod1");
  h.Create("kubepods/burstable/pod1", "c0");
  const std::string pod = "kubepods/burstable/pod1";
  const std::string container = "kubepods/burstable/pod1/c0";
  const ScaleResult r = DvpaScaler().Scale(h, pod, container, 750, 1024);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.writes, 4);
  for (const std::string& path : {pod, container}) {
    EXPECT_EQ(h.Find(path)->knobs().CpuLimitMillicores().value(), 750);
    EXPECT_EQ(h.Find(path)->knobs().memory_limit, 1024);
  }
}

TEST_F(DvpaFixture, WrongOrderWouldFailDirectWrites) {
  // Sanity: the invariant D-VPA works around. Raising the container first
  // is rejected by the hierarchy itself.
  EXPECT_EQ(h.WriteCpuQuota(container, QuotaFromMillicores(4000)),
            cgroup::WriteResult::kInvalidArgument);
}

TEST_F(DvpaFixture, MissingGroupsFailCleanly) {
  const ScaleResult r =
      scaler.Scale(h, "kubepods/burstable/ghost", container, 100, 100);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.writes, 0);
}

TEST_F(DvpaFixture, NativeRebuildInterruptsAndIsSlow) {
  const ScaleResult r = scaler.NativeRebuild(h, pod, "c0", 1500, 2048);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.uninterrupted);
  // ~100× a D-VPA op (2300 ms vs 23 ms).
  const ScaleResult d = scaler.Scale(h, pod, container, 1600, 2048);
  ASSERT_TRUE(d.ok);
  EXPECT_NEAR(static_cast<double>(r.latency) / static_cast<double>(d.latency),
              100.0, 5.0);
  // Pod was recreated with the requested limits.
  EXPECT_EQ(h.Find(pod)->knobs().memory_limit, 2048);
}

TEST_F(DvpaFixture, RebuildOfMissingPodFails) {
  const ScaleResult r =
      scaler.NativeRebuild(h, "kubepods/burstable/ghost", "c0", 100, 100);
  EXPECT_FALSE(r.ok);
}

// ------------------------------------------------------------ reassurer --

struct ReassuranceFixture : public ::testing::Test {
  void SetUp() override {
    catalog = workload::ServiceCatalog::Standard();
    k8s::SystemConfig cfg;
    cfg.clusters = eval::PhysicalClusters(1);
    cfg.seed = 5;
    system = std::make_unique<k8s::EdgeCloudSystem>(cfg, &catalog);
    lc = std::make_unique<sched::LoadGreedyLcScheduler>(&catalog);
    be = std::make_unique<sched::LoadGreedyBeScheduler>(&catalog);
    system->SetLcScheduler(lc.get());
    system->SetBeScheduler(be.get());
    policy = std::make_unique<HrmAllocationPolicy>(&catalog);
    system->SetAllocationPolicy(policy.get());
  }
  workload::ServiceCatalog catalog;
  std::unique_ptr<k8s::EdgeCloudSystem> system;
  std::unique_ptr<k8s::LcScheduler> lc;
  std::unique_ptr<k8s::BeScheduler> be;
  std::unique_ptr<HrmAllocationPolicy> policy;
};

TEST_F(ReassuranceFixture, PoorSlackRaisesMinimumRequest) {
  Reassurer re(system.get(), policy.get());
  const NodeId node{1};
  const ServiceId svc{0};
  const auto target = catalog.Get(svc).qos_target;
  // Report latencies at 2× the target → δ = −1 < α.
  system->qos_detector().Observe(50 * kMillisecond, node, svc, 2 * target);
  re.Tick(60 * kMillisecond);
  EXPECT_GT(policy->Multiplier(node, svc), 1.0);
  EXPECT_EQ(re.adjustments_up(), 1);
}

TEST_F(ReassuranceFixture, ExcellentSlackShrinksMinimumRequest) {
  Reassurer re(system.get(), policy.get());
  const NodeId node{2};
  const ServiceId svc{1};
  const auto target = catalog.Get(svc).qos_target;
  system->qos_detector().Observe(50 * kMillisecond, node, svc, target / 10);
  re.Tick(60 * kMillisecond);
  EXPECT_LT(policy->Multiplier(node, svc), 1.0);
  EXPECT_EQ(re.adjustments_down(), 1);
}

TEST_F(ReassuranceFixture, StableBandLeavesAllocationAlone) {
  ReassuranceConfig cfg;
  cfg.alpha = 0.1;
  cfg.beta = 0.5;
  Reassurer re(system.get(), policy.get(), cfg);
  const NodeId node{3};
  const ServiceId svc{2};
  const auto target = catalog.Get(svc).qos_target;
  // δ = 1 − 0.7 = 0.3 ∈ [α, β].
  system->qos_detector().Observe(
      50 * kMillisecond, node, svc,
      static_cast<SimDuration>(0.7 * static_cast<double>(target)));
  re.Tick(60 * kMillisecond);
  EXPECT_DOUBLE_EQ(policy->Multiplier(node, svc), 1.0);
  EXPECT_EQ(re.adjustments_up() + re.adjustments_down(), 0);
}

TEST_F(ReassuranceFixture, NoSamplesNoAdjustment) {
  Reassurer re(system.get(), policy.get());
  re.Tick(kSecond);
  EXPECT_EQ(re.adjustments_up() + re.adjustments_down(), 0);
}

TEST_F(ReassuranceFixture, PeriodicTickRunsWithSimulation) {
  Reassurer re(system.get(), policy.get());
  const NodeId node{1};
  const ServiceId svc{0};
  // Keep feeding violations; the periodic 100 ms task should keep nudging.
  for (int i = 1; i <= 9; ++i) {
    system->qos_detector().Observe(i * 100 * kMillisecond, node, svc,
                                   2 * catalog.Get(svc).qos_target);
  }
  system->Run(kSecond);
  EXPECT_GE(re.adjustments_up(), 5);
  EXPECT_GT(policy->Multiplier(node, svc), 1.2);
}

TEST_F(ReassuranceFixture, EndToEndImprovesQosUnderContention) {
  // A contended single cluster: with re-assurance ON the LC QoS-sat rate
  // should not fall below the OFF configuration (Figure 10's claim).
  workload::TraceConfig tc;
  tc.catalog = &catalog;
  tc.num_clusters = 1;
  tc.duration = 30 * kSecond;
  tc.lc_rps = 60.0;
  tc.be_rps = 12.0;
  tc.seed = 17;
  const workload::Trace trace =
      workload::GeneratePattern(workload::Pattern::kP3, tc);

  auto run = [&](bool with_reassurance) {
    k8s::SystemConfig cfg;
    cfg.clusters = eval::PhysicalClusters(1);
    cfg.seed = 5;
    k8s::EdgeCloudSystem sys(cfg, &catalog);
    sched::LoadGreedyLcScheduler lc2(&catalog);
    sched::LoadGreedyBeScheduler be2(&catalog);
    sys.SetLcScheduler(&lc2);
    sys.SetBeScheduler(&be2);
    HrmAllocationPolicy pol(&catalog);
    sys.SetAllocationPolicy(&pol);
    std::unique_ptr<Reassurer> re;
    if (with_reassurance) re = std::make_unique<Reassurer>(&sys, &pol);
    sys.SubmitTrace(trace);
    sys.Run(40 * kSecond);
    return sys.Summary();
  };
  const auto on = run(true);
  const auto off = run(false);
  EXPECT_GE(on.qos_satisfaction, off.qos_satisfaction - 0.02);
}

}  // namespace
}  // namespace tango::hrm
