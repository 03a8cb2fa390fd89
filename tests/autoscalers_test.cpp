// Tests for the K8s HPA behaviour model (§2.1's "too slow for LC" argument).
#include <gtest/gtest.h>

#include "eval/harness.h"
#include "k8s/autoscalers.h"
#include "sched/be_baselines.h"
#include "sched/lc_baselines.h"

namespace tango::k8s {
namespace {

using workload::ServiceCatalog;

NodeSpec StdNode() {
  NodeSpec n;
  n.id = NodeId{1};
  n.cluster = ClusterId{0};
  n.capacity = {8000, 16384};
  return n;
}

ExecSlot Slot(const ServiceCatalog& cat, int svc, int id) {
  const auto& s = cat.Get(ServiceId{svc});
  ExecSlot slot;
  slot.request = RequestId{id};
  slot.service = s.id;
  slot.is_lc = s.is_lc();
  slot.need = {s.cpu_demand, s.mem_demand};
  slot.remaining_work = s.cpu_work();
  return slot;
}

TEST(Hpa, StartsWithOneReplicaPerDeployment) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  HpaAllocationPolicy hpa(&cat);
  EXPECT_EQ(hpa.ReadyReplicas(NodeId{1}, ServiceId{0}, 0), 1);
  // Admission: first request fits, second exceeds the single replica.
  std::vector<ExecSlot> running;
  EXPECT_TRUE(hpa.Admit(StdNode(), Slot(cat, 0, 1), running).admit);
  running.push_back(Slot(cat, 0, 1));
  EXPECT_FALSE(hpa.Admit(StdNode(), Slot(cat, 0, 2), running).admit);
}

TEST(Hpa, ControlLoopScalesUpTowardTarget) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  HpaConfig cfg;
  cfg.startup_latency = 2300 * kMillisecond;
  HpaAllocationPolicy hpa(&cat, cfg);
  // Record demand of 3 concurrent against 1 replica.
  std::vector<ExecSlot> running{Slot(cat, 0, 1), Slot(cat, 0, 2)};
  hpa.SetNow(0);
  hpa.Admit(StdNode(), Slot(cat, 0, 3), running);  // observed_demand = 3
  hpa.ControlLoop(kSecond);
  // desired = ceil(1 × 3 / 0.8) = 4 replicas total…
  EXPECT_EQ(hpa.TotalReplicas(NodeId{1}, ServiceId{0}), 4);
  // …but the new ones are not ready until the cold start passes.
  EXPECT_EQ(hpa.ReadyReplicas(NodeId{1}, ServiceId{0}, kSecond + kMillisecond),
            1);
  EXPECT_EQ(hpa.ReadyReplicas(NodeId{1}, ServiceId{0},
                              kSecond + cfg.startup_latency),
            4);
  EXPECT_EQ(hpa.scale_ups(), 1);
}

TEST(Hpa, ScaleDownIsImmediateAndBounded) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  HpaAllocationPolicy hpa(&cat);
  std::vector<ExecSlot> running;
  hpa.SetNow(0);
  for (int i = 0; i < 7; ++i) running.push_back(Slot(cat, 0, i));
  hpa.Admit(StdNode(), Slot(cat, 0, 99), running);
  hpa.ControlLoop(kSecond);
  const int scaled = hpa.TotalReplicas(NodeId{1}, ServiceId{0});
  EXPECT_GT(scaled, 1);
  // A quiet period scales back toward min_replicas.
  for (int pass = 0; pass < 10; ++pass) {
    hpa.ControlLoop(kSecond * (2 + pass) * 20);
  }
  EXPECT_EQ(hpa.TotalReplicas(NodeId{1}, ServiceId{0}), 1);
  EXPECT_GT(hpa.scale_downs(), 0);
}

TEST(Hpa, MaxReplicasClamped) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  HpaConfig cfg;
  cfg.max_replicas = 3;
  HpaAllocationPolicy hpa(&cat, cfg);
  std::vector<ExecSlot> running;
  for (int i = 0; i < 20; ++i) running.push_back(Slot(cat, 0, i));
  hpa.SetNow(0);
  hpa.Admit(StdNode(), Slot(cat, 0, 99), running);
  hpa.ControlLoop(kSecond);
  EXPECT_LE(hpa.TotalReplicas(NodeId{1}, ServiceId{0}), 3);
}

TEST(Hpa, ControllerStopsBothLoopsWhenDestroyed) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  k8s::SystemConfig sys;
  sys.clusters = eval::PhysicalClusters(1);
  EdgeCloudSystem system(sys, &cat);
  sim::Simulator& sim = system.simulator();
  HpaAllocationPolicy hpa(&cat);
  const SimDuration period = hpa.config().period;
  const std::size_t before = sim.pending_events();
  const std::vector<ExecSlot> running{Slot(cat, 0, 1), Slot(cat, 0, 2)};
  {
    HpaController controller(&system, &hpa);
    EXPECT_EQ(sim.pending_events(), before + 2);  // clock and control loop
    hpa.Admit(StdNode(), Slot(cat, 0, 3), running);  // 3 against 1 replica
    sim.RunUntil(period);
    EXPECT_EQ(hpa.scale_ups(), 1);  // one pass ran while the controller lived
  }
  EXPECT_EQ(sim.pending_events(), before);
  // A pass now would see no demand and scale the deployment back down.
  sim.RunUntil(3 * period);
  EXPECT_EQ(hpa.scale_downs(), 0);
  EXPECT_EQ(hpa.TotalReplicas(NodeId{1}, ServiceId{0}), 4);
}

TEST(Hpa, EndToEndLagsBehindBursts) {
  // The §2.1 argument, end to end: the same bursty LC workload under HRM
  // (D-VPA, 23 ms scale ops) vs HPA (15 s loop + 2.3 s cold start). HPA must
  // lose a visible amount of QoS.
  const ServiceCatalog cat = ServiceCatalog::Standard();
  workload::TraceConfig tc;
  tc.catalog = &cat;
  tc.num_clusters = 1;
  tc.duration = 30 * kSecond;
  tc.lc_rps = 130.0;
  tc.be_rps = 4.0;
  tc.period = 6 * kSecond;
  tc.periodic_amplitude = 0.9;
  tc.seed = 13;
  const workload::Trace trace =
      workload::GeneratePattern(workload::Pattern::kP1, tc);

  auto run = [&](bool use_hpa) {
    k8s::SystemConfig sys;
    sys.clusters = eval::PhysicalClusters(1);
    sys.seed = 3;
    EdgeCloudSystem system(sys, &cat);
    sched::LoadGreedyLcScheduler lc(&cat);
    sched::LoadGreedyBeScheduler be(&cat);
    system.SetLcScheduler(&lc);
    system.SetBeScheduler(&be);
    hrm::HrmAllocationPolicy hrm_policy(&cat);
    HpaAllocationPolicy hpa_policy(&cat);
    std::unique_ptr<HpaController> controller;
    if (use_hpa) {
      system.SetAllocationPolicy(&hpa_policy);
      controller = std::make_unique<HpaController>(&system, &hpa_policy);
    } else {
      system.SetAllocationPolicy(&hrm_policy);
    }
    system.SubmitTrace(trace);
    system.Run(tc.duration + 10 * kSecond);
    return system.Summary();
  };
  const auto hrm_summary = run(false);
  const auto hpa_summary = run(true);
  EXPECT_GT(hrm_summary.qos_satisfaction,
            hpa_summary.qos_satisfaction + 0.03);
}

}  // namespace
}  // namespace tango::k8s
