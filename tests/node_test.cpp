// Tests for the WorkerNode execution engine: processor sharing, admission,
// D-VPA latency, eviction, abandonment, and telemetry.
#include <gtest/gtest.h>

#include "hrm/regulations.h"
#include "k8s/node.h"

namespace tango::k8s {
namespace {

using workload::Request;
using workload::ServiceCatalog;

struct NodeFixture : public ::testing::Test {
  void SetUp() override {
    catalog = ServiceCatalog::Standard();
    hrm_policy = std::make_unique<hrm::HrmAllocationPolicy>(&catalog);
    native_policy = std::make_unique<NativeAllocationPolicy>(
        &catalog, NativeAllocationPolicy::ProportionalFractions(catalog));
  }

  std::unique_ptr<WorkerNode> MakeNode(const AllocationPolicy* policy,
                                       Millicores cpu = 4000,
                                       MiB mem = 8192) {
    NodeSpec spec;
    spec.id = NodeId{7};
    spec.cluster = ClusterId{0};
    spec.capacity = {cpu, mem};
    WorkerNode::Callbacks cbs;
    cbs.on_complete = [this](const CompletionInfo& info) {
      completions.push_back(info);
    };
    cbs.on_abandon = [this](const Request& r, SimTime) {
      abandoned.push_back(r.id);
    };
    cbs.on_be_return = [this](const Request& r) {
      returned.push_back(r.id);
    };
    return std::make_unique<WorkerNode>(&sim, spec, &catalog, policy, cbs);
  }

  Request Req(int id, int svc, SimTime arrival = 0, double scale = 1.0) {
    Request r;
    r.id = RequestId{id};
    r.service = ServiceId{svc};
    r.origin = ClusterId{0};
    r.arrival = arrival;
    r.work_scale = scale;
    return r;
  }

  sim::Simulator sim;
  ServiceCatalog catalog;
  std::unique_ptr<hrm::HrmAllocationPolicy> hrm_policy;
  std::unique_ptr<NativeAllocationPolicy> native_policy;
  std::vector<CompletionInfo> completions;
  std::vector<RequestId> abandoned;
  std::vector<RequestId> returned;
};

TEST_F(NodeFixture, SingleLcRequestCompletesAtExpectedTime) {
  auto node = MakeNode(hrm_policy.get());
  // lc-factory-ctl: 200 mc × 40 ms work. Granted exactly its need (no cap
  // uplift for LC), so processing takes 40 ms plus the 23 ms D-VPA op.
  node->Enqueue(Req(1, 3));
  sim.RunUntil(kSecond);
  ASSERT_EQ(completions.size(), 1u);
  const SimTime expected = hrm_policy->AdmissionLatency() +
                           catalog.Get(ServiceId{3}).base_proc;
  EXPECT_NEAR(static_cast<double>(completions[0].completed),
              static_cast<double>(expected), 2000.0);  // within 2 ms
  EXPECT_EQ(completions[0].node, NodeId{7});
}

TEST_F(NodeFixture, WorkScaleStretchesProcessing) {
  auto node = MakeNode(hrm_policy.get());
  node->Enqueue(Req(1, 3, 0, 2.0));
  sim.RunUntil(kSecond);
  ASSERT_EQ(completions.size(), 1u);
  const SimTime expected = hrm_policy->AdmissionLatency() +
                           2 * catalog.Get(ServiceId{3}).base_proc;
  EXPECT_NEAR(static_cast<double>(completions[0].completed),
              static_cast<double>(expected), 2000.0);
}

TEST_F(NodeFixture, BeAloneExpandsAndFinishesFaster) {
  auto node = MakeNode(hrm_policy.get());
  // be-backup: 200 mc × 500 ms; with the 2× water-fill grant it should take
  // ~250 ms of execution.
  node->Enqueue(Req(1, 9));
  sim.RunUntil(2 * kSecond);
  ASSERT_EQ(completions.size(), 1u);
  const double exec_ms =
      ToMilliseconds(completions[0].completed - completions[0].exec_start);
  EXPECT_NEAR(exec_ms, 250.0, 10.0);
}

TEST_F(NodeFixture, ProcessorSharingSlowsConcurrentLc) {
  auto node = MakeNode(hrm_policy.get(), /*cpu=*/1000, /*mem=*/8192);
  // Two LC requests of 500 mc each on a 1-core node: they fit exactly; a
  // third would overload. Use lc-cloud-render (500 mc, 90 ms).
  node->Enqueue(Req(1, 0));
  node->Enqueue(Req(2, 0));
  node->Enqueue(Req(3, 0));
  sim.RunUntil(5 * kSecond);
  ASSERT_EQ(completions.size(), 3u);
  // With 3 concurrent, each gets 333 mc → the last finisher needed
  // noticeably longer than a solo 90 ms run.
  const SimTime last = completions.back().completed;
  EXPECT_GT(last, FromMilliseconds(90.0 + 23.0 + 30.0));
}

TEST_F(NodeFixture, DvpaOpCountsScalingOps) {
  auto node = MakeNode(hrm_policy.get());
  node->Enqueue(Req(1, 3));
  node->Enqueue(Req(2, 4));
  sim.RunUntil(kSecond);
  EXPECT_EQ(node->scaling_ops(), 2);
  EXPECT_GT(node->cgroups().write_count(), 0);
}

TEST_F(NodeFixture, DvpaWritesPodAndContainerOncePerKnob) {
  auto node = MakeNode(hrm_policy.get());
  const ServiceId svc{3};
  const ResourceVec need =
      hrm_policy->EffectiveDemand(NodeId{7}, catalog.Get(svc));
  node->Enqueue(Req(1, 3));
  // Just past the 23 ms D-VPA op, well before the 40 ms of work ends.
  sim.RunUntil(hrm_policy->AdmissionLatency() + kMillisecond);
  ASSERT_TRUE(completions.empty());
  const std::string cpath = node->ContainerCgroupPath(svc);
  const std::string ppath = cpath.substr(0, cpath.rfind('/'));
  const cgroup::Hierarchy& h = node->cgroups();
  for (const std::string& path : {ppath, cpath}) {
    EXPECT_EQ(h.Find(path)->knobs().cpu_cfs_quota_us, need.cpu * 100) << path;
    EXPECT_EQ(h.Find(path)->knobs().memory_limit, need.mem) << path;
  }
  EXPECT_EQ(h.write_count(), 4);  // pod + container, once per knob

  sim.RunUntil(kSecond);
  ASSERT_EQ(completions.size(), 1u);
  for (const std::string& path : {ppath, cpath}) {
    // The completion floor: 10 millicores, memory left as it was.
    EXPECT_EQ(h.Find(path)->knobs().cpu_cfs_quota_us, 1000) << path;
    EXPECT_EQ(h.Find(path)->knobs().memory_limit, need.mem) << path;
  }
  EXPECT_EQ(h.write_count(), 6);  // the floor writes only the CPU pair
}

TEST_F(NodeFixture, NativePolicyHasNoScalingOps) {
  auto node = MakeNode(native_policy.get());
  node->Enqueue(Req(1, 3));
  sim.RunUntil(kSecond);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(node->scaling_ops(), 0);
}

TEST_F(NodeFixture, LcRequestAbandonedWhenStale) {
  auto node = MakeNode(hrm_policy.get(), /*cpu=*/400, /*mem=*/600);
  // Saturate memory with one LC so the next LC queues: lc-cloud-render
  // needs 512 MiB; node has 600.
  node->Enqueue(Req(1, 0, 0, 20.0));  // long-running (1.8 s of work)
  node->Enqueue(Req(2, 0, 0));
  sim.RunUntil(5 * kSecond);
  // Request 2 could not start before 2×300 ms; it must be abandoned.
  ASSERT_EQ(abandoned.size(), 1u);
  EXPECT_EQ(abandoned[0], RequestId{2});
}

TEST_F(NodeFixture, BeEvictedForLcMemoryAndReturned) {
  auto node = MakeNode(hrm_policy.get(), /*cpu=*/4000, /*mem=*/2300);
  // be-training holds 2048 MiB.
  node->Enqueue(Req(1, 6));
  sim.RunUntil(100 * kMillisecond);
  EXPECT_EQ(node->running_count(), 1);
  // An LC request needing 512 MiB arrives; 2300−2048=252 free → evict BE.
  node->Enqueue(Req(2, 0));
  sim.RunUntil(kSecond);
  ASSERT_EQ(returned.size(), 1u);
  EXPECT_EQ(returned[0], RequestId{1});
  // The LC request completed.
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].request.id, RequestId{2});
}

TEST_F(NodeFixture, BeQueueTimeoutBouncesRequest) {
  NodeTunables tun;
  tun.be_requeue_timeout = 2 * kSecond;
  NodeSpec spec;
  spec.id = NodeId{7};
  spec.cluster = ClusterId{0};
  spec.capacity = {4000, 2100};
  WorkerNode::Callbacks cbs;
  cbs.on_be_return = [this](const Request& r) { returned.push_back(r.id); };
  WorkerNode node(&sim, spec, &catalog, hrm_policy.get(), cbs, tun);
  // First BE occupies all memory for a long time.
  node.Enqueue(Req(1, 6, 0, 50.0));
  node.Enqueue(Req(2, 6, 0));  // cannot fit: 2×2048 > 2100
  sim.RunUntil(10 * kSecond);
  ASSERT_GE(returned.size(), 1u);
  EXPECT_EQ(returned[0], RequestId{2});
}

TEST_F(NodeFixture, TelemetryReflectsRunningSet) {
  auto node = MakeNode(hrm_policy.get());
  node->Enqueue(Req(1, 0));   // LC 500 mc / 512 MiB
  node->Enqueue(Req(2, 9));   // BE 200 mc / 256 MiB
  sim.RunUntil(50 * kMillisecond);  // past the D-VPA op
  EXPECT_EQ(node->running_count(), 2);
  EXPECT_EQ(node->running_lc(), 1);
  EXPECT_EQ(node->cpu_in_use_lc(), 500);
  EXPECT_GT(node->cpu_in_use_be(), 200);  // BE water-filled
  EXPECT_EQ(node->mem_in_use(), 512 + 256);
  const auto snap = node->Snapshot(sim.Now());
  EXPECT_EQ(snap.node, NodeId{7});
  EXPECT_EQ(snap.running_lc, 1);
  EXPECT_EQ(snap.running_be, 1);
  EXPECT_EQ(snap.cpu_available, 4000 - node->cpu_in_use());
  EXPECT_EQ(snap.mem_available, 8192 - 768);
}

TEST_F(NodeFixture, SnapshotOfIdleNode) {
  auto node = MakeNode(hrm_policy.get());
  const auto snap = node->Snapshot(0);
  EXPECT_EQ(snap.cpu_available, 4000);
  EXPECT_EQ(snap.mem_available, 8192);
  EXPECT_EQ(snap.queued, 0);
  EXPECT_FALSE(snap.is_master);
}

TEST_F(NodeFixture, PolicySwapTakesEffect) {
  auto node = MakeNode(native_policy.get());
  node->SetPolicy(hrm_policy.get());
  node->Enqueue(Req(1, 3));
  sim.RunUntil(kSecond);
  EXPECT_EQ(node->scaling_ops(), 1);  // HRM now charges D-VPA ops
}

TEST_F(NodeFixture, ManyRequestsAllComplete) {
  auto node = MakeNode(hrm_policy.get());
  for (int i = 0; i < 30; ++i) {
    node->Enqueue(Req(i, 4, 0));  // lc-web-api: 150 mc / 128 MiB
  }
  sim.RunUntil(20 * kSecond);
  // 30×150 = 4500 > 4000 so they contend, but all should finish well before
  // 20 s (work is 50 ms each).
  EXPECT_EQ(completions.size() + abandoned.size(), 30u);
  EXPECT_GT(completions.size(), 20u);
  EXPECT_EQ(node->running_count(), 0);
  EXPECT_EQ(node->queued_count(), 0);
}

TEST_F(NodeFixture, ContainerCgroupPathsCreatedLazily) {
  auto node = MakeNode(hrm_policy.get());
  const std::string p = node->ContainerCgroupPath(ServiceId{2});
  EXPECT_EQ(p, "kubepods/burstable/pod-n7-s2/c0");
  EXPECT_NE(node->cgroups().Find(p), nullptr);
  // Idempotent.
  EXPECT_EQ(node->ContainerCgroupPath(ServiceId{2}), p);
}

}  // namespace
}  // namespace tango::k8s
