// Integration tests for EdgeCloudSystem: request lifecycle, BE forwarding,
// state sync, metrics periods, and summary bookkeeping.
#include <gtest/gtest.h>

#include "eval/harness.h"
#include "k8s/system.h"
#include "sched/be_baselines.h"
#include "sched/lc_baselines.h"

namespace tango::k8s {
namespace {

using workload::Request;
using workload::ServiceCatalog;

struct SystemFixture : public ::testing::Test {
  void SetUp() override {
    catalog = ServiceCatalog::Standard();
    cfg.clusters = eval::PhysicalClusters(3);
    cfg.seed = 11;
    system = std::make_unique<EdgeCloudSystem>(cfg, &catalog);
    lc = std::make_unique<sched::LoadGreedyLcScheduler>(&catalog);
    be = std::make_unique<sched::LoadGreedyBeScheduler>(&catalog);
    system->SetLcScheduler(lc.get());
    system->SetBeScheduler(be.get());
  }

  workload::Trace SmallTrace(int lc_count, int be_count) {
    workload::Trace t;
    for (int i = 0; i < lc_count + be_count; ++i) {
      Request r;
      r.id = RequestId{i};
      r.service = i < lc_count ? ServiceId{3} : ServiceId{9};
      r.origin = ClusterId{i % 3};
      r.arrival = i * 10 * kMillisecond;
      r.work_scale = 1.0;
      t.push_back(r);
    }
    return t;
  }

  SystemConfig cfg;
  ServiceCatalog catalog;
  std::unique_ptr<EdgeCloudSystem> system;
  std::unique_ptr<LcScheduler> lc;
  std::unique_ptr<BeScheduler> be;
};

TEST_F(SystemFixture, TopologyAndClustersBuilt) {
  EXPECT_EQ(system->num_clusters(), 3);
  EXPECT_EQ(system->num_workers(), 12);
  // Node ids: per cluster, master then workers.
  EXPECT_EQ(system->MasterOf(ClusterId{0}), NodeId{0});
  EXPECT_EQ(system->MasterOf(ClusterId{1}), NodeId{5});
  EXPECT_EQ(system->ClusterOfNode(NodeId{6}), ClusterId{1});
  EXPECT_NE(system->FindWorker(NodeId{1}), nullptr);
  EXPECT_EQ(system->FindWorker(NodeId{0}), nullptr);  // master ≠ worker
}

TEST_F(SystemFixture, AllRequestsReachCompletion) {
  system->SubmitTrace(SmallTrace(20, 10));
  system->Run(30 * kSecond);
  const RunSummary s = system->Summary();
  EXPECT_EQ(s.lc_total, 20);
  EXPECT_EQ(s.be_total, 10);
  EXPECT_EQ(s.lc_completed + s.lc_abandoned, 20);
  EXPECT_EQ(s.be_completed, 10);
  // Load-greedy on stale state loses a few LC requests to node queues; the
  // large majority must still complete.
  EXPECT_GE(s.lc_completed, 12);
}

TEST_F(SystemFixture, LcLatencyIncludesRoundTrip) {
  // A single LC request must take at least the LAN/WAN round trip plus its
  // processing time.
  system->SubmitTrace(SmallTrace(1, 0));
  system->Run(10 * kSecond);
  const auto& rec = system->records()[0];
  ASSERT_EQ(rec.outcome, Outcome::kCompleted);
  EXPECT_GE(rec.latency, catalog.Get(ServiceId{3}).base_proc);
  EXPECT_GT(rec.dispatched, rec.request.arrival);
  EXPECT_GT(rec.completed, rec.dispatched);
  EXPECT_TRUE(rec.qos_met);
}

TEST_F(SystemFixture, BeRequestsRouteThroughCentralCluster) {
  // The BE queue lives at the central cluster; before the first dispatch
  // tick its length must reflect forwarded requests.
  workload::Trace t = SmallTrace(0, 5);
  for (auto& r : t) r.arrival = 0;
  system->SubmitTrace(t);
  // Run just past the forwarding delay but before dispatch completes.
  system->Run(200 * kSecond);
  EXPECT_EQ(system->Summary().be_completed, 5);
  // All BE records were dispatched strictly later than arrival (forwarding
  // to the central cluster takes ≥ one WAN hop for non-central origins).
  const ClusterId central = system->central_cluster();
  for (const auto& rec : system->records()) {
    if (rec.request.origin != central) {
      EXPECT_GE(rec.dispatched - rec.request.arrival,
                system->topology().OneWayDelay(rec.request.origin, central));
    }
  }
}

TEST_F(SystemFixture, StateStorageSyncsAllWorkersGlobally) {
  system->Run(cfg.state_sync_period + kMillisecond);
  EXPECT_EQ(system->BeStorage().size(), 12u);
  // LC storage of each cluster sees at least its own workers.
  for (int c = 0; c < 3; ++c) {
    EXPECT_GE(system->LcStorage(ClusterId{c}).size(), 4u);
  }
}

TEST_F(SystemFixture, LcStorageScopeLimitedByRadius) {
  // With a tiny radius, each master only sees its own cluster's workers.
  SystemConfig tight = cfg;
  tight.lc_nearby_radius_km = 0.001;
  EdgeCloudSystem sys2(tight, &catalog);
  sys2.SetLcScheduler(lc.get());
  sys2.SetBeScheduler(be.get());
  sys2.Run(tight.state_sync_period + kMillisecond);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(sys2.LcStorage(ClusterId{c}).size(), 4u);
  }
}

TEST_F(SystemFixture, PeriodStatsAdvanceEvery800ms) {
  system->Run(4 * kSecond);
  // 800 ms periods → 5 boundaries in 4 s (plus the open period).
  EXPECT_GE(system->periods().size(), 5u);
  EXPECT_EQ(system->periods()[1].period_start, 800 * kMillisecond);
}

TEST_F(SystemFixture, UtilizationRecordedInTimeseries) {
  // periods() is the utilization series: each 800 ms sample closes a row,
  // and the open row comes last.
  workload::Trace trace = SmallTrace(30, 10);
  for (auto& r : trace) {
    if (r.service == ServiceId{9}) r.work_scale = 40.0;  // BE outlasts the run
  }
  system->SubmitTrace(trace);
  system->Run(5 * kSecond);
  SimTime be_running = 0;  // by then every BE request has been dispatched
  for (const auto& rec : system->records()) {
    if (rec.request.service != ServiceId{9}) continue;
    ASSERT_GE(rec.dispatched, 0);
    be_running = std::max(be_running, rec.dispatched + 100 * kMillisecond);
  }
  const auto& rows = system->periods();
  ASSERT_GE(rows.size(), 2u);
  int loaded = 0;
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    const SimTime closed_at = rows[i + 1].period_start;
    if (closed_at < be_running) continue;
    EXPECT_GT(rows[i].util_total, 0.0) << "row closed at " << closed_at;
    ++loaded;
  }
  EXPECT_GE(loaded, 3);
  EXPECT_DOUBLE_EQ(rows[rows.size() - 2].util_total,
                   system->metrics_registry().GetGauge("util.total").value());
}

TEST_F(SystemFixture, SummaryRatesConsistent) {
  system->SubmitTrace(SmallTrace(40, 15));
  system->Run(60 * kSecond);
  const RunSummary s = system->Summary();
  EXPECT_NEAR(s.qos_satisfaction,
              static_cast<double>(s.lc_qos_met) / 40.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.be_throughput, static_cast<double>(s.be_completed));
  EXPECT_GE(s.p95_latency_ms, s.mean_latency_ms * 0.5);
}

TEST_F(SystemFixture, DeterministicAcrossRuns) {
  auto run_once = [this]() {
    EdgeCloudSystem sys(cfg, &catalog);
    sched::LoadGreedyLcScheduler lc2(&catalog);
    sched::LoadGreedyBeScheduler be2(&catalog);
    sys.SetLcScheduler(&lc2);
    sys.SetBeScheduler(&be2);
    sys.SubmitTrace(SmallTrace(25, 10));
    sys.Run(30 * kSecond);
    return sys.Summary();
  };
  const RunSummary a = run_once();
  const RunSummary b = run_once();
  EXPECT_EQ(a.lc_qos_met, b.lc_qos_met);
  EXPECT_EQ(a.be_completed, b.be_completed);
  EXPECT_DOUBLE_EQ(a.mean_latency_ms, b.mean_latency_ms);
}

TEST_F(SystemFixture, HeterogeneousClustersVaryCapacity) {
  SystemConfig hc;
  hc.clusters = eval::HybridClusters(1, 6, /*seed=*/3);
  hc.seed = 3;
  EdgeCloudSystem sys(hc, &catalog);
  Millicores mn = std::numeric_limits<Millicores>::max(), mx = 0;
  for (auto* w : sys.AllWorkers()) {
    mn = std::min(mn, w->spec().capacity.cpu);
    mx = std::max(mx, w->spec().capacity.cpu);
  }
  EXPECT_LT(mn, mx);  // heterogeneity realized
  EXPECT_GE(mn, 2000);
  EXPECT_LE(mx, 8000);
  EXPECT_GE(sys.num_workers(), 4 + 6 * 3);
}

TEST_F(SystemFixture, ScalingOpsAggregatedAcrossNodes) {
  hrm::HrmAllocationPolicy policy(&catalog);
  system->SetAllocationPolicy(&policy);
  system->SubmitTrace(SmallTrace(10, 0));
  system->Run(20 * kSecond);
  EXPECT_GT(system->total_scaling_ops(), 0);
}

}  // namespace
}  // namespace tango::k8s
