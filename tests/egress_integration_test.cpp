// Integration tests for bandwidth regulation inside the full system:
// LC transfers must be shielded from BE bulk under HRM (bandwidth is a
// compressible resource, §4.1), and determinism must hold for the full
// Tango stack including the learned scheduler.
#include <gtest/gtest.h>

#include "eval/harness.h"

namespace tango {
namespace {

workload::ServiceCatalog BulkCatalog() {
  // Catalog with an LC service and a BE service whose payloads are huge —
  // enough to congest a cluster uplink on their own.
  auto specs = workload::ServiceCatalog::Standard().all();
  for (auto& s : specs) {
    if (!s.is_lc()) {
      s.request_size = 8 * 1024 * 1024;  // 8 MiB per BE request
    }
  }
  return workload::ServiceCatalog(std::move(specs));
}

k8s::RunSummary RunBulk(bool with_hrm,
                        const workload::ServiceCatalog& catalog) {
  workload::TraceConfig tc;
  tc.catalog = &catalog;
  tc.num_clusters = 3;
  tc.duration = 20 * kSecond;
  tc.lc_rps = 40.0;
  tc.be_rps = 25.0;  // heavy BE payload stream through the uplinks
  tc.seed = 19;
  const workload::Trace trace =
      workload::GeneratePattern(workload::Pattern::kP3, tc);

  k8s::SystemConfig sys;
  sys.clusters = eval::PhysicalClusters(3);
  sys.region_km = 450.0;
  sys.egress.uplink = 120'000;  // 120 Mbps uplinks: BE bulk congests them
  sys.seed = 5;
  k8s::EdgeCloudSystem system(sys, &catalog);
  framework::Assembly a = framework::InstallPair(
      system, framework::LcAlgo::kDssLc, framework::BeAlgo::kLoadGreedy,
      with_hrm);
  system.SubmitTrace(trace);
  system.Run(45 * kSecond);
  return system.Summary();
}

TEST(EgressIntegration, HrmShieldsLcLatencyFromBeBulk) {
  const auto catalog = BulkCatalog();
  const auto hrm = RunBulk(/*with_hrm=*/true, catalog);
  const auto fair = RunBulk(/*with_hrm=*/false, catalog);
  // Under LC-priority egress the LC latency distribution must be no worse
  // than fair sharing — and clearly better at the tail.
  EXPECT_LE(hrm.p95_latency_ms, fair.p95_latency_ms);
  EXPECT_GE(hrm.qos_satisfaction, fair.qos_satisfaction);
}

TEST(EgressIntegration, FullTangoStackIsDeterministic) {
  const auto catalog = workload::ServiceCatalog::Standard();
  auto run = [&]() {
    workload::TraceConfig tc;
    tc.catalog = &catalog;
    tc.num_clusters = 2;
    tc.duration = 10 * kSecond;
    tc.lc_rps = 30.0;
    tc.be_rps = 10.0;
    tc.seed = 77;
    const workload::Trace trace =
        workload::GeneratePattern(workload::Pattern::kP3, tc);
    k8s::SystemConfig sys;
    sys.clusters = eval::PhysicalClusters(2);
    sys.seed = 8;
    k8s::EdgeCloudSystem system(sys, &catalog);
    framework::Assembly a = framework::InstallFramework(
        system, framework::FrameworkKind::kTango);
    system.SubmitTrace(trace);
    system.Run(25 * kSecond);
    return system.Summary();
  };
  const auto a = run();
  const auto b = run();
  // Bit-for-bit reproducibility across the whole stack, including the
  // GraphSAGE+A2C learner.
  EXPECT_EQ(a.lc_qos_met, b.lc_qos_met);
  EXPECT_EQ(a.lc_abandoned, b.lc_abandoned);
  EXPECT_EQ(a.be_completed, b.be_completed);
  EXPECT_DOUBLE_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_DOUBLE_EQ(a.mean_util, b.mean_util);
}

}  // namespace
}  // namespace tango
