// System-wide property tests: invariants that must hold for every scheduler
// and allocation policy on randomized workloads.
#include <gtest/gtest.h>

#include "eval/harness.h"

namespace tango {
namespace {

struct Combo {
  framework::LcAlgo lc;
  framework::BeAlgo be;
  bool hrm;
  std::uint64_t seed;
};

class InvariantTest : public ::testing::TestWithParam<Combo> {};

TEST_P(InvariantTest, EndToEndInvariantsHold) {
  const Combo combo = GetParam();
  const auto catalog = workload::ServiceCatalog::Standard();

  workload::TraceConfig tc;
  tc.catalog = &catalog;
  tc.num_clusters = 3;
  tc.duration = 15 * kSecond;
  tc.lc_rps = 60.0;
  tc.be_rps = 20.0;
  tc.hotspot_fraction = 0.6;
  tc.seed = combo.seed;
  const workload::Trace trace =
      workload::GeneratePattern(workload::Pattern::kP3, tc);

  k8s::SystemConfig sys;
  sys.clusters = eval::HybridClusters(1, 2, combo.seed);
  sys.region_km = 450.0;
  sys.seed = combo.seed + 1;
  k8s::EdgeCloudSystem system(sys, &catalog);
  framework::Assembly a =
      framework::InstallPair(system, combo.lc, combo.be, combo.hrm);
  system.SubmitTrace(trace);
  // Sample node state during the run to check capacity invariants live.
  bool capacity_ok = true;
  bool mem_ok = true;
  system.simulator().StartPeriodic(
      500 * kMillisecond, 500 * kMillisecond, [&] {
        for (auto* w : system.AllWorkers()) {
          capacity_ok =
              capacity_ok && w->cpu_in_use() <= w->spec().capacity.cpu;
          mem_ok = mem_ok && w->mem_in_use() <= w->spec().capacity.mem;
        }
      });
  system.Run(tc.duration + 60 * kSecond);

  // 1. CPU grants never exceed node capacity; memory never oversubscribed.
  EXPECT_TRUE(capacity_ok);
  EXPECT_TRUE(mem_ok);

  // 2. Conservation: every request reaches exactly one terminal state
  //    (with a long drain window, nothing stays pending).
  const k8s::RunSummary s = system.Summary();
  EXPECT_EQ(s.lc_total + s.be_total, static_cast<int>(trace.size()));
  EXPECT_EQ(s.lc_completed + s.lc_abandoned, s.lc_total)
      << "LC requests lost or double-counted";
  if (combo.hrm) {
    // Elastic allocation always finds room eventually.
    EXPECT_EQ(s.be_completed, s.be_total)
        << "BE requests must finish eventually (evictions restart)";
  } else {
    // Native fixed container fractions structurally starve the biggest BE
    // jobs on small nodes (they never fit the per-service silo) — exactly
    // the §4.2 pain point. The bulk must still complete; the rest keeps
    // bouncing.
    EXPECT_GE(s.be_completed, (s.be_total * 6) / 10);
  }

  // 3. Per-record sanity: completion after dispatch after arrival; QoS flag
  //    consistent with the latency.
  for (const auto& rec : system.records()) {
    if (rec.outcome != k8s::Outcome::kCompleted) continue;
    EXPECT_GE(rec.dispatched, rec.request.arrival);
    EXPECT_GE(rec.completed, rec.dispatched);
    EXPECT_EQ(rec.latency, rec.completed - rec.request.arrival);
    const auto& svc = catalog.Get(rec.request.service);
    if (svc.is_lc()) {
      EXPECT_EQ(rec.qos_met, rec.latency <= svc.qos_target);
    }
  }

  // 4. Counters: met ≤ completed ≤ total.
  EXPECT_LE(s.lc_qos_met, s.lc_completed);
  EXPECT_LE(s.lc_completed, s.lc_total);

  // 5. Workers drained under elastic allocation: nothing still running or
  //    queued (native allocation may carry the structurally-starved BE
  //    backlog from invariant 2).
  if (combo.hrm) {
    for (auto* w : system.AllWorkers()) {
      EXPECT_EQ(w->running_count(), 0) << "node " << w->id().value;
      EXPECT_EQ(w->queued_count(), 0) << "node " << w->id().value;
    }
  }
}

std::string ComboName(const ::testing::TestParamInfo<Combo>& info) {
  std::string n = std::string(framework::LcAlgoName(info.param.lc)) + "_" +
                  framework::BeAlgoName(info.param.be) +
                  (info.param.hrm ? "_hrm" : "_native");
  for (auto& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    SchedulerMatrix, InvariantTest,
    ::testing::Values(
        Combo{framework::LcAlgo::kDssLc, framework::BeAlgo::kDcgBe, true, 1},
        Combo{framework::LcAlgo::kDssLc, framework::BeAlgo::kLoadGreedy,
              false, 2},
        Combo{framework::LcAlgo::kScoring, framework::BeAlgo::kGnnSac, true,
              3},
        Combo{framework::LcAlgo::kLoadGreedy, framework::BeAlgo::kK8sNative,
              true, 4},
        Combo{framework::LcAlgo::kK8sNative, framework::BeAlgo::kK8sNative,
              false, 5}),
    ComboName);

}  // namespace
}  // namespace tango
