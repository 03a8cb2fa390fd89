// Ablation — vertical-scaling mechanism (§2.1 + §4.2).
//
// The same bursty co-located workload under three resource mechanisms:
//   * HRM / D-VPA  — per-request in-place scaling, 23 ms per op;
//   * K8s HPA      — horizontal scaling: 15 s control loop + 2.3 s
//                    container cold start;
//   * native fixed — static per-service container fractions.
// The paper's argument: horizontal scaling is too slow for millisecond-level
// LC services, and fixed allocation wastes the co-location opportunity.
#include "bench_common.h"
#include "k8s/autoscalers.h"

using namespace tango;

namespace {

constexpr SimDuration kDuration = 40 * kSecond;

struct Row {
  std::string name;
  k8s::RunSummary summary;
};

workload::Trace BurstTrace() {
  workload::TraceConfig tc;
  tc.catalog = &bench::Catalog();
  tc.num_clusters = 2;
  tc.duration = kDuration;
  tc.lc_rps = 110.0;
  tc.be_rps = 15.0;
  tc.period = 6 * kSecond;       // bursts shorter than the HPA loop
  tc.periodic_amplitude = 0.9;
  tc.seed = 83;
  return workload::GeneratePattern(workload::Pattern::kP1, tc);
}

Row RunMechanism(const std::string& mechanism,
                 const workload::Trace& trace) {
  const auto& catalog = bench::Catalog();
  k8s::SystemConfig sys;
  sys.clusters = eval::PhysicalClusters(2);
  sys.region_km = 450.0;
  sys.seed = 3;
  k8s::EdgeCloudSystem system(sys, &catalog);
  sched::DssLcScheduler lc(&catalog);
  sched::LoadGreedyBeScheduler be(&catalog);
  system.SetLcScheduler(&lc);
  system.SetBeScheduler(&be);

  hrm::HrmAllocationPolicy hrm_policy(&catalog);
  k8s::HpaAllocationPolicy hpa_policy(&catalog);
  k8s::NativeAllocationPolicy native_policy(
      &catalog, k8s::NativeAllocationPolicy::ProportionalFractions(catalog));
  std::unique_ptr<hrm::Reassurer> reassurer;
  std::unique_ptr<k8s::HpaController> controller;
  if (mechanism == "HRM/D-VPA") {
    system.SetAllocationPolicy(&hrm_policy);
    reassurer = std::make_unique<hrm::Reassurer>(&system, &hrm_policy);
  } else if (mechanism == "K8s HPA") {
    system.SetAllocationPolicy(&hpa_policy);
    controller = std::make_unique<k8s::HpaController>(&system, &hpa_policy);
  } else {
    system.SetAllocationPolicy(&native_policy);
  }
  system.SubmitTrace(trace);
  system.Run(kDuration + 10 * kSecond);
  return {mechanism, system.Summary()};
}

void Report(const std::vector<Row>& rows) {
  std::printf("Ablation — vertical scaling mechanism under LC bursts\n");
  std::vector<std::vector<std::string>> table;
  for (const auto& r : rows) {
    table.push_back({r.name, eval::Pct(r.summary.qos_satisfaction),
                     eval::Fmt(r.summary.p95_latency_ms, 1) + " ms",
                     std::to_string(r.summary.lc_abandoned),
                     eval::Pct(r.summary.mean_util),
                     std::to_string(r.summary.be_completed)});
  }
  eval::PrintTable("burst workload (6 s cycle, 2 clusters)",
                   {"mechanism", "QoS-sat", "p95 latency", "abandoned",
                    "mean util", "BE done"},
                   table);
  std::printf("\n");
  bench::PaperCheck("D-VPA vs HPA", "in-place scaling tracks ms-level bursts",
                    eval::Pct(rows[0].summary.qos_satisfaction) + " vs " +
                        eval::Pct(rows[1].summary.qos_satisfaction),
                    rows[0].summary.qos_satisfaction >
                        rows[1].summary.qos_satisfaction);
  bench::PaperCheck("D-VPA vs fixed allocation",
                    "elasticity raises utilization",
                    eval::Pct(rows[0].summary.mean_util) + " vs " +
                        eval::Pct(rows[2].summary.mean_util),
                    rows[0].summary.mean_util > rows[2].summary.mean_util);
}

}  // namespace

int main() {
  const auto trace = BurstTrace();
  std::vector<Row> rows;
  rows.push_back(RunMechanism("HRM/D-VPA", trace));
  rows.push_back(RunMechanism("K8s HPA", trace));
  rows.push_back(RunMechanism("native fixed", trace));
  Report(rows);
  return 0;
}
