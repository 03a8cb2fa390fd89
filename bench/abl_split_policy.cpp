// Ablation — DSS-LC's request-split policy ρ(·) (§5.2.2).
//
// The paper uses random ordering for the overload split (all LC services
// share one priority) and notes ρ is pluggable. This sweep compares random,
// FIFO, and deadline-aware ordering under sustained overload, where the
// split decides who waits in Ĝ'_k.
#include "bench_common.h"
#include "sched/dss_lc.h"

using namespace tango;

namespace {

constexpr SimDuration kDuration = 35 * kSecond;

struct Row {
  sched::SplitPolicy policy;
  k8s::RunSummary summary;
};

Row RunPolicy(sched::SplitPolicy policy, const workload::Trace& trace) {
  const auto& catalog = bench::Catalog();
  k8s::SystemConfig sys;
  sys.clusters = eval::PhysicalClusters(3);
  sys.region_km = 450.0;
  sys.seed = 5;
  k8s::EdgeCloudSystem system(sys, &catalog);
  sched::DssLcConfig cfg;
  cfg.split_policy = policy;
  sched::DssLcScheduler lc(&catalog, cfg);
  sched::LoadGreedyBeScheduler be(&catalog);
  hrm::HrmAllocationPolicy hrm_policy(&catalog);
  hrm::Reassurer reassurer(&system, &hrm_policy);
  system.SetAllocationPolicy(&hrm_policy);
  system.SetLcScheduler(&lc);
  system.SetBeScheduler(&be);
  system.SubmitTrace(trace);
  system.Run(kDuration + 10 * kSecond);
  return {policy, system.Summary()};
}

void Run() {
  // Heavy overload: the split path must fire constantly.
  const workload::Trace trace =
      bench::MixedTrace(3, 260.0, 10.0, kDuration, /*seed=*/97,
                        workload::Pattern::kP3, /*hotspot_fraction=*/0.8);
  std::vector<Row> rows;
  for (auto p : {sched::SplitPolicy::kRandom, sched::SplitPolicy::kFifo,
                 sched::SplitPolicy::kDeadline}) {
    rows.push_back(RunPolicy(p, trace));
  }
  std::vector<std::vector<std::string>> table;
  for (const auto& r : rows) {
    table.push_back({sched::SplitPolicyName(r.policy),
                     eval::Pct(r.summary.qos_satisfaction),
                     eval::Fmt(r.summary.p95_latency_ms, 1) + " ms",
                     std::to_string(r.summary.lc_abandoned)});
  }
  eval::PrintTable("Ablation — DSS-LC split policy ρ under overload",
                   {"ρ policy", "QoS-sat", "p95 latency", "abandoned"},
                   table);
  std::printf("\n");
  double best = 0.0, worst = 1.0;
  for (const auto& r : rows) {
    best = std::max(best, r.summary.qos_satisfaction);
    worst = std::min(worst, r.summary.qos_satisfaction);
  }
  bench::PaperCheck("policy choice is second-order",
                    "paper treats ρ as pluggable (uses random)",
                    eval::Pct(best - worst) + " spread across policies",
                    best - worst < 0.08);
  bench::PaperCheck("deadline-aware ρ never loses to random",
                    "extension feature sanity",
                    eval::Pct(rows[2].summary.qos_satisfaction) + " vs " +
                        eval::Pct(rows[0].summary.qos_satisfaction),
                    rows[2].summary.qos_satisfaction >=
                        rows[0].summary.qos_satisfaction - 0.02);
}

}  // namespace

int main() {
  Run();
  return 0;
}
