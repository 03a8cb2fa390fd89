// Ablation — state-storage staleness (design decision in DESIGN.md §5).
//
// Schedulers only see periodic state pushes; this sweep varies the push
// period and shows how DSS-LC's local commitment tracking keeps it robust
// where a plain load-greedy dispatcher herd-collapses onto stale "idle"
// nodes.
#include "bench_common.h"

using namespace tango;

namespace {

constexpr SimDuration kDuration = 35 * kSecond;

double RunWithPeriod(framework::LcAlgo lc, SimDuration sync_period,
                     const workload::Trace& trace) {
  eval::ExperimentConfig cfg;
  cfg.system.clusters = eval::PhysicalClusters(4);
  cfg.system.region_km = 450.0;
  cfg.system.state_sync_period = sync_period;
  cfg.system.seed = 9;
  cfg.trace = trace;
  cfg.duration = kDuration + 10 * kSecond;
  const auto r = eval::RunExperiment(
      cfg,
      [lc](k8s::EdgeCloudSystem& s) {
        return framework::InstallPair(s, lc, framework::BeAlgo::kLoadGreedy,
                                      /*with_hrm=*/true);
      },
      bench::Catalog());
  return r.summary.qos_satisfaction;
}

void Run() {
  const workload::Trace trace =
      bench::MixedTrace(4, 150.0, 15.0, kDuration, /*seed=*/91,
                        workload::Pattern::kP3, /*hotspot_fraction=*/0.75);
  const std::vector<SimDuration> periods = {
      100 * kMillisecond, 500 * kMillisecond, 2 * kSecond};
  std::vector<std::vector<std::string>> table;
  std::vector<double> dss, greedy;
  for (const SimDuration p : periods) {
    dss.push_back(RunWithPeriod(framework::LcAlgo::kDssLc, p, trace));
    greedy.push_back(
        RunWithPeriod(framework::LcAlgo::kLoadGreedy, p, trace));
    table.push_back({eval::Fmt(ToMilliseconds(p), 0) + " ms",
                     eval::Pct(dss.back()), eval::Pct(greedy.back())});
  }
  eval::PrintTable(
      "Ablation — QoS-sat vs state push period (hotspot workload)",
      {"push period", "DSS-LC", "load-greedy"}, table);
  std::printf("\n");
  bench::PaperCheck("DSS-LC robust to staleness",
                    "≤3% QoS loss from 100 ms to 2 s",
                    eval::Pct(dss.front()) + " → " + eval::Pct(dss.back()),
                    dss.front() - dss.back() < 0.03);
  bench::PaperCheck("DSS-LC beats load-greedy at every period",
                    "commitment tracking avoids herding",
                    eval::Pct(dss[1]) + " vs " + eval::Pct(greedy[1]),
                    dss[0] > greedy[0] && dss[1] > greedy[1] &&
                        dss[2] > greedy[2]);
}

}  // namespace

int main() {
  Run();
  return 0;
}
