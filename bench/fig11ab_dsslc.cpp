// Figure 11(a,b) — DSS-LC vs load-greedy / k8s-native / scoring (§7.2).
//
// BE scheduling is fixed to k8s-native (the paper's setup); all runs use
// HRM. Metrics: (a) normalized LC QoS-guarantee satisfaction over time;
// (b) average latency and number of abandoned requests (normalized).
#include "bench_common.h"

using namespace tango;

namespace {

constexpr SimDuration kDuration = 45 * kSecond;

struct AlgoRun {
  framework::LcAlgo algo;
  eval::ExperimentResult result;
};

std::vector<AlgoRun> RunAll() {
  const workload::Trace trace =
      bench::MixedTrace(4, 200.0, 15.0, kDuration, /*seed=*/51, workload::Pattern::kP3, /*hotspot_fraction=*/0.75);
  std::vector<AlgoRun> runs;
  for (auto algo :
       {framework::LcAlgo::kDssLc, framework::LcAlgo::kScoring,
        framework::LcAlgo::kLoadGreedy, framework::LcAlgo::kK8sNative}) {
    runs.push_back({algo, bench::RunPair(trace, 4, algo,
                                         framework::BeAlgo::kK8sNative,
                                         /*with_hrm=*/true,
                                         kDuration + 10 * kSecond)});
  }
  return runs;
}

void Report(const std::vector<AlgoRun>& runs) {
  std::printf("Figure 11(a) — LC QoS-guarantee satisfaction over time\n");
  for (const auto& run : runs) {
    std::vector<double> series;
    for (const auto& p : run.result.periods) {
      if (p.lc_arrived > 0) series.push_back(bench::QosSeriesPoint(p));
    }
    std::printf("  %-12s %s  mean %s\n",
                framework::LcAlgoName(run.algo),
                eval::Sparkline(series, 48).c_str(),
                eval::Pct(run.result.summary.qos_satisfaction).c_str());
  }

  std::vector<std::vector<std::string>> table;
  double max_lat = 1e-9, max_ab = 1e-9;
  for (const auto& run : runs) {
    max_lat = std::max(max_lat, run.result.summary.mean_latency_ms);
    max_ab = std::max(max_ab,
                      static_cast<double>(run.result.summary.lc_abandoned));
  }
  for (const auto& run : runs) {
    table.push_back(
        {framework::LcAlgoName(run.algo),
         eval::Pct(run.result.summary.qos_satisfaction),
         eval::Fmt(run.result.summary.mean_latency_ms, 1) + " ms",
         eval::Fmt(run.result.summary.mean_latency_ms / max_lat, 2),
         std::to_string(run.result.summary.lc_abandoned),
         eval::Fmt(static_cast<double>(run.result.summary.lc_abandoned) /
                       max_ab, 2)});
  }
  eval::PrintTable("Figure 11(b) — average latency and abandoned requests",
                   {"LC algorithm", "QoS-sat", "avg latency", "(norm)",
                    "abandoned", "(norm)"},
                   table);

  const auto& dss = runs[0].result.summary;
  bool best_qos = true, least_abandoned = true, best_latency = true;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    best_qos = best_qos && dss.qos_satisfaction >=
                               runs[i].result.summary.qos_satisfaction;
    least_abandoned = least_abandoned &&
                      dss.lc_abandoned <= runs[i].result.summary.lc_abandoned;
    best_latency = best_latency && dss.mean_latency_ms <=
                                       runs[i].result.summary.mean_latency_ms +
                                           1.0;
  }
  std::printf("\n");
  bench::PaperCheck("DSS-LC QoS-guarantee satisfaction",
                    "best of the four algorithms",
                    eval::Pct(dss.qos_satisfaction), best_qos);
  bench::PaperCheck("DSS-LC abandoned requests", "fewest",
                    std::to_string(dss.lc_abandoned), least_abandoned);
  bench::PaperCheck("DSS-LC average latency", "lowest (within 1 ms)",
                    eval::Fmt(dss.mean_latency_ms, 1) + " ms", best_latency);
  std::printf("  DSS-LC mean decision time: %.3f ms (see tab_dsslc_response "
              "for the 500/1000-node sweep)\n",
              runs[0].result.lc_decision_ms_avg);
}

}  // namespace

int main() {
  Report(RunAll());
  return 0;
}
