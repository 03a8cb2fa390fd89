// Figure 12 — algorithm-pairing analysis (§7.3).
//
// Every (LC algorithm × BE algorithm) combination runs under HRM on the same
// workload; the paper reports normalized LC QoS-guarantee satisfaction (a)
// and BE throughput (b). Expected shape: DSS-LC rows dominate QoS regardless
// of the BE pairing (≈+8.2% in the paper); DCG-BE columns dominate
// throughput, with DSS-LC+DCG-BE the overall best pair.
#include "bench_common.h"

using namespace tango;

namespace {

constexpr SimDuration kDuration = 40 * kSecond;

const std::vector<framework::LcAlgo> kLcAlgos = {
    framework::LcAlgo::kDssLc, framework::LcAlgo::kScoring,
    framework::LcAlgo::kLoadGreedy, framework::LcAlgo::kK8sNative};
const std::vector<framework::BeAlgo> kBeAlgos = {
    framework::BeAlgo::kDcgBe, framework::BeAlgo::kGnnSac,
    framework::BeAlgo::kLoadGreedy, framework::BeAlgo::kK8sNative};

struct Grid {
  double qos[4][4];
  double thr[4][4];
};

Grid RunGrid() {
  const workload::Trace trace =
      bench::MixedTrace(4, 110.0, 35.0, kDuration, /*seed=*/61,
                        workload::Pattern::kP3, /*hotspot_fraction=*/0.7);
  Grid g{};
  for (std::size_t i = 0; i < kLcAlgos.size(); ++i) {
    for (std::size_t j = 0; j < kBeAlgos.size(); ++j) {
      const auto r =
          bench::RunPair(trace, 4, kLcAlgos[i], kBeAlgos[j],
                         /*with_hrm=*/true, kDuration + 10 * kSecond);
      g.qos[i][j] = r.summary.qos_satisfaction;
      g.thr[i][j] = r.summary.be_throughput;
    }
  }
  return g;
}

void Report(const Grid& g) {
  auto print_grid = [](const char* title, const double (&m)[4][4],
                       bool normalize) {
    double best = 1e-9;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) best = std::max(best, m[i][j]);
    }
    std::vector<std::vector<std::string>> table;
    for (int i = 0; i < 4; ++i) {
      std::vector<std::string> row{
          framework::LcAlgoName(kLcAlgos[static_cast<std::size_t>(i)])};
      for (int j = 0; j < 4; ++j) {
        row.push_back(eval::Fmt(normalize ? m[i][j] / best : m[i][j], 3));
      }
      table.push_back(row);
    }
    eval::PrintTable(title,
                     {"LC \\ BE", "DCG-BE", "GNN-SAC", "load-greedy",
                      "k8s-native"},
                     table);
  };
  std::printf("Figure 12 — pairing LC and BE scheduling algorithms\n");
  print_grid("(a) normalized QoS-guarantee satisfaction", g.qos, true);
  print_grid("(b) normalized BE throughput", g.thr, true);

  // DSS-LC row should dominate QoS for every BE column.
  bool dss_dominates_qos = true;
  for (int j = 0; j < 4; ++j) {
    for (int i = 1; i < 4; ++i) {
      dss_dominates_qos = dss_dominates_qos && g.qos[0][j] >= g.qos[i][j] - 0.004;
    }
  }
  double dss_mean = 0.0, others_mean = 0.0;
  for (int j = 0; j < 4; ++j) dss_mean += g.qos[0][j] / 4.0;
  for (int i = 1; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) others_mean += g.qos[i][j] / 12.0;
  }
  std::printf("\n");
  bench::PaperCheck("DSS-LC QoS across BE pairings",
                    "higher regardless of BE algorithm (≈+8.2%)",
                    eval::Pct(dss_mean) + " vs " + eval::Pct(others_mean) +
                        " (other LC algos)",
                    dss_dominates_qos && dss_mean > others_mean);
  // LC little affected by BE policy under HRM: spread of DSS-LC row.
  double qmin = 1.0, qmax = 0.0;
  for (int j = 0; j < 4; ++j) {
    qmin = std::min(qmin, g.qos[0][j]);
    qmax = std::max(qmax, g.qos[0][j]);
  }
  bench::PaperCheck("LC insensitive to BE pairing (HRM isolation)",
                    "small spread across BE columns",
                    eval::Pct(qmax - qmin) + " spread", qmax - qmin < 0.05);
  // DCG-BE column should be the best throughput for the DSS-LC row, and
  // DSS-LC+DCG-BE the best overall pair.
  bool dcg_best_for_dss = true;
  for (int j = 1; j < 4; ++j) {
    dcg_best_for_dss = dcg_best_for_dss && g.thr[0][0] >= g.thr[0][j] * 0.98;
  }
  bench::PaperCheck("DSS-LC + DCG-BE pair", "best throughput pairing",
                    eval::Fmt(g.thr[0][0], 0) + " BE completed",
                    dcg_best_for_dss);
}

}  // namespace

int main() {
  Report(RunGrid());
  return 0;
}
