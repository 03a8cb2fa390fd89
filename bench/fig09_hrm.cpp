// Figure 9 — HRM effectiveness (§7.1).
//
// Three workload patterns (P1 periodic-LC/random-BE, P2 periodic-BE/
// random-LC, P3 both random) run under K8s-with-HRM and K8s-native, with the
// default K8s scheduling policy for both classes (the paper's setup). HRM
// should (b) let BE soak up idle resources and yield them to LC bursts, and
// (d) raise overall utilization; native's fixed allocation (c) cannot.
#include "bench_common.h"

using namespace tango;

namespace {

struct PatternRow {
  workload::Pattern pattern;
  eval::ExperimentResult with_hrm;
  eval::ExperimentResult native;
};

PatternRow RunPattern(workload::Pattern pattern) {
  const SimDuration duration = 40 * kSecond;
  const workload::Trace trace =
      bench::MixedTrace(4, 55.0, 22.0, duration, /*seed=*/41, pattern);
  PatternRow row;
  row.pattern = pattern;
  row.with_hrm =
      bench::RunPair(trace, 4, framework::LcAlgo::kK8sNative,
                     framework::BeAlgo::kK8sNative, /*with_hrm=*/true,
                     duration + 10 * kSecond);
  row.native =
      bench::RunPair(trace, 4, framework::LcAlgo::kK8sNative,
                     framework::BeAlgo::kK8sNative, /*with_hrm=*/false,
                     duration + 10 * kSecond);
  return row;
}

void Report(const std::vector<PatternRow>& rows) {
  std::printf("Figure 9 — HRM vs native K8s allocation under P1/P2/P3\n");
  for (const auto& row : rows) {
    const auto lc = eval::Field(row.with_hrm.periods, +[](const k8s::PeriodStats& p) {
      return p.util_lc;
    });
    const auto be = eval::Field(row.with_hrm.periods, +[](const k8s::PeriodStats& p) {
      return p.util_be;
    });
    std::printf("\n  %s\n", workload::PatternName(row.pattern));
    std::printf("    HRM   LC util  %s\n", eval::Sparkline(lc, 48).c_str());
    std::printf("    HRM   BE util  %s\n", eval::Sparkline(be, 48).c_str());
    const auto lc_n = eval::Field(row.native.periods, +[](const k8s::PeriodStats& p) {
      return p.util_lc;
    });
    const auto be_n = eval::Field(row.native.periods, +[](const k8s::PeriodStats& p) {
      return p.util_be;
    });
    std::printf("    native LC util %s\n", eval::Sparkline(lc_n, 48).c_str());
    std::printf("    native BE util %s\n", eval::Sparkline(be_n, 48).c_str());
  }
  eval::PrintTable(
      "Figure 9(d) — overall resource utilization",
      {"pattern", "with HRM", "without HRM", "HRM gain"},
      [&] {
        std::vector<std::vector<std::string>> t;
        for (const auto& row : rows) {
          t.push_back({workload::PatternName(row.pattern),
                       eval::Pct(row.with_hrm.summary.mean_util),
                       eval::Pct(row.native.summary.mean_util),
                       eval::Pct(row.with_hrm.summary.mean_util -
                                 row.native.summary.mean_util)});
        }
        return t;
      }());
  std::printf("\n");
  for (const auto& row : rows) {
    bench::PaperCheck(
        workload::PatternName(row.pattern),
        "HRM raises overall utilization",
        eval::Pct(row.with_hrm.summary.mean_util) + " vs " +
            eval::Pct(row.native.summary.mean_util),
        row.with_hrm.summary.mean_util > row.native.summary.mean_util);
    bench::PaperCheck(
        "  …and protects LC during bursts",
        "LC QoS-sat no worse under HRM",
        eval::Pct(row.with_hrm.summary.qos_satisfaction) + " vs " +
            eval::Pct(row.native.summary.qos_satisfaction),
        row.with_hrm.summary.qos_satisfaction >=
            row.native.summary.qos_satisfaction);
  }
}

std::vector<PatternRow>& Cached() {
  static std::vector<PatternRow> rows = [] {
    std::vector<PatternRow> r;
    r.push_back(RunPattern(workload::Pattern::kP1));
    r.push_back(RunPattern(workload::Pattern::kP2));
    r.push_back(RunPattern(workload::Pattern::kP3));
    return r;
  }();
  return rows;
}

}  // namespace

int main() {
  Report(Cached());
  return bench::ChecksExitCode();
}
