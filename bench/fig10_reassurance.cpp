// Figure 10 — the QoS re-assurance mechanism (§4.3) under P1/P2/P3.
//
// Tango (HRM + DSS-LC + DCG-BE) runs with the re-assurance mechanism on and
// off; the paper reports normalized LC QoS-guarantee satisfaction and BE
// throughput, with the mechanism improving the system objective.
#include "bench_common.h"

using namespace tango;

namespace {

struct Row {
  workload::Pattern pattern;
  eval::ExperimentResult on;
  eval::ExperimentResult off;
};

Row RunPattern(workload::Pattern pattern) {
  const SimDuration duration = 40 * kSecond;
  // Heavier LC pressure than fig09 so the mechanism has violations to fix.
  const workload::Trace trace =
      bench::MixedTrace(4, 70.0, 18.0, duration, /*seed=*/43, pattern);
  framework::FrameworkOptions on_opts;
  on_opts.enable_reassurance = true;
  framework::FrameworkOptions off_opts;
  off_opts.enable_reassurance = false;
  Row row;
  row.pattern = pattern;
  row.on = bench::RunPair(trace, 4, framework::LcAlgo::kDssLc,
                          framework::BeAlgo::kDcgBe, true,
                          duration + 10 * kSecond, on_opts);
  row.off = bench::RunPair(trace, 4, framework::LcAlgo::kDssLc,
                           framework::BeAlgo::kDcgBe, true,
                           duration + 10 * kSecond, off_opts);
  return row;
}

void Report(const std::vector<Row>& rows) {
  std::printf(
      "Figure 10 — QoS re-assurance on/off (normalized to the ON run)\n");
  std::vector<std::vector<std::string>> table;
  for (const auto& row : rows) {
    const double qos_on = row.on.summary.qos_satisfaction;
    const double qos_off = row.off.summary.qos_satisfaction;
    const double thr_on = row.on.summary.be_throughput;
    const double thr_off = row.off.summary.be_throughput;
    table.push_back(
        {workload::PatternName(row.pattern), "1.000",
         eval::Fmt(qos_off / std::max(1e-9, qos_on)), "1.000",
         eval::Fmt(thr_off / std::max(1e-9, thr_on))});
  }
  eval::PrintTable("normalized QoS-sat (LC) and throughput (BE)",
                   {"pattern", "LC w/ re-assur.", "LC w/o", "BE w/ re-assur.",
                    "BE w/o"},
                   table);
  std::printf("\n");
  for (const auto& row : rows) {
    bench::PaperCheck(
        workload::PatternName(row.pattern),
        "re-assurance optimizes the objective",
        eval::Pct(row.on.summary.qos_satisfaction) + " QoS / " +
            eval::Fmt(row.on.summary.be_throughput, 0) + " BE vs " +
            eval::Pct(row.off.summary.qos_satisfaction) + " / " +
            eval::Fmt(row.off.summary.be_throughput, 0),
        row.on.summary.qos_satisfaction >=
                row.off.summary.qos_satisfaction - 0.005 &&
            row.on.summary.be_throughput >=
                0.97 * row.off.summary.be_throughput);
  }
}

}  // namespace

int main() {
  std::vector<Row> rows;
  rows.push_back(RunPattern(workload::Pattern::kP1));
  rows.push_back(RunPattern(workload::Pattern::kP2));
  rows.push_back(RunPattern(workload::Pattern::kP3));
  Report(rows);
  return bench::ChecksExitCode();
}
