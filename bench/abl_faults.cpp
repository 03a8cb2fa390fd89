// Ablation — resilience under an identical fault script (FaultPlane).
//
// Tango, CERES and plain K8s each run the same trace through the same
// seeded chaos (worker crashes, link degradations/partitions, one master
// failover window). The fault plane makes the failure sequence identical
// across frameworks, so the comparison isolates how each one *reacts*:
// Tango's DSS-LC excludes dead/unreachable workers from its flow graph and
// the BE path restarts evicted work, while the k8s-native dispatchers keep
// routing into the hole until requests age out.
#include "bench_common.h"
#include "eval/export.h"
#include "fault/fault_script.h"

using namespace tango;

namespace {

// The trace outlives the chaos window (end 30 s) plus the longest possible
// downtime, so time-to-recover is observable on live traffic.
constexpr SimDuration kDuration = 45 * kSecond;
constexpr SimDuration kHorizon = kDuration + 25 * kSecond;

fault::FaultScript ChaosScript() {
  fault::ChaosProfile profile;
  profile.seed = 2718;
  profile.start = 5 * kSecond;
  profile.end = 30 * kSecond;
  profile.crashes_per_min = 8.0;
  profile.min_downtime = 3 * kSecond;
  profile.max_downtime = 8 * kSecond;
  profile.link_faults_per_min = 3.0;
  profile.master_fails_per_min = 1.0;
  return fault::GenerateChaos(profile,
                              fault::WorkerIds(eval::PhysicalClusters(4)), 4);
}

eval::ExperimentResult RunKind(framework::FrameworkKind kind,
                               const workload::Trace& trace,
                               const fault::FaultScript& script) {
  eval::ExperimentConfig cfg;
  cfg.system.clusters = eval::PhysicalClusters(4);
  cfg.system.region_km = 450.0;
  cfg.system.seed = 9;
  cfg.trace = trace;
  cfg.duration = kHorizon;
  cfg.faults = &script;
  cfg.label = framework::FrameworkKindName(kind);
  return eval::RunExperiment(
      cfg,
      [kind](k8s::EdgeCloudSystem& s) {
        return framework::InstallFramework(s, kind);
      },
      bench::Catalog());
}

void Run() {
  const workload::Trace trace = bench::MixedTrace(4, 120.0, 15.0, kDuration,
                                                  /*seed=*/71);
  const fault::FaultScript script = ChaosScript();
  std::printf("fault script: %zu events (seed 2718), identical for every "
              "framework\n",
              script.size());

  const auto kinds = {framework::FrameworkKind::kTango,
                      framework::FrameworkKind::kCeres,
                      framework::FrameworkKind::kK8sNative};
  std::vector<eval::ExperimentResult> results;
  std::vector<std::pair<std::string, eval::ResilienceReport>> reports;
  std::vector<std::vector<std::string>> table;
  for (const auto kind : kinds) {
    results.push_back(RunKind(kind, trace, script));
    const auto& r = results.back();
    reports.emplace_back(r.label, r.resilience);
    const auto& rep = r.resilience;
    table.push_back(
        {r.label, eval::Pct(rep.qos_sat_in_fault),
         eval::Pct(rep.qos_sat_outside),
         rep.time_to_recover < 0
             ? std::string("never")
             : eval::Fmt(ToMilliseconds(rep.time_to_recover), 0) + " ms",
         std::to_string(rep.requeued), std::to_string(rep.dropped),
         std::to_string(r.summary.be_completed),
         std::to_string(rep.pending_at_end)});
  }
  eval::PrintTable("Ablation — same chaos, three frameworks",
                   {"framework", "QoS in fault", "QoS outside", "recover",
                    "requeued", "dropped", "BE done", "silently lost"},
                   table);
  std::printf("\n");

  const auto& tango_rep = results[0].resilience;
  const auto& ceres_rep = results[1].resilience;
  const auto& k8s_rep = results[2].resilience;
  bench::PaperCheck(
      "Tango degrades least during faults", "harmonious mgmt holds QoS (§7.3)",
      eval::Pct(tango_rep.qos_sat_in_fault) + " vs " +
          eval::Pct(ceres_rep.qos_sat_in_fault) + " (CERES), " +
          eval::Pct(k8s_rep.qos_sat_in_fault) + " (K8s)",
      tango_rep.qos_sat_in_fault >= ceres_rep.qos_sat_in_fault &&
          tango_rep.qos_sat_in_fault >= k8s_rep.qos_sat_in_fault);
  bench::PaperCheck("No framework loses requests silently",
                    "every request terminal or counted dropped",
                    std::to_string(tango_rep.pending_at_end) + "/" +
                        std::to_string(ceres_rep.pending_at_end) + "/" +
                        std::to_string(k8s_rep.pending_at_end),
                    tango_rep.pending_at_end == 0 &&
                        ceres_rep.pending_at_end == 0 &&
                        k8s_rep.pending_at_end == 0);
  bench::PaperCheck(
      "Tango recovers after the last healing", "finite time-to-recover",
      tango_rep.time_to_recover < 0
          ? "never"
          : eval::Fmt(ToMilliseconds(tango_rep.time_to_recover), 0) + " ms",
      tango_rep.time_to_recover >= 0);
  bench::PaperCheck(
      "BE work restarts after eviction (§4.1)", "Tango BE throughput ≥ K8s",
      std::to_string(results[0].summary.be_completed) + " vs " +
          std::to_string(results[2].summary.be_completed),
      results[0].summary.be_completed >= results[2].summary.be_completed);

  eval::WriteResilienceCsvFile("/tmp/tango_abl_faults.csv", reports);
  eval::WriteTimelineCsvFile("/tmp/tango_abl_faults_timeline.csv",
                             results[0].timeline);
  std::printf("\nwrote /tmp/tango_abl_faults{,_timeline}.csv\n");
}

}  // namespace

int main() {
  Run();
  return 0;
}
