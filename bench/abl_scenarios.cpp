// Ablation — TangoStorm scenario families × co-location interference.
//
// Every storm family (steady MMPP, flash crowd, diurnal waves, regional
// failover, mobility drift) drives the same three frameworks — Tango,
// CERES, native K8s — twice: once with the co-location interference model
// off (the byte-identical default) and once with the Standard sensitivity
// profiles installed, so BE pressure inflates co-located LC execution.
// The failover family also arms the matching regional FaultScript, so the
// surge and the outage hit together, as they would in production.
//
// `--smoke` runs the determinism and identity invariants only (per-seed
// byte-identical streams, per-cluster union == superposed scenario,
// arrival ordering, interference-off exact equality, monotone inflation)
// and exits 1 on any violation without writing anything — wired into
// tools/check.sh and CI.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "eval/export.h"
#include "eval/scenarios.h"
#include "storm/interference.h"
#include "storm/scenario.h"
#include "storm/source.h"

using namespace tango;

namespace {

constexpr int kClusters = 4;
constexpr SimTime kHorizon = 12 * kSecond;           // arrival window
constexpr SimDuration kDuration = kHorizon + 8 * kSecond;  // + drain tail

constexpr storm::ScenarioKind kFamilies[] = {
    storm::ScenarioKind::kSteady, storm::ScenarioKind::kFlashCrowd,
    storm::ScenarioKind::kDiurnal, storm::ScenarioKind::kFailover,
    storm::ScenarioKind::kMobility,
};

storm::ScenarioConfig ScenarioCfg(SimTime horizon, std::uint64_t seed) {
  storm::ScenarioConfig cfg =
      eval::DefaultScenarioConfig(bench::Catalog(), kClusters, horizon, seed);
  cfg.rps_per_cluster = 70.0;
  return cfg;
}

eval::ExperimentJob MakeJob(storm::ScenarioKind family,
                            const eval::ScenarioBundle& bundle,
                            framework::FrameworkKind fw,
                            const storm::InterferenceModel* model) {
  eval::ExperimentJob job;
  job.cfg.system.clusters = eval::PhysicalClusters(kClusters);
  job.cfg.system.region_km = 450.0;
  job.cfg.system.seed = 9;
  job.cfg.system.node_tunables.interference = model;
  job.cfg.trace = bundle.trace;
  job.cfg.duration = kDuration;
  if (bundle.has_faults) job.cfg.faults = &bundle.faults;
  job.cfg.label = std::string(storm::ScenarioKindName(family)) + "/" +
                  framework::FrameworkKindName(fw) +
                  (model != nullptr ? "/interf" : "");
  job.install = [fw](k8s::EdgeCloudSystem& s) {
    return framework::InstallFramework(s, fw);
  };
  return job;
}

// ---- full ablation --------------------------------------------------------

void Run() {
  const storm::InterferenceModel model =
      storm::InterferenceModel::Standard(bench::Catalog());
  const storm::ScenarioConfig cfg = ScenarioCfg(kHorizon, 42);

  // Generator throughput: how fast the streaming sources hand out
  // requests, measured over a much longer horizon than the runs use.
  {
    storm::ScenarioConfig wide = ScenarioCfg(120 * kSecond, 42);
    auto source = storm::BuildScenario(storm::ScenarioKind::kSteady, wide);
    workload::Request r;
    std::size_t n = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (source->NextRequest(&r)) ++n;
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("generator throughput: %zu requests in %.3f ms (%.1f "
                "Mreq/s)\n\n",
                n, secs * 1e3, secs > 0 ? 1e-6 * (double)n / secs : 0.0);
  }

  const framework::FrameworkKind kinds[] = {framework::FrameworkKind::kTango,
                                            framework::FrameworkKind::kCeres,
                                            framework::FrameworkKind::kK8sNative};
  std::vector<eval::ScenarioBundle> bundles;
  for (const auto family : kFamilies) {
    bundles.push_back(
        eval::BuildScenarioBundle(family, cfg, eval::PhysicalClusters(kClusters)));
  }
  std::vector<eval::ExperimentJob> jobs;
  for (std::size_t f = 0; f < bundles.size(); ++f) {
    for (const auto fw : kinds) {
      jobs.push_back(MakeJob(kFamilies[f], bundles[f], fw, nullptr));
      jobs.push_back(MakeJob(kFamilies[f], bundles[f], fw, &model));
    }
  }
  const auto results = eval::RunExperiments(jobs, bench::Catalog());

  std::vector<std::vector<std::string>> table;
  double tango_on_qos = 0.0, ceres_on_qos = 0.0, k8s_on_qos = 0.0;
  int tango_p95_inflated = 0;
  for (std::size_t f = 0; f < bundles.size(); ++f) {
    for (std::size_t k = 0; k < 3; ++k) {
      const auto& off = results[f * 6 + k * 2].summary;
      const auto& on = results[f * 6 + k * 2 + 1].summary;
      table.push_back({storm::ScenarioKindName(kFamilies[f]),
                       framework::FrameworkKindName(kinds[k]),
                       eval::Pct(off.qos_satisfaction),
                       eval::Pct(on.qos_satisfaction),
                       eval::Fmt(off.p95_latency_ms, 1),
                       eval::Fmt(on.p95_latency_ms, 1),
                       std::to_string(on.be_completed)});
      if (k == 0) {
        tango_on_qos += on.qos_satisfaction;
        if (on.p95_latency_ms >= off.p95_latency_ms) ++tango_p95_inflated;
      }
      if (k == 1) ceres_on_qos += on.qos_satisfaction;
      if (k == 2) k8s_on_qos += on.qos_satisfaction;
    }
  }
  eval::PrintTable(
      "Ablation — storm families × interference {off, on} × framework",
      {"scenario", "framework", "QoS off", "QoS on", "p95 off", "p95 on",
       "BE done"},
      table);
  std::printf("\n");

  const int families = static_cast<int>(bundles.size());
  bench::PaperCheck(
      "Interference inflates exec time, never deflates",
      "sensitivity model monotone, >= 1", model.CheckMonotone() ? "monotone" : "violated",
      model.CheckMonotone());
  bench::PaperCheck(
      "BE pressure degrades co-located LC p95",
      "interference-on p95 >= off (Tango)",
      std::to_string(tango_p95_inflated) + "/" + std::to_string(families) +
          " families",
      tango_p95_inflated >= families - 1);
  bench::PaperCheck(
      "Tango holds QoS under interference best",
      "harmonious mgmt (§7) under pressure",
      eval::Pct(tango_on_qos / families) + " vs " +
          eval::Pct(ceres_on_qos / families) + " (CERES), " +
          eval::Pct(k8s_on_qos / families) + " (K8s)",
      tango_on_qos >= ceres_on_qos && tango_on_qos >= k8s_on_qos);
}

// ---- smoke ----------------------------------------------------------------

std::uint64_t TraceDigest(const workload::Trace& t) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ULL;
  };
  for (const auto& r : t) {
    mix(static_cast<std::uint64_t>(r.service.value));
    mix(static_cast<std::uint64_t>(r.origin.value));
    mix(static_cast<std::uint64_t>(r.arrival));
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof r.work_scale);
    std::memcpy(&bits, &r.work_scale, sizeof bits);
    mix(bits);
  }
  return h;
}

bool SmokeCheck(const char* what, bool ok) {
  std::printf("  [%s] %s\n", ok ? "ok" : "!!", what);
  return ok;
}

int Smoke() {
  std::printf("abl_scenarios --smoke: storm invariants\n");
  bool ok = true;
  const storm::ScenarioConfig cfg = ScenarioCfg(4 * kSecond, 1234);
  for (const auto family : kFamilies) {
    const char* name = storm::ScenarioKindName(family);

    // Per-seed determinism: two independent builds drain byte-identically.
    workload::Trace a, b;
    storm::Drain(*storm::BuildScenario(family, cfg), &a);
    storm::Drain(*storm::BuildScenario(family, cfg), &b);
    ok &= SmokeCheck((std::string(name) + ": deterministic per seed").c_str(),
                     !a.empty() && TraceDigest(a) == TraceDigest(b));

    // Superposition keeps the system stream arrival-ordered.
    auto source = storm::BuildScenario(family, cfg);
    workload::Request r;
    SimTime last = 0;
    bool ordered = true;
    while (source->NextRequest(&r)) {
      ordered = ordered && r.arrival >= last;
      last = r.arrival;
    }
    ok &= SmokeCheck((std::string(name) + ": superposed stream ordered").c_str(),
                     ordered);

    // Sharding identity: per-cluster streams union to the same multiset.
    workload::Trace parts;
    for (int c = 0; c < cfg.num_clusters; ++c) {
      storm::Drain(*storm::BuildClusterStream(family, cfg, ClusterId{c}),
                   &parts);
    }
    std::stable_sort(parts.begin(), parts.end(),
                     [](const workload::Request& x, const workload::Request& y) {
                       return x.arrival < y.arrival;
                     });
    for (std::size_t i = 0; i < parts.size(); ++i) {
      parts[i].id = RequestId{static_cast<std::int32_t>(i)};
    }
    ok &= SmokeCheck(
        (std::string(name) + ": per-cluster union == scenario").c_str(),
        TraceDigest(parts) == TraceDigest(a));
  }

  // Disabled interference is exact identity: a zero-sensitivity model and
  // no model at all produce the same k8s run, bit for bit.
  {
    const auto bundle = eval::BuildScenarioBundle(
        storm::ScenarioKind::kFlashCrowd, cfg, eval::PhysicalClusters(kClusters));
    // A default-constructed model has all-zero sensitivities: every
    // inflation is exactly 1.0, so the enabled path must reproduce the
    // disabled path bit for bit.
    storm::InterferenceModel zero;
    const auto base = MakeJob(storm::ScenarioKind::kFlashCrowd, bundle,
                              framework::FrameworkKind::kTango, nullptr);
    auto zeroed = MakeJob(storm::ScenarioKind::kFlashCrowd, bundle,
                          framework::FrameworkKind::kTango, &zero);
    const auto ra = eval::RunExperiment(base.cfg, base.install, bench::Catalog());
    const auto rb =
        eval::RunExperiment(zeroed.cfg, zeroed.install, bench::Catalog());
    ok &= SmokeCheck("interference off == zero-sensitivity (exact)",
                     ra.summary.lc_completed == rb.summary.lc_completed &&
                         ra.summary.lc_qos_met == rb.summary.lc_qos_met &&
                         ra.summary.be_completed == rb.summary.be_completed &&
                         ra.summary.p95_latency_ms == rb.summary.p95_latency_ms &&
                         ra.summary.mean_latency_ms == rb.summary.mean_latency_ms);
  }

  const storm::InterferenceModel model =
      storm::InterferenceModel::Standard(bench::Catalog());
  ok &= SmokeCheck("Standard interference model monotone", model.CheckMonotone());

  std::printf("abl_scenarios --smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return Smoke();
  }
  Run();
  return 0;
}
