// Shared helpers for the figure-reproduction benches. Every binary prints
// the paper's expectation next to the measured value, so `for b in bench/*;
// do $b; done` doubles as the EXPERIMENTS.md evidence generator; a paper
// bench exits 1 when any of its checks fails.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "eval/harness.h"
#include "scope/scope.h"
#include "workload/trace.h"

namespace tango::bench {

/// Build-provenance fragment for BENCH_*.json: core count, git SHA, build
/// type, and the observability/sanitizer flags the binary was compiled
/// with. Keeps the literal `"cores":` key RecordedCores() parses. Embed
/// inside an enclosing JSON object:  { <ProvenanceJson(cores)>, ... }
inline std::string ProvenanceJson(int cores) {
#if defined(TANGO_GIT_SHA)
  const char* sha = TANGO_GIT_SHA;
#else
  const char* sha = "unknown";
#endif
#if defined(TANGO_BUILD_TYPE)
  const char* build_type = TANGO_BUILD_TYPE;
#else
  const char* build_type = "";
#endif
#if defined(TANGO_SANITIZE)
  const bool sanitize = true;
#else
  const bool sanitize = false;
#endif
#if defined(TANGO_TSAN)
  const bool tsan = true;
#else
  const bool tsan = false;
#endif
  std::ostringstream out;
  out << "\"cores\": " << cores << ", \"git_sha\": \"" << sha
      << "\", \"build_type\": \"" << build_type << "\", \"flags\": {"
      << "\"sanitize\": " << (sanitize ? "true" : "false")
      << ", \"tsan\": " << (tsan ? "true" : "false")
      << ", \"audit\": " << (audit::kEnabled ? "true" : "false")
      << ", \"scope\": " << (scope::kCompiled ? "true" : "false") << "}";
  return out.str();
}

/// Core count recorded in an existing BENCH_*.json (-1 when the file is
/// missing or carries no "cores" field).
inline int RecordedCores(const char* path) {
  std::ifstream in(path);
  if (!in) return -1;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string key = "\"cores\":";
  const auto pos = text.find(key);
  if (pos == std::string::npos) return -1;
  return std::atoi(text.c_str() + pos + key.size());
}

/// Provenance guard: refuse to overwrite a benchmark result recorded on a
/// host with more cores — a laptop run must not clobber the numbers from a
/// real multi-core box (that is how BENCH_sched.json once lost its ≥4-core
/// measurement to a 1-core container) — and refuse to record on a 1-core
/// host at all, whose parallel speedups mean nothing. Set
/// TANGO_BENCH_FORCE=1 to override deliberately (e.g. re-recording after a
/// schema change). Prints the decision either way.
inline bool ShouldWriteBench(const char* path, int cores) {
  const int prior = RecordedCores(path);
  if (cores > 1 && prior <= cores) return true;
  const char* force = std::getenv("TANGO_BENCH_FORCE");
  if (force != nullptr && *force != '\0' && *force != '0') {
    std::printf("  [!!] TANGO_BENCH_FORCE: writing %s from a %d-core run\n",
                path, cores);
    return true;
  }
  if (cores <= 1) {
    std::printf("  [--] not writing %s on a %d-core host: its parallel "
                "speedups would mean nothing\n",
                path, cores);
  } else {
    std::printf(
        "  [--] keeping existing %s (recorded on %d cores; this host has "
        "%d)\n",
        path, prior, cores);
  }
  return false;
}

inline const workload::ServiceCatalog& Catalog() {
  static const workload::ServiceCatalog cat =
      workload::ServiceCatalog::Standard();
  return cat;
}

/// Standard mixed trace for the scheduler comparisons.
inline workload::Trace MixedTrace(int clusters, double lc_rps, double be_rps,
                                  SimDuration duration,
                                  std::uint64_t seed = 31,
                                  workload::Pattern pattern =
                                      workload::Pattern::kP3,
                                  double hotspot_fraction = 0.5,
                                  int num_hotspots = 1) {
  workload::TraceConfig tc;
  tc.catalog = &Catalog();
  tc.num_clusters = clusters;
  tc.duration = duration;
  tc.lc_rps = lc_rps;
  tc.be_rps = be_rps;
  tc.seed = seed;
  tc.hotspot_fraction = hotspot_fraction;
  tc.num_hotspots = num_hotspots;
  return workload::GeneratePattern(pattern, tc);
}

/// Run one experiment with a framework pair on physical clusters.
inline eval::ExperimentResult RunPair(
    const workload::Trace& trace, int clusters,
    framework::LcAlgo lc, framework::BeAlgo be, bool with_hrm,
    SimDuration duration, const framework::FrameworkOptions& opts = {},
    const std::vector<k8s::ClusterSpec>* cluster_specs = nullptr,
    std::uint64_t system_seed = 9) {
  eval::ExperimentConfig cfg;
  cfg.system.clusters = cluster_specs != nullptr
                            ? *cluster_specs
                            : eval::PhysicalClusters(clusters);
  // Physical testbed clusters sit within LC-dispatch range of each other
  // (the paper's §5.2 footnote: within 500 km); the default 1200 km region
  // is for the 100+-cluster hybrid layout.
  if (cluster_specs == nullptr) cfg.system.region_km = 450.0;
  cfg.system.seed = system_seed;
  cfg.trace = trace;
  cfg.duration = duration;
  cfg.label = std::string(framework::LcAlgoName(lc)) + "+" +
              framework::BeAlgoName(be) + (with_hrm ? "+HRM" : "");
  return eval::RunExperiment(
      cfg,
      [&](k8s::EdgeCloudSystem& s) {
        return framework::InstallPair(s, lc, be, with_hrm, opts);
      },
      Catalog());
}

/// Run the same framework pair over several system seeds as independent
/// repetitions, concurrently on a thread pool (num_threads: 1 = serial,
/// 0 = hardware concurrency). Results come back in seed order.
inline std::vector<eval::ExperimentResult> RunPairSeeds(
    const workload::Trace& trace, int clusters, framework::LcAlgo lc,
    framework::BeAlgo be, bool with_hrm, SimDuration duration,
    const std::vector<std::uint64_t>& seeds, int num_threads = 0,
    const framework::FrameworkOptions& opts = {}) {
  std::vector<eval::ExperimentJob> jobs;
  jobs.reserve(seeds.size());
  for (const auto seed : seeds) {
    eval::ExperimentJob job;
    job.cfg.system.clusters = eval::PhysicalClusters(clusters);
    job.cfg.system.region_km = 450.0;
    job.cfg.system.seed = seed;
    job.cfg.trace = trace;
    job.cfg.duration = duration;
    job.cfg.label = std::string(framework::LcAlgoName(lc)) + "+" +
                    framework::BeAlgoName(be) + (with_hrm ? "+HRM" : "") +
                    " seed=" + std::to_string(seed);
    job.install = [lc, be, with_hrm, opts](k8s::EdgeCloudSystem& s) {
      return framework::InstallPair(s, lc, be, with_hrm, opts);
    };
    jobs.push_back(std::move(job));
  }
  return eval::RunExperiments(jobs, Catalog(), num_threads);
}

/// PaperChecks that printed `[!!]` so far in this process.
inline int& FailedChecks() {
  static int failed = 0;
  return failed;
}

/// Print a "paper vs measured" check line; returns `holds`.
inline bool PaperCheck(const char* what, const char* paper,
                       const std::string& measured, bool holds) {
  std::printf("  [%s] %-46s paper: %-34s measured: %s\n",
              holds ? "ok" : "!!", what, paper, measured.c_str());
  if (!holds) ++FailedChecks();
  return holds;
}

/// A paper bench's exit status: 1 when any PaperCheck printed `[!!]`.
inline int ChecksExitCode() { return FailedChecks() == 0 ? 0 : 1; }

inline std::vector<double> UtilSeries(const eval::ExperimentResult& r) {
  return eval::Field(r.periods,
                     +[](const k8s::PeriodStats& p) { return p.util_total; });
}

inline double QosSeriesPoint(const k8s::PeriodStats& p) {
  return p.lc_arrived > 0
             ? static_cast<double>(p.lc_qos_met) /
                   static_cast<double>(p.lc_arrived)
             : 1.0;
}

}  // namespace tango::bench
