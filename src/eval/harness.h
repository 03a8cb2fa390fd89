// Experiment harness: canonical cluster layouts, a one-call experiment
// runner, and plain-text table/series printers used by every bench binary.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fault/fault_plane.h"
#include "scope/metrics.h"
#include "tango/framework.h"

namespace tango::eval {

/// The four "physical" clusters of §6.1 (1 master + 4 workers, 4 CPU/8 GB).
std::vector<k8s::ClusterSpec> PhysicalClusters(int n = 4);

/// The full dual-space layout: `physical` homogeneous clusters plus
/// `virtual_n` heterogeneous clusters of 3–20 workers (§6.1).
std::vector<k8s::ClusterSpec> HybridClusters(int physical, int virtual_n,
                                             std::uint64_t seed);

struct ExperimentConfig {
  k8s::SystemConfig system;
  workload::Trace trace;
  SimDuration duration = 60 * kSecond;
  std::string label;
  /// Optional fault script, armed on a FaultPlane before the run. The
  /// script must outlive the call.
  const fault::FaultScript* faults = nullptr;
};

/// Resilience metrics of one faulted run (all computed from the request
/// records and the fault plane's availability timeline).
struct ResilienceReport {
  int fault_events = 0;           // events actually injected
  SimDuration faulted_time = 0;   // union of the fault windows
  double qos_sat_in_fault = 0.0;  // LC QoS over arrivals inside windows
  double qos_sat_outside = 0.0;   // ... and outside them
  /// From the last fault healing to the first 800 ms period whose LC QoS
  /// satisfaction is back above the threshold (-1 = never recovered).
  SimDuration time_to_recover = -1;
  double post_recovery_p95_ms = 0.0;  // completed LC arrived after recovery
  std::int64_t requeued = 0;          // lost-to-a-fault-and-requeued count
  std::int64_t dropped = 0;           // re-route budget exhausted
  int pending_at_end = 0;             // silently lost (must be zero)
};

ResilienceReport ComputeResilience(const k8s::EdgeCloudSystem& system,
                                   const fault::FaultPlane& plane,
                                   SimTime horizon,
                                   double qos_threshold = 0.9);

struct ExperimentResult {
  std::string label;
  k8s::RunSummary summary;
  std::vector<k8s::PeriodStats> periods;
  std::int64_t scaling_ops = 0;
  double lc_decision_ms_avg = 0.0;  // mean DSS-LC wall time per decision
  k8s::LcRoundStats lc_routing;     // cumulative routing stats (satellite)
  /// Filled when ExperimentConfig::faults was set.
  bool has_resilience = false;
  ResilienceReport resilience;
  std::vector<fault::TimelineEntry> timeline;
  /// TangoScope metric snapshot of the run's system registry (sorted by
  /// name) — always filled; the registry is not compile-gated.
  std::vector<scope::MetricRow> metrics;
};

/// Build a system for `cfg`, let `install` wire schedulers/policies (the
/// returned Assembly is kept alive), run the trace, return the result.
using InstallFn =
    std::function<framework::Assembly(k8s::EdgeCloudSystem&)>;
ExperimentResult RunExperiment(const ExperimentConfig& cfg,
                               const InstallFn& install,
                               const workload::ServiceCatalog& catalog);

/// One experiment of a concurrent batch: a config plus its installer.
struct ExperimentJob {
  ExperimentConfig cfg;
  InstallFn install;
};

/// Run independent experiments (each builds its own EdgeCloudSystem) on a
/// fixed-size thread pool and return the results in job order, regardless
/// of completion order. `num_threads`: 1 = serial, 0 = hardware
/// concurrency, N = N worker slots. Give each job its own seed — the jobs
/// share nothing but the (immutable) catalog.
std::vector<ExperimentResult> RunExperiments(
    const std::vector<ExperimentJob>& jobs,
    const workload::ServiceCatalog& catalog, int num_threads = 0);

// ---- Plain-text reporting -------------------------------------------------

/// Print an aligned table: `rows[i][j]` under `headers[j]`.
void PrintTable(const std::string& title,
                const std::vector<std::string>& headers,
                const std::vector<std::vector<std::string>>& rows);

/// Render a numeric series as a compact sparkline row (for figure shapes).
std::string Sparkline(const std::vector<double>& values, int width = 60);

/// Format helpers.
std::string Fmt(double v, int precision = 3);
std::string Pct(double v, int precision = 1);

/// Downsample a per-period series to `n` points (mean pooling).
std::vector<double> Downsample(const std::vector<double>& v, std::size_t n);

/// Extract one field across periods.
std::vector<double> Field(const std::vector<k8s::PeriodStats>& periods,
                          double (*get)(const k8s::PeriodStats&));

}  // namespace tango::eval
