#include "eval/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/logging.h"
#include "common/stats.h"
#include "common/thread_pool.h"

namespace tango::eval {

std::vector<k8s::ClusterSpec> PhysicalClusters(int n) {
  std::vector<k8s::ClusterSpec> out;
  for (int i = 0; i < n; ++i) {
    k8s::ClusterSpec spec;
    spec.num_workers = 4;
    spec.worker_capacity = {4 * kCore, 8 * 1024};
    out.push_back(spec);
  }
  return out;
}

std::vector<k8s::ClusterSpec> HybridClusters(int physical, int virtual_n,
                                             std::uint64_t seed) {
  std::vector<k8s::ClusterSpec> out = PhysicalClusters(physical);
  Rng rng(seed);
  for (int i = 0; i < virtual_n; ++i) {
    k8s::ClusterSpec spec;
    spec.num_workers = static_cast<int>(rng.UniformInt(3, 20));
    spec.heterogeneous = true;
    out.push_back(spec);
  }
  return out;
}

ExperimentResult RunExperiment(const ExperimentConfig& cfg,
                               const InstallFn& install,
                               const workload::ServiceCatalog& catalog) {
  k8s::EdgeCloudSystem system(cfg.system, &catalog);
  framework::Assembly assembly = install(system);
  std::unique_ptr<fault::FaultPlane> plane;
  if (cfg.faults != nullptr && !cfg.faults->empty()) {
    plane = std::make_unique<fault::FaultPlane>(&system, *cfg.faults);
  }
  system.SubmitTrace(cfg.trace);
  system.Run(cfg.duration);
  ExperimentResult r;
  r.label = cfg.label.empty() ? assembly.description() : cfg.label;
  r.summary = system.Summary();
  r.periods = system.periods();
  r.scaling_ops = system.total_scaling_ops();
  if (assembly.lc_scheduler() != nullptr &&
      assembly.lc_scheduler()->decisions() > 0) {
    r.lc_decision_ms_avg =
        assembly.lc_scheduler()->decision_seconds() * 1000.0 /
        static_cast<double>(assembly.lc_scheduler()->decisions());
  }
  if (assembly.lc_scheduler() != nullptr) {
    r.lc_routing = assembly.lc_scheduler()->total_round_stats();
  }
  if (plane != nullptr) {
    r.has_resilience = true;
    r.resilience = ComputeResilience(system, *plane, cfg.duration);
    r.timeline = plane->timeline();
  }
  r.metrics = system.metrics_registry().Snapshot();
  return r;
}

std::vector<ExperimentResult> RunExperiments(
    const std::vector<ExperimentJob>& jobs,
    const workload::ServiceCatalog& catalog, int num_threads) {
  std::vector<ExperimentResult> results(jobs.size());
  const auto run_one = [&](std::size_t i, int /*worker*/) {
    results[i] = RunExperiment(jobs[i].cfg, jobs[i].install, catalog);
  };
  if (num_threads == 1 || jobs.size() <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_one(i, 0);
    return results;
  }
  ThreadPool pool(num_threads == 0 ? 0 : num_threads - 1);
  pool.ParallelFor(jobs.size(), run_one);
  return results;
}

ResilienceReport ComputeResilience(const k8s::EdgeCloudSystem& system,
                                   const fault::FaultPlane& plane,
                                   SimTime horizon, double qos_threshold) {
  ResilienceReport rep;
  rep.fault_events = plane.events_injected();
  rep.requeued = system.fault_requeues();
  rep.dropped = system.fault_drops();

  const auto windows = plane.Windows(horizon);
  for (const auto& [start, end] : windows) rep.faulted_time += end - start;
  const auto in_fault = [&windows](SimTime t) {
    for (const auto& [start, end] : windows) {
      if (t >= start && t < end) return true;
    }
    return false;
  };

  SimTime recovery = plane.LastRecoveryTime();
  if (recovery < 0) recovery = horizon;  // faults active until the end

  int arrived_in = 0, met_in = 0, arrived_out = 0, met_out = 0;
  std::vector<double> post_latencies;
  const auto& catalog = system.catalog();
  for (const auto& rec : system.records()) {
    if (!rec.request.id.valid()) continue;
    if (!catalog.Get(rec.request.service).is_lc()) continue;
    if (rec.outcome == k8s::Outcome::kPending) rep.pending_at_end += 1;
    const bool met =
        rec.outcome == k8s::Outcome::kCompleted && rec.qos_met;
    if (in_fault(rec.request.arrival)) {
      arrived_in += 1;
      met_in += met ? 1 : 0;
    } else {
      arrived_out += 1;
      met_out += met ? 1 : 0;
    }
    if (rec.outcome == k8s::Outcome::kCompleted &&
        rec.request.arrival >= recovery) {
      post_latencies.push_back(ToMilliseconds(rec.latency));
    }
  }
  // BE requests can legitimately still be queued at the horizon, but they
  // must be *somewhere* accounted: queued, dropped, or completed. Pending
  // LC requests at the end are counted above and tested against zero well
  // after the last fault window.
  rep.qos_sat_in_fault =
      arrived_in > 0 ? static_cast<double>(met_in) / arrived_in : 0.0;
  rep.qos_sat_outside =
      arrived_out > 0 ? static_cast<double>(met_out) / arrived_out : 0.0;
  rep.post_recovery_p95_ms = Percentile(post_latencies, 0.95);

  rep.time_to_recover = -1;
  if (plane.LastRecoveryTime() >= 0) {
    // First period overlapping [recovery, ∞) whose LC QoS satisfaction is
    // back above the threshold; the period containing the recovery instant
    // counts as an immediate recovery (distance 0).
    const auto& periods = system.periods();
    for (std::size_t i = 0; i < periods.size(); ++i) {
      const SimTime period_end = i + 1 < periods.size()
                                     ? periods[i + 1].period_start
                                     : horizon;
      if (period_end <= recovery || periods[i].lc_arrived == 0) continue;
      const double sat = static_cast<double>(periods[i].lc_qos_met) /
                         periods[i].lc_arrived;
      if (sat >= qos_threshold) {
        rep.time_to_recover =
            std::max<SimDuration>(0, periods[i].period_start - recovery);
        break;
      }
    }
  }
  return rep;
}

void PrintTable(const std::string& title,
                const std::vector<std::string>& headers,
                const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> width(headers.size());
  for (std::size_t j = 0; j < headers.size(); ++j) width[j] = headers[j].size();
  for (const auto& row : rows) {
    for (std::size_t j = 0; j < row.size() && j < width.size(); ++j) {
      width[j] = std::max(width[j], row[j].size());
    }
  }
  std::printf("\n== %s ==\n", title.c_str());
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("  ");
    for (std::size_t j = 0; j < width.size(); ++j) {
      const std::string& cell = j < row.size() ? row[j] : std::string();
      std::printf("%-*s  ", static_cast<int>(width[j]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers);
  std::vector<std::string> rule;
  for (std::size_t j = 0; j < width.size(); ++j) {
    rule.push_back(std::string(width[j], '-'));
  }
  print_row(rule);
  for (const auto& row : rows) print_row(row);
}

std::string Sparkline(const std::vector<double>& values, int width) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) return {};
  const std::vector<double> v =
      Downsample(values, static_cast<std::size_t>(width));
  double lo = v[0], hi = v[0];
  for (double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  const double span = hi - lo < 1e-12 ? 1.0 : hi - lo;
  std::string out;
  for (double x : v) {
    const int idx = std::clamp(
        static_cast<int>((x - lo) / span * 7.999), 0, 7);
    out += kLevels[idx];
  }
  return out;
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Pct(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, 100.0 * v);
  return buf;
}

std::vector<double> Downsample(const std::vector<double>& v, std::size_t n) {
  if (v.size() <= n || n == 0) return v;
  std::vector<double> out;
  out.reserve(n);
  const double stride = static_cast<double>(v.size()) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto lo = static_cast<std::size_t>(static_cast<double>(i) * stride);
    const auto hi = std::min(
        v.size(), static_cast<std::size_t>(static_cast<double>(i + 1) * stride) + 1);
    double sum = 0.0;
    std::size_t cnt = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      sum += v[k];
      ++cnt;
    }
    out.push_back(cnt == 0 ? 0.0 : sum / static_cast<double>(cnt));
  }
  return out;
}

std::vector<double> Field(const std::vector<k8s::PeriodStats>& periods,
                          double (*get)(const k8s::PeriodStats&)) {
  std::vector<double> out;
  out.reserve(periods.size());
  for (const auto& p : periods) out.push_back(get(p));
  return out;
}

}  // namespace tango::eval
