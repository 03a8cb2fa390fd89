// Request traces and their generators.
//
// The paper drives all experiments from the 2019 Google cluster trace
// (<EventType, SCHEDULE> × <CollectionType, JOB>, LatencySensitivity mapped
// onto 10 LC/BE categories) plus three synthetic patterns for the HRM study:
//   P1 — periodic LC arrivals, random BE arrivals  (Fig. 9(a) left)
//   P2 — periodic BE arrivals, random LC arrivals  (middle)
//   P3 — both random                               (right)
// We reproduce those marginals with deterministic generators; the diurnal
// generator regenerates the Figure 1 motivation shape.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "workload/service.h"

namespace tango::workload {

/// One service request as it enters an edge access point.
struct Request {
  RequestId id;
  ServiceId service;
  ClusterId origin;      // cluster whose master (eAP) received it
  SimTime arrival = 0;
  /// Demand multiplier drawn per request (heavy-tailed, ≥ ~0.6): scales the
  /// service's base CPU work, mirroring per-job variability in the trace.
  double work_scale = 1.0;
};

using Trace = std::vector<Request>;  // sorted by arrival time

enum class Pattern { kP1, kP2, kP3 };
const char* PatternName(Pattern p);

struct TraceConfig {
  const ServiceCatalog* catalog = nullptr;
  int num_clusters = 1;
  SimDuration duration = 60 * kSecond;
  /// Mean arrival rate per cluster, requests/second, for each class.
  double lc_rps = 40.0;
  double be_rps = 10.0;
  /// Period of the periodic component (P1/P2).
  SimDuration period = 8 * kSecond;
  /// Peak-to-mean ratio of the periodic component.
  double periodic_amplitude = 0.8;
  /// Random-walk volatility of the random component.
  double random_volatility = 0.35;
  /// Geographic skew: fraction of load concentrated on "hot" clusters.
  double hotspot_fraction = 0.5;
  int num_hotspots = 1;
  std::uint64_t seed = 42;
};

/// Generate a trace following one of the three §7.1 patterns.
Trace GeneratePattern(Pattern pattern, const TraceConfig& cfg);

/// Generate a 24-hour diurnal trace with afternoon and evening peaks,
/// matching the Figure 1 measurement shape. `hours` of virtual time are
/// compressed into `cfg.duration`.
Trace GenerateDiurnal(const TraceConfig& cfg, double hours = 24.0);

/// Google-cluster-style trace: jobs arrive in bursts ("collections"), each
/// burst drawing one of the 10 service categories with trace-like frequency
/// (LC categories are request-heavy, BE categories chunkier), with
/// heavy-tailed per-request work scales.
Trace GenerateGoogleStyle(const TraceConfig& cfg);

}  // namespace tango::workload
