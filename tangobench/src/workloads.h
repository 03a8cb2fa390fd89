// The benchmark's workloads and the metric names it reports.
//
// A workload turns a seed into inputs, sets up a fresh system (or sharded
// engine) for each pass, runs it, and returns what the pass simulated plus
// how long set-up and the run took on the host. A traced pass additionally
// wraps the Tango plug-ins in the layers.h decorators and fills the
// per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"

namespace tangobench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run (--trace 0).
const std::vector<MetricDef>& EndToEndMetrics();
/// Per-layer metrics, printed by every traced run (--trace 1). A layer a
/// workload does not run reads 0 there.
const std::vector<MetricDef>& PerLayerMetrics();

using LayerValues = std::map<std::string, double>;

struct PassResult {
  double setup_s = 0.0;  // input generation + construction + plug-in install
  double gen_s = 0.0;    // input generation alone (part of setup_s)
  double run_s = 0.0;    // first event to the end of the pass
  std::int64_t requests = 0;  // simulated arrivals
  SimResult sim;
  LayerValues layers;  // filled by traced passes only
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set up and run one pass. Gate failures are added to `gates`.
  virtual PassResult RunPass(std::uint64_t seed, bool traced,
                             Gates* gates) = 0;
  /// Only the set-up part of a pass, timed (extra set-up samples).
  virtual double SetupOnly(std::uint64_t seed) = 0;
  /// Traced-run work beyond the passes (the sharded engine's one-thread
  /// reference run); adds to `layers`.
  virtual void TracedExtras(std::uint64_t /*seed*/,
                            const PassResult& /*median*/,
                            LayerValues* /*layers*/, Gates* /*gates*/) {}
  /// Write the latest traced pass's spans; false when there are none.
  virtual bool WriteSpans(const std::string& /*path*/) const { return false; }
};

/// The workload called `name`, or nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

/// Independent 64-bit stream seed from the workload seed (splitmix64).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt);

}  // namespace tangobench
