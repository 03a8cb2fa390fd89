// D-VPA: dynamic vertical pod autoscaling by ordered cgroup writes (§4.2).
//
// K8s' own VPA plugin deletes and rebuilds the pod to change its resources —
// an interruption of ~seconds. D-VPA instead writes the pod-level and
// container-level CGroup knobs in a strict order so the parent-bound
// invariant is never violated:
//     expansion:  pod first, then container;
//     shrinking:  container first, then pod.
// Either order mistake yields EINVAL from the hierarchy (kInvalidArgument),
// which the unit tests exercise.
#pragma once

#include <string>

#include "cgroup/cgroup.h"

namespace tango::hrm {

struct ScaleResult {
  bool ok = false;
  int writes = 0;
  /// Simulated latency of the operation (per the §7.1 measurement: a full
  /// D-VPA scaling op ≈ 23 ms; a native delete-and-rebuild ≈ 100×).
  SimDuration latency = 0;
  /// Whether the target container kept running through the operation.
  bool uninterrupted = true;
};

class DvpaScaler {
 public:
  explicit DvpaScaler(cgroup::OpLatencyModel latency = {})
      : latency_(latency) {}

  /// Scale `container_path` (child of `pod_path`) to the given CPU
  /// (millicores) and memory (MiB) limits: one cgroup::OrderedWrite per
  /// knob, the routine every simulated worker runs. Returns failure without
  /// touching anything further if a write is rejected.
  ScaleResult Scale(cgroup::Hierarchy& h, const std::string& pod_path,
                    const std::string& container_path, Millicores cpu,
                    MiB mem) const;

  /// The native K8s-VPA path for comparison: delete the pod subtree and
  /// recreate it with the new limits. Interrupts the workload and costs
  /// ~100× the D-VPA latency.
  ScaleResult NativeRebuild(cgroup::Hierarchy& h, const std::string& pod_path,
                            const std::string& container_name, Millicores cpu,
                            MiB mem) const;

  const cgroup::OpLatencyModel& latency_model() const { return latency_; }

 private:
  cgroup::OpLatencyModel latency_;
};

/// Millicores → cpu.cfs_quota_us at the standard 100 ms period.
std::int64_t QuotaFromMillicores(Millicores m);

}  // namespace tango::hrm
