// HRM allocation policy — the resource usage regulations of §4.1 plus the
// per-(node, service) demand adjustment hook that the QoS re-assurance
// mechanism (§4.3) drives.
//
// Regulations implemented:
//   * LC services have strict priority: their minimum CPU needs are granted
//     first; if the node is overloaded LC shares are scaled pro rata and BE
//     receives nothing (compressible preemption).
//   * BE services expand into every idle millicore (up to the speedup cap)
//     via a water-filling pass — "BE maximizes idle resources".
//   * Memory is incompressible: an LC request that does not fit may evict
//     running BE requests (largest-memory victims first); BE admission never
//     evicts anything.
//   * Every admission pays the D-VPA scaling-op latency (the container's
//     limits are raised for the request and reclaimed at completion).
#pragma once

#include <map>

#include "cgroup/cgroup.h"
#include "k8s/allocation.h"

namespace tango::hrm {

struct HrmConfig {
  /// Per-request grant cap as a multiple of its minimum need.
  double speedup_cap = 2.0;
  /// Bounds on the re-assurance demand multiplier.
  double min_multiplier = 0.5;
  double max_multiplier = 3.0;
  /// D-VPA latency model (≈23 ms per full scaling op).
  cgroup::OpLatencyModel latency{};
};

class HrmAllocationPolicy : public k8s::AllocationPolicy {
 public:
  explicit HrmAllocationPolicy(const workload::ServiceCatalog* catalog,
                               HrmConfig cfg = {});

  k8s::ResourceVec EffectiveDemand(
      NodeId node, const workload::ServiceSpec& service) const override;
  k8s::AdmitDecision Admit(
      const k8s::NodeSpec& node, const k8s::ExecSlot& incoming,
      const std::vector<k8s::ExecSlot>& running) const override;
  void ComputeGrants(const k8s::NodeSpec& node,
                     const std::vector<k8s::ExecSlot>& running,
                     std::vector<Millicores>& grants) const override;
  SimDuration AdmissionLatency() const override;
  bool PreemptsBeForLc() const override { return true; }
  std::string name() const override { return "HRM"; }

  // ---- Re-assurance hooks (§4.3) ---------------------------------------
  double Multiplier(NodeId node, ServiceId service) const;
  void SetMultiplier(NodeId node, ServiceId service, double m);
  /// Multiply the current value by `factor` and clamp to config bounds.
  void NudgeMultiplier(NodeId node, ServiceId service, double factor);

  const HrmConfig& config() const { return cfg_; }

 private:
  const workload::ServiceCatalog* catalog_;
  HrmConfig cfg_;
  std::map<std::pair<NodeId, ServiceId>, double> multiplier_;
};

}  // namespace tango::hrm
