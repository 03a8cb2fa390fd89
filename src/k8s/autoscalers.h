// Kubernetes Horizontal Pod Autoscaler, behaviour-level.
//
// §2.1 argues HPA is a poor fit for millisecond-level LC services: scaling
// out takes a control-loop period (15 s by default) plus container start-up
// time, far longer than an LC deadline. This module reproduces that
// behaviour so the ablation bench can contrast it with D-VPA's 23 ms
// in-place scaling:
//
//   * HpaAllocationPolicy — like the native fixed-fraction policy, but the
//     per-(node, service) capacity is `replicas × one replica's resources`;
//   * HpaController — the control loop: every `period`, scale each deployment
//     toward `ceil(replicas · utilization / target)`; new replicas only
//     become ready after `startup_latency`.
#pragma once

#include <map>

#include "k8s/allocation.h"
#include "k8s/system.h"

namespace tango::k8s {

struct HpaConfig {
  /// Control loop period (K8s default: 15 s).
  SimDuration period = 15 * kSecond;
  /// Container cold-start time at the edge (image pull + init).
  SimDuration startup_latency = 2300 * kMillisecond;
  /// Target utilization (K8s default: 80 %).
  double target_utilization = 0.8;
  int min_replicas = 1;
  int max_replicas = 16;
};

class HpaAllocationPolicy : public AllocationPolicy {
 public:
  HpaAllocationPolicy(const workload::ServiceCatalog* catalog,
                      HpaConfig cfg = {});

  ResourceVec EffectiveDemand(NodeId node,
                              const workload::ServiceSpec& service)
      const override;
  AdmitDecision Admit(const NodeSpec& node, const ExecSlot& incoming,
                      const std::vector<ExecSlot>& running) const override;
  void ComputeGrants(const NodeSpec& node,
                     const std::vector<ExecSlot>& running,
                     std::vector<Millicores>& grants) const override;
  std::string name() const override { return "k8s-hpa"; }

  /// Ready replica count for a deployment (node × service).
  int ReadyReplicas(NodeId node, ServiceId service, SimTime now) const;
  /// Total replicas including ones still starting.
  int TotalReplicas(NodeId node, ServiceId service) const;

  /// One control-loop pass: observe demand recorded by Admit/ComputeGrants
  /// and scale each deployment toward the target utilization.
  void ControlLoop(SimTime now);

  std::int64_t scale_ups() const { return scale_ups_; }
  std::int64_t scale_downs() const { return scale_downs_; }
  const HpaConfig& config() const { return cfg_; }

 private:
  struct Deployment {
    int replicas = 1;
    /// Replicas still cold-starting: count ready at `ready_at`.
    std::vector<SimTime> starting;
    /// Peak concurrent requests observed since the last control pass.
    int observed_demand = 0;
  };
  using Key = std::pair<NodeId, ServiceId>;

  Deployment& Dep(NodeId node, ServiceId service) const;

  const workload::ServiceCatalog* catalog_;
  HpaConfig cfg_;
  mutable std::map<Key, Deployment> deployments_;
  mutable SimTime now_hint_ = 0;  // advanced by Admit/ControlLoop callers
  std::int64_t scale_ups_ = 0;
  std::int64_t scale_downs_ = 0;

 public:
  /// The policy interface carries no clock; the controller advances it.
  void SetNow(SimTime now) const { now_hint_ = now; }
};

/// Wires the HPA control loop onto a system's simulator; destroying the
/// controller cancels both of its periodic events. The system must outlive
/// the controller.
class HpaController {
 public:
  HpaController(EdgeCloudSystem* system, HpaAllocationPolicy* policy);
  ~HpaController();
  HpaController(const HpaController&) = delete;
  HpaController& operator=(const HpaController&) = delete;

 private:
  sim::Simulator* sim_ = nullptr;
  sim::EventHandle clock_ = sim::kInvalidEvent;
  sim::EventHandle loop_ = sim::kInvalidEvent;
};

}  // namespace tango::k8s
