#include "k8s/autoscalers.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace tango::k8s {

HpaAllocationPolicy::HpaAllocationPolicy(
    const workload::ServiceCatalog* catalog, HpaConfig cfg)
    : catalog_(catalog), cfg_(cfg) {
  TANGO_CHECK(catalog_ != nullptr, "catalog required");
}

HpaAllocationPolicy::Deployment& HpaAllocationPolicy::Dep(
    NodeId node, ServiceId service) const {
  return deployments_[{node, service}];
}

int HpaAllocationPolicy::ReadyReplicas(NodeId node, ServiceId service,
                                       SimTime now) const {
  const Deployment& d = Dep(node, service);
  int ready = d.replicas - static_cast<int>(d.starting.size());
  for (const SimTime t : d.starting) {
    if (t <= now) ++ready;
  }
  return std::max(cfg_.min_replicas, ready);
}

int HpaAllocationPolicy::TotalReplicas(NodeId node, ServiceId service) const {
  return Dep(node, service).replicas;
}

ResourceVec HpaAllocationPolicy::EffectiveDemand(
    NodeId /*node*/, const workload::ServiceSpec& service) const {
  return {service.cpu_demand, service.mem_demand};
}

AdmitDecision HpaAllocationPolicy::Admit(
    const NodeSpec& node, const ExecSlot& incoming,
    const std::vector<ExecSlot>& running) const {
  // One request per ready replica — the pod is the unit of concurrency.
  int concurrent = 0;
  for (const auto& s : running) {
    if (s.service == incoming.service) ++concurrent;
  }
  Deployment& d = Dep(node.id, incoming.service);
  d.observed_demand = std::max(d.observed_demand, concurrent + 1);
  AdmitDecision out;
  out.admit = concurrent < ReadyReplicas(node.id, incoming.service, now_hint_);
  return out;  // HPA never evicts
}

void HpaAllocationPolicy::ComputeGrants(const NodeSpec& node,
                                        const std::vector<ExecSlot>& running,
                                        std::vector<Millicores>& grants) const {
  // Each admitted request gets its replica's resources; the node cap scales
  // everything down pro rata when replicas oversubscribe the hardware.
  grants.assign(running.size(), 0);
  if (running.empty()) return;
  double ask = 0.0;
  for (const auto& s : running) ask += static_cast<double>(s.need.cpu);
  const double capacity = static_cast<double>(node.capacity.cpu);
  const double scale = ask <= capacity ? 1.0 : capacity / ask;
  for (std::size_t i = 0; i < running.size(); ++i) {
    grants[i] = static_cast<Millicores>(
        std::floor(static_cast<double>(running[i].need.cpu) * scale));
  }
}

void HpaAllocationPolicy::ControlLoop(SimTime now) {
  now_hint_ = now;
  for (auto& [key, d] : deployments_) {
    // Promote replicas that finished starting.
    d.starting.erase(
        std::remove_if(d.starting.begin(), d.starting.end(),
                       [now](SimTime t) { return t <= now; }),
        d.starting.end());
    const int ready = d.replicas - static_cast<int>(d.starting.size());
    const double utilization =
        ready > 0 ? static_cast<double>(d.observed_demand) /
                        static_cast<double>(ready)
                  : 1.0;
    // K8s formula: desired = ceil(current × utilization / target).
    const int desired = std::clamp(
        static_cast<int>(std::ceil(static_cast<double>(std::max(1, ready)) *
                                   utilization / cfg_.target_utilization)),
        cfg_.min_replicas, cfg_.max_replicas);
    if (desired > d.replicas) {
      for (int i = d.replicas; i < desired; ++i) {
        d.starting.push_back(now + cfg_.startup_latency);
      }
      d.replicas = desired;
      ++scale_ups_;
    } else if (desired < d.replicas) {
      d.replicas = desired;  // scale-down is immediate (pods terminate fast)
      while (static_cast<int>(d.starting.size()) > d.replicas) {
        d.starting.pop_back();
      }
      ++scale_downs_;
    }
    d.observed_demand = 0;
  }
}

HpaController::HpaController(EdgeCloudSystem* system,
                             HpaAllocationPolicy* policy) {
  TANGO_CHECK(system != nullptr && policy != nullptr, "hpa wiring");
  sim::Simulator* s = sim_ = &system->simulator();
  // Keep the policy's clock fresh at a fine grain so ReadyReplicas sees
  // replica start-ups between control passes.
  clock_ = s->StartPeriodic(100 * kMillisecond, 100 * kMillisecond,
                            [s, policy] { policy->SetNow(s->Now()); });
  loop_ = s->StartPeriodic(policy->config().period, policy->config().period,
                           [s, policy] { policy->ControlLoop(s->Now()); });
}

HpaController::~HpaController() {
  sim_->Cancel(clock_);
  sim_->Cancel(loop_);
}

}  // namespace tango::k8s
