#include "hrm/regulations.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace tango::hrm {

using k8s::AdmitDecision;
using k8s::ExecSlot;
using k8s::NodeSpec;
using k8s::ResourceVec;

HrmAllocationPolicy::HrmAllocationPolicy(
    const workload::ServiceCatalog* catalog, HrmConfig cfg)
    : catalog_(catalog), cfg_(cfg) {
  TANGO_CHECK(catalog_ != nullptr, "catalog required");
}

double HrmAllocationPolicy::Multiplier(NodeId node, ServiceId service) const {
  auto it = multiplier_.find({node, service});
  return it == multiplier_.end() ? 1.0 : it->second;
}

void HrmAllocationPolicy::SetMultiplier(NodeId node, ServiceId service,
                                        double m) {
  multiplier_[{node, service}] =
      std::clamp(m, cfg_.min_multiplier, cfg_.max_multiplier);
}

void HrmAllocationPolicy::NudgeMultiplier(NodeId node, ServiceId service,
                                          double factor) {
  SetMultiplier(node, service, Multiplier(node, service) * factor);
}

ResourceVec HrmAllocationPolicy::EffectiveDemand(
    NodeId node, const workload::ServiceSpec& service) const {
  const double m = Multiplier(node, service.id);
  return {static_cast<Millicores>(
              std::ceil(static_cast<double>(service.cpu_demand) * m)),
          service.mem_demand};
}

SimDuration HrmAllocationPolicy::AdmissionLatency() const {
  return cfg_.latency.FullScaleOp();
}

AdmitDecision HrmAllocationPolicy::Admit(
    const NodeSpec& node, const ExecSlot& incoming,
    const std::vector<ExecSlot>& running) const {
  AdmitDecision d;
  MiB mem_used = 0;
  for (const auto& s : running) mem_used += s.need.mem;
  const MiB free_mem = node.capacity.mem - mem_used;
  if (incoming.need.mem <= free_mem) {
    d.admit = true;
    return d;
  }
  if (!incoming.is_lc) return d;  // BE never evicts anyone

  // Memory preemption for LC: evict BE requests, largest memory first, until
  // the request fits. Evicted BE work restarts later (§4.1).
  std::vector<std::size_t> be_idx;
  for (std::size_t i = 0; i < running.size(); ++i) {
    if (!running[i].is_lc) be_idx.push_back(i);
  }
  std::sort(be_idx.begin(), be_idx.end(), [&](std::size_t a, std::size_t b) {
    return running[a].need.mem > running[b].need.mem;
  });
  MiB reclaimed = 0;
  for (std::size_t idx : be_idx) {
    d.evict.push_back(idx);
    reclaimed += running[idx].need.mem;
    if (incoming.need.mem <= free_mem + reclaimed) {
      d.admit = true;
      return d;
    }
  }
  d.evict.clear();  // even evicting every BE would not make room
  return d;
}

void HrmAllocationPolicy::ComputeGrants(const NodeSpec& node,
                                        const std::vector<ExecSlot>& running,
                                        std::vector<Millicores>& grants) const {
  grants.assign(running.size(), 0);
  if (running.empty()) return;
  const auto capacity = static_cast<double>(node.capacity.cpu);

  double lc_ask = 0.0;
  for (const auto& s : running) {
    if (s.is_lc) lc_ask += static_cast<double>(s.need.cpu);
  }

  // LC first: full ask, or pro-rata under overload.
  const double lc_scale = lc_ask <= capacity ? 1.0 : capacity / lc_ask;
  double used = 0.0;
  for (std::size_t i = 0; i < running.size(); ++i) {
    if (!running[i].is_lc) continue;
    grants[i] = static_cast<Millicores>(
        std::floor(static_cast<double>(running[i].need.cpu) * lc_scale));
    used += static_cast<double>(grants[i]);
  }

  // BE water-fill into the leftover, each request capped at
  // speedup_cap × need ("BE maximizes idle resources", Figure 4(a)).
  double leftover = std::max(0.0, capacity - used);
  std::vector<std::size_t> be;
  for (std::size_t i = 0; i < running.size(); ++i) {
    if (!running[i].is_lc) be.push_back(i);
  }
  for (int pass = 0; pass < 4 && leftover > 1.0 && !be.empty(); ++pass) {
    double ask = 0.0;
    for (std::size_t i : be) {
      const auto cap = cfg_.speedup_cap *
                       static_cast<double>(running[i].need.cpu);
      ask += std::max(0.0, cap - static_cast<double>(grants[i]));
    }
    if (ask <= 0.0) break;
    const double fill = std::min(1.0, leftover / ask);
    double granted_this_pass = 0.0;
    for (std::size_t i : be) {
      const auto cap = cfg_.speedup_cap *
                       static_cast<double>(running[i].need.cpu);
      const double headroom =
          std::max(0.0, cap - static_cast<double>(grants[i]));
      const auto inc = static_cast<Millicores>(std::floor(headroom * fill));
      grants[i] += inc;
      granted_this_pass += static_cast<double>(inc);
    }
    leftover -= granted_this_pass;
    if (granted_this_pass < 1.0) break;
  }
}

}  // namespace tango::hrm
