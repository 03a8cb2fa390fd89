#include "fault/fault_plane.h"

#include <algorithm>

#include "common/logging.h"
#include "scope/scope.h"

namespace tango::fault {

namespace {

std::pair<std::int32_t, std::int32_t> LinkKey(ClusterId a, ClusterId b) {
  const auto mm = std::minmax(a.value, b.value);
  return {mm.first, mm.second};
}

std::string TargetName(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kNodeCrash:
    case FaultKind::kNodeRecover:
    case FaultKind::kNodeDrain:
    case FaultKind::kNodeUndrain:
      return "node " + std::to_string(e.node.value);
    case FaultKind::kLinkDegrade:
    case FaultKind::kLinkRestore:
    case FaultKind::kPartition:
    case FaultKind::kHeal: {
      const auto key = LinkKey(e.cluster_a, e.cluster_b);
      return "link " + std::to_string(key.first) + "-" +
             std::to_string(key.second);
    }
    case FaultKind::kMasterFail:
    case FaultKind::kMasterRecover:
      return "master " + std::to_string(e.cluster_a.value);
  }
  return "?";
}

}  // namespace

FaultPlane::FaultPlane(k8s::EdgeCloudSystem* system,
                       const FaultScript& script)
    : system_(system) {
  TANGO_CHECK(system_ != nullptr, "fault plane needs a system");
  for (const FaultEvent& event : script.events()) {
    system_->simulator().ScheduleAt(event.at,
                                    [this, event]() { Apply(event); });
  }
}

int FaultPlane::active_faults() const {
  return static_cast<int>(down_nodes_.size() + drained_nodes_.size() +
                          down_masters_.size() + faulted_links_.size());
}

void FaultPlane::Apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kNodeCrash:
      system_->CrashWorker(event.node);
      down_nodes_.insert(event.node.value);
      drained_nodes_.erase(event.node.value);  // a crash supersedes a drain
      break;
    case FaultKind::kNodeRecover:
      system_->RecoverWorker(event.node);
      down_nodes_.erase(event.node.value);
      break;
    case FaultKind::kNodeDrain:
      system_->DrainWorker(event.node);
      if (system_->WorkerAlive(event.node)) {
        drained_nodes_.insert(event.node.value);
      }
      break;
    case FaultKind::kNodeUndrain:
      system_->UndrainWorker(event.node);
      drained_nodes_.erase(event.node.value);
      break;
    case FaultKind::kLinkDegrade: {
      k8s::LinkFault lf;
      lf.latency_mult = event.latency_mult;
      lf.loss = event.loss;
      system_->SetLinkFault(event.cluster_a, event.cluster_b, lf);
      faulted_links_.insert(LinkKey(event.cluster_a, event.cluster_b));
      break;
    }
    case FaultKind::kLinkRestore:
    case FaultKind::kHeal:
      system_->ClearLinkFault(event.cluster_a, event.cluster_b);
      faulted_links_.erase(LinkKey(event.cluster_a, event.cluster_b));
      break;
    case FaultKind::kPartition: {
      k8s::LinkFault lf;
      lf.cut = true;
      system_->SetLinkFault(event.cluster_a, event.cluster_b, lf);
      faulted_links_.insert(LinkKey(event.cluster_a, event.cluster_b));
      break;
    }
    case FaultKind::kMasterFail:
      system_->FailMaster(event.cluster_a);
      down_masters_.insert(event.cluster_a.value);
      break;
    case FaultKind::kMasterRecover:
      system_->RecoverMaster(event.cluster_a);
      down_masters_.erase(event.cluster_a.value);
      break;
  }
  TimelineEntry entry;
  entry.at = system_->simulator().Now();
  entry.kind = event.kind;
  entry.target = TargetName(event);
  entry.workers_alive = system_->workers_alive();
  entry.masters_alive = system_->masters_alive();
  entry.active_faults = active_faults();
  // FaultKindName returns a string literal, satisfying the tracer's
  // static-storage contract for names.
  TANGO_SCOPE_INSTANT(FaultKindName(entry.kind), "fault", entry.at,
                      .node = event.node.value,
                      .value = entry.active_faults);
  timeline_.push_back(std::move(entry));
}

std::vector<std::pair<SimTime, SimTime>> FaultPlane::Windows(
    SimTime horizon) const {
  std::vector<std::pair<SimTime, SimTime>> windows;
  SimTime open = -1;
  for (const TimelineEntry& e : timeline_) {
    if (e.active_faults > 0 && open < 0) {
      open = e.at;
    } else if (e.active_faults == 0 && open >= 0) {
      if (e.at > open) windows.emplace_back(open, std::min(e.at, horizon));
      open = -1;
    }
  }
  if (open >= 0 && open < horizon) windows.emplace_back(open, horizon);
  return windows;
}

SimTime FaultPlane::LastRecoveryTime() const {
  SimTime last = 0;
  for (const TimelineEntry& e : timeline_) {
    if (e.active_faults == 0) {
      last = e.at;
    } else {
      last = -1;
    }
  }
  return last >= 0 ? last : -1;
}

}  // namespace tango::fault
