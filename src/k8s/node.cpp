#include "k8s/node.h"

#include <algorithm>
#include <cmath>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "common/logging.h"
#include "storm/interference.h"

namespace tango::k8s {

WorkerNode::WorkerNode(sim::Simulator* sim, NodeSpec spec,
                       const workload::ServiceCatalog* catalog,
                       const AllocationPolicy* policy, Callbacks callbacks,
                       Tunables tunables)
    : sim_(sim),
      spec_(spec),
      catalog_(catalog),
      policy_(policy),
      callbacks_(std::move(callbacks)),
      tunables_(tunables) {
  TANGO_CHECK(sim_ && catalog_ && policy_, "node wiring incomplete");
  // Periodic queue hygiene: abandon stale LC, bounce timed-out BE. A
  // first-class periodic event — one pool entry re-armed in place.
  sim_->StartPeriodic(sim_->Now() + kSecond, kSecond,
                      [this]() { SweepQueues(); });
}

void WorkerNode::SetPolicy(const AllocationPolicy* policy) {
  TANGO_CHECK(policy != nullptr, "null policy");
  policy_ = policy;
  MarkDirty();  // PreemptsBeForLc may differ, changing the LC-available view
  Recompute();
}

ExecSlot WorkerNode::MakeSlot(const workload::Request& r,
                              SimTime enqueued) const {
  const auto& svc = catalog_->Get(r.service);
  ExecSlot slot;
  slot.request = r.id;
  slot.service = r.service;
  slot.is_lc = svc.is_lc();
  slot.need = policy_->EffectiveDemand(spec_.id, svc);
  slot.remaining_work = svc.cpu_work() * r.work_scale;
  slot.enqueued = enqueued;
  return slot;
}

void WorkerNode::Enqueue(const workload::Request& request) {
  TANGO_CHECK(alive_, "enqueue on crashed node %d", spec_.id.value);
  const auto& svc = catalog_->Get(request.service);
  Queued q{request, sim_->Now()};
  if (svc.is_lc()) {
    queue_lc_.push_back(q);
  } else {
    queue_be_.push_back(q);
  }
  MarkDirty();
  TryAdmit();
}

MiB WorkerNode::MemInUseInternal() const {
  MiB used = 0;
  for (const auto& r : running_) used += r.slot.need.mem;
  return used;
}

std::vector<workload::Request> WorkerNode::Crash() {
  std::vector<workload::Request> lost;
  if (!alive_) return lost;
  alive_ = false;
  draining_ = false;
  for (auto& r : running_) {
    if (r.completion != sim::kInvalidEvent) sim_->Cancel(r.completion);
    if (r.activation != sim::kInvalidEvent) sim_->Cancel(r.activation);
    scope::EndSpan(r.span, sim_->Now());
    workload::Request req;
    req.id = r.slot.request;
    req.service = r.slot.service;
    lost.push_back(req);
  }
  running_.clear();
  for (const auto& q : queue_lc_) lost.push_back(q.request);
  for (const auto& q : queue_be_) lost.push_back(q.request);
  queue_lc_.clear();
  queue_be_.clear();
  MarkDirty();
  RefreshUsage();
  return lost;
}

void WorkerNode::Recover() {
  alive_ = true;
  MarkDirty();
}

std::vector<workload::Request> WorkerNode::Drain() {
  std::vector<workload::Request> displaced;
  if (!alive_) return displaced;
  draining_ = true;
  for (const auto& q : queue_lc_) displaced.push_back(q.request);
  for (const auto& q : queue_be_) displaced.push_back(q.request);
  queue_lc_.clear();
  queue_be_.clear();
  MarkDirty();
  return displaced;
}

void WorkerNode::Undrain() {
  if (!alive_) return;
  draining_ = false;
  MarkDirty();
  TryAdmit();
}

void WorkerNode::TryAdmit() {
  if (!alive_ || draining_) return;
  bool admitted_any = false;
  // LC first — the regulations give LC strict priority (§4.1). Within a
  // class the scan is FIFO but a blocked request does not block the ones
  // behind it (each service runs in its own container, so a small request
  // can start while a memory-hungry one waits).
  for (std::deque<Queued>* queue : {&queue_lc_, &queue_be_}) {
    const bool lc_queue = queue == &queue_lc_;
    for (auto it = queue->begin(); it != queue->end();) {
      const Queued& entry = *it;
      const auto& svc = catalog_->Get(entry.request.service);
      // Age-out checks before spending an admission slot.
      if (lc_queue && svc.qos_target > 0) {
        const SimTime deadline =
            entry.request.arrival +
            static_cast<SimDuration>(tunables_.lc_abandon_factor *
                                     static_cast<double>(svc.qos_target));
        if (sim_->Now() > deadline) {
          if (callbacks_.on_abandon) {
            callbacks_.on_abandon(entry.request, sim_->Now());
          }
          it = queue->erase(it);
          MarkDirty();
          continue;
        }
      }
      if (!lc_queue &&
          sim_->Now() - entry.enqueued > tunables_.be_requeue_timeout) {
        if (callbacks_.on_be_return) callbacks_.on_be_return(entry.request);
        it = queue->erase(it);
        MarkDirty();
        continue;
      }

      ExecSlot incoming = MakeSlot(entry.request, entry.enqueued);
      // Physical memory bound (policy limits come on top of this).
      std::vector<ExecSlot> slots;
      slots.reserve(running_.size());
      for (const auto& r : running_) slots.push_back(r.slot);
      AdmitDecision decision = policy_->Admit(spec_, incoming, slots);
      if (decision.admit) {
        MiB mem_after = MemInUseInternal() + incoming.need.mem;
        for (std::size_t idx : decision.evict) {
          mem_after -= running_[idx].slot.need.mem;
        }
        if (mem_after > spec_.capacity.mem) decision.admit = false;
      }
      if (!decision.admit) {
        ++it;  // this one waits; later entries may still fit
        continue;
      }

      // Perform evictions (descending index order keeps indices valid).
      std::vector<std::size_t> evict = decision.evict;
      std::sort(evict.rbegin(), evict.rend());
      for (std::size_t idx : evict) {
        TANGO_CHECK(idx < running_.size(), "evict index out of range");
        TANGO_CHECK(!running_[idx].slot.is_lc, "policy evicted an LC slot");
        EvictRunning(idx);
      }

      Running run;
      run.slot = incoming;
      run.node_arrival = entry.enqueued;
      run.last_update = sim_->Now();
      run.span = scope::BeginSpan("exec", incoming.is_lc ? "lc" : "be",
                                  sim_->Now(),
                                  {.node = spec_.id.value,
                                   .service = incoming.service.value,
                                   .request = incoming.request.value});
      const SimDuration scale_latency = policy_->AdmissionLatency();
      const RequestId rid = incoming.request;
      if (scale_latency > 0) {
        run.active = false;
        run.activation =
            sim_->ScheduleAfter(scale_latency, [this, rid]() {
              for (auto& r : running_) {
                if (r.slot.request == rid) {
                  r.active = true;
                  r.exec_start = sim_->Now();
                  r.activation = sim::kInvalidEvent;
                  ++scaling_ops_;
                  // D-VPA ordered writes, direction chosen per knob from
                  // the current pod bound (a re-admission after the
                  // completion-time floor expands; a reassurance shrink of
                  // the service demand contracts).
                  const std::string cpath =
                      ContainerCgroupPath(r.slot.service);
                  const std::string ppath =
                      cpath.substr(0, cpath.rfind('/'));
                  cgroup::OrderedWrite(cgroups_, cgroup::Knob::kCpuQuota,
                                       ppath, cpath, r.slot.need.cpu * 100,
                                       sim_->Now(), spec_.id.value,
                                       r.slot.service.value);
                  cgroup::OrderedWrite(cgroups_, cgroup::Knob::kMemoryLimit,
                                       ppath, cpath, r.slot.need.mem,
                                       sim_->Now(), spec_.id.value,
                                       r.slot.service.value);
                  Recompute();
                  return;
                }
              }
            });
      } else {
        run.active = true;
        run.exec_start = sim_->Now();
      }
      running_.push_back(std::move(run));
      it = queue->erase(it);
      admitted_any = true;
    }
  }
  if (admitted_any) Recompute();
}

void WorkerNode::AccountProgress() {
  const SimTime now = sim_->Now();
  for (auto& r : running_) {
    if (!r.active || r.grant <= 0) {
      r.last_update = now;
      continue;
    }
    const double elapsed = static_cast<double>(now - r.last_update);
    double progress = static_cast<double>(r.grant) * elapsed;
    // Interference stretches wall-clock per unit of work; only divide when
    // a model actually set a slowdown, so disabled runs keep the original
    // float expression bit-for-bit.
    if (r.slow != 1.0) progress /= r.slow;
    r.slot.remaining_work = std::max(0.0, r.slot.remaining_work - progress);
    r.last_update = now;
  }
}

void WorkerNode::Recompute() {
  if (in_recompute_) return;
  in_recompute_ = true;
  AccountProgress();
  std::vector<ExecSlot> slots;
  slots.reserve(running_.size());
  for (const auto& r : running_) slots.push_back(r.slot);
  std::vector<Millicores> grants;
  policy_->ComputeGrants(spec_, slots, grants);
  TANGO_CHECK(grants.size() == running_.size(), "grant vector size mismatch");
  // Co-location interference: resolve the grants the loop below will assign
  // (activity + speedup cap), then charge each victim with its co-runners'
  // CPU/membw/LLC pressure. Kept in a separate enabled-only pass so the
  // disabled path runs the exact original loop, byte for byte.
  std::vector<double> slows;
  if (tunables_.interference != nullptr && !running_.empty()) {
    std::vector<Millicores> capped(running_.size());
    double cpu_sum = 0.0;
    double membw_sum = 0.0;
    double llc_sum = 0.0;
    for (std::size_t i = 0; i < running_.size(); ++i) {
      const Running& r = running_[i];
      const Millicores g = r.active ? grants[i] : 0;
      const auto cap = static_cast<Millicores>(
          tunables_.speedup_cap * static_cast<double>(r.slot.need.cpu));
      capped[i] = std::min(g, cap);
      const double cores = static_cast<double>(capped[i]) / 1000.0;
      const auto& prof = tunables_.interference->Profile(r.slot.service);
      cpu_sum += static_cast<double>(capped[i]);
      membw_sum += prof.membw_intensity * cores;
      llc_sum += prof.llc_intensity * cores;
    }
    const double node_cores = static_cast<double>(spec_.capacity.cpu) / 1000.0;
    slows.resize(running_.size(), 1.0);
    for (std::size_t i = 0; i < running_.size(); ++i) {
      const Running& r = running_[i];
      const double cores = static_cast<double>(capped[i]) / 1000.0;
      const auto& prof = tunables_.interference->Profile(r.slot.service);
      storm::PressureVec p;  // own contribution excluded per axis
      p.cpu = (cpu_sum - static_cast<double>(capped[i])) /
              static_cast<double>(spec_.capacity.cpu);
      p.membw = (membw_sum - prof.membw_intensity * cores) / node_cores;
      p.llc = (llc_sum - prof.llc_intensity * cores) / node_cores;
      slows[i] = tunables_.interference->Inflation(r.slot.service, p);
    }
  }
  for (std::size_t i = 0; i < running_.size(); ++i) {
    Running& r = running_[i];
    Millicores g = r.active ? grants[i] : 0;
    const auto cap = static_cast<Millicores>(
        tunables_.speedup_cap * static_cast<double>(r.slot.need.cpu));
    g = std::min(g, cap);
    r.grant = g;
    r.slow = slows.empty() ? 1.0 : slows[i];
    if (r.completion != sim::kInvalidEvent) {
      sim_->Cancel(r.completion);
      r.completion = sim::kInvalidEvent;
    }
    if (r.active && g > 0 && r.slot.remaining_work >= 0.0) {
      double work = r.slot.remaining_work;
      if (r.slow != 1.0) work *= r.slow;
      const auto delay = static_cast<SimDuration>(
          std::ceil(work / static_cast<double>(g)));
      const RequestId rid = r.slot.request;
      r.completion =
          sim_->ScheduleAfter(delay, [this, rid]() { CompleteAt(rid); });
    }
  }
  MarkDirty();
  RefreshUsage();
  // §4.1 conservation at the grant boundary: preemption may reshuffle CPU
  // between LC and BE, but the node can never hand out more than it has.
  audit::checks::CheckNodeConservation(sim_->Now(), spec_.id.value,
                                       spec_.capacity.cpu, use_total_,
                                       spec_.capacity.mem, mem_use_);
  in_recompute_ = false;
}

void WorkerNode::RefreshUsage() {
  Millicores total = 0;
  Millicores lc = 0;
  Millicores be = 0;
  MiB mem = 0;
  MiB mem_lc = 0;
  int nlc = 0;
  for (const auto& r : running_) {
    total += r.grant;
    mem += r.slot.need.mem;
    if (r.slot.is_lc) {
      lc += r.grant;
      mem_lc += r.slot.need.mem;
      ++nlc;
    } else {
      be += r.grant;
    }
  }
  if (callbacks_.on_usage_delta &&
      (total != use_total_ || lc != use_lc_ || be != use_be_)) {
    callbacks_.on_usage_delta(total - use_total_, lc - use_lc_,
                              be - use_be_);
  }
  use_total_ = total;
  use_lc_ = lc;
  use_be_ = be;
  mem_use_ = mem;
  mem_use_lc_ = mem_lc;
  running_lc_count_ = nlc;
}

void WorkerNode::CompleteAt(RequestId id) {
  AccountProgress();
  auto it = std::find_if(running_.begin(), running_.end(),
                         [id](const Running& r) {
                           return r.slot.request == id;
                         });
  if (it == running_.end()) return;  // raced with eviction
  if (it->slot.remaining_work > 1.0) {
    // Grant changed since this event was scheduled; Recompute rescheduled a
    // fresh completion, so this firing is stale.
    return;
  }
  Running done = std::move(*it);
  running_.erase(it);
  scope::EndSpan(done.span, sim_->Now());
  // D-VPA reclaims resources on completion: floor the quota (10 millicores)
  // in the direction-correct order — a shrink for any real demand, but an
  // expansion when the demand sat below the floor.
  if (policy_->AdmissionLatency() > 0) {
    const std::string cpath = ContainerCgroupPath(done.slot.service);
    const std::string ppath = cpath.substr(0, cpath.rfind('/'));
    cgroup::OrderedWrite(cgroups_, cgroup::Knob::kCpuQuota, ppath, cpath,
                         1000, sim_->Now(), spec_.id.value,
                         done.slot.service.value);
  }
  if (callbacks_.on_complete) {
    CompletionInfo info;
    // The request payload is not stored in the slot; reconstruct the parts
    // consumers need. Request metadata travels via RequestLog in the system.
    info.request.id = done.slot.request;
    info.request.service = done.slot.service;
    info.node = spec_.id;
    info.node_arrival = done.node_arrival;
    info.exec_start = done.exec_start;
    info.completed = sim_->Now();
    callbacks_.on_complete(info);
  }
  TryAdmit();
  Recompute();
}

void WorkerNode::EvictRunning(std::size_t index) {
  Running victim = std::move(running_[index]);
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(index));
  MarkDirty();
  if (victim.completion != sim::kInvalidEvent) sim_->Cancel(victim.completion);
  if (victim.activation != sim::kInvalidEvent) sim_->Cancel(victim.activation);
  scope::EndSpan(victim.span, sim_->Now());
  TANGO_SCOPE_INSTANT("be.evict", "be", sim_->Now(), .node = spec_.id.value,
                      .service = victim.slot.service.value,
                      .request = victim.slot.request.value);
  if (callbacks_.on_be_return) {
    workload::Request r;
    r.id = victim.slot.request;
    r.service = victim.slot.service;
    callbacks_.on_be_return(r);
  }
}

void WorkerNode::SweepQueues() {
  if (!alive_) return;
  // Re-run the admission loop; its head checks drop stale entries. Also
  // scan non-head entries for expiry so one stuck head cannot hide them.
  for (auto it = queue_lc_.begin(); it != queue_lc_.end();) {
    const auto& svc = catalog_->Get(it->request.service);
    const SimTime deadline =
        it->request.arrival +
        static_cast<SimDuration>(tunables_.lc_abandon_factor *
                                 static_cast<double>(svc.qos_target));
    if (svc.qos_target > 0 && sim_->Now() > deadline) {
      if (callbacks_.on_abandon) callbacks_.on_abandon(it->request, sim_->Now());
      it = queue_lc_.erase(it);
      MarkDirty();
    } else {
      ++it;
    }
  }
  for (auto it = queue_be_.begin(); it != queue_be_.end();) {
    if (sim_->Now() - it->enqueued > tunables_.be_requeue_timeout) {
      if (callbacks_.on_be_return) callbacks_.on_be_return(it->request);
      it = queue_be_.erase(it);
      MarkDirty();
    } else {
      ++it;
    }
  }
  TryAdmit();
}

metrics::NodeSnapshot WorkerNode::Snapshot(SimTime now) const {
  if constexpr (audit::kEnabled) {
    // The O(1) incremental telemetry must agree with a fresh rescan of the
    // running set at every read boundary.
    Millicores total = 0;
    Millicores lc = 0;
    MiB mem = 0;
    for (const auto& r : running_) {
      total += r.grant;
      mem += r.slot.need.mem;
      if (r.slot.is_lc) lc += r.grant;
    }
    audit::checks::CheckUsageCache(now, spec_.id.value, "cpu_in_use",
                                   use_total_, total);
    audit::checks::CheckUsageCache(now, spec_.id.value, "cpu_in_use_lc",
                                   use_lc_, lc);
    audit::checks::CheckUsageCache(now, spec_.id.value, "mem_in_use",
                                   mem_use_, mem);
  }
  metrics::NodeSnapshot s;
  s.node = spec_.id;
  s.cluster = spec_.cluster;
  s.is_master = false;
  s.alive = alive_;
  s.draining = draining_;
  s.cpu_total = spec_.capacity.cpu;
  s.mem_total = spec_.capacity.mem;
  s.recorded_at = now;
  if (!alive_ || draining_) {
    // Dead: nothing to report. Draining: running work still shows, but no
    // capacity is advertised so load-based schedulers steer away too.
    s.cpu_available = 0;
    s.mem_available = 0;
    s.cpu_available_lc = 0;
    s.mem_available_lc = 0;
    s.running_lc = alive_ ? running_lc() : 0;
    s.running_be = alive_ ? running_count() - running_lc() : 0;
    s.queued = alive_ ? queued_count() : 0;
    return s;
  }
  s.cpu_available = std::max<Millicores>(0, spec_.capacity.cpu - cpu_in_use());
  s.mem_available = std::max<MiB>(0, spec_.capacity.mem - mem_in_use());
  if (policy_->PreemptsBeForLc()) {
    // §4.1: LC may take idle resources *and* whatever BE holds — CPU by
    // share compression, memory by eviction.
    s.cpu_available_lc =
        std::max<Millicores>(0, spec_.capacity.cpu - cpu_in_use_lc());
    s.mem_available_lc =
        std::max<MiB>(0, spec_.capacity.mem - mem_in_use_lc());
  }
  s.running_lc = running_lc();
  s.running_be = running_count() - running_lc();
  s.queued = queued_count();
  return s;
}

std::string WorkerNode::ContainerCgroupPath(ServiceId service) {
  const std::string pod = "pod-n" + std::to_string(spec_.id.value) + "-s" +
                          std::to_string(service.value);
  const std::string pod_path = "kubepods/burstable/" + pod;
  if (cgroups_.Find(pod_path) == nullptr) {
    cgroups_.Create("kubepods/burstable", pod);
    cgroups_.Create(pod_path, "c0");
  }
  return pod_path + "/c0";
}

}  // namespace tango::k8s
