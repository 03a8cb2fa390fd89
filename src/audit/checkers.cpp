#include "audit/checkers.h"

namespace tango::audit::checks {

void CheckCgroupBound(std::int64_t parent_value, std::int64_t child_value,
                      const char* knob, const std::string& child_path) {
  // An unlimited child (-1) under a finite parent is legal steady state:
  // containers are created unlimited and are effectively clamped by the pod
  // bound until their own write lands (Hierarchy::AnyChild*Exceeds ignores
  // them for the same reason). Only a *finite* child may not exceed a
  // finite parent.
  const bool within =
      parent_value < 0 || child_value < 0 || child_value <= parent_value;
  AUDIT_CHECK(within, .subsystem = "cgroup",
              .invariant = "cgroup.child_within_parent",
              .detail = Detail("%s of %s is %lld, parent bound %lld", knob,
                               child_path.c_str(),
                               static_cast<long long>(child_value),
                               static_cast<long long>(parent_value)));
}

void CheckCgroupPodCoversChildren(std::int64_t pod_value,
                                  std::int64_t children_sum, const char* knob,
                                  const std::string& pod_path) {
  AUDIT_CHECK(pod_value < 0 || children_sum <= pod_value,
              .subsystem = "cgroup",
              .invariant = "cgroup.pod_covers_children",
              .detail = Detail("%s of %s is %lld, children sum to %lld", knob,
                               pod_path.c_str(),
                               static_cast<long long>(pod_value),
                               static_cast<long long>(children_sum)));
}

void CheckNodeConservation(SimTime now, std::int32_t node,
                           Millicores cpu_capacity, Millicores cpu_granted,
                           MiB mem_capacity, MiB mem_used) {
  AUDIT_CHECK(cpu_granted <= cpu_capacity, .subsystem = "node",
              .invariant = "node.cpu_conservation", .sim_time = now,
              .node = node,
              .detail = Detail("granted %lld millicores of %lld allocatable",
                               static_cast<long long>(cpu_granted),
                               static_cast<long long>(cpu_capacity)));
  AUDIT_CHECK(mem_used <= mem_capacity, .subsystem = "node",
              .invariant = "node.mem_conservation", .sim_time = now,
              .node = node,
              .detail = Detail("resident %lld MiB of %lld allocatable",
                               static_cast<long long>(mem_used),
                               static_cast<long long>(mem_capacity)));
}

void CheckUsageCache(SimTime now, std::int32_t node, const char* counter,
                     std::int64_t cached, std::int64_t rescanned) {
  AUDIT_CHECK(cached == rescanned, .subsystem = "node",
              .invariant = "node.usage_cache", .sim_time = now, .node = node,
              .detail = Detail("%s cached %lld != rescanned %lld", counter,
                               static_cast<long long>(cached),
                               static_cast<long long>(rescanned)));
}

void CheckUsageAggregate(SimTime now, const char* aggregate,
                         std::int64_t incremental, std::int64_t rescanned) {
  AUDIT_CHECK(incremental == rescanned, .subsystem = "metrics",
              .invariant = "metrics.usage_aggregate", .sim_time = now,
              .detail = Detail("%s aggregate %lld != rescanned %lld",
                               aggregate, static_cast<long long>(incremental),
                               static_cast<long long>(rescanned)));
}

void CheckLcTargetUsable(SimTime now, std::int32_t node, bool usable) {
  AUDIT_CHECK(usable, .subsystem = "sched",
              .invariant = "sched.lc_target_usable", .sim_time = now,
              .node = node,
              .detail = Detail("LC request routed to a dead/draining/"
                               "unreachable node"));
}

void CheckUniqueAssignment(SimTime now, std::int32_t request,
                           bool already_assigned) {
  AUDIT_CHECK(!already_assigned, .subsystem = "sched",
              .invariant = "sched.unique_assignment", .sim_time = now,
              .detail = Detail("request %d assigned twice in one round",
                               request));
}

void CheckVersionMonotonic(SimTime now, std::int32_t node,
                           std::uint64_t synced_version,
                           std::uint64_t current_version) {
  AUDIT_CHECK(synced_version <= current_version, .subsystem = "sync",
              .invariant = "sync.version_monotonic", .sim_time = now,
              .node = node,
              .detail = Detail("synced version %llu ahead of worker version "
                               "%llu",
                               static_cast<unsigned long long>(synced_version),
                               static_cast<unsigned long long>(
                                   current_version)));
}

void CheckDeltaIdentity(SimTime now, std::int32_t node, bool contents_match) {
  AUDIT_CHECK(contents_match, .subsystem = "sync",
              .invariant = "sync.delta_identity", .sim_time = now,
              .node = node,
              .detail = Detail("sync left a stale snapshot unpushed"));
}

void DvpaOrderChecker::BeginKind(const char* knob, std::int64_t old_pod_bound,
                                 std::int64_t new_bound) {
  if constexpr (!kEnabled) return;
  knob_ = knob;
  // Unlimited old bound (-1) accepts either order: the parent constrains
  // nothing, so neither write can fail. Same for an unchanged target.
  expand_ = old_pod_bound >= 0 && new_bound >= 0 && new_bound > old_pod_bound;
  shrink_ = old_pod_bound >= 0 &&
            (new_bound >= 0 ? new_bound < old_pod_bound : false);
  writes_ = 0;
  pod_written_ = false;
  container_written_ = false;
}

void DvpaOrderChecker::OnWrite(Level level, bool ok) {
  if constexpr (!kEnabled) return;
  ++writes_;
  AUDIT_CHECK(writes_ <= 2, .subsystem = "dvpa",
              .invariant = "dvpa.write_count", .sim_time = now_, .node = node_,
              .service = service_,
              .detail = Detail("%s scaled with %d writes (max 2: pod + "
                               "container)",
                               knob_, writes_));
  const bool is_pod = level == Level::kPod;
  AUDIT_CHECK(is_pod ? !pod_written_ : !container_written_,
              .subsystem = "dvpa", .invariant = "dvpa.duplicate_write",
              .sim_time = now_, .node = node_, .service = service_,
              .detail = Detail("%s level written twice for %s",
                               is_pod ? "pod" : "container", knob_));
  if (is_pod) {
    // Shrinking must narrow the container before the pod bound drops under it.
    AUDIT_CHECK(!shrink_ || container_written_, .subsystem = "dvpa",
                .invariant = "dvpa.shrink_order", .sim_time = now_,
                .node = node_, .service = service_,
                .detail = Detail("shrink of %s wrote pod before container "
                                 "(§4.2 order: container → pod)",
                                 knob_));
    pod_written_ = true;
  } else {
    AUDIT_CHECK(!expand_ || pod_written_, .subsystem = "dvpa",
                .invariant = "dvpa.expand_order", .sim_time = now_,
                .node = node_, .service = service_,
                .detail = Detail("expansion of %s wrote container before pod "
                                 "(§4.2 order: pod → container)",
                                 knob_));
    container_written_ = true;
  }
  AUDIT_CHECK(ok, .subsystem = "dvpa", .invariant = "dvpa.write_rejected",
              .sim_time = now_, .node = node_, .service = service_,
              .detail = Detail("ordered %s write to the %s level was rejected "
                               "by the hierarchy",
                               knob_, is_pod ? "pod" : "container"));
}

}  // namespace tango::audit::checks
