// Pure-data invariant checkers.
//
// Each function re-states one catalog invariant over plain values, so the
// wired-in call sites (cgroup.cpp, node.cpp, dss_lc.cpp, system.cpp) and the
// seeded-bug death tests in tests/audit_test.cpp exercise the exact same
// code: the call site passes live state, the test passes deliberately
// corrupt values and expects the abort. Checkers that need subsystem
// internals are member functions instead (Hierarchy::Audit,
// MinCostMaxFlow::AuditSolution, Simulator::AuditHeap).
//
// All of these compile to empty functions when TANGO_AUDIT is off.
#pragma once

#include <cstdint>
#include <string>

#include "audit/audit.h"
#include "common/units.h"

namespace tango::audit::checks {

/// cgroup.child_within_parent (§4.2): a child group's finite limit may
/// never exceed its parent's finite limit (-1 = unlimited; an unlimited
/// child under a finite parent is clamped, not violating). This is the
/// EINVAL rule D-VPA's ordered writes exist to respect.
void CheckCgroupBound(std::int64_t parent_value, std::int64_t child_value,
                      const char* knob, const std::string& child_path);

/// cgroup.pod_covers_children (§4.2): a pod group's finite limit must be at
/// least the sum of its children's finite limits, so containers can never
/// collectively overdraw the pod bound.
void CheckCgroupPodCoversChildren(std::int64_t pod_value,
                                  std::int64_t children_sum, const char* knob,
                                  const std::string& pod_path);

/// node.cpu_conservation / node.mem_conservation (§4.1): granted CPU and
/// resident memory never exceed the node's allocatable capacity — LC>BE
/// preemption must free resources before the LC grant lands.
void CheckNodeConservation(SimTime now, std::int32_t node,
                           Millicores cpu_capacity, Millicores cpu_granted,
                           MiB mem_capacity, MiB mem_used);

/// node.usage_cache (PR 3's incremental telemetry): the O(1) cached usage
/// totals must equal a fresh rescan of the running set.
void CheckUsageCache(SimTime now, std::int32_t node, const char* counter,
                     std::int64_t cached, std::int64_t rescanned);

/// sched.lc_target_usable (§5.2): DSS-LC must never place an LC request on
/// a node that is dead, draining, or unreachable from the dispatching
/// master.
void CheckLcTargetUsable(SimTime now, std::int32_t node, bool usable);

/// sched.unique_assignment: one scheduling round must not assign the same
/// request twice.
void CheckUniqueAssignment(SimTime now, std::int32_t request,
                           bool already_assigned);

/// metrics.usage_aggregate: the system-wide usage sums SampleMetrics
/// keeps incrementally must equal a rescan of every worker.
void CheckUsageAggregate(SimTime now, const char* aggregate,
                         std::int64_t incremental, std::int64_t rescanned);

/// sync.version_monotonic: a worker's state_version only advances, so the
/// version state sync last recorded for it may never be ahead of it.
void CheckVersionMonotonic(SimTime now, std::int32_t node,
                           std::uint64_t synced_version,
                           std::uint64_t current_version);

/// sync.delta_identity: after a sync pushes a cluster's changes into a
/// view, every worker it left unpushed must still match a fresh snapshot
/// (version equality must imply content equality, and the change list
/// must be complete).
void CheckDeltaIdentity(SimTime now, std::int32_t node, bool contents_match);

/// D-VPA ordered-write protocol (§4.2) as a state machine. One checker
/// instance brackets one scaling operation; each knob kind (CPU quota,
/// memory limit) is announced with the old pod-level bound and the target,
/// then every write is reported in order:
///
///   expansion (finite old bound, target above it): pod before container;
///   shrinking (finite old bound, target below it): container before pod;
///   unlimited old bound or unchanged target: either order is safe.
///
/// A write that the hierarchy rejected (ok = false) on the D-VPA path is
/// itself a violation — the protocol exists so no ordered write ever fails.
class DvpaOrderChecker {
 public:
  enum class Level { kPod, kContainer };

  DvpaOrderChecker(SimTime now, std::int32_t node, std::int32_t service)
      : now_(now), node_(node), service_(service) {}

  /// Start auditing one knob kind. `old_pod_bound` / `new_bound` use the
  /// cgroup convention (-1 = unlimited).
  void BeginKind(const char* knob, std::int64_t old_pod_bound,
                 std::int64_t new_bound);

  /// Record one write of the current kind. `ok` is the hierarchy's verdict.
  void OnWrite(Level level, bool ok);

 private:
  SimTime now_;
  std::int32_t node_;
  std::int32_t service_;
  const char* knob_ = "?";
  bool expand_ = false;
  bool shrink_ = false;
  int writes_ = 0;
  bool pod_written_ = false;
  bool container_written_ = false;
};

}  // namespace tango::audit::checks
