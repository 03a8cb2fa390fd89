// FaultPlane: applies a FaultScript to a live EdgeCloudSystem and records
// the availability timeline.
//
// The plane schedules every scripted event on the system's own simulator, so
// fault injection interleaves deterministically with arrivals, dispatches and
// state syncs. Each applied event appends a TimelineEntry capturing the
// instant's availability (workers/masters alive, active fault count); the
// resulting timeline is the ground truth for the resilience metrics in
// eval::ResilienceReport and is bit-identical across runs of the same
// seed + script.
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_script.h"
#include "k8s/system.h"

namespace tango::fault {

/// One applied fault event plus the availability snapshot just after it.
struct TimelineEntry {
  SimTime at = 0;
  FaultKind kind = FaultKind::kNodeCrash;
  std::string target;     // "node 7", "link 2-5", "master 0"
  int workers_alive = 0;
  int masters_alive = 0;
  int active_faults = 0;  // outstanding faults after this event
};

class FaultPlane {
 public:
  /// Arms every event of the script on the system's simulator. The system
  /// must outlive the plane; Run() the system afterwards as usual.
  FaultPlane(k8s::EdgeCloudSystem* system, const FaultScript& script);

  const std::vector<TimelineEntry>& timeline() const { return timeline_; }
  int events_injected() const { return static_cast<int>(timeline_.size()); }
  /// Outstanding faults right now (0 = system nominal).
  int active_faults() const;

  /// Merged [start, end) intervals during which at least one fault was
  /// active, clamped to [0, horizon). Back-to-back faults merge into one
  /// window; a fault never healed extends to the horizon.
  std::vector<std::pair<SimTime, SimTime>> Windows(SimTime horizon) const;

  /// The instant the system last returned to a fault-free state, or -1 if
  /// faults were still active at the last timeline entry (use the horizon).
  SimTime LastRecoveryTime() const;

 private:
  void Apply(const FaultEvent& event);

  k8s::EdgeCloudSystem* system_;
  std::vector<TimelineEntry> timeline_;
  // Mirrors of the injected state, keyed by target, so overlapping scripts
  // (e.g. two chaos profiles crashing the same node) never double-count.
  std::set<std::int32_t> down_nodes_;
  std::set<std::int32_t> drained_nodes_;
  std::set<std::int32_t> down_masters_;
  std::set<std::pair<std::int32_t, std::int32_t>> faulted_links_;
};

}  // namespace tango::fault
