// QoS re-assurance mechanism (§4.3, Algorithm 1).
//
// Every window (100 ms) and for every (worker node, LC service) pair, the
// re-assurer reads the slack score δ = 1 − ξ/γ from the QoS detector and
// nudges the service's minimum resource request on that node:
//     δ < α  →  increase the minimum requested amount,
//     δ > β  →  decrease it,
// in small steps at high frequency so adjustments stay smooth.
#pragma once

#include <functional>

#include "hrm/regulations.h"
#include "k8s/system.h"

namespace tango::hrm {

struct ReassuranceConfig {
  /// Slack thresholds: below α is "poor", above β is "excellent".
  double alpha = 0.1;
  double beta = 0.7;
  /// Multiplicative steps per adjustment. Growing reacts fast (a violation
  /// is urgent); shrinking is gentle so reclaiming headroom never pushes a
  /// service back over its target — "small proportion, high frequency".
  double step_up = 0.10;
  double step_down = 0.02;
  /// Evaluation period (the paper's 100 ms collection window).
  SimDuration period = 100 * kMillisecond;
};

class Reassurer {
 public:
  /// Attaches to the system's QoS detector and starts the periodic task on
  /// the system's simulator. `policy` must outlive the Reassurer.
  Reassurer(k8s::EdgeCloudSystem* system, HrmAllocationPolicy* policy,
            ReassuranceConfig cfg = {});
  ~Reassurer();

  Reassurer(const Reassurer&) = delete;
  Reassurer& operator=(const Reassurer&) = delete;

  std::int64_t adjustments_up() const { return ups_; }
  std::int64_t adjustments_down() const { return downs_; }

  /// One evaluation pass (also called by the periodic task).
  void Tick(SimTime now);

 private:
  void Nudge(NodeId node, ServiceId svc, double slack);

  k8s::EdgeCloudSystem* system_;
  HrmAllocationPolicy* policy_;
  ReassuranceConfig cfg_;
  sim::EventHandle tick_event_ = sim::kInvalidEvent;
  std::int64_t ups_ = 0;
  std::int64_t downs_ = 0;
};

}  // namespace tango::hrm
