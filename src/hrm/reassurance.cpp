#include "hrm/reassurance.h"

#include "common/logging.h"
#include "scope/scope.h"

namespace tango::hrm {

Reassurer::Reassurer(k8s::EdgeCloudSystem* system,
                     HrmAllocationPolicy* policy, ReassuranceConfig cfg)
    : system_(system), policy_(policy), cfg_(cfg) {
  TANGO_CHECK(system_ && policy_, "reassurer wiring incomplete");
  TANGO_CHECK(cfg_.alpha < cfg_.beta, "alpha must be below beta");
  auto& sim = system_->simulator();
  tick_event_ = sim.StartPeriodic(sim.Now() + cfg_.period, cfg_.period,
                                  [this]() {
                                    Tick(system_->simulator().Now());
                                  });
}

Reassurer::~Reassurer() { system_->simulator().Cancel(tick_event_); }

void Reassurer::Nudge(NodeId node, ServiceId svc, double slack) {
  // Slack is reported in the instant's value as micro-units so the trace
  // stays integer-valued.
  const auto slack_micros = static_cast<std::int64_t>(slack * 1e6);
  if (slack < cfg_.alpha) {
    policy_->NudgeMultiplier(node, svc, 1.0 + cfg_.step_up);
    ++ups_;
    TANGO_SCOPE_INSTANT("reassure.grow", "hrm", system_->simulator().Now(),
                        .node = node.value, .service = svc.value,
                        .value = slack_micros);
  } else if (slack > cfg_.beta) {
    policy_->NudgeMultiplier(node, svc, 1.0 - cfg_.step_down);
    ++downs_;
    TANGO_SCOPE_INSTANT("reassure.shrink", "hrm", system_->simulator().Now(),
                        .node = node.value, .service = svc.value,
                        .value = slack_micros);
  }
  // α ≤ δ ≤ β: "stable" — leave the allocation untouched.
}

void Reassurer::Tick(SimTime now) {
  auto& detector = system_->qos_detector();
  const auto& catalog = system_->catalog();
  // Only (node, LC service) pairs with a sample in the current window carry
  // a signal; an idle pair is left alone. Active windows iterate in
  // ascending (node, service) order.
  detector.ForEachActiveWindow(now, [&](NodeId node, ServiceId svc) {
    const k8s::WorkerNode* w = system_->FindWorker(node);
    if (w == nullptr || !w->alive()) return;  // crashed: nothing to do
    const auto& spec = catalog.Get(svc);
    Nudge(node, svc, detector.SlackScore(now, node, svc, spec.qos_target));
  });
}

}  // namespace tango::hrm
