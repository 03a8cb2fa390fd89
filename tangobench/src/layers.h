// Layer timing from outside the program: an in-memory span log and
// forwarding decorators for the three Tango plug-in interfaces.
//
// A traced pass installs Tango as usual, then re-installs the very same
// scheduler and policy objects wrapped in these decorators. Every call is
// forwarded unchanged, so the simulation is identical to an untraced pass;
// the decorators only record a span per DSS-LC round and DCG-BE decision,
// and counters plus summed time for the allocation-policy calls (too many
// per pass for a span each).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "k8s/allocation.h"
#include "k8s/scheduling_api.h"
#include "k8s/system.h"

namespace tangobench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   // index of the enclosing span, -1 = root
  std::int32_t cluster = -1;  // -1 when not applicable
  std::int32_t queue = -1;    // queue length on entry, -1 when not applicable
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Spans kept in memory for one traced pass and written out once at the end.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  std::int32_t Begin(const char* name, std::int32_t parent,
                     std::int32_t cluster = -1, std::int32_t queue = -1);
  void End(std::int32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace_event JSON (opens in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::int64_t NowNs() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What the decorators record during one traced pass.
struct Probe {
  SpanLog spans;
  std::int32_t parent = -1;  // the slice span decorator spans nest under

  std::int64_t policy_calls = 0;
  double policy_s = 0.0;
  std::int64_t admit_attempts = 0;
  std::int64_t admit_accepts = 0;

  std::int64_t lc_queue_sum = 0;
  std::int64_t lc_queue_max = 0;
  std::int64_t lc_assigned = 0;

  std::int64_t be_placed = 0;
};

class TimedLcScheduler final : public tango::k8s::LcScheduler {
 public:
  TimedLcScheduler(tango::k8s::LcScheduler* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}

  std::vector<tango::k8s::Assignment> Schedule(
      tango::ClusterId cluster,
      const std::vector<tango::k8s::PendingRequest>& queue,
      const tango::metrics::StateStorage& storage,
      tango::SimTime now) override;
  std::string name() const override { return inner_->name(); }
  double decision_seconds() const override {
    return inner_->decision_seconds();
  }
  std::int64_t decisions() const override { return inner_->decisions(); }
  tango::k8s::LcRoundStats last_round_stats() const override {
    return inner_->last_round_stats();
  }
  tango::k8s::LcRoundStats total_round_stats() const override {
    return inner_->total_round_stats();
  }

 private:
  tango::k8s::LcScheduler* inner_;
  Probe* probe_;
};

class TimedBeScheduler final : public tango::k8s::BeScheduler {
 public:
  TimedBeScheduler(tango::k8s::BeScheduler* inner, Probe* probe,
                   const tango::k8s::EdgeCloudSystem* system)
      : inner_(inner), probe_(probe), system_(system) {}

  std::optional<tango::NodeId> ScheduleOne(
      const tango::k8s::PendingRequest& pending,
      const tango::metrics::StateStorage& storage,
      tango::SimTime now) override;
  void OnBeCompleted(tango::NodeId node,
                     const tango::workload::Request& request,
                     tango::SimTime now) override {
    inner_->OnBeCompleted(node, request, now);
  }
  std::string name() const override { return inner_->name(); }

 private:
  tango::k8s::BeScheduler* inner_;
  Probe* probe_;
  const tango::k8s::EdgeCloudSystem* system_;
};

class TimedAllocationPolicy final : public tango::k8s::AllocationPolicy {
 public:
  TimedAllocationPolicy(const tango::k8s::AllocationPolicy* inner,
                        Probe* probe)
      : inner_(inner), probe_(probe) {}

  tango::k8s::ResourceVec EffectiveDemand(
      tango::NodeId node,
      const tango::workload::ServiceSpec& service) const override;
  tango::k8s::AdmitDecision Admit(
      const tango::k8s::NodeSpec& node, const tango::k8s::ExecSlot& incoming,
      const std::vector<tango::k8s::ExecSlot>& running) const override;
  void ComputeGrants(const tango::k8s::NodeSpec& node,
                     const std::vector<tango::k8s::ExecSlot>& running,
                     std::vector<tango::Millicores>& grants) const override;
  tango::SimDuration AdmissionLatency() const override;
  bool PreemptsBeForLc() const override { return inner_->PreemptsBeForLc(); }
  std::string name() const override { return inner_->name(); }

 private:
  void Charge(Clock::time_point t0) const {
    probe_->policy_calls += 1;
    probe_->policy_s += SecondsBetween(t0, Clock::now());
  }
  const tango::k8s::AllocationPolicy* inner_;
  Probe* probe_;
};

}  // namespace tangobench
