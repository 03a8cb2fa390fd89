// The QoS detector of Figure 3 (component ➍): collects per-(node, service)
// completion latencies of LC requests over a sliding 100 ms window and
// reports tail latency and the slack score of §4.3,
//
//     δ_k(n_i^b) = 1 − ξ_i^k / γ^k,
//
// where ξ is the p95 latency in the window and γ the service's QoS target.
#pragma once

#include <map>
#include <utility>

#include "common/ids.h"
#include "common/stats.h"
#include "common/units.h"

namespace tango::metrics {

class QosDetector {
 public:
  explicit QosDetector(SimDuration window = 100 * kMillisecond)
      : window_(window) {}

  /// Record one completed LC request.
  void Observe(SimTime now, NodeId node, ServiceId service,
               SimDuration latency);

  /// p95 latency (µs) of `service` at `node` in the current window; 0 when
  /// no sample exists.
  double TailLatency(SimTime now, NodeId node, ServiceId service,
                     double quantile = 0.95);

  /// Slack score δ = 1 − ξ/γ. Returns +1 (perfectly slack) when no sample
  /// exists — an idle service is never penalized.
  double SlackScore(SimTime now, NodeId node, ServiceId service,
                    SimDuration qos_target);

  /// Number of samples currently in the window.
  std::size_t SampleCount(SimTime now, NodeId node, ServiceId service);

  /// Visit every (node, service) window holding at least one sample after
  /// eviction: `visit(node, service)`, in ascending (node, service) order.
  /// Windows exist only for pairs that ever observed a completion, so
  /// callers iterating "everything with signal" skip the idle
  /// node×service cross-product entirely.
  template <typename Visitor>
  void ForEachActiveWindow(SimTime now, Visitor&& visit) {
    for (auto& [key, win] : windows_) {
      win.Evict(now);
      if (win.empty()) continue;
      visit(key.first, key.second);
    }
  }

 private:
  using Key = std::pair<NodeId, ServiceId>;
  SimDuration window_;
  std::map<Key, WindowedSamples> windows_;
};

}  // namespace tango::metrics
