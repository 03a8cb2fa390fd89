// Metric definitions and correctness gates of the Tango benchmark.
//
// Everything here is a pure function of counts and samples, so the
// benchmark's own tests (tangobench_test.cpp) pin each definition and show
// that every gate fires on a corrupted result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tangobench {

/// Terminal outcomes of one pass's requests, per class. `*_inflight` are
/// requests still pending when the pass ended: they are neither completed
/// nor failed.
struct Outcomes {
  std::int64_t lc_arrived = 0;
  std::int64_t lc_completed = 0;
  std::int64_t lc_qos_met = 0;
  std::int64_t lc_abandoned = 0;
  std::int64_t lc_dropped = 0;
  std::int64_t lc_inflight = 0;
  std::int64_t be_arrived = 0;
  std::int64_t be_completed = 0;
  std::int64_t be_dropped = 0;
  std::int64_t be_inflight = 0;

  std::int64_t arrived() const { return lc_arrived + be_arrived; }
  bool operator==(const Outcomes&) const = default;
};

/// LC requests that met their QoS target over LC *arrivals*: abandoned,
/// dropped and in-flight requests all count as misses.
double LcQosSat(const Outcomes& o);
/// BE completed over BE arrived.
double BeDone(const Outcomes& o);
/// Terminal failures (LC abandoned + LC dropped + BE dropped) over all
/// arrivals. In-flight requests are not failures.
double FailedFrac(const Outcomes& o);
/// Requests still in flight at the end of the pass over all arrivals.
double InflightFrac(const Outcomes& o);

/// Completed-LC latency summary. `exact` percentiles come from every
/// per-request sample (nearest rank); otherwise they are interpolated from
/// a power-of-two histogram.
struct Latency {
  std::int64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  bool exact = false;
  bool operator==(const Latency&) const = default;
};

/// Nearest-rank percentile (q in (0, 1]) of an ascending sample vector.
double NearestRank(const std::vector<double>& sorted, double q);
/// Exact summary of per-request latencies (ms, any order).
Latency ExactLatency(std::vector<double> samples_ms);
/// Summary of a histogram whose bucket b holds latencies in
/// [2^b, 2^(b+1)) µs: the percentile is interpolated linearly inside the
/// bucket that holds its rank.
Latency Log2Latency(const std::int64_t* buckets, int num_buckets,
                    std::int64_t sum_us);

/// Everything simulated about one pass: deterministic for a given seed,
/// independent of host speed and of tracing.
struct SimResult {
  Outcomes outcomes;
  Latency latency;
  double util_mean = 0.0;
  /// FNV-1a over every request's outcome (serial system) or the engine's
  /// per-cluster digest (sharded engine).
  std::uint64_t digest = 0;
  bool operator==(const SimResult&) const = default;
};

/// FNV-1a step shared by the record digests.
inline std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/// Collects failed correctness gates; a run with any failure is not
/// correct and exits non-zero.
class Gates {
 public:
  void Check(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// Independent counts the system keeps for the same pass (trace size per
/// class and the registry's lifecycle counters), checked against the
/// per-request outcomes.
struct CounterView {
  std::int64_t lc_submitted = 0;
  std::int64_t be_submitted = 0;
  std::int64_t lc_arrived = 0;  // "lc.arrived"
  std::int64_t lc_completed = 0;  // "lc.completed"
  std::int64_t lc_qos_met = 0;  // "lc.qos_met"
  std::int64_t lc_abandoned = 0;  // "lc.abandoned"
  std::int64_t be_completed = 0;  // "be.completed"
};

/// Conservation: per class, arrivals equal completed + abandoned + dropped
/// + in flight, with no negative term.
void GateConservation(const Outcomes& o, Gates* gates);
/// The per-request outcomes agree with the system's own counters.
void GateCounters(const Outcomes& o, const CounterView& c, Gates* gates);
/// Every pass of one seed, traced or not, simulated the same thing.
void GateSameSim(const SimResult& first, const SimResult& other,
                 const std::string& what, Gates* gates);
/// Sharded engine: every message exchanged at a barrier was drained, except
/// at most `max_in_flight` still travelling when the run stopped.
void GateMailbox(std::int64_t exchanged, std::int64_t drained,
                 std::int64_t max_in_flight, Gates* gates);
/// Sharded engine: the parallel digest equals the one-thread reference.
void GateReferenceDigest(std::uint64_t parallel, std::uint64_t reference,
                         Gates* gates);

/// Median of a sample (mean of the middle two for an even count).
double Median(std::vector<double> v);

}  // namespace tangobench
