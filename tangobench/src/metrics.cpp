#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tangobench {

namespace {

double Ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

std::string Fmt(const char* fmt, long long a, long long b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

}  // namespace

double LcQosSat(const Outcomes& o) { return Ratio(o.lc_qos_met, o.lc_arrived); }

double BeDone(const Outcomes& o) { return Ratio(o.be_completed, o.be_arrived); }

double FailedFrac(const Outcomes& o) {
  return Ratio(o.lc_abandoned + o.lc_dropped + o.be_dropped, o.arrived());
}

double InflightFrac(const Outcomes& o) {
  return Ratio(o.lc_inflight + o.be_inflight, o.arrived());
}

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Latency ExactLatency(std::vector<double> samples_ms) {
  Latency l;
  l.exact = true;
  l.count = static_cast<std::int64_t>(samples_ms.size());
  if (samples_ms.empty()) return l;
  std::sort(samples_ms.begin(), samples_ms.end());
  double sum = 0.0;
  for (double v : samples_ms) sum += v;
  l.mean_ms = sum / static_cast<double>(samples_ms.size());
  l.p50_ms = NearestRank(samples_ms, 0.50);
  l.p95_ms = NearestRank(samples_ms, 0.95);
  l.p99_ms = NearestRank(samples_ms, 0.99);
  return l;
}

Latency Log2Latency(const std::int64_t* buckets, int num_buckets,
                    std::int64_t sum_us) {
  Latency l;
  for (int b = 0; b < num_buckets; ++b) l.count += buckets[b];
  if (l.count == 0) return l;
  l.mean_ms = static_cast<double>(sum_us) / 1000.0 /
              static_cast<double>(l.count);
  const auto at = [&](double q) {
    const double rank = q * static_cast<double>(l.count);
    std::int64_t below = 0;
    for (int b = 0; b < num_buckets; ++b) {
      if (buckets[b] == 0) continue;
      if (static_cast<double>(below + buckets[b]) >= rank) {
        const double lo = std::ldexp(1.0, b);
        const double frac = (rank - static_cast<double>(below)) /
                            static_cast<double>(buckets[b]);
        return (lo + frac * lo) / 1000.0;  // bucket spans [lo, 2·lo) µs
      }
      below += buckets[b];
    }
    return std::ldexp(1.0, num_buckets) / 1000.0;
  };
  l.p50_ms = at(0.50);
  l.p95_ms = at(0.95);
  l.p99_ms = at(0.99);
  return l;
}

void Gates::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void GateConservation(const Outcomes& o, Gates* gates) {
  const std::int64_t lc_terms[] = {o.lc_completed, o.lc_abandoned,
                                   o.lc_dropped, o.lc_inflight};
  const std::int64_t be_terms[] = {o.be_completed, o.be_dropped,
                                   o.be_inflight};
  bool nonneg = o.lc_arrived >= 0 && o.be_arrived >= 0 &&
                o.lc_qos_met >= 0 && o.lc_qos_met <= o.lc_completed;
  for (auto t : lc_terms) nonneg = nonneg && t >= 0;
  for (auto t : be_terms) nonneg = nonneg && t >= 0;
  gates->Check(nonneg, "conservation: negative count or qos_met > completed");
  const std::int64_t lc_sum =
      o.lc_completed + o.lc_abandoned + o.lc_dropped + o.lc_inflight;
  const std::int64_t be_sum = o.be_completed + o.be_dropped + o.be_inflight;
  gates->Check(lc_sum == o.lc_arrived,
               Fmt("conservation: LC arrived %lld != terminal + in flight %lld",
                   o.lc_arrived, lc_sum));
  gates->Check(be_sum == o.be_arrived,
               Fmt("conservation: BE arrived %lld != terminal + in flight %lld",
                   o.be_arrived, be_sum));
}

void GateCounters(const Outcomes& o, const CounterView& c, Gates* gates) {
  gates->Check(c.lc_submitted == o.lc_arrived && c.lc_arrived == o.lc_arrived,
               Fmt("counters: LC submitted %lld / lc.arrived vs records %lld",
                   c.lc_submitted, o.lc_arrived));
  gates->Check(c.be_submitted == o.be_arrived,
               Fmt("counters: BE submitted %lld != records %lld",
                   c.be_submitted, o.be_arrived));
  gates->Check(c.lc_completed == o.lc_completed,
               Fmt("counters: lc.completed %lld != records %lld",
                   c.lc_completed, o.lc_completed));
  gates->Check(c.lc_qos_met == o.lc_qos_met,
               Fmt("counters: lc.qos_met %lld != records %lld", c.lc_qos_met,
                   o.lc_qos_met));
  gates->Check(c.lc_abandoned == o.lc_abandoned,
               Fmt("counters: lc.abandoned %lld != records %lld",
                   c.lc_abandoned, o.lc_abandoned));
  gates->Check(c.be_completed == o.be_completed,
               Fmt("counters: be.completed %lld != records %lld",
                   c.be_completed, o.be_completed));
}

void GateSameSim(const SimResult& first, const SimResult& other,
                 const std::string& what, Gates* gates) {
  gates->Check(first == other, what + ": simulated metrics differ");
}

void GateMailbox(std::int64_t exchanged, std::int64_t drained,
                 std::int64_t max_in_flight, Gates* gates) {
  const std::int64_t in_flight = exchanged - drained;
  gates->Check(in_flight >= 0 && in_flight <= max_in_flight,
               Fmt("mailbox: exchanged %lld, drained %lld (in-flight bound "
                   "exceeded or negative)",
                   exchanged, drained));
}

void GateReferenceDigest(std::uint64_t parallel, std::uint64_t reference,
                         Gates* gates) {
  gates->Check(parallel == reference,
               Fmt("shard digest %llx != deterministic reference %llx",
                   static_cast<long long>(parallel),
                   static_cast<long long>(reference)));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace tangobench
