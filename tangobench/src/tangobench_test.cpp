// The benchmark's own tests: metric definitions and gates.
//
// Each gate is shown to pass on a consistent result and to fire on a
// corrupted copy of it. Run with `python3 tangobench/run.py --test`.
#include <cmath>
#include <cstdio>
#include <vector>

#include "metrics.h"
#include "workloads.h"

namespace {

using namespace tangobench;

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

/// A consistent pass: 1000 LC (900 completed, 850 met, 40 abandoned, 10
/// dropped, 50 in flight) and 200 BE (120 completed, 5 dropped, 75 in
/// flight).
Outcomes Clean() {
  Outcomes o;
  o.lc_arrived = 1000;
  o.lc_completed = 900;
  o.lc_qos_met = 850;
  o.lc_abandoned = 40;
  o.lc_dropped = 10;
  o.lc_inflight = 50;
  o.be_arrived = 200;
  o.be_completed = 120;
  o.be_dropped = 5;
  o.be_inflight = 75;
  return o;
}

CounterView CountersOf(const Outcomes& o) {
  CounterView c;
  c.lc_submitted = o.lc_arrived;
  c.be_submitted = o.be_arrived;
  c.lc_arrived = o.lc_arrived;
  c.lc_completed = o.lc_completed;
  c.lc_qos_met = o.lc_qos_met;
  c.lc_abandoned = o.lc_abandoned;
  c.be_completed = o.be_completed;
  return c;
}

void QosIsOverArrivals() {
  const Outcomes o = Clean();
  // 850 met of 1000 arrived; dividing by the 900 completions would read
  // 0.944 and hide the abandoned, dropped and in-flight requests.
  CHECK(Near(LcQosSat(o), 0.85));
  CHECK(!Near(LcQosSat(o), 850.0 / 900.0));
}

void FailedFracCountsOnlyTerminalFailures() {
  const Outcomes o = Clean();
  CHECK(Near(FailedFrac(o), (40.0 + 10.0 + 5.0) / 1200.0));
  CHECK(Near(InflightFrac(o), (50.0 + 75.0) / 1200.0));
  CHECK(Near(BeDone(o), 120.0 / 200.0));
  // Half the BE work still running at the end: be_done reads 0.5, but
  // nothing failed. Counting in-flight work as failed would read 0.5 here.
  Outcomes busy;
  busy.lc_arrived = 100;
  busy.lc_completed = 100;
  busy.lc_qos_met = 100;
  busy.be_arrived = 100;
  busy.be_completed = 50;
  busy.be_inflight = 50;
  CHECK(Near(BeDone(busy), 0.5));
  CHECK(Near(FailedFrac(busy), 0.0));
  CHECK(Near(InflightFrac(busy), 0.25));
}

void PercentilesAreExactWithCounts() {
  std::vector<double> ms;
  for (int i = 200; i >= 1; --i) ms.push_back(i);  // any order
  const Latency l = ExactLatency(ms);
  CHECK(l.exact);
  CHECK(l.count == 200);
  CHECK(Near(l.p50_ms, 100.0));  // nearest rank: ceil(0.50·200) = 100th
  CHECK(Near(l.p95_ms, 190.0));
  CHECK(Near(l.p99_ms, 198.0));
  CHECK(Near(l.mean_ms, 100.5));
  const Latency empty = ExactLatency({});
  CHECK(empty.count == 0 && empty.p99_ms == 0.0);
  CHECK(Near(NearestRank({5.0}, 0.99), 5.0));
}

void BucketPercentilesInterpolate() {
  // 100 samples in [1024, 2048) µs and 100 in [2048, 4096) µs.
  std::int64_t buckets[32] = {};
  buckets[10] = 100;
  buckets[11] = 100;
  const Latency l = Log2Latency(buckets, 32, 300000);
  CHECK(!l.exact);
  CHECK(l.count == 200);
  CHECK(Near(l.mean_ms, 1.5));
  CHECK(Near(l.p50_ms, 2.048));  // rank 100 closes the first bucket
  CHECK(Near(l.p95_ms, (2048.0 + 0.9 * 2048.0) / 1000.0));
  CHECK(l.p99_ms > l.p95_ms && l.p99_ms < 4.096);
}

void ConservationGateFires() {
  Gates ok;
  GateConservation(Clean(), &ok);
  CHECK(ok.ok());

  Outcomes lost = Clean();
  lost.lc_inflight -= 1;  // one LC request vanished
  Gates g1;
  GateConservation(lost, &g1);
  CHECK(!g1.ok());

  Outcomes extra = Clean();
  extra.be_completed += 1;  // one BE request counted twice
  Gates g2;
  GateConservation(extra, &g2);
  CHECK(!g2.ok());

  Outcomes negative = Clean();
  negative.be_inflight = -5;
  negative.be_completed += 80;
  Gates g3;
  GateConservation(negative, &g3);
  CHECK(!g3.ok());

  Outcomes met = Clean();
  met.lc_qos_met = met.lc_completed + 1;
  Gates g4;
  GateConservation(met, &g4);
  CHECK(!g4.ok());
}

void CounterGateFires() {
  const Outcomes o = Clean();
  Gates ok;
  GateCounters(o, CountersOf(o), &ok);
  CHECK(ok.ok());
  const auto fires = [&](auto corrupt) {
    CounterView c = CountersOf(o);
    corrupt(c);
    Gates g;
    GateCounters(o, c, &g);
    return !g.ok();
  };
  CHECK(fires([](CounterView& c) { c.lc_submitted += 1; }));
  CHECK(fires([](CounterView& c) { c.be_submitted -= 1; }));
  CHECK(fires([](CounterView& c) { c.lc_arrived -= 1; }));
  CHECK(fires([](CounterView& c) { c.lc_completed += 1; }));
  CHECK(fires([](CounterView& c) { c.lc_qos_met += 1; }));
  CHECK(fires([](CounterView& c) { c.lc_abandoned += 1; }));
  CHECK(fires([](CounterView& c) { c.be_completed -= 1; }));
}

void SameSimGateFires() {
  SimResult a;
  a.outcomes = Clean();
  a.latency = ExactLatency({1.0, 2.0, 3.0});
  a.util_mean = 0.42;
  a.digest = 0x1234;
  Gates ok;
  GateSameSim(a, a, "identical", &ok);
  CHECK(ok.ok());
  const auto fires = [&](auto corrupt) {
    SimResult b = a;
    corrupt(b);
    Gates g;
    GateSameSim(a, b, "corrupted", &g);
    return !g.ok();
  };
  CHECK(fires([](SimResult& b) { b.digest ^= 1; }));
  CHECK(fires([](SimResult& b) { b.outcomes.lc_abandoned += 1; }));
  CHECK(fires([](SimResult& b) { b.latency.p99_ms += 0.001; }));
  CHECK(fires([](SimResult& b) { b.util_mean += 1e-9; }));
}

void ShardGatesFire() {
  Gates ok;
  GateMailbox(1000, 1000, 0, &ok);
  GateMailbox(1000, 990, 10, &ok);
  GateReferenceDigest(0xabc, 0xabc, &ok);
  CHECK(ok.ok());
  Gates g1;
  GateMailbox(1000, 989, 10, &g1);  // one more message left undrained
  CHECK(!g1.ok());
  Gates g3;
  GateMailbox(1000, 1001, 10, &g3);  // drained a message never exchanged
  CHECK(!g3.ok());
  Gates g2;
  GateReferenceDigest(0xabc, 0xabd, &g2);
  CHECK(!g2.ok());
}

void SeedsAndMedians() {
  CHECK(DeriveSeed(1, 1) == DeriveSeed(1, 1));
  CHECK(DeriveSeed(1, 1) != DeriveSeed(2, 1));
  CHECK(DeriveSeed(1, 1) != DeriveSeed(1, 2));
  CHECK(Near(Median({3.0, 1.0, 2.0}), 2.0));
  CHECK(Near(Median({4.0, 1.0, 2.0, 3.0}), 2.5));
}

void MetricListsAreDistinct() {
  std::vector<std::string> names;
  for (const auto& m : EndToEndMetrics()) names.push_back(m.name);
  for (const auto& m : PerLayerMetrics()) names.push_back(m.name);
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      CHECK(names[i] != names[j]);
    }
  }
  CHECK(MakeWorkload("no_such_workload") == nullptr);
  for (const auto& w : WorkloadNames()) CHECK(MakeWorkload(w) != nullptr);
}

}  // namespace

int main() {
  QosIsOverArrivals();
  FailedFracCountsOnlyTerminalFailures();
  PercentilesAreExactWithCounts();
  BucketPercentilesInterpolate();
  ConservationGateFires();
  CounterGateFires();
  SameSimGateFires();
  ShardGatesFire();
  SeedsAndMedians();
  MetricListsAreDistinct();
  if (g_failures == 0) std::printf("tangobench_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
