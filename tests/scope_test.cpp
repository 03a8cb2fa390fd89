// TangoScope tests: span pool handle reuse/generation semantics, histogram
// bucket math against a sorted-reference oracle, registry identity,
// concurrent emission from the thread pool (run under TSan by
// tools/check.sh tsan), and — in TANGO_SCOPE=ON builds — end-to-end
// request-chain reconstruction from an exported trace of a real run.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "eval/harness.h"
#include "scope/export.h"
#include "scope/metrics.h"
#include "scope/scope.h"
#include "tango/framework.h"
#include "workload/trace.h"

namespace tango::scope {
namespace {

// ---- Histogram --------------------------------------------------------

TEST(ScopeHistogram, SmallValuesExact) {
  Histogram h;
  for (std::int64_t v = 0; v < Histogram::kSubBuckets; ++v) h.Observe(v);
  EXPECT_EQ(h.count(), Histogram::kSubBuckets);
  // Values below kSubBuckets land in exact buckets, so percentiles of a
  // uniform 0..7 sample are exact.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), Histogram::kSubBuckets - 1);
}

TEST(ScopeHistogram, BucketsAreMonotonicAndAligned) {
  int prev = -1;
  for (std::int64_t v : {0, 1, 7, 8, 9, 15, 16, 100, 1000, 123456789}) {
    const int b = Histogram::BucketOf(v);
    EXPECT_GT(b, prev) << "bucket must grow with the value, v=" << v;
    prev = b;
    // The representative value stays within the bucket's relative width.
    const double rep = Histogram::BucketValue(b);
    EXPECT_NEAR(rep, static_cast<double>(v),
                static_cast<double>(v) / Histogram::kSubBuckets + 1.0);
  }
}

TEST(ScopeHistogram, PercentilesMatchSortedOracle) {
  Histogram h;
  Rng rng(1234);
  std::vector<std::int64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform latencies spanning 1 µs .. ~1 s, the realistic range.
    const auto v = static_cast<std::int64_t>(
        std::pow(10.0, rng.Uniform(0.0, 6.0)));
    samples.push_back(v);
    h.Observe(v);
  }
  EXPECT_EQ(h.count(), static_cast<std::int64_t>(samples.size()));
  for (const double q : {0.5, 0.95, 0.99}) {
    const double oracle =
        static_cast<double>(Percentile(samples, q));
    const double approx = h.Percentile(q);
    // Log-bucketing with 8 sub-buckets per octave bounds the relative
    // error by ~2^-4; allow 12% for rank-vs-bucket edge effects.
    EXPECT_NEAR(approx, oracle, oracle * 0.12 + 1.0) << "q=" << q;
  }
  EXPECT_GT(h.Mean(), 0.0);
}

// ---- Metric registry --------------------------------------------------

TEST(ScopeRegistry, RegisterOnceReturnsSameObject) {
  MetricRegistry reg;
  Counter& a = reg.GetCounter("x.count");
  Counter& b = reg.GetCounter("x.count");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3);
  reg.GetGauge("x.level").Set(0.5);
  reg.GetHistogram("x.lat_us").Observe(42);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(ScopeRegistry, SnapshotSortedWithPercentiles) {
  MetricRegistry reg;
  reg.GetCounter("b.count").Add(7);
  reg.GetGauge("a.gauge").Set(2.5);
  Histogram& h = reg.GetHistogram("c.lat_us");
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  const auto rows = reg.Snapshot();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "a.gauge");
  EXPECT_EQ(rows[1].name, "b.count");
  EXPECT_EQ(rows[2].name, "c.lat_us");
  EXPECT_STREQ(rows[0].kind, "gauge");
  EXPECT_DOUBLE_EQ(rows[0].value, 2.5);
  EXPECT_STREQ(rows[1].kind, "counter");
  EXPECT_EQ(rows[1].count, 7);
  EXPECT_STREQ(rows[2].kind, "histogram");
  EXPECT_EQ(rows[2].count, 100);
  EXPECT_GT(rows[2].p95, rows[2].p50);
}

// ---- Tracer (direct instance: exercised in every build config) --------

TEST(ScopeTracer, BeginEndRoundtrip) {
  Tracer t;
  t.Enable({.capacity = 16});
  const SpanId s = t.Begin("request", "lc", 1000,
                           {.service = 2, .request = 7});
  EXPECT_NE(s, kInvalidSpan);
  t.End(s, 5000);
  const auto spans = t.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "request");
  EXPECT_EQ(spans[0].sim_begin, 1000);
  EXPECT_EQ(spans[0].sim_end, 5000);
  EXPECT_EQ(spans[0].ids.request, 7);
  EXPECT_FALSE(spans[0].open());
  EXPECT_EQ(t.emitted(), 1);
  EXPECT_EQ(t.stale_ends(), 0);
}

TEST(ScopeTracer, DisabledEmitsNothing) {
  Tracer t;
  EXPECT_EQ(t.Begin("x", "y", 0), kInvalidSpan);
  t.Enable({.capacity = 4});
  t.Disable();
  EXPECT_EQ(t.Begin("x", "y", 0), kInvalidSpan);
  EXPECT_EQ(t.emitted(), 0);
  // The ring survives Disable so exporters can still read it.
  EXPECT_EQ(t.capacity(), 4u);
}

TEST(ScopeTracer, RingWrapRecyclesSlotsAndBumpsGeneration) {
  Tracer t;
  t.Enable({.capacity = 4});
  const SpanId first = t.Begin("a", "t", 0);
  std::set<SpanId> handles{first};
  for (int i = 0; i < 8; ++i) {
    handles.insert(t.Instant("b", "t", i + 1));
  }
  // 9 emissions into 4 slots: every handle is still unique (generation
  // bits), and the overwritten open span is accounted.
  EXPECT_EQ(handles.size(), 9u);
  EXPECT_EQ(t.emitted(), 9);
  EXPECT_EQ(t.dropped_open(), 1);
  EXPECT_EQ(t.Snapshot().size(), 4u);
  // Ending the recycled handle is a counted no-op, and must not corrupt
  // the record now occupying the slot.
  t.End(first, 99);
  EXPECT_EQ(t.stale_ends(), 1);
  for (const auto& rec : t.Snapshot()) EXPECT_STREQ(rec.name, "b");
}

TEST(ScopeTracer, EndIsIdempotentAndInvalidSafe) {
  Tracer t;
  t.Enable({.capacity = 8});
  t.End(kInvalidSpan, 5);  // must not crash or count as stale
  EXPECT_EQ(t.stale_ends(), 0);
  const SpanId s = t.Begin("a", "t", 1);
  t.End(s, 2);
  t.End(s, 3);  // second End on a closed span: no-op, end time unchanged
  const auto spans = t.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].sim_end, 2);
}

TEST(ScopeTracer, ReEnableResetsRing) {
  Tracer t;
  t.Enable({.capacity = 4});
  t.Instant("a", "t", 1);
  t.Enable({.capacity = 8});
  EXPECT_EQ(t.emitted(), 0);
  EXPECT_EQ(t.Snapshot().size(), 0u);
  EXPECT_EQ(t.capacity(), 8u);
}

// ---- Concurrent emission (TSan target: tools/check.sh tsan) -----------

TEST(ScopeConcurrency, ParallelEmissionIsRaceFree) {
  Tracer t;
  t.Enable({.capacity = 1 << 12});
  MetricRegistry reg;
  Counter& hits = reg.GetCounter("test.hits");
  Histogram& lat = reg.GetHistogram("test.lat_us");
  ThreadPool pool(3);
  constexpr int kItems = 2000;
  pool.ParallelFor(kItems, [&](std::size_t i, int /*worker*/) {
    const auto at = static_cast<SimTime>(i);
    const SpanId s = t.Begin("work", "test", at,
                             {.value = static_cast<std::int64_t>(i)});
    lat.Observe(static_cast<std::int64_t>(i % 97));
    hits.Add();
    t.End(s, at + 10);
  });
  EXPECT_EQ(hits.value(), kItems);
  EXPECT_EQ(lat.count(), kItems);
  EXPECT_EQ(t.emitted(), kItems);
  EXPECT_EQ(t.stale_ends(), 0);
  for (const auto& rec : t.Snapshot()) EXPECT_FALSE(rec.open());
}

// ---- Exporters --------------------------------------------------------

TEST(ScopeExport, ChromeTraceShape) {
  Tracer t;
  t.Enable({.capacity = 16});
  const SpanId s = t.Begin("exec", "lc", 100,
                           {.node = 3, .service = 1, .request = 9});
  t.End(s, 400);
  t.Instant("dvpa.cpu.expand", "hrm", 250, {.node = 3, .value = 1500});
  const SpanId open = t.Begin("pending", "lc", 500);
  (void)open;  // still open: must be skipped by the exporter
  std::ostringstream trace;
  EXPECT_EQ(WriteChromeTrace(trace, t), 2u);
  const std::string json = trace.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 300"), std::string::npos);
  EXPECT_EQ(json.find("pending"), std::string::npos);
}

// ---- Front-end gating + end-to-end chain reconstruction ---------------

TEST(ScopeChain, FrontEndIsInertWhenCompiledOut) {
  if (kCompiled) GTEST_SKIP() << "TANGO_SCOPE=ON: front-end is live";
  // With TANGO_SCOPE=OFF the inline front-end folds to nothing even with
  // the default tracer enabled — instrumented subsystems emit zero spans.
  DefaultTracer().Enable({.capacity = 64});
  EXPECT_FALSE(TracingActive());
  EXPECT_EQ(BeginSpan("x", "y", 0), kInvalidSpan);
  TANGO_SCOPE_INSTANT("x", "y", 0, .node = 1);
  EXPECT_EQ(DefaultTracer().emitted(), 0);
  DefaultTracer().Disable();
}

// Run a small traced simulation and prove every completed LC request's
// causal chain — arrival ("request" span) → "dispatch" instant → "exec"
// span → completion (span closed at the completion time) — reconstructs
// from the exported records by request id.
TEST(ScopeChain, RequestChainsReconstructFromTrace) {
  if (!kCompiled) {
    GTEST_SKIP() << "needs -DTANGO_SCOPE=ON (tools/check.sh scope)";
  }
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::Standard();
  k8s::SystemConfig sys;
  sys.clusters = eval::PhysicalClusters(2);
  sys.region_km = 450.0;
  sys.seed = 5;
  workload::TraceConfig tc;
  tc.catalog = &catalog;
  tc.num_clusters = 2;
  tc.duration = 4 * kSecond;
  tc.lc_rps = 40.0;
  tc.be_rps = 4.0;
  tc.seed = 11;

  DefaultTracer().Enable({.capacity = std::size_t{1} << 16});
  k8s::EdgeCloudSystem system(sys, &catalog);
  framework::Assembly tango =
      framework::InstallFramework(system, framework::FrameworkKind::kTango);
  system.SubmitTrace(workload::GeneratePattern(workload::Pattern::kP1, tc));
  system.Run(tc.duration + 10 * kSecond);
  const auto spans = DefaultTracer().Snapshot();
  DefaultTracer().Disable();
  ASSERT_FALSE(spans.empty());

  struct Chain {
    bool arrival = false;
    bool dispatched = false;
    bool executed = false;
    SimTime begin = -1;
    SimTime end = -1;
  };
  std::map<std::int64_t, Chain> chains;
  for (const auto& rec : spans) {
    if (rec.ids.request < 0) continue;
    Chain& c = chains[rec.ids.request];
    const std::string name = rec.name;
    if (name == "request") {
      c.arrival = true;
      c.begin = rec.sim_begin;
      c.end = rec.sim_end;
    } else if (name == "dispatch") {
      c.dispatched = true;
    } else if (name == "exec") {
      c.executed = true;
    }
  }

  int completed_lc = 0;
  for (const auto& rec : system.records()) {
    if (!rec.request.id.valid()) continue;
    if (!catalog.Get(rec.request.service).is_lc()) continue;
    if (rec.outcome != k8s::Outcome::kCompleted) continue;
    ++completed_lc;
    const auto it = chains.find(rec.request.id.value);
    ASSERT_NE(it, chains.end()) << "request " << rec.request.id.value
                                << " emitted no spans";
    const Chain& c = it->second;
    EXPECT_TRUE(c.arrival);
    EXPECT_TRUE(c.dispatched);
    EXPECT_TRUE(c.executed);
    EXPECT_EQ(c.begin, rec.request.arrival);
    EXPECT_EQ(c.end, rec.completed) << "request span must close at "
                                       "completion time";
  }
  EXPECT_GT(completed_lc, 50) << "run too small to exercise the chains";

  // The exported trace must be loadable: object shape with traceEvents.
  std::ostringstream out;
  EXPECT_GT(WriteChromeTrace(out, spans), 0u);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace tango::scope
