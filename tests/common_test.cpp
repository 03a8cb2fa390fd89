// Unit tests for src/common: units, ids, rng, stats.
#include <gtest/gtest.h>

#include <set>

#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace tango {
namespace {

// ---------------------------------------------------------------- units --

TEST(Units, ConversionRoundTrips) {
  EXPECT_EQ(FromMilliseconds(23.0), 23 * kMillisecond);
  EXPECT_DOUBLE_EQ(ToMilliseconds(FromMilliseconds(97.5)), 97.5);
  EXPECT_DOUBLE_EQ(ToSeconds(kMinute), 60.0);
  EXPECT_EQ(kHour, 3600 * kSecond);
}

TEST(Units, TransferTimeScalesWithSizeAndBandwidth) {
  // 1 MiB over 1 Gbps ≈ 8.4 ms.
  const SimDuration t = TransferTime(1 << 20, 1'000'000);
  EXPECT_NEAR(ToMilliseconds(t), 8.39, 0.1);
  EXPECT_EQ(TransferTime(0, 1'000'000), 0);
  EXPECT_EQ(TransferTime(1 << 20, 0), 0);  // disabled link → no serialization
  // Halving bandwidth doubles time.
  EXPECT_EQ(TransferTime(4096, 500) , 2 * TransferTime(4096, 1000));
}

// ------------------------------------------------------------------ ids --

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<NodeId, ClusterId>);
  NodeId a{3};
  NodeId b{3};
  NodeId c{4};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
}

TEST(Ids, DefaultIsInvalid) {
  ServiceId s;
  EXPECT_FALSE(s.valid());
  EXPECT_TRUE(ServiceId{0}.valid());
}

TEST(Ids, Hashable) {
  std::set<NodeId> s{NodeId{1}, NodeId{2}};
  EXPECT_EQ(s.count(NodeId{1}), 1u);
  std::unordered_map<NodeId, int> m;
  m[NodeId{5}] = 7;
  EXPECT_EQ(m[NodeId{5}], 7);
}

// ------------------------------------------------------------------ rng --

TEST(Rng, DeterministicUnderSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
  // Degenerate range.
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ParetoRespectsScaleFloor) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(0.7, 3.0), 0.7);
  }
}

// ---------------------------------------------------------------- stats --

TEST(Stats, PercentileNearestRank) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(std::vector<double>{}, 0.5), 0.0);
}

TEST(Stats, PercentileClampsQuantile) {
  std::vector<int> v{10, 20};
  EXPECT_EQ(Percentile(v, -1.0), 10);
  EXPECT_EQ(Percentile(v, 2.0), 20);
}

TEST(Stats, MeanHandlesEmpty) {
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{1.0, 3.0}), 2.0);
}

TEST(Stats, WindowedSamplesEvictOldEntries) {
  WindowedSamples w(100 * kMillisecond);
  w.Add(0, 1.0);
  w.Add(50 * kMillisecond, 2.0);
  w.Add(120 * kMillisecond, 3.0);
  // At t=120ms the t=0 sample is 120ms old — outside the 100ms window.
  EXPECT_EQ(w.size(), 2u);
  w.Evict(300 * kMillisecond);
  EXPECT_TRUE(w.empty());
}

TEST(Stats, WindowedSamplesPercentile) {
  WindowedSamples w(kSecond);
  for (int i = 1; i <= 100; ++i) w.Add(i, static_cast<double>(i));
  EXPECT_NEAR(w.Percentile(0.95), 95.0, 1.0);
  EXPECT_NEAR(w.Mean(), 50.5, 0.01);
}

TEST(Stats, WindowedSamplesPercentileIsRepeatableAcrossQueries) {
  // The scratch-buffer reuse must not leak state between queries or after
  // eviction shrinks the window.
  WindowedSamples w(100 * kMillisecond);
  for (int i = 1; i <= 50; ++i) {
    w.Add(i * kMillisecond, static_cast<double>(i));
  }
  const double p95_first = w.Percentile(0.95);
  EXPECT_DOUBLE_EQ(w.Percentile(0.95), p95_first);
  EXPECT_DOUBLE_EQ(w.Percentile(0.5), 26.0);  // round(0.5 * 49) = 25 → v[25]
  w.Evict(120 * kMillisecond);  // drops samples 1..19
  EXPECT_DOUBLE_EQ(w.Percentile(0.0), 20.0);
  EXPECT_DOUBLE_EQ(w.Percentile(1.0), 50.0);
}

TEST(Stats, PercentileInPlaceMatchesCopyingVariant) {
  std::vector<double> v{9, 1, 7, 3, 5};
  for (const double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    std::vector<double> scratch = v;
    EXPECT_DOUBLE_EQ(PercentileInPlace(scratch, q), Percentile(v, q)) << q;
  }
}

TEST(Stats, RunningStatTracksExtremes) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.Add(3.0);
  s.Add(-1.0);
  s.Add(10.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
}

}  // namespace
}  // namespace tango
