// Unit + property tests for the service catalog and trace generators.
#include <gtest/gtest.h>

#include <cmath>

#include "workload/trace.h"

namespace tango::workload {
namespace {

TEST(ServiceCatalog, StandardHasTenCategories) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  EXPECT_EQ(cat.size(), 10);
  EXPECT_EQ(cat.LcServices().size(), 5u);
  EXPECT_EQ(cat.BeServices().size(), 5u);
}

TEST(ServiceCatalog, IdsAreDenseAndStable) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  for (int i = 0; i < cat.size(); ++i) {
    EXPECT_EQ(cat.Get(ServiceId{i}).id.value, i);
  }
}

TEST(ServiceCatalog, LcTargetsNearPaperMeasurement) {
  // Figure 1(b): most LC targets around ~300 ms.
  const ServiceCatalog cat = ServiceCatalog::Standard();
  for (const ServiceId id : cat.LcServices()) {
    const auto& s = cat.Get(id);
    EXPECT_GT(s.qos_target, 150 * kMillisecond) << s.name;
    EXPECT_LT(s.qos_target, 400 * kMillisecond) << s.name;
  }
}

TEST(ServiceCatalog, BeServicesHaveNoQosTargetAndChunkierWork) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  double lc_work = 0.0, be_work = 0.0;
  for (const auto& s : cat.all()) {
    if (s.is_lc()) {
      EXPECT_GT(s.qos_target, 0);
      lc_work += s.cpu_work();
    } else {
      EXPECT_EQ(s.qos_target, 0);
      be_work += s.cpu_work();
    }
  }
  EXPECT_GT(be_work, 3.0 * lc_work);  // BE jobs are long-running
}

TEST(ServiceCatalog, CpuWorkDefinition) {
  ServiceSpec s;
  s.cpu_demand = 500;
  s.base_proc = 100 * kMillisecond;
  // 500 mc for 100 ms = 5e7 millicore-µs.
  EXPECT_DOUBLE_EQ(s.cpu_work(), 5.0e7);
}

class PatternTest : public ::testing::TestWithParam<Pattern> {
 protected:
  ServiceCatalog catalog_ = ServiceCatalog::Standard();
  TraceConfig Config() {
    TraceConfig tc;
    tc.catalog = &catalog_;
    tc.num_clusters = 4;
    tc.duration = 30 * kSecond;
    tc.lc_rps = 20.0;
    tc.be_rps = 5.0;
    tc.seed = 99;
    return tc;
  }
};

TEST_P(PatternTest, SortedDenseAndInRange) {
  const Trace t = GeneratePattern(GetParam(), Config());
  ASSERT_FALSE(t.empty());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i].id.value, static_cast<std::int32_t>(i));
    if (i > 0) {
      EXPECT_GE(t[i].arrival, t[i - 1].arrival);
    }
    EXPECT_GE(t[i].arrival, 0);
    EXPECT_LT(t[i].arrival, 30 * kSecond);
    EXPECT_GE(t[i].origin.value, 0);
    EXPECT_LT(t[i].origin.value, 4);
    EXPECT_GE(t[i].work_scale, 0.6);
    EXPECT_LE(t[i].work_scale, 3.0);
  }
}

TEST_P(PatternTest, ArrivalCountsMatchConfiguredRates) {
  const TraceConfig tc = Config();
  const Trace t = GeneratePattern(GetParam(), tc);
  int lc = 0;
  int be = 0;
  for (const auto& r : t) {
    if (catalog_.Get(r.service).is_lc()) {
      ++lc;
    } else {
      ++be;
    }
  }
  const double expect_lc = tc.lc_rps * 4 * ToSeconds(tc.duration);
  const double expect_be = tc.be_rps * 4 * ToSeconds(tc.duration);
  EXPECT_NEAR(lc, expect_lc, 0.35 * expect_lc);
  EXPECT_NEAR(be, expect_be, 0.45 * expect_be);
}

TEST_P(PatternTest, DeterministicUnderSeed) {
  const Trace a = GeneratePattern(GetParam(), Config());
  const Trace b = GeneratePattern(GetParam(), Config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].service, b[i].service);
    EXPECT_EQ(a[i].origin, b[i].origin);
  }
}

TEST_P(PatternTest, DifferentSeedsDiffer) {
  TraceConfig tc = Config();
  const Trace a = GeneratePattern(GetParam(), tc);
  tc.seed = 100;
  const Trace b = GeneratePattern(GetParam(), tc);
  // Sizes will almost surely differ; if not, arrivals will.
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].arrival != b[i].arrival;
  }
  EXPECT_TRUE(differs);
}

TEST_P(PatternTest, HotspotSkewConcentratesLoad) {
  TraceConfig tc = Config();
  tc.hotspot_fraction = 0.8;
  tc.num_hotspots = 1;
  const Trace t = GeneratePattern(GetParam(), tc);
  int hot = 0;
  for (const auto& r : t) {
    if (r.origin == ClusterId{0}) ++hot;
  }
  // Cluster 0 should carry far more than 1/4 of the load.
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(t.size()), 0.5);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, PatternTest,
                         ::testing::Values(Pattern::kP1, Pattern::kP2,
                                           Pattern::kP3),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Pattern::kP1:
                               return "P1";
                             case Pattern::kP2:
                               return "P2";
                             default:
                               return "P3";
                           }
                         });

TEST(PatternShapes, P1LcIsPeriodic) {
  // The periodic LC stream of P1 should show much higher autocorrelation at
  // the configured period than the random LC stream of P3.
  ServiceCatalog cat = ServiceCatalog::Standard();
  TraceConfig tc;
  tc.catalog = &cat;
  tc.duration = 64 * kSecond;
  tc.period = 8 * kSecond;
  tc.lc_rps = 60.0;
  tc.be_rps = 0.001;
  tc.seed = 3;

  auto lc_rate_curve = [&](const Trace& t) {
    std::vector<double> bins(64, 0.0);
    for (const auto& r : t) {
      if (cat.Get(r.service).is_lc()) {
        bins[static_cast<std::size_t>(r.arrival / kSecond)] += 1.0;
      }
    }
    return bins;
  };
  auto periodicity = [](const std::vector<double>& bins, int lag) {
    double mean = 0.0;
    for (double b : bins) mean += b;
    mean /= static_cast<double>(bins.size());
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i + static_cast<std::size_t>(lag) < bins.size();
         ++i) {
      num += (bins[i] - mean) * (bins[i + static_cast<std::size_t>(lag)] - mean);
    }
    for (double b : bins) den += (b - mean) * (b - mean);
    return den > 0 ? num / den : 0.0;
  };
  const double p1 =
      periodicity(lc_rate_curve(GeneratePattern(Pattern::kP1, tc)), 8);
  const double p3 =
      periodicity(lc_rate_curve(GeneratePattern(Pattern::kP3, tc)), 8);
  EXPECT_GT(p1, p3 + 0.15);
  EXPECT_GT(p1, 0.3);
}

TEST(Diurnal, HasEveningPeakAndQuietNight) {
  ServiceCatalog cat = ServiceCatalog::Standard();
  TraceConfig tc;
  tc.catalog = &cat;
  tc.duration = 120 * kSecond;  // 24 h compressed into 120 s
  tc.lc_rps = 50.0;
  tc.seed = 12;
  const Trace t = GenerateDiurnal(tc, 24.0);
  ASSERT_FALSE(t.empty());
  // Bin by virtual hour.
  std::vector<int> by_hour(24, 0);
  for (const auto& r : t) {
    const int h = static_cast<int>(static_cast<double>(r.arrival) /
                                   static_cast<double>(tc.duration) * 24.0);
    by_hour[static_cast<std::size_t>(std::min(h, 23))] += 1;
  }
  // Evening (19-21h) busier than pre-dawn (3-5h) by a wide margin.
  const int evening = by_hour[19] + by_hour[20] + by_hour[21];
  const int night = by_hour[3] + by_hour[4] + by_hour[5];
  EXPECT_GT(evening, 2 * night);
}

TEST(GoogleStyle, ProducesBurstsOfSameService) {
  ServiceCatalog cat = ServiceCatalog::Standard();
  TraceConfig tc;
  tc.catalog = &cat;
  tc.duration = 60 * kSecond;
  tc.lc_rps = 30.0;
  tc.be_rps = 10.0;
  tc.seed = 5;
  const Trace t = GenerateGoogleStyle(tc);
  ASSERT_GT(t.size(), 100u);
  // Consecutive requests should frequently share a service id (burstiness),
  // far above the 1/10 chance of a uniform shuffle.
  int same = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i].service == t[i - 1].service) ++same;
  }
  EXPECT_GT(static_cast<double>(same) / static_cast<double>(t.size()), 0.25);
}

TEST(PatternName, AllNamed) {
  EXPECT_STRNE(PatternName(Pattern::kP1), "?");
  EXPECT_STRNE(PatternName(Pattern::kP2), "?");
  EXPECT_STRNE(PatternName(Pattern::kP3), "?");
}

}  // namespace
}  // namespace tango::workload
