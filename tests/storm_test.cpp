// Tests for TangoStorm: streaming scenario generators and the co-location
// interference model.
//
// The load-bearing contracts: per-seed determinism (a stream is
// byte-identical across runs), shard decomposability (the union of
// per-cluster streams equals the superposed scenario, and ShardEngine
// digests match across shard counts with a scenario configured), and
// interference being *exactly* the identity when disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "eval/scenarios.h"
#include "shard/engine.h"
#include "storm/generators.h"
#include "storm/interference.h"
#include "storm/scenario.h"
#include "storm/source.h"
#include "workload/service.h"

namespace tango::storm {
namespace {

constexpr ScenarioKind kAllKinds[] = {
    ScenarioKind::kSteady, ScenarioKind::kFlashCrowd, ScenarioKind::kDiurnal,
    ScenarioKind::kFailover, ScenarioKind::kMobility};

ScenarioConfig SmallScenario(const workload::ServiceCatalog& catalog,
                             std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.catalog = &catalog;
  cfg.num_clusters = 3;
  cfg.horizon = 2 * kSecond;
  cfg.rps_per_cluster = 40.0;
  cfg.seed = seed;
  cfg.spike_at = 500 * kMillisecond;
  cfg.spike_ramp = 100 * kMillisecond;
  cfg.spike_hold = 400 * kMillisecond;
  cfg.spike_decay = 200 * kMillisecond;
  cfg.diurnal_period = kSecond;
  cfg.failover_at = 500 * kMillisecond;
  cfg.failover_for = 600 * kMillisecond;
  cfg.drift_period = kSecond;
  return cfg;
}

bool SameRequest(const workload::Request& a, const workload::Request& b) {
  return a.service == b.service && a.origin == b.origin &&
         a.arrival == b.arrival && a.work_scale == b.work_scale;
}

// ---- seeds ---------------------------------------------------------------

TEST(StormSeed, PureAndCoordinateSensitive) {
  EXPECT_EQ(DeriveStreamSeed(1, 2, 3), DeriveStreamSeed(1, 2, 3));
  EXPECT_NE(DeriveStreamSeed(1, 2, 3), DeriveStreamSeed(2, 2, 3));
  EXPECT_NE(DeriveStreamSeed(1, 2, 3), DeriveStreamSeed(1, 3, 3));
  EXPECT_NE(DeriveStreamSeed(1, 2, 3), DeriveStreamSeed(1, 2, 4));
}

// ---- generator streams ---------------------------------------------------

TEST(StormStream, ArrivalOrderedWithinHorizonAllKinds) {
  const auto catalog = workload::ServiceCatalog::Standard();
  const ScenarioConfig cfg = SmallScenario(catalog);
  for (ScenarioKind kind : kAllKinds) {
    auto source = BuildScenario(kind, cfg);
    workload::Request req;
    SimTime prev = 0;
    int n = 0;
    while (source->NextRequest(&req)) {
      EXPECT_GE(req.arrival, prev) << ScenarioKindName(kind);
      EXPECT_LE(req.arrival, cfg.horizon) << ScenarioKindName(kind);
      EXPECT_GE(req.origin.value, 0);
      EXPECT_LT(req.origin.value, cfg.num_clusters);
      EXPECT_GE(req.work_scale, 0.6);
      EXPECT_LE(req.work_scale, 3.0);
      prev = req.arrival;
      ++n;
    }
    EXPECT_GT(n, 50) << ScenarioKindName(kind);
    // Exhausted streams stay exhausted.
    EXPECT_FALSE(source->NextRequest(&req));
  }
}

TEST(StormStream, DrainIsByteIdenticalPerSeed) {
  const auto catalog = workload::ServiceCatalog::Standard();
  const ScenarioConfig cfg = SmallScenario(catalog);
  for (ScenarioKind kind : kAllKinds) {
    workload::Trace a;
    workload::Trace b;
    auto sa = BuildScenario(kind, cfg);
    auto sb = BuildScenario(kind, cfg);
    Drain(*sa, &a);
    Drain(*sb, &b);
    ASSERT_EQ(a.size(), b.size()) << ScenarioKindName(kind);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      ASSERT_TRUE(SameRequest(a[i], b[i]))
          << ScenarioKindName(kind) << " diverges at " << i;
    }
  }
}

TEST(StormStream, DifferentSeedsProduceDifferentStreams) {
  const auto catalog = workload::ServiceCatalog::Standard();
  workload::Trace a;
  workload::Trace b;
  auto sa = BuildScenario(ScenarioKind::kSteady, SmallScenario(catalog, 7));
  auto sb = BuildScenario(ScenarioKind::kSteady, SmallScenario(catalog, 8));
  Drain(*sa, &a);
  Drain(*sb, &b);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = !SameRequest(a[i], b[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(StormStream, ClusterStreamUnionMatchesScenario) {
  // The property the sharded engine leans on: draining each cluster's
  // stream independently (any grouping) and merging yields exactly the
  // superposed scenario.
  const auto catalog = workload::ServiceCatalog::Standard();
  const ScenarioConfig cfg = SmallScenario(catalog);
  for (ScenarioKind kind : kAllKinds) {
    workload::Trace whole;
    auto scenario = BuildScenario(kind, cfg);
    Drain(*scenario, &whole);

    workload::Trace merged;
    for (int c = 0; c < cfg.num_clusters; ++c) {
      auto part = BuildClusterStream(kind, cfg, ClusterId{c});
      Drain(*part, &merged);  // appends
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const workload::Request& x,
                        const workload::Request& y) {
                       return x.arrival < y.arrival;
                     });
    ASSERT_EQ(merged.size(), whole.size()) << ScenarioKindName(kind);
    for (std::size_t i = 0; i < whole.size(); ++i) {
      ASSERT_TRUE(SameRequest(merged[i], whole[i]))
          << ScenarioKindName(kind) << " diverges at " << i;
    }
  }
}

TEST(StormStream, SuperposePreservesOrderAndCounts) {
  const auto catalog = workload::ServiceCatalog::Standard();
  StreamConfig base;
  base.catalog = &catalog;
  base.rate_rps = 30.0;
  base.horizon = 2 * kSecond;

  std::size_t solo_total = 0;
  std::vector<std::unique_ptr<ScenarioSource>> parts;
  for (int c = 0; c < 4; ++c) {
    StreamConfig cfg = base;
    cfg.origin = ClusterId{c};
    cfg.seed = DeriveStreamSeed(11, c, 0);
    workload::Trace t;
    PoissonSource solo(cfg);
    solo_total += Drain(solo, &t);
    parts.push_back(std::make_unique<PoissonSource>(cfg));
  }
  Superpose merged(std::move(parts));
  workload::Request req;
  SimTime prev = 0;
  std::size_t merged_total = 0;
  while (merged.NextRequest(&req)) {
    EXPECT_GE(req.arrival, prev);
    prev = req.arrival;
    ++merged_total;
  }
  EXPECT_EQ(merged_total, solo_total);
}

TEST(StormStream, PoissonRateRoughlyMatches) {
  const auto catalog = workload::ServiceCatalog::Standard();
  StreamConfig cfg;
  cfg.catalog = &catalog;
  cfg.rate_rps = 100.0;
  cfg.horizon = 10 * kSecond;
  cfg.seed = 3;
  PoissonSource source(cfg);
  workload::Trace t;
  const auto n = static_cast<double>(Drain(source, &t));
  EXPECT_GT(n, 0.7 * 1000.0);
  EXPECT_LT(n, 1.3 * 1000.0);
}

TEST(StormStream, DrainRecordsGeneratorMetrics) {
  const auto catalog = workload::ServiceCatalog::Standard();
  scope::MetricRegistry metrics;
  auto source =
      BuildScenario(ScenarioKind::kSteady, SmallScenario(catalog));
  workload::Trace t;
  const std::size_t n = Drain(*source, &t, &metrics);
  EXPECT_EQ(t.size(), n);
  EXPECT_EQ(metrics.GetCounter("storm.drained").value(),
            static_cast<std::int64_t>(n));
  EXPECT_EQ(metrics.GetHistogram("storm.drain_batch").count(), 1);
}

// ---- envelopes -----------------------------------------------------------

TEST(StormEnvelope, SpikeShape) {
  Envelope e;
  e.kind = Envelope::Kind::kSpike;
  e.t0 = 1000;
  e.ramp = 500;
  e.t1 = 3000;
  e.decay = 1000;
  e.mult = 4.0;
  EXPECT_DOUBLE_EQ(e.Value(0), 1.0);
  EXPECT_DOUBLE_EQ(e.Value(999), 1.0);
  EXPECT_DOUBLE_EQ(e.Value(1500), 4.0);  // ramp complete
  EXPECT_DOUBLE_EQ(e.Value(2999), 4.0);  // holding
  EXPECT_LT(e.Value(4000), 4.0);         // decaying
  EXPECT_GT(e.Value(4000), 1.0);
  EXPECT_DOUBLE_EQ(e.MaxValue(), 4.0);
  // Mid-ramp is between baseline and peak.
  EXPECT_GT(e.Value(1250), 1.0);
  EXPECT_LT(e.Value(1250), 4.0);
}

TEST(StormEnvelope, DiurnalBoundsAndWindowAndDrift) {
  Envelope d;
  d.kind = Envelope::Kind::kDiurnal;
  d.period = 8000;
  d.amplitude = 0.6;
  for (SimTime t = 0; t < 16000; t += 250) {
    EXPECT_GE(d.Value(t), 1.0 - 0.6 - 1e-12);
    EXPECT_LE(d.Value(t), 1.0 + 0.6 + 1e-12);
  }
  EXPECT_DOUBLE_EQ(d.MaxValue(), 1.6);

  Envelope w;
  w.kind = Envelope::Kind::kWindow;
  w.t0 = 100;
  w.t1 = 200;
  w.mult = 2.5;
  EXPECT_DOUBLE_EQ(w.Value(50), 1.0);
  EXPECT_DOUBLE_EQ(w.Value(150), 2.5);
  EXPECT_DOUBLE_EQ(w.Value(200), 1.0);
  EXPECT_DOUBLE_EQ(w.MaxValue(), 2.5);

  Envelope m;
  m.kind = Envelope::Kind::kDriftWave;
  m.period = 6000;
  m.floor = 0.3;
  m.phase = 0.5;
  for (SimTime t = 0; t < 12000; t += 125) {
    EXPECT_GE(m.Value(t), 0.3 - 1e-12);
    EXPECT_LE(m.Value(t), 1.0 + 1e-12);
  }
  // The hotspot passes over this cluster's ring position once per period.
  EXPECT_NEAR(m.Value(3000), 1.0, 1e-9);
  EXPECT_NEAR(m.Value(0), 0.3, 1e-9);
}

// ---- interference model --------------------------------------------------

TEST(StormInterference, StandardIsMonotoneAndAboveOne) {
  const auto catalog = workload::ServiceCatalog::Standard();
  const InterferenceModel model = InterferenceModel::Standard(catalog);
  EXPECT_GT(model.size(), 0);
  EXPECT_TRUE(model.CheckMonotone());
  const ServiceId victim = catalog.LcServices().front();
  EXPECT_DOUBLE_EQ(model.Inflation(victim, PressureVec{}), 1.0);
  const double light = model.Inflation(victim, {0.2, 0.2, 0.2});
  const double heavy = model.Inflation(victim, {2.0, 2.0, 2.0});
  EXPECT_GT(light, 1.0);
  EXPECT_GT(heavy, light);
  // Saturating: bounded by 1 + total sensitivity mass.
  EXPECT_LT(heavy, 2.0);
}

TEST(StormInterference, ZeroSensitivityIsExactIdentity) {
  const auto catalog = workload::ServiceCatalog::Standard();
  InterferenceModel model;
  for (const auto& spec : catalog.all()) {
    model.SetProfile(spec.id, SensitivityProfile{});
  }
  EXPECT_TRUE(model.CheckMonotone());
  for (const auto& spec : catalog.all()) {
    EXPECT_DOUBLE_EQ(model.Inflation(spec.id, {3.0, 7.0, 0.5}), 1.0);
  }
}

TEST(StormInterference, LcMoreSensitiveThanBe) {
  const auto catalog = workload::ServiceCatalog::Standard();
  const InterferenceModel model = InterferenceModel::Standard(catalog);
  const PressureVec p{1.0, 1.0, 1.0};
  EXPECT_GT(model.Inflation(catalog.LcServices().front(), p),
            model.Inflation(catalog.BeServices().front(), p));
}

// ---- sharded engine integration ------------------------------------------

shard::EngineConfig StormEngineConfig(const ScenarioConfig* scenario,
                                      ScenarioKind kind,
                                      std::uint64_t seed) {
  shard::EngineConfig cfg;
  for (int c = 0; c < scenario->num_clusters; ++c) {
    k8s::ClusterSpec spec;
    spec.num_workers = 4 + (c % 2) * 2;
    cfg.clusters.push_back(spec);
  }
  cfg.model.catalog = scenario->catalog;
  cfg.model.scenario = scenario;
  cfg.model.scenario_kind = kind;
  cfg.duration = scenario->horizon;
  cfg.seed = seed;
  return cfg;
}

TEST(StormShard, ScenarioStreamsByteIdenticalAcrossShardCounts) {
  const auto catalog = workload::ServiceCatalog::Standard();
  ScenarioConfig scenario = SmallScenario(catalog);
  scenario.num_clusters = 6;
  for (ScenarioKind kind : kAllKinds) {
    shard::RunResult serial;
    {
      shard::ShardEngine engine(StormEngineConfig(&scenario, kind, 21));
      serial = engine.Run();
    }
    EXPECT_GT(serial.totals.lc_arrived, 0) << ScenarioKindName(kind);
    EXPECT_GT(serial.totals.be_arrived, 0) << ScenarioKindName(kind);
    for (int shards : {2, 3}) {
      shard::EngineConfig cfg = StormEngineConfig(&scenario, kind, 21);
      cfg.num_shards = shards;
      shard::ShardEngine engine(std::move(cfg));
      const shard::RunResult parallel = engine.Run();
      EXPECT_EQ(parallel.digest, serial.digest)
          << ScenarioKindName(kind) << " shards=" << shards;
      EXPECT_EQ(parallel.cluster_digests, serial.cluster_digests);
      EXPECT_EQ(parallel.totals.lc_completed, serial.totals.lc_completed);
    }
  }
}

// ---- eval scenario bundles -----------------------------------------------

TEST(StormScenarios, BundleDrainsEveryFamily) {
  const auto catalog = workload::ServiceCatalog::Standard();
  const auto clusters = eval::PhysicalClusters(4);
  const ScenarioConfig cfg = eval::DefaultScenarioConfig(
      catalog, 4, 4 * kSecond, 5);
  for (ScenarioKind kind : kAllKinds) {
    const eval::ScenarioBundle bundle =
        eval::BuildScenarioBundle(kind, cfg, clusters);
    EXPECT_GT(bundle.trace.size(), 100u) << ScenarioKindName(kind);
    EXPECT_EQ(bundle.has_faults, kind == ScenarioKind::kFailover);
  }
}

TEST(StormScenarios, FailoverBundleFailsTheScenarioRegion) {
  const auto catalog = workload::ServiceCatalog::Standard();
  const auto clusters = eval::PhysicalClusters(4);
  ScenarioConfig cfg = eval::DefaultScenarioConfig(catalog, 4, 4 * kSecond, 5);
  cfg.failover_cluster = ClusterId{2};
  const eval::ScenarioBundle bundle =
      eval::BuildScenarioBundle(ScenarioKind::kFailover, cfg, clusters);
  ASSERT_TRUE(bundle.has_faults);
  // Master fail/recover plus crash/recover per worker of the region.
  const auto events = bundle.faults.events();
  EXPECT_EQ(events.size(),
            2u * (1u + static_cast<std::size_t>(clusters[2].num_workers)));
  for (const auto& ev : events) {
    const bool master = ev.kind == fault::FaultKind::kMasterFail ||
                        ev.kind == fault::FaultKind::kMasterRecover;
    if (master) {
      EXPECT_EQ(ev.cluster_a, ClusterId{2});
    }
  }
}

}  // namespace
}  // namespace tango::storm
