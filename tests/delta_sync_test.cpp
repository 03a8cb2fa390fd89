// State sync under faults. Each scenario drives one system through a trace
// and a fault script, then checks it two ways:
//   - right after a sync forced at the current instant, every live view
//     matches a rebuild from the live workers (ExpectViewsMatchLiveWorkers);
//   - the request outcomes, every storage's content and RTTs, the period
//     utilisations and the sync counters equal pins recorded from the
//     version-scan sync that the change-list sync replaced.
// TANGO_AUDIT builds additionally prove, inside SyncState, that every
// worker a sync leaves unpushed still matches its stored snapshot
// (sync.delta_identity), and, inside SampleMetrics, that the incremental
// utilisation aggregates equal a rescan of every worker.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "eval/harness.h"
#include "k8s/system.h"
#include "sched/be_baselines.h"
#include "sched/lc_baselines.h"

namespace tango::k8s {
namespace {

using workload::Request;
using workload::ServiceCatalog;

/// Everything a scenario pins: FNV-1a hashes of the request records, of
/// every storage (snapshots and RTTs) and of the period utilisations, plus
/// the exact sync counters.
struct Pins {
  std::uint64_t requests = 0;
  std::uint64_t storages = 0;
  std::uint64_t periods = 0;
  std::int64_t pushes = 0;
  std::int64_t skipped = 0;
  std::int64_t full_resyncs = 0;
  bool operator==(const Pins&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Pins& p) {
  return os << std::hex << "{0x" << p.requests << ", 0x" << p.storages
            << ", 0x" << p.periods << std::dec << ", " << p.pushes << ", "
            << p.skipped << ", " << p.full_resyncs << "}";
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
};

void HashStorage(const metrics::StateStorage& st, int num_clusters, Fnv& f) {
  for (const metrics::NodeSnapshot& s : st.All()) {
    for (const std::int64_t v :
         {std::int64_t{s.node.value}, std::int64_t{s.cluster.value},
          std::int64_t{s.is_master}, s.cpu_total, s.cpu_available,
          s.mem_total, s.mem_available, s.cpu_available_lc,
          s.mem_available_lc, std::int64_t{s.running_lc},
          std::int64_t{s.running_be}, std::int64_t{s.queued},
          std::int64_t{s.alive}, std::int64_t{s.reachable},
          std::int64_t{s.draining}, s.recorded_at}) {
      f.Add(static_cast<std::uint64_t>(v));
    }
    f.Add(s.slack_score);
  }
  for (int c = 0; c < num_clusters; ++c) {
    const auto rtt = st.Rtt(ClusterId{c});
    f.Add(static_cast<std::uint64_t>(rtt.has_value() ? *rtt + 1 : 0));
  }
}

struct DeltaSyncFixture : public ::testing::Test {
  void SetUp() override {
    catalog = ServiceCatalog::Standard();
    // Five clusters over 900 km: some masters see every cluster, others
    // only part of them, so sync scopes differ per viewer.
    cfg.clusters = eval::PhysicalClusters(5);
    cfg.region_km = 900.0;
    cfg.seed = 11;
    sys = std::make_unique<EdgeCloudSystem>(cfg, &catalog);
    lc = std::make_unique<sched::LoadGreedyLcScheduler>(&catalog);
    be = std::make_unique<sched::LoadGreedyBeScheduler>(&catalog);
    sys->SetLcScheduler(lc.get());
    sys->SetBeScheduler(be.get());
  }

  workload::Trace MixedTrace(int count) {
    workload::Trace t;
    for (int i = 0; i < count; ++i) {
      Request r;
      r.id = RequestId{i};
      r.service = i % 3 == 2 ? ServiceId{9} : ServiceId{3};
      r.origin = ClusterId{i % sys->num_clusters()};
      r.arrival = i * 20 * kMillisecond;
      r.work_scale = 1.0;
      t.push_back(r);
    }
    return t;
  }

  std::int64_t Counter(const char* name) {
    return sys->metrics_registry().GetCounter(name).value();
  }

  /// The clusters `viewer` syncs into its LC view: itself and every
  /// cluster within the LC dispatch radius.
  std::vector<ClusterId> Scope(ClusterId viewer) const {
    std::vector<ClusterId> scope =
        sys->topology().NearbyClusters(viewer, cfg.lc_nearby_radius_km);
    scope.push_back(viewer);
    return scope;
  }

  /// Forces a sync at the current instant, then rebuilds every live view
  /// from the live workers and compares it with the synced one. Clearing
  /// a fault on a pair that has none triggers exactly that sync. Pairs
  /// behind a cut link are frozen by design and are not compared.
  void ExpectViewsMatchLiveWorkers() {
    const int n = sys->num_clusters();
    bool forced = false;
    for (int a = 0; a < n && !forced; ++a) {
      for (int b = a + 1; b < n && !forced; ++b) {
        if (sys->LinkStateOf(ClusterId{a}, ClusterId{b}).faulty()) continue;
        sys->ClearLinkFault(ClusterId{a}, ClusterId{b});
        forced = true;
      }
    }
    ASSERT_TRUE(forced);
    const SimTime now = sys->simulator().Now();
    std::vector<ClusterId> everyone;
    for (int c = 0; c < n; ++c) everyone.push_back(ClusterId{c});
    // Viewers 0..n-1 are the LC views; viewer n is the central BE view.
    for (int v = 0; v <= n; ++v) {
      const bool be_view = v == n;
      const ClusterId viewer = be_view ? sys->acting_central() : ClusterId{v};
      if (!sys->MasterAlive(viewer)) continue;  // a dead master syncs nothing
      const metrics::StateStorage& view =
          be_view ? sys->BeStorage() : sys->LcStorage(viewer);
      for (const ClusterId c : be_view ? everyone : Scope(viewer)) {
        if (sys->LinkStateOf(viewer, c).cut) continue;
        EXPECT_EQ(view.Rtt(c), sys->topology().Rtt(viewer, c));
        for (const WorkerNode* w : sys->AllWorkers()) {
          if (w->spec().cluster != c) continue;
          const metrics::NodeSnapshot* stored = view.Find(w->id());
          ASSERT_NE(stored, nullptr) << "viewer " << v << " node "
                                     << w->id().value;
          EXPECT_TRUE(metrics::SameContent(*stored, w->Snapshot(now)))
              << "viewer " << v << " node " << w->id().value;
          EXPECT_TRUE(stored->reachable);
        }
      }
    }
  }

  Pins Measure() {
    Pins p;
    Fnv req;
    for (const RequestRecord& r : sys->records()) {
      for (const std::int64_t v :
           {std::int64_t{static_cast<int>(r.outcome)},
            std::int64_t{r.target.value}, r.dispatched, r.completed,
            r.latency, std::int64_t{r.qos_met}, std::int64_t{r.reschedules},
            std::int64_t{r.fault_reroutes}}) {
        req.Add(static_cast<std::uint64_t>(v));
      }
    }
    p.requests = req.h;
    Fnv st;
    const int n = sys->num_clusters();
    for (int c = 0; c < n; ++c) {
      HashStorage(sys->LcStorage(ClusterId{c}), n, st);
    }
    HashStorage(sys->BeStorage(), n, st);
    p.storages = st.h;
    Fnv per;
    for (const PeriodStats& s : sys->periods()) {
      per.Add(s.util_total);
      per.Add(s.util_lc);
      per.Add(s.util_be);
    }
    p.periods = per.h;
    p.pushes = Counter("sync.pushes");
    p.skipped = Counter("sync.pushes_skipped");
    p.full_resyncs = Counter("sync.full_resyncs");
    return p;
  }

  SystemConfig cfg;
  ServiceCatalog catalog;
  std::unique_ptr<EdgeCloudSystem> sys;
  std::unique_ptr<LcScheduler> lc;
  std::unique_ptr<BeScheduler> be;
};

TEST_F(DeltaSyncFixture, QuietSystemSkipsCleanPushes) {
  sys->Run(2 * kSecond);
  ExpectViewsMatchLiveWorkers();
  // With no workload no worker ever changes: every view received each
  // worker in its scope exactly once, at the first sync, and skipped it at
  // every sync since.
  std::int64_t in_views = sys->num_workers();  // the BE view sees everyone
  for (int c = 0; c < sys->num_clusters(); ++c) {
    for (const ClusterId s : Scope(ClusterId{c})) {
      in_views += static_cast<std::int64_t>(
          sys->LcStorage(ClusterId{c}).ForCluster(s).size());
    }
  }
  EXPECT_EQ(Counter("sync.pushes"), in_views);
  EXPECT_EQ(Counter("sync.pushes_skipped"),
            (Counter("sync.syncs") - 1) * in_views);
  EXPECT_EQ(Measure(), (Pins{0x14650fb0739d0383, 0xb1e1c70e6e272829,
                             0x8db5a7ab724e74e3, 88, 1848, 0}));
}

TEST_F(DeltaSyncFixture, BusySystemStoragesMatch) {
  sys->SubmitTrace(MixedTrace(250));
  sys->Run(2 * kSecond + 30 * kMillisecond);
  ExpectViewsMatchLiveWorkers();
  sys->Run(5 * kSecond);
  ExpectViewsMatchLiveWorkers();
  EXPECT_EQ(Measure(), (Pins{0x27a00253fcacdd22, 0xa73c28cd01d88f90,
                             0xfc9e6b494fd6575f, 1050, 3614, 0}));
}

TEST_F(DeltaSyncFixture, CrashBetweenSyncPeriodsPropagatesOnNextSync) {
  sys->SubmitTrace(MixedTrace(150));
  // Crash mid-period: the death is invisible to storages until the next
  // sync (failure-detection semantics), then the version bump pushes it.
  sys->Run(1 * kSecond + 50 * kMillisecond);
  sys->CrashWorker(NodeId{2});
  const metrics::NodeSnapshot* before = sys->BeStorage().Find(NodeId{2});
  ASSERT_NE(before, nullptr);
  EXPECT_TRUE(before->alive);  // not yet synced
  sys->Run(1 * kSecond + 200 * kMillisecond);  // next sync has passed
  const metrics::NodeSnapshot* after = sys->BeStorage().Find(NodeId{2});
  ASSERT_NE(after, nullptr);
  EXPECT_FALSE(after->alive);
  ExpectViewsMatchLiveWorkers();
  // Recovery re-advertises capacity immediately (node-ready push).
  sys->RecoverWorker(NodeId{2});
  EXPECT_TRUE(sys->BeStorage().Find(NodeId{2})->alive);
  sys->Run(4 * kSecond);
  ExpectViewsMatchLiveWorkers();
  EXPECT_EQ(Measure(), (Pins{0xb487f299ec37f006, 0x4adb44f17baeb72a,
                             0x6687b35dc6499385, 703, 3169, 0}));
}

TEST_F(DeltaSyncFixture, LinkCutFreezesFarSideSnapshots) {
  sys->SubmitTrace(MixedTrace(200));
  sys->Run(1 * kSecond);
  // Cut cluster 0 from the first cluster in its scope.
  const ClusterId viewer{0};
  const ClusterId far = Scope(viewer).front();
  ASSERT_NE(far, viewer);
  LinkFault cut;
  cut.cut = true;
  sys->SetLinkFault(viewer, far, cut);
  const std::vector<metrics::NodeSnapshot> frozen =
      sys->LcStorage(viewer).ForCluster(far);
  ASSERT_FALSE(frozen.empty());
  sys->Run(2 * kSecond);
  // The viewer's copy of the far side is unreachable and holds exactly
  // the content it had when the link went down.
  const std::vector<metrics::NodeSnapshot> later =
      sys->LcStorage(viewer).ForCluster(far);
  ASSERT_EQ(later.size(), frozen.size());
  for (std::size_t i = 0; i < later.size(); ++i) {
    EXPECT_FALSE(later[i].reachable);
    EXPECT_TRUE(metrics::SameContent(later[i], frozen[i]));
    EXPECT_EQ(later[i].recorded_at, frozen[i].recorded_at);
  }
  ExpectViewsMatchLiveWorkers();
  // Healing the link catches the pair up on every change it missed.
  sys->ClearLinkFault(viewer, far);
  for (const auto& snap : sys->LcStorage(viewer).ForCluster(far)) {
    EXPECT_TRUE(snap.reachable);
  }
  sys->Run(4 * kSecond);
  ExpectViewsMatchLiveWorkers();
  EXPECT_EQ(Measure(), (Pins{0xb51ac1505754d7c6, 0x7122cd0e3a94c80d,
                             0xd3b184be2ed70986, 807, 3009, 0}));
}

TEST_F(DeltaSyncFixture, MasterFailoverForcesFullRepush) {
  sys->SubmitTrace(MixedTrace(200));
  sys->Run(1 * kSecond);
  const ClusterId central = sys->acting_central();
  sys->FailMaster(central);
  EXPECT_NE(sys->acting_central(), central);
  EXPECT_EQ(Counter("sync.full_resyncs"), 1);  // the new central's BE view
  sys->Run(2 * kSecond);
  ExpectViewsMatchLiveWorkers();
  sys->RecoverMaster(central);
  EXPECT_EQ(sys->acting_central(), central);  // original central reclaims
  // The recovered LC view and the handed-back BE view both start over.
  EXPECT_EQ(Counter("sync.full_resyncs"), 3);
  ExpectViewsMatchLiveWorkers();
  sys->Run(4 * kSecond);
  ExpectViewsMatchLiveWorkers();
  EXPECT_EQ(Measure(), (Pins{0x4ae347e603862aec, 0xe2b466be96d3b8f5,
                             0xb27cc489f210cdbd, 843, 2941, 3}));
}

TEST_F(DeltaSyncFixture, DrainUndrainKeepsStoragesIdentical) {
  sys->SubmitTrace(MixedTrace(150));
  sys->Run(1 * kSecond);
  sys->DrainWorker(NodeId{3});
  sys->Run(2 * kSecond);
  const metrics::NodeSnapshot* drained = sys->BeStorage().Find(NodeId{3});
  ASSERT_NE(drained, nullptr);
  EXPECT_TRUE(drained->draining);
  EXPECT_EQ(drained->cpu_available, 0);
  ExpectViewsMatchLiveWorkers();
  sys->UndrainWorker(NodeId{3});
  sys->Run(4 * kSecond);
  ExpectViewsMatchLiveWorkers();
  EXPECT_EQ(Measure(), (Pins{0x81c4fcc96199f2e8, 0x7d4b9da995ef9804,
                             0x1975fe632b24e57a, 708, 3252, 0}));
}

TEST_F(DeltaSyncFixture, IncrementalMetricsMatchFullScan) {
  sys->SubmitTrace(MixedTrace(300));
  // Stop right at each metrics sample and rescan every worker: the
  // utilisation the period just recorded must equal the rescan.
  for (int k = 1; k <= 7; ++k) {
    sys->Run(k * cfg.metrics_period);
    Millicores used = 0, used_lc = 0, used_be = 0, cap = 0;
    for (const WorkerNode* w : sys->AllWorkers()) {
      used += w->cpu_in_use();
      used_lc += w->cpu_in_use_lc();
      used_be += w->cpu_in_use_be();
      cap += w->spec().capacity.cpu;
    }
    const PeriodStats& p = sys->periods()[static_cast<std::size_t>(k - 1)];
    const auto c = static_cast<double>(cap);
    EXPECT_EQ(p.util_total, static_cast<double>(used) / c) << "period " << k;
    EXPECT_EQ(p.util_lc, static_cast<double>(used_lc) / c) << "period " << k;
    EXPECT_EQ(p.util_be, static_cast<double>(used_be) / c) << "period " << k;
  }
  EXPECT_EQ(Measure(), (Pins{0x9e9bc3adb7e264c0, 0x7f038a1fc264d7e9,
                             0xc6b8f89e8a06e546, 1151, 3865, 0}));
}

}  // namespace
}  // namespace tango::k8s
