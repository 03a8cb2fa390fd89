// Tests for the TangoShard conservative parallel simulation engine.
//
// The load-bearing property is byte-identity: any shard count (and the
// deterministic_reference mode) must produce exactly the per-cluster
// digests of the serial run — across seeds, partition strategies, chaos
// scripts, master failovers, and link faults. Everything else (mailbox
// ordering, lookahead, partitioning) exists in service of that contract.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "fault/fault_script.h"
#include "k8s/partition.h"
#include "net/topology.h"
#include "shard/engine.h"
#include "shard/mailbox.h"
#include "shard/message.h"

namespace tango::shard {
namespace {

// ---- mailbox --------------------------------------------------------------

ShardMessage Msg(int src, int dst, SimTime deliver, std::uint64_t seq) {
  ShardMessage m;
  m.kind = MsgKind::kStateDelta;
  m.src = ClusterId{src};
  m.dst = ClusterId{dst};
  m.sent = 0;
  m.deliver = deliver;
  m.seq = seq;
  return m;
}

TEST(MailboxGrid, ExchangeMovesOutboxToInbox) {
  MailboxGrid grid(2);
  grid.BeginEpoch(10);
  grid.Send(0, 1, Msg(0, 1, 20, 0));
  grid.Send(1, 0, Msg(1, 0, 30, 0));
  EXPECT_FALSE(grid.Empty());
  grid.Exchange();
  std::vector<ShardMessage> sink;
  grid.Drain(1, sink);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0].deliver, 20);
  sink.clear();
  grid.Drain(0, sink);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0].deliver, 30);
  EXPECT_TRUE(grid.Empty());
  EXPECT_EQ(grid.exchanged(), 2);
  EXPECT_EQ(grid.drained(), 2);
}

TEST(MailboxGrid, DrainSortsByDeliverThenSrcThenSeq) {
  MailboxGrid grid(3);
  grid.BeginEpoch(0);
  // Same deliver time from two sources, plus an earlier message from the
  // higher-numbered source: order must be (deliver, src, seq), regardless
  // of send order.
  grid.Send(2, 0, Msg(5, 0, 50, 7));
  grid.Send(2, 0, Msg(5, 0, 40, 6));
  grid.Send(1, 0, Msg(3, 0, 50, 2));
  grid.Send(1, 0, Msg(3, 0, 50, 1));
  grid.Exchange();
  std::vector<ShardMessage> sink;
  grid.Drain(0, sink);
  ASSERT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink[0].deliver, 40);
  EXPECT_EQ(sink[1].src, ClusterId{3});
  EXPECT_EQ(sink[1].seq, 1u);
  EXPECT_EQ(sink[2].seq, 2u);
  EXPECT_EQ(sink[3].src, ClusterId{5});
}

TEST(MailboxGridDeathTest, SendAtOrBelowEpochBoundAborts) {
  MailboxGrid grid(2);
  grid.BeginEpoch(100);
  EXPECT_DEATH(grid.Send(0, 1, Msg(0, 1, 100, 0)), "lookahead violation");
}

TEST(MailboxGrid, UndrainedInboxSurvivesNextExchange) {
  // A shard that receives nothing one epoch must still see messages from
  // the epoch before (Exchange appends rather than dropping).
  MailboxGrid grid(2);
  grid.BeginEpoch(10);
  grid.Send(0, 1, Msg(0, 1, 20, 0));
  grid.Exchange();
  grid.BeginEpoch(20);
  grid.Send(0, 1, Msg(0, 1, 35, 1));
  grid.Exchange();
  std::vector<ShardMessage> sink;
  grid.Drain(1, sink);
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink[0].seq, 0u);
  EXPECT_EQ(sink[1].seq, 1u);
}

// ---- partitioning ---------------------------------------------------------

std::vector<k8s::ClusterSpec> Specs(std::initializer_list<int> workers) {
  std::vector<k8s::ClusterSpec> out;
  int id = 0;
  for (int w : workers) {
    k8s::ClusterSpec s;
    s.id = ClusterId{id++};
    s.num_workers = w;
    out.push_back(s);
  }
  return out;
}

TEST(Partition, EveryClusterAssignedExactlyOnce) {
  const auto specs = Specs({3, 20, 5, 8, 8, 12, 3, 7});
  for (auto strategy :
       {k8s::PartitionStrategy::kContiguous,
        k8s::PartitionStrategy::kRoundRobin,
        k8s::PartitionStrategy::kWorkerBalanced}) {
    const auto p = k8s::PartitionClusters(specs, 3, strategy);
    EXPECT_EQ(p.num_shards, 3);
    std::set<int> seen;
    for (const auto& shard : p.clusters) {
      for (ClusterId c : shard) {
        EXPECT_TRUE(seen.insert(c.value).second) << "duplicate cluster";
        EXPECT_EQ(p.shard_of_cluster(c),
                  static_cast<int>(&shard - p.clusters.data()));
      }
    }
    EXPECT_EQ(seen.size(), specs.size());
  }
}

TEST(Partition, ShardCountClampedToClusterCount) {
  const auto specs = Specs({4, 4});
  const auto p = k8s::PartitionClusters(
      specs, 16, k8s::PartitionStrategy::kContiguous);
  EXPECT_EQ(p.num_shards, 2);
  const auto p1 = k8s::PartitionClusters(
      specs, 0, k8s::PartitionStrategy::kContiguous);
  EXPECT_EQ(p1.num_shards, 1);
}

TEST(Partition, WorkerBalancedBeatsContiguousOnSkewedSizes) {
  // One giant cluster plus many small ones: balancing by worker count must
  // not put the giant together with extra load while another shard idles.
  const auto specs = Specs({40, 2, 2, 2, 2, 2, 2, 2});
  const auto balanced = k8s::PartitionClusters(
      specs, 2, k8s::PartitionStrategy::kWorkerBalanced);
  const auto counts = k8s::ShardWorkerCounts(specs, balanced);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0] + counts[1], 54);
  EXPECT_EQ(std::max(counts[0], counts[1]), 40);  // giant alone on a shard
}

TEST(Partition, ClusterListsAscendRegardlessOfStrategy) {
  const auto specs = Specs({1, 9, 2, 8, 3, 7, 4, 6});
  const auto p = k8s::PartitionClusters(
      specs, 3, k8s::PartitionStrategy::kWorkerBalanced);
  for (const auto& shard : p.clusters) {
    for (std::size_t i = 1; i < shard.size(); ++i) {
      EXPECT_LT(shard[i - 1], shard[i]);
    }
  }
}

// ---- engine determinism ---------------------------------------------------

EngineConfig BaseConfig(std::uint64_t seed, int num_clusters = 10) {
  EngineConfig cfg;
  for (int c = 0; c < num_clusters; ++c) {
    k8s::ClusterSpec spec;
    spec.num_workers = 4 + (c % 3) * 2;  // heterogeneous shard loads
    cfg.clusters.push_back(spec);
  }
  cfg.model.lc_rps = 30.0;
  cfg.model.be_rps = 6.0;
  cfg.duration = 2 * kSecond;
  cfg.seed = seed;
  return cfg;
}

fault::FaultScript Chaos(std::uint64_t seed,
                         const std::vector<k8s::ClusterSpec>& clusters) {
  fault::ChaosProfile profile;
  profile.seed = seed;
  profile.end = 2 * kSecond;
  profile.master_fails_per_min = 6.0;   // exercises failover + recovery
  profile.crashes_per_min = 30.0;       // node crash/recover churn
  profile.link_faults_per_min = 10.0;   // degradations and partitions
  return fault::GenerateChaos(profile, fault::WorkerIds(clusters),
                              static_cast<int>(clusters.size()));
}

struct RunSummary {
  std::uint64_t digest;
  std::vector<std::uint64_t> cluster_digests;
  ClusterStats totals;
};

RunSummary RunOnce(EngineConfig cfg) {
  ShardEngine engine(std::move(cfg));
  RunResult r = engine.Run();
  return {r.digest, r.cluster_digests, r.totals};
}

TEST(ShardEngine, ByteIdenticalAcrossShardCountsAndSeeds) {
  for (std::uint64_t seed : {1ull, 42ull, 777ull}) {
    EngineConfig base = BaseConfig(seed);
    base.faults = Chaos(seed ^ 0xF00D, base.clusters);
    const RunSummary serial = RunOnce(base);
    for (int shards : {2, 3, 4, 8}) {
      EngineConfig cfg = base;
      cfg.num_shards = shards;
      const RunSummary parallel = RunOnce(cfg);
      EXPECT_EQ(parallel.digest, serial.digest)
          << "seed=" << seed << " shards=" << shards;
      EXPECT_EQ(parallel.cluster_digests, serial.cluster_digests);
      EXPECT_EQ(parallel.totals.lc_completed, serial.totals.lc_completed);
      EXPECT_EQ(parallel.totals.be_completed, serial.totals.be_completed);
      EXPECT_EQ(parallel.totals.failovers, serial.totals.failovers);
      EXPECT_EQ(parallel.totals.msgs_sent, serial.totals.msgs_sent);
    }
  }
}

TEST(ShardEngine, DigestsPinnedAcrossEngineChanges) {
  // The runs above compare shard counts with each other; these pins
  // compare the engine with its own history, so a change to the event heap
  // or the worker index that reorders anything fails here. The chaos
  // scripts crash and recover workers and fail masters; chaos never
  // drains, so one scripted run drains and undrains every third worker.
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {
      {1, 0x7e284cf9f9d386c1ull},
      {42, 0x5ccb443549e90afcull},
      {777, 0xf4e9970dbc981622ull}};
  for (const auto& [seed, digest] : pins) {
    EngineConfig cfg = BaseConfig(seed);
    cfg.faults = Chaos(seed ^ 0xF00D, cfg.clusters);
    EXPECT_EQ(RunOnce(cfg).digest, digest) << "seed=" << seed;
  }
  EngineConfig drained = BaseConfig(1);
  const std::vector<NodeId> workers = fault::WorkerIds(drained.clusters);
  for (std::size_t i = 0; i < workers.size(); i += 3) {
    drained.faults.DrainNode(300 * kMillisecond, workers[i]);
    drained.faults.UndrainNode(1200 * kMillisecond, workers[i]);
  }
  EXPECT_EQ(RunOnce(drained).digest, 0xd6745307a7af1701ull);
}

TEST(ShardEngine, DeterministicReferenceMatchesParallel) {
  EngineConfig base = BaseConfig(5);
  base.faults = Chaos(99, base.clusters);
  base.num_shards = 4;

  EngineConfig ref = base;
  ref.deterministic_reference = true;
  const RunSummary a = RunOnce(ref);
  const RunSummary b = RunOnce(base);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.cluster_digests, b.cluster_digests);
}

TEST(ShardEngine, PartitionStrategyDoesNotChangeResults) {
  EngineConfig base = BaseConfig(13);
  base.faults = Chaos(13, base.clusters);
  base.num_shards = 3;
  std::vector<std::uint64_t> digests;
  for (auto strategy :
       {k8s::PartitionStrategy::kContiguous,
        k8s::PartitionStrategy::kRoundRobin,
        k8s::PartitionStrategy::kWorkerBalanced}) {
    EngineConfig cfg = base;
    cfg.partition_strategy = strategy;
    digests.push_back(RunOnce(cfg).digest);
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

TEST(ShardEngine, ShorterEpochOverrideKeepsIdentity) {
  // Running with a smaller-than-necessary lookahead adds barriers but must
  // not change any cluster's event stream.
  EngineConfig base = BaseConfig(21);
  base.num_shards = 2;
  const RunSummary a = RunOnce(base);
  EngineConfig cfg = base;
  cfg.epoch_override = 1 * kMillisecond;  // < MinCrossClusterLatency (2ms+)
  const RunSummary b = RunOnce(cfg);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(ShardEngine, MasterFailoverIsDeterministicAndCounted) {
  // Deterministic script (no chaos): fail two masters, recover one.
  EngineConfig base = BaseConfig(3);
  base.faults.FailMasterFor(300 * kMillisecond, 800 * kMillisecond,
                            ClusterId{2});
  base.faults.FailMaster(500 * kMillisecond, ClusterId{7});
  const RunSummary serial = RunOnce(base);
  EXPECT_GT(serial.totals.failovers, 0);
  for (int shards : {2, 5}) {
    EngineConfig cfg = base;
    cfg.num_shards = shards;
    const RunSummary parallel = RunOnce(cfg);
    EXPECT_EQ(parallel.digest, serial.digest) << "shards=" << shards;
    EXPECT_EQ(parallel.totals.failovers, serial.totals.failovers);
  }
}

TEST(ShardEngine, LinkFaultsStayIdenticalAcrossPartitions) {
  EngineConfig base = BaseConfig(8);
  base.faults.DegradeLink(200 * kMillisecond, ClusterId{0}, ClusterId{1},
                          3.0, 0.5);
  base.faults.Partition(400 * kMillisecond, ClusterId{2}, ClusterId{3});
  base.faults.Heal(1200 * kMillisecond, ClusterId{2}, ClusterId{3});
  base.faults.RestoreLink(1500 * kMillisecond, ClusterId{0}, ClusterId{1});
  const RunSummary serial = RunOnce(base);
  EngineConfig cfg = base;
  cfg.num_shards = 4;
  const RunSummary parallel = RunOnce(cfg);
  EXPECT_EQ(parallel.digest, serial.digest);
  EXPECT_EQ(parallel.totals.msgs_lost, serial.totals.msgs_lost);
}

// ---- engine mechanics -----------------------------------------------------

TEST(ShardEngine, LookaheadDerivedFromTopologyMinLatency) {
  EngineConfig cfg = BaseConfig(2);
  ShardEngine engine(std::move(cfg));
  EXPECT_EQ(engine.lookahead(),
            engine.topology().MinCrossClusterLatency());
  EXPECT_GE(engine.lookahead(), net::LinkParams{}.wan_base_latency);
}

TEST(ShardEngineDeathTest, EpochOverrideAboveLookaheadRefused) {
  EngineConfig cfg = BaseConfig(2);
  cfg.epoch_override = 10 * kSecond;  // way beyond any WAN latency
  EXPECT_DEATH(ShardEngine{std::move(cfg)}, "conservative lookahead");
}

TEST(ShardEngine, MailboxConservationAndProgress) {
  EngineConfig cfg = BaseConfig(4);
  cfg.num_shards = 4;
  ShardEngine engine(std::move(cfg));
  const RunResult r = engine.Run();
  EXPECT_GT(r.executed_events, 0u);
  EXPECT_GT(r.epochs, 0);
  EXPECT_GT(r.mailbox_exchanged, 0);
  // Conservation: a message can only be drained after it was exchanged.
  // The two differ exactly by the end-of-run in-flight tail — messages
  // sent in the final epochs whose delivery lies past `duration`.
  EXPECT_LE(r.mailbox_drained, r.mailbox_exchanged);
  EXPECT_LT(r.mailbox_exchanged - r.mailbox_drained, 200);
  EXPECT_GT(r.totals.lc_completed, 0);
  EXPECT_GT(r.totals.be_completed, 0);
  EXPECT_GT(r.qos_rate(), 0.5);
}

TEST(ShardEngine, ParallelDrainCountMatchesReference) {
  // Every shard task drains its inboxes at the start of each epoch, in
  // parallel. A drained count shared by the tasks loses increments under
  // this much cross-shard traffic (about 2% of 70k messages per run on a
  // 4-core host), so the parallel count must match the one-thread
  // reference exactly.
  EngineConfig base = BaseConfig(11, 64);
  for (auto& c : base.clusters) c.num_workers = 16;
  base.model.lc_rps = 1000.0;
  base.model.be_rps = 100.0;
  base.num_shards = 4;
  base.num_threads = 4;
  EngineConfig ref = base;
  ref.deterministic_reference = true;
  const RunResult want = ShardEngine(ref).Run();
  ASSERT_GT(want.mailbox_exchanged, 50000);
  for (int run = 0; run < 2; ++run) {
    const RunResult got = ShardEngine(base).Run();
    EXPECT_EQ(got.mailbox_exchanged, want.mailbox_exchanged);
    EXPECT_EQ(got.mailbox_drained, want.mailbox_drained) << "run " << run;
  }
}

TEST(ShardEngine, SingleClusterRunsWithoutCrossTraffic) {
  EngineConfig cfg;
  k8s::ClusterSpec spec;
  spec.num_workers = 8;
  cfg.clusters.push_back(spec);
  cfg.duration = 1 * kSecond;
  ShardEngine engine(std::move(cfg));
  const RunResult r = engine.Run();
  EXPECT_EQ(r.mailbox_exchanged, 0);
  EXPECT_GT(r.totals.lc_completed, 0);
}

TEST(ShardEngine, TracersMergeAcrossShards) {
  EngineConfig cfg = BaseConfig(6, 6);
  cfg.num_shards = 3;
  cfg.trace = true;
  cfg.trace_capacity = 1 << 10;
  ShardEngine engine(std::move(cfg));
  (void)engine.Run();
  const auto tracers = engine.tracers();
  ASSERT_EQ(tracers.size(), 3u);
  std::size_t spans = 0;
  for (const auto* t : tracers) spans += t->Snapshot().size();
  EXPECT_GT(spans, 0u);
}

}  // namespace
}  // namespace tango::shard
