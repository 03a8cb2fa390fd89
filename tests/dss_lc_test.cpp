// Tests for DSS-LC (Algorithm 2): the capacity and overload cases, the
// augmentation factor λ (Eq. 8), edge capacities, output pins over
// multi-round drives, and the greedy star fill against the min-cost-flow
// oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>

#include "flow/mcmf.h"
#include "sched/dss_lc.h"

namespace tango::sched {
namespace {

using k8s::Assignment;
using k8s::PendingRequest;
using metrics::NodeSnapshot;
using metrics::StateStorage;
using workload::ServiceCatalog;

struct DssFixture : public ::testing::Test {
  void SetUp() override { catalog = ServiceCatalog::Standard(); }

  /// Add a worker snapshot with given available cpu/mem and cluster RTT.
  void AddWorker(StateStorage& st, int node, int cluster, Millicores cpu_av,
                 MiB mem_av, SimDuration rtt,
                 Millicores cpu_total = 8000, MiB mem_total = 16384) {
    NodeSnapshot s;
    s.node = NodeId{node};
    s.cluster = ClusterId{cluster};
    s.cpu_total = cpu_total;
    s.cpu_available = cpu_av;
    s.mem_total = mem_total;
    s.mem_available = mem_av;
    st.Update(s);
    st.UpdateRtt(ClusterId{cluster}, rtt);
  }

  std::vector<PendingRequest> Queue(int count, int svc = 3) {
    std::vector<PendingRequest> q;
    for (int i = 0; i < count; ++i) {
      PendingRequest p;
      p.request.id = RequestId{i};
      p.request.service = ServiceId{svc};
      p.request.origin = ClusterId{0};
      p.request.arrival = 0;
      q.push_back(p);
    }
    return q;
  }

  static std::map<std::int32_t, int> CountByNode(
      const std::vector<Assignment>& as) {
    std::map<std::int32_t, int> counts;
    for (const auto& a : as) counts[a.target.value] += 1;
    return counts;
  }

  ServiceCatalog catalog;
};

TEST_F(DssFixture, AssignsAllWhenCapacitySuffices) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  // svc 3 needs 200 mc / 128 MiB; each worker fits 10 by CPU.
  AddWorker(st, 1, 0, 2000, 4096, kMillisecond);
  AddWorker(st, 2, 0, 2000, 4096, kMillisecond);
  const auto as = dss.Schedule(ClusterId{0}, Queue(8), st, 0);
  EXPECT_EQ(as.size(), 8u);
  // No node receives more than its capacity (10).
  for (const auto& [node, count] : CountByNode(as)) EXPECT_LE(count, 10);
  EXPECT_EQ(dss.overflow_routed(), 0);
}

TEST_F(DssFixture, PrefersLowDelayNodesWhenCapacityAmple) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  AddWorker(st, 1, 0, 4000, 8192, kMillisecond);          // local, 0.5 ms
  AddWorker(st, 2, 1, 4000, 8192, 80 * kMillisecond);     // far, 40 ms
  const auto as = dss.Schedule(ClusterId{0}, Queue(10), st, 0);
  const auto counts = CountByNode(as);
  // All 10 fit locally (capacity 20); min-cost flow must keep them local.
  EXPECT_EQ(counts.count(2), 0u);
  EXPECT_EQ(counts.at(1), 10);
}

TEST_F(DssFixture, SpillsToRemoteWhenLocalSaturated) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  AddWorker(st, 1, 0, 600, 8192, kMillisecond);        // fits 3
  AddWorker(st, 2, 1, 4000, 8192, 40 * kMillisecond);  // fits 20
  const auto as = dss.Schedule(ClusterId{0}, Queue(10), st, 0);
  const auto counts = CountByNode(as);
  EXPECT_EQ(counts.at(1), 3);
  EXPECT_EQ(counts.at(2), 7);
}

TEST_F(DssFixture, CapacityRespectsMemoryDimension) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  // CPU would fit 10, memory only 2 (svc 3 needs 128 MiB).
  AddWorker(st, 1, 0, 2000, 256, kMillisecond);
  const auto as = dss.Schedule(ClusterId{0}, Queue(8), st, 0);
  // Eq. 2: t_i = -min(cpu_av/r_c, mem_av/r_m) = -2 immediate; the other 6
  // go through the overflow graph onto the same node (it is the only one).
  EXPECT_EQ(as.size(), 8u);
  EXPECT_GT(dss.overflow_routed(), 0);
}

TEST_F(DssFixture, OverloadSplitsAndComputesLambda) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  // Each worker immediately fits 2 (400 mc avail / 200), totals fit 40.
  AddWorker(st, 1, 0, 400, 4096, kMillisecond, 8000, 16384);
  AddWorker(st, 2, 0, 400, 4096, kMillisecond, 8000, 16384);
  const auto as = dss.Schedule(ClusterId{0}, Queue(12), st, 0);
  // 4 immediate + 8 overflow, all dispatched (Alg. 2 dispatches both sets).
  EXPECT_EQ(as.size(), 12u);
  EXPECT_EQ(dss.overflow_routed(), 8);
  // λ = overflow / Σ total capacities = 8 / (40+40).
  EXPECT_NEAR(dss.last_lambda(), 8.0 / 80.0, 1e-9);
}

TEST_F(DssFixture, OverflowSpreadsByTotalResources) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  // No immediate capacity anywhere; node 2 has 3× the total resources of
  // node 1 and should receive ~3× of the queued overflow (Eq. 7).
  AddWorker(st, 1, 0, 0, 0, kMillisecond, 2000, 4096);
  AddWorker(st, 2, 0, 0, 0, kMillisecond, 6000, 12288);
  const auto as = dss.Schedule(ClusterId{0}, Queue(12), st, 0);
  EXPECT_EQ(as.size(), 12u);
  const auto counts = CountByNode(as);
  EXPECT_GT(counts.at(2), counts.at(1));
  EXPECT_NEAR(static_cast<double>(counts.at(2)) /
                  static_cast<double>(counts.at(1)),
              3.0, 1.2);
}

TEST_F(DssFixture, EdgeCapacityBoundsPerRoundTransfers) {
  DssLcConfig cfg;
  cfg.edge_capacity = 3;  // Eq. 4: at most 3 requests per (master, node) arc
  DssLcScheduler dss(&catalog, cfg);
  StateStorage st;
  AddWorker(st, 1, 0, 4000, 8192, kMillisecond);
  AddWorker(st, 2, 0, 4000, 8192, kMillisecond);
  const auto as = dss.Schedule(ClusterId{0}, Queue(10), st, 0);
  const auto counts = CountByNode(as);
  for (const auto& [node, count] : counts) EXPECT_LE(count, 3);
  EXPECT_LE(as.size(), 6u);
}

TEST_F(DssFixture, HandlesMultipleServiceTypesIndependently) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  AddWorker(st, 1, 0, 4000, 8192, kMillisecond);
  std::vector<PendingRequest> q;
  for (int i = 0; i < 6; ++i) {
    PendingRequest p;
    p.request.id = RequestId{i};
    p.request.service = ServiceId{i % 3};  // three LC types
    p.request.origin = ClusterId{0};
    q.push_back(p);
  }
  const auto as = dss.Schedule(ClusterId{0}, q, st, 0);
  EXPECT_EQ(as.size(), 6u);
  // All 6 distinct request ids covered exactly once.
  std::set<std::int32_t> seen;
  for (const auto& a : as) seen.insert(a.request.value);
  EXPECT_EQ(seen.size(), 6u);
}

TEST_F(DssFixture, EmptyStorageAssignsNothing) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  const auto as = dss.Schedule(ClusterId{0}, Queue(5), st, 0);
  EXPECT_TRUE(as.empty());
}

TEST_F(DssFixture, EmptyQueueIsANoop) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  AddWorker(st, 1, 0, 4000, 8192, kMillisecond);
  EXPECT_TRUE(dss.Schedule(ClusterId{0}, {}, st, 0).empty());
}

TEST_F(DssFixture, RecordsDecisionTiming) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  AddWorker(st, 1, 0, 4000, 8192, kMillisecond);
  dss.Schedule(ClusterId{0}, Queue(5), st, 0);
  dss.Schedule(ClusterId{0}, Queue(5), st, 0);
  EXPECT_EQ(dss.decisions(), 2);
  EXPECT_GT(dss.decision_seconds(), 0.0);
}

class SplitPolicyTest : public DssFixture,
                        public ::testing::WithParamInterface<SplitPolicy> {};

TEST_P(SplitPolicyTest, OverloadStillDispatchesEverything) {
  DssLcConfig cfg;
  cfg.split_policy = GetParam();
  DssLcScheduler dss(&catalog, cfg);
  StateStorage st;
  AddWorker(st, 1, 0, 400, 4096, kMillisecond, 4000, 8192);
  auto q = Queue(10);
  // Stagger arrivals so FIFO/deadline orders are distinct from id order.
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i].request.arrival = static_cast<SimTime>((10 - i) * kMillisecond);
  }
  const auto as = dss.Schedule(ClusterId{0}, q, st, 20 * kMillisecond);
  EXPECT_EQ(as.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SplitPolicyTest,
                         ::testing::Values(SplitPolicy::kRandom,
                                           SplitPolicy::kFifo,
                                           SplitPolicy::kDeadline),
                         [](const auto& param_info) {
                           return std::string(
                               SplitPolicyName(param_info.param));
                         });

// ---- Output pins ----------------------------------------------------------
//
// FNV-1a digests of everything DSS-LC emits over multi-round drives: every
// assignment (request, target) in order, then last_lambda() and
// overflow_routed() after each round. Recorded with the graph-based
// min-cost-flow dispatch; the greedy star fill must reproduce them bit for
// bit. The drive mixes five LC types over 24 heterogeneous workers in four
// clusters, drifts node load between rounds, overloads some rounds (Ĝ'_k),
// and leaves a 6 s gap so every commitment decays below the eviction
// epsilon before the last rounds.

std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t PinDigest(const ServiceCatalog& catalog, const DssLcConfig& cfg,
                        bool exclusions) {
  DssLcScheduler dss(&catalog, cfg);
  StateStorage st;
  Rng rng(cfg.seed + 17);
  constexpr int kNodes = 24;
  std::vector<NodeSnapshot> nodes;
  for (int i = 0; i < kNodes; ++i) {
    NodeSnapshot s;
    s.node = NodeId{i + 1};
    s.cluster = ClusterId{i % 4};
    s.cpu_total = 2000 * rng.UniformInt(1, 4);
    s.mem_total = 4096 * rng.UniformInt(1, 4);
    s.cpu_available = rng.UniformInt(0, s.cpu_total);
    s.mem_available = rng.UniformInt(0, s.mem_total);
    if (i % 5 == 0) {  // BE-preemptible headroom (§4.1 LC view)
      s.cpu_available_lc = std::min(s.cpu_total, s.cpu_available + 1000);
    }
    s.queued = static_cast<int>(rng.UniformInt(0, 6));
    nodes.push_back(s);
    st.Update(s);
  }
  NodeSnapshot master;
  master.node = NodeId{100};
  master.cluster = ClusterId{0};
  master.is_master = true;
  master.cpu_total = master.cpu_available = 8000;
  master.mem_total = master.mem_available = 16384;
  st.Update(master);
  for (int c = 0; c < 4; ++c) {
    st.UpdateRtt(ClusterId{c}, rng.UniformInt(1, 40) * kMillisecond);
  }
  if (exclusions) {
    nodes[3].alive = false;
    nodes[8].draining = true;
    st.Update(nodes[3]);
    st.Update(nodes[8]);
    st.MarkClusterReachability(ClusterId{2}, false);
  }

  const int depths[] = {6, 2, 300, 40, 3, 900, 1, 120, 5, 2, 600, 8};
  std::uint64_t h = 0xcbf29ce484222325ULL;
  SimTime now = 0;
  int next_id = 0;
  for (int round = 0; round < 12; ++round) {
    now += round == 8 ? 6 * kSecond : 40 * kMillisecond;
    // Drift a few nodes' load between rounds.
    for (int k = 0; k < 4; ++k) {
      auto& s = nodes[static_cast<std::size_t>(rng.UniformInt(0, kNodes - 1))];
      s.cpu_available = rng.UniformInt(0, s.cpu_total);
      s.mem_available = rng.UniformInt(0, s.mem_total);
      s.queued = static_cast<int>(rng.UniformInt(0, 6));
      s.recorded_at = now;
      st.Update(s);
    }
    std::vector<PendingRequest> q;
    for (int i = 0; i < depths[round]; ++i) {
      PendingRequest p;
      p.request.id = RequestId{next_id++};
      p.request.service = ServiceId{static_cast<std::int32_t>(
          rng.UniformInt(0, 4))};
      p.request.origin = ClusterId{0};
      p.request.arrival = now - rng.UniformInt(0, 50) * kMillisecond;
      q.push_back(p);
    }
    h = Fnv(h, static_cast<std::uint64_t>(round));
    for (const auto& a : dss.Schedule(ClusterId{0}, q, st, now)) {
      h = Fnv(h, static_cast<std::uint64_t>(a.request.value));
      h = Fnv(h, static_cast<std::uint64_t>(a.target.value));
    }
    h = Fnv(h, std::bit_cast<std::uint64_t>(dss.last_lambda()));
    h = Fnv(h, static_cast<std::uint64_t>(dss.overflow_routed()));
  }
  EXPECT_GT(dss.overflow_routed(), 0) << "the drive never reached Ĝ'_k";
  return h;
}

TEST_F(DssFixture, PinnedOutputAcrossSplitPolicies) {
  const std::pair<SplitPolicy, std::uint64_t> pins[] = {
      {SplitPolicy::kRandom, 0xd4d2aa4a76a351d0ULL},
      // One target per type, so deadline order is arrival order.
      {SplitPolicy::kFifo, 0x56c96cfc35bab1f0ULL},
      {SplitPolicy::kDeadline, 0x56c96cfc35bab1f0ULL},
  };
  for (const auto& [policy, want] : pins) {
    DssLcConfig cfg;
    cfg.split_policy = policy;
    const std::uint64_t got = PinDigest(catalog, cfg, /*exclusions=*/false);
    EXPECT_EQ(got, want) << SplitPolicyName(policy) << " digest 0x"
                         << std::hex << got;
  }
}

TEST_F(DssFixture, PinnedOutputWithBindingEdgeCapacity) {
  DssLcConfig cfg;
  cfg.edge_capacity = 2;
  cfg.seed = 5;
  const std::uint64_t got = PinDigest(catalog, cfg, /*exclusions=*/false);
  EXPECT_EQ(got, 0x7c8b4d448d6e6094ULL) << "digest 0x" << std::hex << got;
}

TEST_F(DssFixture, PinnedOutputWithExclusions) {
  // A dead node, a draining node, an unreachable cluster and a master
  // snapshot, all of which the round must skip.
  DssLcConfig cfg;
  cfg.seed = 11;
  cfg.split_policy = SplitPolicy::kDeadline;
  const std::uint64_t got = PinDigest(catalog, cfg, /*exclusions=*/true);
  EXPECT_EQ(got, 0x52a748438645b2b2ULL) << "digest 0x" << std::hex << got;
}

// ---- Greedy star fill vs the successive-shortest-paths oracle -------------

/// Per-worker counts of the min-cost flow on the star DSS-LC states: node 0
/// source, 1 master, 2..n+1 workers, n+2 sink; master → worker i carries
/// min(cap, edge_capacity) at cost[i], worker i → sink carries cap.
std::vector<std::int64_t> SspCounts(const std::vector<std::int64_t>& cost,
                                    const std::vector<std::int64_t>& cap,
                                    std::int64_t amount,
                                    std::int64_t edge_capacity) {
  const int n = static_cast<int>(cap.size());
  flow::MinCostMaxFlow mcmf(n + 3);
  mcmf.AddArc(0, 1, amount, 0);
  for (int i = 0; i < n; ++i) {
    const auto zi = static_cast<std::size_t>(i);
    mcmf.AddArc(1, 2 + i, std::min(cap[zi], edge_capacity), cost[zi]);
    mcmf.AddArc(2 + i, n + 2, cap[zi], 0);
  }
  mcmf.Solve(0, n + 2, amount);
  std::vector<std::int64_t> counts(cap.size(), 0);
  for (int i = 0; i < n; ++i) {
    counts[static_cast<std::size_t>(i)] = mcmf.Flow(1 + 2 * i);
  }
  return counts;
}

TEST(GreedyStarFill, MatchesSuccessiveShortestPathsOracle) {
  // Costs drawn from a narrow range force equal-cost ties; caps include
  // zeros; edge capacities from 1 bind; a third of the trials use Ĝ'_k's
  // λ-scaled caps ⌈total · λ⌉. Counts must equal SSP's per worker.
  Rng rng(4099);
  std::vector<StarKey> heap;
  std::vector<StarFill> fills;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 12));
    std::vector<std::int64_t> cost(n), cap(n);
    std::int64_t sum_cap = 0;
    for (std::size_t i = 0; i < n; ++i) {
      cost[i] = rng.UniformInt(0, 4) * 1000 + rng.UniformInt(0, 1);
      cap[i] = rng.UniformInt(0, 3) == 0 ? 0 : rng.UniformInt(1, 9);
      sum_cap += cap[i];
    }
    std::int64_t amount = rng.UniformInt(0, sum_cap + 4);
    if (trial % 3 == 0) {
      std::int64_t sum_total = 0;
      std::vector<std::int64_t> total(n);
      for (auto& t : total) sum_total += (t = rng.UniformInt(0, 40));
      amount = rng.UniformInt(1, 60);
      const double lambda =
          sum_total > 0 ? static_cast<double>(amount) / sum_total : 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        cap[i] = static_cast<std::int64_t>(
            std::ceil(static_cast<double>(total[i]) * lambda));
      }
    }
    const std::int64_t edge =
        rng.UniformInt(0, 2) == 0 ? rng.UniformInt(1, 4) : 4096;
    const auto want = SspCounts(cost, cap, amount, edge);
    const std::int64_t routed = FillStar(cost, cap, amount, edge, heap, fills);
    std::vector<std::int64_t> got(n, 0);
    for (const auto& f : fills) got[static_cast<std::size_t>(f.worker)] += f.count;
    ASSERT_EQ(got, want) << "trial " << trial;
    std::int64_t want_routed = 0;
    for (const auto c : want) want_routed += c;
    EXPECT_EQ(routed, want_routed) << "trial " << trial;
  }
}

TEST(GreedyStarFill, FillsInCostThenIndexOrder) {
  std::vector<StarKey> heap;
  std::vector<StarFill> fills;
  const std::vector<std::int64_t> cost = {5, 1, 5, 1, 0};
  const std::vector<std::int64_t> cap = {4, 2, 4, 0, 3};
  EXPECT_EQ(FillStar(cost, cap, 8, /*edge_capacity=*/3, heap, fills), 8);
  // Worker 4 (cost 0, capped at 3 by the edge), worker 1 (cost 1; worker 3
  // has no capacity), then worker 0 before worker 2 on the cost-5 tie.
  ASSERT_EQ(fills.size(), 3u);
  EXPECT_EQ(fills[0].worker, 4);
  EXPECT_EQ(fills[0].count, 3);
  EXPECT_EQ(fills[1].worker, 1);
  EXPECT_EQ(fills[1].count, 2);
  EXPECT_EQ(fills[2].worker, 0);
  EXPECT_EQ(fills[2].count, 3);
  // Asking for more than the usable capacity routes what fits.
  EXPECT_EQ(FillStar(cost, cap, 100, 3, heap, fills), 3 + 2 + 3 + 3);
}

// ---- Multi-round drives ----------------------------------------------------

class DssDriveFixture : public DssFixture {
 protected:
  /// Mixed-type queue: several LC types, staggered arrivals, enough load to
  /// trigger the overload split on the smaller storages.
  std::vector<PendingRequest> MixedQueue(int count, SimTime base) {
    std::vector<PendingRequest> q;
    for (int i = 0; i < count; ++i) {
      PendingRequest p;
      p.request.id = RequestId{i};
      p.request.service = ServiceId{i % 5};  // five LC types
      p.request.origin = ClusterId{0};
      p.request.arrival = base + (i % 7) * kMillisecond;
      q.push_back(p);
    }
    return q;
  }

  StateStorage MakeStorage(int nodes, std::uint64_t seed) {
    StateStorage st;
    Rng rng(seed);
    for (int i = 0; i < nodes; ++i) {
      AddWorker(st, i + 1, i % 4, rng.UniformInt(200, 4000),
                rng.UniformInt(512, 8192),
                rng.UniformInt(1, 40) * kMillisecond);
    }
    return st;
  }
};

TEST_F(DssDriveFixture, DecayedCommitmentsReadExactlyZero) {
  DssLcScheduler dss(&catalog);
  StateStorage st = MakeStorage(10, 3);
  const auto as = dss.Schedule(ClusterId{0}, MixedQueue(50, 0), st, 0);
  ASSERT_FALSE(as.empty());
  const NodeId used = as.front().target;
  EXPECT_GT(dss.committed_cpu(used), 0.0);
  EXPECT_GT(dss.committed_mem(used), 0.0);
  // One half-life halves a commitment exactly.
  const double cpu = dss.committed_cpu(used);
  dss.Schedule(ClusterId{0}, {}, st, 125 * kMillisecond);
  EXPECT_EQ(dss.committed_cpu(used), cpu / 2);
  // ~80 half-lives later every commitment is far below the epsilon; the
  // decay must evict it to exactly 0, not keep scaling it forever.
  dss.Schedule(ClusterId{0}, {}, st, 10 * kSecond);
  for (int node = 1; node <= 10; ++node) {
    EXPECT_EQ(dss.committed_cpu(NodeId{node}), 0.0) << "node " << node;
    EXPECT_EQ(dss.committed_mem(NodeId{node}), 0.0) << "node " << node;
  }
  // Nodes never committed to (or unknown ids) read 0 as well.
  EXPECT_EQ(dss.committed_cpu(NodeId{}), 0.0);
  EXPECT_EQ(dss.committed_mem(NodeId{999}), 0.0);
}

}  // namespace
}  // namespace tango::sched
