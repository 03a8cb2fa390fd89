// Tests for the learned BE schedulers (DCG-BE, GNN-SAC): state/graph
// construction, the policy context filter, and reward plumbing (§5.3).
#include <gtest/gtest.h>

#include "sched/learned_be.h"

namespace tango::sched {
namespace {

using k8s::PendingRequest;
using metrics::NodeSnapshot;
using metrics::StateStorage;
using workload::ServiceCatalog;

NodeSnapshot Worker(int node, int cluster, Millicores cpu_av, MiB mem_av) {
  NodeSnapshot s;
  s.node = NodeId{node};
  s.cluster = ClusterId{cluster};
  s.cpu_total = 4000;
  s.cpu_available = cpu_av;
  s.mem_total = 8192;
  s.mem_available = mem_av;
  s.slack_score = 0.8;
  return s;
}

PendingRequest BeReq(int svc = 9) {
  PendingRequest p;
  p.request.id = RequestId{0};
  p.request.service = ServiceId{svc};
  p.request.origin = ClusterId{0};
  return p;
}

struct LearnedBeFixture : public ::testing::Test {
  void SetUp() override {
    catalog = ServiceCatalog::Standard();
    sched = MakeDcgBe(&catalog, gnn::EncoderKind::kGraphSage, /*seed=*/3);
  }
  ServiceCatalog catalog;
  std::unique_ptr<LearnedBeScheduler> sched;
};

TEST_F(LearnedBeFixture, StateFeaturesNormalized) {
  StateStorage st;
  st.Update(Worker(1, 0, 2000, 4096));
  st.Update(Worker(2, 0, 4000, 8192));
  const auto state = sched->BuildState(BeReq(), st);
  ASSERT_EQ(state.graph.num_nodes(), 2);
  ASSERT_EQ(state.graph.features.cols(), 9);
  // cpu_available fraction of node 1 is 0.5.
  EXPECT_FLOAT_EQ(state.graph.features.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(state.graph.features.at(1, 0), 1.0f);
  // Request demand features present (be-backup: 200/4000, 256/8192).
  EXPECT_FLOAT_EQ(state.graph.features.at(0, 5), 0.05f);
  EXPECT_FLOAT_EQ(state.graph.features.at(0, 6), 256.0f / 8192.0f);
  // Slack score carried through.
  EXPECT_FLOAT_EQ(state.graph.features.at(0, 4), 0.8f);
}

TEST_F(LearnedBeFixture, IntraClusterMeshInAdjacency) {
  StateStorage st;
  st.Update(Worker(1, 0, 2000, 4096));
  st.Update(Worker(2, 0, 2000, 4096));
  st.Update(Worker(3, 0, 2000, 4096));
  const auto state = sched->BuildState(BeReq(), st);
  // Full mesh over 3 same-cluster workers: each node has 2 neighbors.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(state.graph.adj[static_cast<std::size_t>(i)].size(), 2u);
  }
}

TEST_F(LearnedBeFixture, InterClusterBridgesExist) {
  StateStorage st;
  st.Update(Worker(1, 0, 2000, 4096));
  st.Update(Worker(2, 0, 2000, 4096));
  st.Update(Worker(10, 1, 2000, 4096));
  st.Update(Worker(11, 1, 2000, 4096));
  const auto state = sched->BuildState(BeReq(), st);
  // Some edge crosses the cluster boundary (indices 0,1 vs 2,3).
  bool cross = false;
  for (int i = 0; i < 2; ++i) {
    for (int j : state.graph.adj[static_cast<std::size_t>(i)]) {
      cross = cross || j >= 2;
    }
  }
  EXPECT_TRUE(cross);
}

TEST_F(LearnedBeFixture, ContextFilterMasksOverloadedNodes) {
  StateStorage st;
  st.Update(Worker(1, 0, 100, 100));    // cannot fit 200 mc / 256 MiB
  st.Update(Worker(2, 0, 4000, 8192));  // fits
  const auto state = sched->BuildState(BeReq(), st);
  ASSERT_EQ(state.valid.size(), 2u);
  EXPECT_FALSE(state.valid[0]);
  EXPECT_TRUE(state.valid[1]);
}

TEST_F(LearnedBeFixture, ScheduleOnePicksOnlyValidNodes) {
  StateStorage st;
  st.Update(Worker(1, 0, 100, 100));
  st.Update(Worker(2, 0, 4000, 8192));
  for (int i = 0; i < 20; ++i) {
    const auto t = sched->ScheduleOne(BeReq(), st, i);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, NodeId{2});
  }
  EXPECT_EQ(sched->actions(), 20);
}

TEST_F(LearnedBeFixture, EmptyStorageYieldsNullopt) {
  StateStorage st;
  EXPECT_FALSE(sched->ScheduleOne(BeReq(), st, 0).has_value());
}

/// Workers of clusters 5, 0, 2 interleaved in NodeId order; the cluster ids
/// leave gaps.
StateStorage InterleavedClusters() {
  StateStorage st;
  st.Update(Worker(1, 5, 1000, 8192));
  st.Update(Worker(2, 0, 2000, 8192));
  st.Update(Worker(3, 2, 3000, 8192));
  st.Update(Worker(4, 0, 4000, 8192));
  st.Update(Worker(5, 5, 500, 8192));
  st.Update(Worker(6, 2, 100, 8192));
  st.Update(Worker(7, 0, 1000, 8192));
  return st;
}

TEST_F(LearnedBeFixture, BuildStateLinksClustersInIdOrder) {
  // Nodes stay in NodeId order; meshes and the ring of bridges follow
  // ascending ClusterId (0: nodes 1,3,6; 2: nodes 2,5; 5: nodes 0,4).
  const auto state = sched->BuildState(BeReq(), InterleavedClusters());
  const std::vector<std::vector<int>> want = {
      {4, 2, 1}, {3, 6, 2, 0}, {5, 1, 0}, {1, 6, 5, 4},
      {0, 5, 3}, {2, 3, 4},    {1, 3}};
  EXPECT_EQ(state.graph.adj, want);
}

TEST_F(LearnedBeFixture, ClusterGranularityOrdersPseudoNodesById) {
  LearnedBeConfig cfg;
  cfg.granularity = BeGranularity::kCluster;
  auto clustered = MakeDcgBe(&catalog, gnn::EncoderKind::kGraphSage, 3, cfg);
  const auto state = clustered->BuildState(BeReq(), InterleavedClusters());
  ASSERT_EQ(state.graph.num_nodes(), 3);
  EXPECT_FLOAT_EQ(state.graph.features.at(0, 0), 7000.0f / 12000.0f);
  EXPECT_FLOAT_EQ(state.graph.features.at(1, 0), 3100.0f / 8000.0f);
  EXPECT_FLOAT_EQ(state.graph.features.at(2, 0), 1500.0f / 8000.0f);
  const std::vector<std::vector<int>> ring = {{1, 2}, {0, 2}, {1, 0}};
  EXPECT_EQ(state.graph.adj, ring);
}

TEST_F(LearnedBeFixture, RewardAccumulatesCompletions) {
  StateStorage st;
  st.Update(Worker(1, 0, 4000, 8192));
  // First action (no reward yet).
  ASSERT_TRUE(sched->ScheduleOne(BeReq(), st, 0).has_value());
  // Completions between actions feed r_long.
  workload::Request done;
  done.service = ServiceId{9};
  sched->OnBeCompleted(NodeId{1}, done, 1);
  sched->OnBeCompleted(NodeId{1}, done, 2);
  // Second action closes out the first with reward = r_short + r_long > 0.
  ASSERT_TRUE(sched->ScheduleOne(BeReq(), st, 3).has_value());
  EXPECT_GT(sched->last_reward(), 0.0f);
  // r_short ∈ (0,1], r_long ∈ [0,1) ⇒ reward < 2.
  EXPECT_LT(sched->last_reward(), 2.0f);
}

TEST_F(LearnedBeFixture, RewardHigherWhenCompletionsHappened) {
  StateStorage st;
  st.Update(Worker(1, 0, 4000, 8192));
  sched->ScheduleOne(BeReq(), st, 0);
  sched->ScheduleOne(BeReq(), st, 1);  // closes action 1, no completions
  const float without = sched->last_reward();
  workload::Request done;
  done.service = ServiceId{6};  // big job → large r_long contribution
  sched->OnBeCompleted(NodeId{1}, done, 2);
  sched->OnBeCompleted(NodeId{1}, done, 2);
  sched->ScheduleOne(BeReq(), st, 3);  // closes action 2 with completions
  EXPECT_GT(sched->last_reward(), without);
}

TEST_F(LearnedBeFixture, ClusterGranularityCollapsesPerCluster) {
  LearnedBeConfig cfg;
  cfg.granularity = BeGranularity::kCluster;
  auto coarse = std::make_unique<LearnedBeScheduler>(
      &catalog, std::make_unique<rl::A2cAgent>(rl::A2cConfig{}), cfg);
  StateStorage st;
  st.Update(Worker(1, 0, 2000, 4096));
  st.Update(Worker(2, 0, 4000, 8192));
  st.Update(Worker(10, 1, 1000, 2048));
  const auto state = coarse->BuildState(BeReq(), st);
  // Three workers in two clusters → two pseudo-nodes.
  ASSERT_EQ(state.graph.num_nodes(), 2);
  // Aggregated capacity of cluster 0: 6000 total? features hold fractions;
  // check the availability fraction is the cluster-wide one: (2000+4000)/8000.
  EXPECT_NEAR(state.graph.features.at(0, 0), 6000.0f / 8000.0f, 1e-5f);
  // The action routes to the most-available fitting worker of the cluster.
  for (int i = 0; i < 40; ++i) {
    const auto t = coarse->ScheduleOne(BeReq(), st, i);
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(*t == NodeId{2} || *t == NodeId{10});
  }
}

TEST_F(LearnedBeFixture, ClusterGranularityMasksUnfitClusters) {
  LearnedBeConfig cfg;
  cfg.granularity = BeGranularity::kCluster;
  auto coarse = std::make_unique<LearnedBeScheduler>(
      &catalog, std::make_unique<rl::A2cAgent>(rl::A2cConfig{}), cfg);
  StateStorage st;
  st.Update(Worker(1, 0, 50, 50));      // cluster 0 aggregate cannot fit
  st.Update(Worker(10, 1, 4000, 8192)); // cluster 1 fits
  const auto state = coarse->BuildState(BeReq(), st);
  ASSERT_EQ(state.valid.size(), 2u);
  EXPECT_FALSE(state.valid[0]);
  EXPECT_TRUE(state.valid[1]);
}

TEST_F(LearnedBeFixture, FactoryNamesMatchPaper) {
  EXPECT_EQ(sched->name(), "GraphSAGE-A2C");
  auto sac = MakeGnnSac(&catalog, 5);
  EXPECT_EQ(sac->name(), "GraphSAGE-SAC");
  auto gcn = MakeDcgBe(&catalog, gnn::EncoderKind::kGcn, 5);
  EXPECT_EQ(gcn->name(), "GCN-A2C");
}

TEST_F(LearnedBeFixture, GnnSacSchedulesValidNodesToo) {
  auto sac = MakeGnnSac(&catalog, 7);
  StateStorage st;
  st.Update(Worker(1, 0, 100, 100));
  st.Update(Worker(2, 0, 4000, 8192));
  for (int i = 0; i < 10; ++i) {
    const auto t = sac->ScheduleOne(BeReq(), st, i);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, NodeId{2});
  }
}

}  // namespace
}  // namespace tango::sched
