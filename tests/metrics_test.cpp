// Unit tests for the metrics stack: QoS detector, state storage.
#include <gtest/gtest.h>

#include "metrics/qos_detector.h"
#include "metrics/state_storage.h"

namespace tango::metrics {
namespace {

// ---------------------------------------------------------- QoS detector --

constexpr NodeId kNode{1};
constexpr ServiceId kSvc{0};

TEST(QosDetector, TailLatencyOverWindow) {
  QosDetector det(100 * kMillisecond);
  for (int i = 1; i <= 100; ++i) {
    det.Observe(50 * kMillisecond, kNode, kSvc, i * kMillisecond);
  }
  const double p95 = det.TailLatency(60 * kMillisecond, kNode, kSvc);
  EXPECT_NEAR(p95 / kMillisecond, 95.0, 1.5);
}

TEST(QosDetector, WindowEviction) {
  QosDetector det(100 * kMillisecond);
  det.Observe(0, kNode, kSvc, 50 * kMillisecond);
  EXPECT_EQ(det.SampleCount(50 * kMillisecond, kNode, kSvc), 1u);
  EXPECT_EQ(det.SampleCount(200 * kMillisecond, kNode, kSvc), 0u);
}

TEST(QosDetector, SlackScoreDefinition) {
  QosDetector det;
  const SimDuration target = 300 * kMillisecond;
  // ξ = 150 ms against γ = 300 ms ⇒ δ = 0.5.
  det.Observe(0, kNode, kSvc, 150 * kMillisecond);
  EXPECT_NEAR(det.SlackScore(10, kNode, kSvc, target), 0.5, 1e-9);
}

TEST(QosDetector, NegativeSlackSignalsViolation) {
  QosDetector det;
  det.Observe(0, kNode, kSvc, 600 * kMillisecond);
  const double slack =
      det.SlackScore(10, kNode, kSvc, 300 * kMillisecond);
  EXPECT_LT(slack, 0.0);
  EXPECT_NEAR(slack, -1.0, 1e-9);
}

TEST(QosDetector, IdleServiceHasFullSlack) {
  QosDetector det;
  EXPECT_DOUBLE_EQ(det.SlackScore(0, kNode, kSvc, 300 * kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(det.TailLatency(0, kNode, kSvc), 0.0);
}

TEST(QosDetector, SeparatesNodesAndServices) {
  QosDetector det;
  det.Observe(0, NodeId{1}, ServiceId{0}, 100 * kMillisecond);
  det.Observe(0, NodeId{2}, ServiceId{0}, 200 * kMillisecond);
  det.Observe(0, NodeId{1}, ServiceId{1}, 300 * kMillisecond);
  EXPECT_NEAR(det.TailLatency(1, NodeId{1}, ServiceId{0}) / kMillisecond, 100,
              1);
  EXPECT_NEAR(det.TailLatency(1, NodeId{2}, ServiceId{0}) / kMillisecond, 200,
              1);
  EXPECT_NEAR(det.TailLatency(1, NodeId{1}, ServiceId{1}) / kMillisecond, 300,
              1);
}

// --------------------------------------------------------- state storage --

NodeSnapshot Snap(int node, int cluster, SimTime at) {
  NodeSnapshot s;
  s.node = NodeId{node};
  s.cluster = ClusterId{cluster};
  s.cpu_total = 4000;
  s.cpu_available = 2000;
  s.mem_total = 8192;
  s.mem_available = 4096;
  s.recorded_at = at;
  return s;
}

TEST(StateStorage, UpsertKeepsNewest) {
  StateStorage st;
  auto s1 = Snap(1, 0, 100);
  s1.cpu_available = 1000;
  st.Update(s1);
  auto s2 = Snap(1, 0, 200);
  s2.cpu_available = 3000;
  st.Update(s2);
  EXPECT_EQ(st.Find(NodeId{1})->cpu_available, 3000);
  // A stale snapshot must not clobber the newer one.
  auto s3 = Snap(1, 0, 150);
  s3.cpu_available = 500;
  st.Update(s3);
  EXPECT_EQ(st.Find(NodeId{1})->cpu_available, 3000);
  EXPECT_EQ(st.size(), 1u);
}

TEST(StateStorage, AllReturnsInNodeIdOrder) {
  StateStorage st;
  st.Update(Snap(5, 0, 0));
  st.Update(Snap(2, 0, 0));
  st.Update(Snap(9, 1, 0));
  const auto all = st.All();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].node, NodeId{2});
  EXPECT_EQ(all[1].node, NodeId{5});
  EXPECT_EQ(all[2].node, NodeId{9});
}

TEST(StateStorage, ForClusterFilters) {
  StateStorage st;
  st.Update(Snap(1, 0, 0));
  st.Update(Snap(2, 1, 0));
  st.Update(Snap(3, 1, 0));
  EXPECT_EQ(st.ForCluster(ClusterId{1}).size(), 2u);
  EXPECT_EQ(st.ForCluster(ClusterId{0}).size(), 1u);
  EXPECT_TRUE(st.ForCluster(ClusterId{7}).empty());
}

TEST(StateStorage, RttBookkeeping) {
  StateStorage st;
  EXPECT_FALSE(st.Rtt(ClusterId{3}).has_value());
  st.UpdateRtt(ClusterId{3}, 97 * kMillisecond);
  ASSERT_TRUE(st.Rtt(ClusterId{3}).has_value());
  EXPECT_EQ(*st.Rtt(ClusterId{3}), 97 * kMillisecond);
}

TEST(StateStorage, ClearEmptiesEverything) {
  StateStorage st;
  st.Update(Snap(1, 0, 0));
  st.UpdateRtt(ClusterId{0}, kMillisecond);
  st.Clear();
  EXPECT_EQ(st.size(), 0u);
  EXPECT_FALSE(st.Rtt(ClusterId{0}).has_value());
  EXPECT_EQ(st.Find(NodeId{1}), nullptr);
}

TEST(StateStorage, OutOfOrderInsertsKeepNodeIdOrderAndIndex) {
  // Inserts arriving below, between and above stored ids shift the flat
  // array; Find must still resolve every id through the slot index.
  StateStorage st;
  for (const int id : {40, 7, 23, 3, 41, 8, 1}) {
    auto s = Snap(id, id % 3, 0);
    s.cpu_available = 100 * id;
    st.Update(s);
  }
  ASSERT_EQ(st.size(), 7u);
  const std::vector<int> want = {1, 3, 7, 8, 23, 40, 41};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(st.All()[i].node, NodeId{want[i]});
    const NodeSnapshot* found = st.Find(NodeId{want[i]});
    ASSERT_NE(found, nullptr) << want[i];
    EXPECT_EQ(found->cpu_available, 100 * want[i]);
  }
  EXPECT_EQ(st.Find(NodeId{2}), nullptr);
  EXPECT_EQ(st.Find(NodeId{1000}), nullptr);
  EXPECT_EQ(st.inserts(), 7);
  // Updating a known node is not an insert and keeps its slot.
  st.Update(Snap(23, 2, 5));
  EXPECT_EQ(st.inserts(), 7);
  EXPECT_EQ(st.All()[4].recorded_at, 5);
}

TEST(StateStorage, ReachabilityMarkAppliesToLaterInserts) {
  StateStorage st;
  st.Update(Snap(1, 0, 0));
  st.MarkClusterReachability(ClusterId{2}, false);
  // A snapshot of the cut cluster pushed after the mark arrives flagged,
  // even though it was pushed as reachable.
  st.Update(Snap(5, 2, 0));
  EXPECT_FALSE(st.Find(NodeId{5})->reachable);
  EXPECT_TRUE(st.Find(NodeId{1})->reachable);
  // A newer push of a marked cluster keeps the mark too.
  st.Update(Snap(5, 2, 10));
  EXPECT_FALSE(st.Find(NodeId{5})->reachable);
  // Healing flips every stored snapshot of the cluster back.
  st.MarkClusterReachability(ClusterId{2}, true);
  EXPECT_TRUE(st.Find(NodeId{5})->reachable);
}

TEST(StateStorage, UnsetRttBetweenSetOnesIsAbsent) {
  StateStorage st;
  st.UpdateRtt(ClusterId{4}, 3 * kMillisecond);
  EXPECT_FALSE(st.Rtt(ClusterId{0}).has_value());
  EXPECT_FALSE(st.Rtt(ClusterId{3}).has_value());
  EXPECT_FALSE(st.Rtt(ClusterId{5}).has_value());
  ASSERT_TRUE(st.Rtt(ClusterId{4}).has_value());
  EXPECT_EQ(*st.Rtt(ClusterId{4}), 3 * kMillisecond);
  st.UpdateRtt(ClusterId{0}, 0);  // a zero RTT is a set RTT
  ASSERT_TRUE(st.Rtt(ClusterId{0}).has_value());
  EXPECT_EQ(*st.Rtt(ClusterId{0}), 0);
}

TEST(StateStorage, InvalidIdsReadAsAbsent) {
  StateStorage st;
  st.Update(Snap(0, 0, 0));
  st.UpdateRtt(ClusterId{0}, kMillisecond);
  EXPECT_EQ(st.Find(NodeId{}), nullptr);
  EXPECT_EQ(st.Find(NodeId{-1}), nullptr);
  EXPECT_FALSE(st.Rtt(ClusterId{}).has_value());
  // A snapshot whose cluster is unset is stored; no mark applies to it.
  auto orphan = Snap(3, 0, 0);
  orphan.cluster = ClusterId{};
  st.Update(orphan);
  st.MarkClusterReachability(ClusterId{0}, false);
  EXPECT_TRUE(st.Find(NodeId{3})->reachable);
  EXPECT_FALSE(st.Find(NodeId{0})->reachable);
}

TEST(StateStorageDeathTest, UpdateWithoutNodeIdAborts) {
  StateStorage st;
  EXPECT_DEATH(st.Update(NodeSnapshot{}), "snapshot without a node id");
}

TEST(StateStorage, ClearDropsMarksAndSlots) {
  StateStorage st;
  st.Update(Snap(9, 1, 0));
  st.UpdateRtt(ClusterId{1}, kMillisecond);
  st.MarkClusterReachability(ClusterId{1}, false);
  st.Clear();
  EXPECT_EQ(st.size(), 0u);
  EXPECT_TRUE(st.All().empty());
  EXPECT_EQ(st.Find(NodeId{9}), nullptr);
  EXPECT_FALSE(st.Rtt(ClusterId{1}).has_value());
  // The cleared mark no longer applies; re-inserting works from scratch.
  st.Update(Snap(9, 1, 0));
  EXPECT_TRUE(st.Find(NodeId{9})->reachable);
  EXPECT_EQ(st.size(), 1u);
}

}  // namespace
}  // namespace tango::metrics
