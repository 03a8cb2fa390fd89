// Tests for the RL agents: action-masking guarantees, the Act/Observe
// protocol, and learning on a trivial "good node" bandit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "nn/gemm.h"
#include "rl/agent.h"

namespace tango::rl {
namespace {

/// Fully-connected 4-node graph whose features mark one "good" node.
GraphState BanditState(int good_node) {
  GraphState s;
  s.graph.features = nn::Matrix(4, 3);
  for (int i = 0; i < 4; ++i) {
    s.graph.features.at(i, 0) = i == good_node ? 1.0f : 0.0f;
    s.graph.features.at(i, 1) = 0.5f;
    s.graph.features.at(i, 2) = static_cast<float>(i) / 4.0f;
  }
  s.graph.adj = {{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}};
  return s;
}

TEST(MaskRow, AllValidWhenEmpty) {
  const nn::Matrix m = MaskRow({}, 3);
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(m.at(0, i), 1.0f);
}

TEST(MaskRow, ReflectsValidity) {
  const nn::Matrix m = MaskRow({true, false, true}, 3);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(m.at(0, 2), 1.0f);
}

TEST(MaskRow, FullyMaskedFallsBackToAllValid) {
  const nn::Matrix m = MaskRow({false, false}, 2);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1), 1.0f);
}

template <class AgentT, class ConfigT>
std::unique_ptr<AgentT> MakeSmallAgent() {
  ConfigT cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 16;
  cfg.seed = 5;
  return std::make_unique<AgentT>(cfg);
}

TEST(A2cAgent, NeverPicksMaskedAction) {
  auto agent = MakeSmallAgent<A2cAgent, A2cConfig>();
  GraphState s = BanditState(0);
  s.valid = {false, true, false, false};  // only node 1 allowed
  for (int i = 0; i < 50; ++i) {
    const int a = agent->Act(s);
    EXPECT_EQ(a, 1);
    agent->Observe(0.0f, s, false);
  }
}

TEST(SacAgent, NeverPicksMaskedAction) {
  auto agent = MakeSmallAgent<SacAgent, SacConfig>();
  GraphState s = BanditState(0);
  s.valid = {false, false, true, false};
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(agent->Act(s), 2);
    agent->Observe(0.0f, s, false);
  }
}

TEST(A2cAgent, ActionsWithinRange) {
  auto agent = MakeSmallAgent<A2cAgent, A2cConfig>();
  const GraphState s = BanditState(2);
  for (int i = 0; i < 20; ++i) {
    const int a = agent->Act(s);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
    agent->Observe(0.1f, s, false);
  }
}

TEST(A2cAgent, LearnsBanditPreference) {
  // Reward 1 for picking the flagged node, 0 otherwise; after training the
  // greedy policy should pick it.
  A2cConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 16;
  cfg.train_interval = 8;
  cfg.gamma = 0.0f;     // bandit: credit is single-step
  cfg.adam.lr = 5e-3f;  // faster than the paper's 2e-4 for a tiny test
  cfg.entropy_coef = 0.003f;
  cfg.seed = 21;
  A2cAgent agent(cfg);
  const GraphState s = BanditState(1);
  int hits_late = 0;
  for (int t = 0; t < 800; ++t) {
    const int a = agent.Act(s);
    const float r = a == 1 ? 1.0f : 0.0f;
    agent.Observe(r, s, false);
    if (t >= 700 && a == 1) ++hits_late;
  }
  EXPECT_GT(agent.train_steps(), 10);
  EXPECT_GT(hits_late, 60);  // >60% of the last 100 actions
  EXPECT_EQ(agent.Act(s, /*greedy=*/true), 1);
}

TEST(A2cAgent, TrainStepsAdvanceAtInterval) {
  A2cConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 8;
  cfg.train_interval = 4;
  cfg.seed = 3;
  A2cAgent agent(cfg);
  const GraphState s = BanditState(0);
  for (int t = 0; t < 12; ++t) {
    agent.Act(s);
    agent.Observe(0.0f, s, false);
  }
  EXPECT_EQ(agent.train_steps(), 3);
}

TEST(A2cAgent, DoneFlushesPartialRollout) {
  A2cConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 8;
  cfg.train_interval = 100;
  cfg.seed = 4;
  A2cAgent agent(cfg);
  const GraphState s = BanditState(0);
  agent.Act(s);
  agent.Observe(1.0f, s, /*done=*/true);
  EXPECT_EQ(agent.train_steps(), 1);
}

TEST(A2cAgent, NameReflectsEncoder) {
  A2cConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 8;
  cfg.encoder = gnn::EncoderKind::kGcn;
  A2cAgent agent(cfg);
  EXPECT_EQ(agent.name(), "GCN-A2C");
}

TEST(SacAgent, TrainsAfterEnoughReplay) {
  SacConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 8;
  cfg.batch_size = 8;
  cfg.train_every = 4;
  cfg.seed = 6;
  SacAgent agent(cfg);
  const GraphState s = BanditState(0);
  for (int t = 0; t < 24; ++t) {
    agent.Act(s);
    agent.Observe(0.5f, s, false);
  }
  EXPECT_GT(agent.train_steps(), 0);
}

TEST(SacAgent, LearnsBanditPreference) {
  SacConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 16;
  cfg.batch_size = 16;
  cfg.train_every = 4;
  cfg.alpha = 0.01f;
  cfg.adam.lr = 5e-3f;
  cfg.seed = 23;
  SacAgent agent(cfg);
  const GraphState s = BanditState(2);
  int hits_late = 0;
  for (int t = 0; t < 500; ++t) {
    const int a = agent.Act(s);
    agent.Observe(a == 2 ? 1.0f : 0.0f, s, false);
    if (t >= 400 && a == 2) ++hits_late;
  }
  EXPECT_GT(hits_late, 55);
}

TEST(Agents, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    A2cConfig cfg;
    cfg.feature_dim = 3;
    cfg.embed_dim = 8;
    cfg.seed = seed;
    A2cAgent agent(cfg);
    const GraphState s = BanditState(1);
    std::vector<int> actions;
    for (int t = 0; t < 20; ++t) {
      actions.push_back(agent.Act(s));
      agent.Observe(0.3f, s, false);
    }
    return actions;
  };
  EXPECT_EQ(run(11), run(11));
}

// ---- Learner pins ---------------------------------------------------------
//
// FNV-1a digests of the A2C learner's behaviour: every action it took plus
// the bits of every parameter after seven updates (six full rollouts of
// n̂ = 16 steps, then a 5-step rollout closed by done = true). They were
// recorded from the learner that re-ran every step's forward at update time,
// so any change to the training arithmetic, its op order or its RNG stream
// shows up here.

/// DCG-BE's graph: `clusters` full meshes of `per_cluster` workers, joined
/// in a ring of clusters by min(2, per_cluster) bridges, in the order
/// LearnedBeScheduler::BuildState links them. One worker per cluster is the
/// 104-node ring paper_dual feeds DCG-BE (degree 2, below GraphSAGE's
/// p = 3, so nothing is sampled); larger clusters give a LAN mesh whose
/// degrees exceed p, so every encode samples.
std::vector<std::vector<int>> ClusterGraph(int clusters, int per_cluster) {
  const int n = clusters * per_cluster;
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  auto link = [&adj](int u, int v) {
    adj[static_cast<std::size_t>(u)].push_back(v);
    adj[static_cast<std::size_t>(v)].push_back(u);
  };
  for (int c = 0; c < clusters; ++c) {
    for (int a = 0; a < per_cluster; ++a) {
      for (int b = a + 1; b < per_cluster; ++b) {
        link(c * per_cluster + a, c * per_cluster + b);
      }
    }
  }
  const int bridges = std::min(2, per_cluster);
  for (int c = 0; c + 1 < clusters + (clusters > 2 ? 1 : 0); ++c) {
    const int next = (c + 1) % clusters;
    for (int l = 0; l < bridges; ++l) {
      link(c * per_cluster + l, next * per_cluster + l);
    }
  }
  return adj;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t Fnv(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct LearnerRun {
  std::uint64_t digest = kFnvOffset;
  std::int64_t train_steps = 0;
};

/// Drives the paper-default A2C learner (9 features, 64-wide embedding,
/// n̂ = 16) through 101 decisions on random load over `adj`, with a random
/// context filter, and digests what it did.
LearnerRun RunLearner(gnn::EncoderKind kind,
                      const std::vector<std::vector<int>>& adj) {
  A2cConfig cfg;
  cfg.encoder = kind;
  cfg.adam.lr = 1e-3f;
  A2cAgent agent(cfg);
  Rng env(2023);
  const int n = static_cast<int>(adj.size());
  auto next_state = [&] {
    GraphState s;
    s.graph.features = nn::Matrix(n, cfg.feature_dim);
    for (int i = 0; i < n; ++i) {
      for (int f = 0; f < cfg.feature_dim; ++f) {
        s.graph.features.at(i, f) = static_cast<float>(env.NextDouble());
      }
    }
    s.graph.adj = adj;
    s.valid.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      s.valid[static_cast<std::size_t>(i)] = env.NextDouble() > 0.25;
    }
    return s;
  };
  constexpr int kDecisions = 6 * 16 + 5;
  LearnerRun run;
  GraphState s = next_state();
  for (int t = 0; t < kDecisions; ++t) {
    const int a = agent.Act(s);
    run.digest = Fnv(run.digest, &a, sizeof a);
    GraphState next = next_state();
    const float reward = s.graph.features.at(a, 0) - 0.5f;
    agent.Observe(reward, next, /*done=*/t + 1 == kDecisions);
    s = std::move(next);
  }
  for (const auto& p : agent.params().params()) {
    run.digest = Fnv(run.digest, p->value.data(),
                     p->value.size() * sizeof(float));
  }
  run.train_steps = agent.train_steps();
  return run;
}

struct LearnerPin {
  gnn::EncoderKind encoder;
  int clusters;
  int per_cluster;
  std::uint64_t digest;
};

class LearnerPinTest : public ::testing::TestWithParam<LearnerPin> {};

TEST_P(LearnerPinTest, ReproducesRecordedDigest) {
  const LearnerPin& pin = GetParam();
  const LearnerRun run =
      RunLearner(pin.encoder, ClusterGraph(pin.clusters, pin.per_cluster));
  EXPECT_EQ(run.train_steps, 7);
  EXPECT_EQ(run.digest, pin.digest)
      << gnn::EncoderKindName(pin.encoder) << " on " << pin.clusters << "x"
      << pin.per_cluster << ": got 0x" << std::hex << run.digest;
}

std::string PinName(const ::testing::TestParamInfo<LearnerPin>& info) {
  return std::string(gnn::EncoderKindName(info.param.encoder)) + "_" +
         (info.param.per_cluster == 1 ? "Ring" : "Mesh");
}

INSTANTIATE_TEST_SUITE_P(
    LearnerPins, LearnerPinTest,
    ::testing::Values(
        LearnerPin{gnn::EncoderKind::kGraphSage, 104, 1,
                   0x07aa0f2f9657f68cULL},
        LearnerPin{gnn::EncoderKind::kGraphSage, 4, 6, 0x0f240995e3aa2c7eULL},
        LearnerPin{gnn::EncoderKind::kGcn, 104, 1, 0xfb8791cf62c632edULL},
        LearnerPin{gnn::EncoderKind::kGcn, 4, 6, 0x4ea15b81d60bd2e1ULL},
        LearnerPin{gnn::EncoderKind::kGat, 104, 1, 0xe9ee7d4d15c7aaafULL},
        LearnerPin{gnn::EncoderKind::kGat, 4, 6, 0x7f5ae18c91a1b9a1ULL},
        LearnerPin{gnn::EncoderKind::kNative, 104, 1, 0x2d248ef6aeecd650ULL},
        LearnerPin{gnn::EncoderKind::kNative, 4, 6, 0x3789ff62debac4b3ULL}),
    PinName);

TEST(A2cAgent, ConcurrentLearnersOnTheSharedPoolReproduceTheirPins) {
  // Two learners update at the same time on the one learner pool, as
  // concurrent experiments do; each must still land on its recorded pin.
  LearnerRun sage;
  LearnerRun gcn;
  std::thread a([&sage] {
    sage = RunLearner(gnn::EncoderKind::kGraphSage, ClusterGraph(104, 1));
  });
  std::thread b(
      [&gcn] { gcn = RunLearner(gnn::EncoderKind::kGcn, ClusterGraph(4, 6)); });
  a.join();
  b.join();
  EXPECT_EQ(sage.digest, 0x07aa0f2f9657f68cULL);
  EXPECT_EQ(gcn.digest, 0x4ea15b81d60bd2e1ULL);
}

TEST(A2cAgent, UpdateReusesTheActTimeForward) {
  // On the ring nothing is sampled, so the update must train on the 16
  // act-time forwards and build only the loss and the bootstrap value.
  A2cConfig cfg;
  A2cAgent agent(cfg);
  const auto ring = ClusterGraph(104, 1);
  Rng env(5);
  auto state = [&] {
    GraphState s;
    s.graph.features = nn::Matrix(104, cfg.feature_dim);
    for (int i = 0; i < 104; ++i) {
      for (int f = 0; f < cfg.feature_dim; ++f) {
        s.graph.features.at(i, f) = static_cast<float>(env.NextDouble());
      }
    }
    s.graph.adj = ring;
    return s;
  };
  for (int t = 0; t < 15; ++t) {
    agent.Act(state());
    agent.Observe(0.1f, state(), false);
  }
  agent.Act(state());
  const GraphState next = state();
  const auto before = nn::NodeCount();
  agent.Observe(0.1f, next, false);  // the 16th step runs the update
  const auto added = nn::NodeCount() - before;
  EXPECT_EQ(agent.train_steps(), 1);
  EXPECT_EQ(agent.reuse_hits(), 16);
  EXPECT_EQ(agent.reuse_misses(), 0);
  // Each step's loss: LogSoftmax, GatherCols, Scale, the return Constant,
  // Sub, Mul, Scale, the entropy, its Scale, two Adds, and the Add into the
  // total (one Scale averages at the end). The bootstrap: one GraphSAGE
  // encode (the features, then per layer the neighbour mean, the concat,
  // the Linear's MatMul and Add, the ReLU), the mean pool's Constant and
  // MatMul, and the critic's 4 Linears and 3 ReLUs. A re-run forward adds
  // about 36 nodes per step.
  constexpr int kLossPerStep = 12;
  constexpr int kBootstrap = (1 + 2 * 5) + 2 + (4 * 2 + 3);
  EXPECT_LE(added, 16 * kLossPerStep + 1 + kBootstrap);
}

}  // namespace
}  // namespace tango::rl
