// Tests for the RL agents: action-masking guarantees, the Act/Observe
// protocol, and learning on a trivial "good node" bandit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "nn/autograd.h"
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
  std::int64_t twins = 0;
};

constexpr int kFeatures = 9;  // A2cConfig's default feature_dim
constexpr int kDecisions = 6 * 16 + 5;

/// A state over `adj` with every feature drawn at random and a random
/// context filter (each node valid with probability 3/4).
GraphState RandomState(const std::vector<std::vector<int>>& adj, Rng& env) {
  const int n = static_cast<int>(adj.size());
  GraphState s;
  s.graph.features = nn::Matrix(n, kFeatures);
  for (int i = 0; i < n; ++i) {
    for (int f = 0; f < kFeatures; ++f) {
      s.graph.features.at(i, f) = static_cast<float>(env.NextDouble());
    }
  }
  s.graph.adj = adj;
  s.valid.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    s.valid[static_cast<std::size_t>(i)] = env.NextDouble() > 0.25;
  }
  return s;
}

/// The LearnerPins stream: kDecisions + 1 states over `adj`, each drawn
/// afresh.
std::vector<GraphState> RandomStates(const std::vector<std::vector<int>>& adj) {
  Rng env(2023);
  std::vector<GraphState> states;
  for (int t = 0; t <= kDecisions; ++t) states.push_back(RandomState(adj, env));
  return states;
}

/// Drives the paper-default A2C learner (9 features, 64-wide embedding,
/// n̂ = 16) through kDecisions decisions, decision t acting on states[t]
/// and observing states[t + 1] (the last with done = true), and digests
/// what it did.
LearnerRun RunLearner(gnn::EncoderKind kind,
                      const std::vector<GraphState>& states) {
  A2cConfig cfg;
  cfg.encoder = kind;
  cfg.adam.lr = 1e-3f;
  A2cAgent agent(cfg);
  LearnerRun run;
  for (int t = 0; t < kDecisions; ++t) {
    const GraphState& s = states[static_cast<std::size_t>(t)];
    const int a = agent.Act(s);
    run.digest = Fnv(run.digest, &a, sizeof a);
    const float reward = s.graph.features.at(a, 0) - 0.5f;
    agent.Observe(reward, states[static_cast<std::size_t>(t) + 1],
                  /*done=*/t + 1 == kDecisions);
  }
  for (const auto& p : agent.params().params()) {
    run.digest = Fnv(run.digest, p->value.data(),
                     p->value.size() * sizeof(float));
  }
  run.train_steps = agent.train_steps();
  run.twins = agent.twin_forwards();
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
  const LearnerRun run = RunLearner(
      pin.encoder, RandomStates(ClusterGraph(pin.clusters, pin.per_cluster)));
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
    sage = RunLearner(gnn::EncoderKind::kGraphSage,
                      RandomStates(ClusterGraph(104, 1)));
  });
  std::thread b([&gcn] {
    gcn = RunLearner(gnn::EncoderKind::kGcn, RandomStates(ClusterGraph(4, 6)));
  });
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

// ---- Twin forwards ---------------------------------------------------------
//
// DCG-BE drains the BE queue against one synced view, so most decisions of a
// drain see a state an earlier step of their rollout saw, and copy that
// step's forward (A2cAgent::FindTwin, nn::CloneTape). The pins below were
// recorded from the learner that ran every decision's own forward.

/// The states of a dispatch drain over `adj`: each synced view (random
/// load) serves 1–3 runs of requests, the runs alternating between two
/// services (their demands in features 5–6), each run 1–3 requests long,
/// and every request draws its own context filter. kDecisions + 1 states.
std::vector<GraphState> DrainStates(const std::vector<std::vector<int>>& adj) {
  constexpr float kDemand[2][2] = {{0.125f, 0.0625f}, {0.375f, 0.25f}};
  Rng env(2026);
  const int n = static_cast<int>(adj.size());
  std::vector<GraphState> states;
  int service = 0;
  while (static_cast<int>(states.size()) <= kDecisions) {
    GraphState view = RandomState(adj, env);
    const auto runs = env.UniformInt(1, 3);
    for (std::int64_t r = 0; r < runs; ++r, service ^= 1) {
      for (int i = 0; i < n; ++i) {
        view.graph.features.at(i, 5) = kDemand[service][0];
        view.graph.features.at(i, 6) = kDemand[service][1];
      }
      const auto requests = env.UniformInt(1, 3);
      for (std::int64_t q = 0; q < requests; ++q) {
        for (int i = 0; i < n; ++i) {
          view.valid[static_cast<std::size_t>(i)] = env.NextDouble() > 0.25;
        }
        states.push_back(view);
      }
    }
  }
  states.resize(static_cast<std::size_t>(kDecisions) + 1);
  return states;
}

bool SameBits(const nn::Matrix& a, const nn::Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Decisions of RunLearner over `states` whose features (bitwise) and
/// adjacency equal those of an earlier step of their rollout (n̂ = 16).
int StateTwins(const std::vector<GraphState>& states) {
  int twins = 0;
  for (int t = 0; t < kDecisions; ++t) {
    const GraphState& s = states[static_cast<std::size_t>(t)];
    for (int u = t / 16 * 16; u < t; ++u) {
      const GraphState& earlier = states[static_cast<std::size_t>(u)];
      if (SameBits(earlier.graph.features, s.graph.features) &&
          earlier.graph.adj == s.graph.adj) {
        ++twins;
        break;
      }
    }
  }
  return twins;
}

class TwinPinTest : public ::testing::TestWithParam<LearnerPin> {};

TEST_P(TwinPinTest, ReproducesRecordedDigest) {
  const LearnerPin& pin = GetParam();
  const std::vector<GraphState> states =
      DrainStates(ClusterGraph(pin.clusters, pin.per_cluster));
  const LearnerRun run = RunLearner(pin.encoder, states);
  EXPECT_EQ(run.train_steps, 7);
  EXPECT_EQ(run.digest, pin.digest)
      << gnn::EncoderKindName(pin.encoder) << " on " << pin.clusters << "x"
      << pin.per_cluster << ": got 0x" << std::hex << run.digest;
  // Every decision whose state repeats one of its rollout's copies that
  // forward, unless GraphSAGE samples (the mesh, degrees > p = 3): a twin
  // then needs an equal sample too, and 48 node-layers each drawing 3 of 5
  // or more neighbours never repeat here.
  const int state_twins = StateTwins(states);
  EXPECT_GE(state_twins, 30);
  const bool samples =
      pin.encoder == gnn::EncoderKind::kGraphSage && pin.per_cluster > 1;
  EXPECT_EQ(run.twins, samples ? 0 : state_twins);
}

INSTANTIATE_TEST_SUITE_P(
    LearnerPinsOnADrain, TwinPinTest,
    ::testing::Values(
        LearnerPin{gnn::EncoderKind::kGraphSage, 104, 1,
                   0x91a0db1541a9b11eULL},
        LearnerPin{gnn::EncoderKind::kGraphSage, 4, 6, 0xbbc36a474e3a8de0ULL},
        LearnerPin{gnn::EncoderKind::kGcn, 104, 1, 0xf667542e18e94717ULL}),
    PinName);


// ---- Twin key and tape copy -----------------------------------------------

/// How many of one decision per state of `states` copied a twin's forward
/// (fewer than n̂ = 16 decisions, so no update runs).
std::int64_t TwinsOver(gnn::EncoderKind kind,
                       const std::vector<GraphState>& states) {
  A2cConfig cfg;
  cfg.encoder = kind;
  A2cAgent agent(cfg);
  for (const GraphState& s : states) {
    agent.Act(s);
    agent.Observe(0.1f, s, false);
  }
  return agent.twin_forwards();
}

TEST(A2cAgentTwins, KeyIsTheFeatureBitsTheAdjacencyAndTheSample) {
  constexpr auto kSage = gnn::EncoderKind::kGraphSage;
  constexpr auto kGcn = gnn::EncoderKind::kGcn;
  Rng env(31);
  GraphState s = RandomState(ClusterGraph(104, 1), env);
  s.graph.features.at(7, 3) = 0.0f;
  EXPECT_EQ(TwinsOver(kSage, {s, s}), 1);
  // The context filter is not part of the key: the forward never reads it.
  GraphState refiltered = s;
  refiltered.valid.assign(refiltered.valid.size(), false);
  refiltered.valid[7] = true;
  EXPECT_EQ(TwinsOver(kSage, {s, refiltered}), 1);
  // One feature's sign bit: +0.0 and -0.0 compare equal as floats.
  GraphState negative_zero = s;
  negative_zero.graph.features.at(7, 3) = -0.0f;
  EXPECT_EQ(TwinsOver(kSage, {s, negative_zero}), 0);
  // One more edge; GCN draws no sample, so only the adjacency differs.
  GraphState chord = s;
  chord.graph.adj[0].push_back(52);
  chord.graph.adj[52].push_back(0);
  EXPECT_EQ(TwinsOver(kGcn, {s, s}), 1);
  EXPECT_EQ(TwinsOver(kGcn, {s, chord}), 0);
  // On the mesh GraphSAGE samples 3 of each node's 5 or 7 neighbours per
  // layer, and no two of these draws agree; GCN's copies the same states.
  const GraphState m = RandomState(ClusterGraph(4, 6), env);
  const std::vector<GraphState> replays(8, m);
  EXPECT_EQ(TwinsOver(kSage, replays), 0);
  EXPECT_EQ(TwinsOver(kGcn, replays), 7);
  // A state last seen before an update: the update empties the rollout.
  A2cAgent agent(A2cConfig{});
  for (int t = 0; t < 18; ++t) {
    agent.Act(s);
    agent.Observe(0.1f, s, false);
  }
  EXPECT_EQ(agent.train_steps(), 1);
  EXPECT_EQ(agent.twin_forwards(), 15 + 1);  // decisions 2–16, then 18
}

/// A2cAgent's decision forward from the same parts: the paper-default
/// encoder over a given sample, the actor head on the learner pool, and the
/// critic on the mean-pooled embedding. Returns {logits, value}.
struct PolicyNets {
  nn::ParamStore store;
  std::unique_ptr<gnn::Encoder> encoder;
  nn::Mlp actor;
  nn::Mlp critic;

  PolicyNets() {
    const A2cConfig cfg;
    Rng rng(cfg.seed);
    encoder = gnn::MakeEncoder(cfg.encoder, store, "enc", cfg.feature_dim,
                               cfg.embed_dim, rng);
    actor = nn::Mlp::PaperHead(store, "actor", cfg.embed_dim, 1, rng);
    critic = nn::Mlp::PaperHead(store, "critic", cfg.embed_dim, 1, rng);
  }

  std::vector<nn::Var> Forward(const GraphState& s,
                               const gnn::NeighbourSample& sample) const {
    const nn::Var h = encoder->Forward(s.graph, sample);
    const nn::Var logits = nn::Transpose(actor.Forward(h, &LearnerPool()));
    const int n = h->value.rows();
    const nn::Var pooled = nn::MatMul(
        nn::Constant(nn::Matrix(1, n, 1.0f / static_cast<float>(n))), h);
    return {logits, critic.Forward(pooled)};
  }
};

/// Every node under `roots`, parents first, each once.
std::vector<nn::Var> TapeNodes(const std::vector<nn::Var>& roots) {
  std::vector<nn::Var> order;
  std::vector<const nn::Node*> seen;
  const auto visit = [&](const auto& self, const nn::Var& v) -> void {
    if (std::find(seen.begin(), seen.end(), v.get()) != seen.end()) return;
    seen.push_back(v.get());
    for (const nn::Var& p : v->parents) self(self, p);
    order.push_back(v);
  };
  for (const nn::Var& r : roots) visit(visit, r);
  return order;
}

TEST(A2cAgentTwins, CopyIsAFreshForwardBitForBit) {
  const PolicyNets nets;
  Rng env(41);
  for (const auto& [clusters, per_cluster] : {std::pair{104, 1}, {4, 6}}) {
    const std::string what = std::to_string(clusters) + "x" +
                             std::to_string(per_cluster);
    const GraphState s = RandomState(ClusterGraph(clusters, per_cluster), env);
    const gnn::NeighbourSample sample = nets.encoder->Sample(s.graph, env);
    const auto n0 = nn::NodeCount();
    const std::vector<nn::Var> twin = nets.Forward(s, sample);
    const auto n1 = nn::NodeCount();
    const std::vector<nn::Var> copy = nn::CloneTape(twin);
    const auto n2 = nn::NodeCount();
    const std::vector<nn::Var> fresh = nets.Forward(s, sample);
    EXPECT_EQ(n2 - n1, n1 - n0) << what;
    const std::vector<nn::Var> twin_tape = TapeNodes(twin);
    const std::vector<nn::Var> copy_tape = TapeNodes(copy);
    const std::vector<nn::Var> fresh_tape = TapeNodes(fresh);
    ASSERT_EQ(copy_tape.size(), fresh_tape.size()) << what;
    ASSERT_EQ(copy_tape.size(), twin_tape.size()) << what;
    for (std::size_t i = 0; i < copy_tape.size(); ++i) {
      const nn::Node& c = *copy_tape[i];
      const std::string node = what + " node " + std::to_string(i);
      EXPECT_EQ(c.op, fresh_tape[i]->op) << node;
      EXPECT_EQ(c.requires_grad, fresh_tape[i]->requires_grad) << node;
      EXPECT_EQ(c.parents.size(), fresh_tape[i]->parents.size()) << node;
      EXPECT_TRUE(SameBits(c.value, fresh_tape[i]->value)) << node;
      EXPECT_TRUE(c.grad.size() == 0) << node;
      // Leaves (parameters and constants) are shared; no other node is.
      const bool shared = std::find(twin_tape.begin(), twin_tape.end(),
                                    copy_tape[i]) != twin_tape.end();
      EXPECT_EQ(shared, c.parents.empty()) << node;
      if (c.parents.empty()) {
        EXPECT_EQ(copy_tape[i], twin_tape[i]) << node;
      }
    }
    // The roots: the copies of the logits and the value, in order.
    ASSERT_EQ(copy.size(), 2u) << what;
    EXPECT_TRUE(SameBits(copy[0]->value, fresh[0]->value)) << what;
    EXPECT_TRUE(SameBits(copy[1]->value, fresh[1]->value)) << what;
    EXPECT_NE(copy[0], twin[0]) << what;
    EXPECT_NE(copy[1], twin[1]) << what;
  }
}

/// Train()'s loss over the first n̂ = 16 drain states on the ring, every
/// step's forward run afresh or, with `copy_twins`, copied from its newest
/// twin as Act() does; the FNV-1a digest of the parameter gradients that
/// BackwardSteps on the learner pool (`split`) or one Backward leaves.
std::uint64_t RolloutGradDigest(bool copy_twins, bool split, int* copies) {
  const PolicyNets nets;
  const std::vector<GraphState> states = DrainStates(ClusterGraph(104, 1));
  Rng rng(3);
  std::vector<std::vector<nn::Var>> forwards;
  nn::Var total;
  std::vector<nn::Var> losses;
  *copies = 0;
  for (int t = 0; t < 16; ++t) {
    const GraphState& s = states[static_cast<std::size_t>(t)];
    int twin = -1;
    for (int u = t - 1; copy_twins && twin < 0 && u >= 0; --u) {
      const GraphState& earlier = states[static_cast<std::size_t>(u)];
      if (SameBits(earlier.graph.features, s.graph.features)) twin = u;
    }
    if (twin >= 0) {
      forwards.push_back(
          nn::CloneTape(forwards[static_cast<std::size_t>(twin)]));
      ++*copies;
    } else {
      forwards.push_back(nets.Forward(s, nets.encoder->Sample(s.graph, rng)));
    }
    const nn::Var& logits = forwards.back()[0];
    const nn::Var& value = forwards.back()[1];
    const int n = s.graph.num_nodes();
    const nn::Matrix mask = MaskRow(s.valid, n);
    int action = (5 * t) % n;
    while (mask.at(0, action) == 0.0f) action = (action + 1) % n;
    const float ret = 0.25f * static_cast<float>(t % 4);
    const nn::Var pg = nn::Scale(
        nn::GatherCols(nn::LogSoftmax(logits, &mask), {action}),
        -(ret - nn::ScalarValue(value)));
    const nn::Var diff = nn::Sub(value, nn::Constant(nn::Matrix(1, 1, ret)));
    const nn::Var vloss = nn::Scale(nn::Mul(diff, diff), 0.5f);
    const nn::Var ent =
        nn::Scale(nn::EntropyOfSoftmax(logits, &mask), -0.01f);
    nn::Var loss = nn::Add(nn::Add(pg, vloss), ent);
    total = total ? nn::Add(total, loss) : loss;
    losses.push_back(std::move(loss));
  }
  total = nn::Scale(total, 1.0f / 16.0f);
  if (split) {
    nn::BackwardSteps(total, losses, LearnerPool());
  } else {
    nn::Backward(total);
  }
  std::uint64_t digest = kFnvOffset;
  for (const auto& p : nets.store.params()) {
    digest = Fnv(digest, p->grad.data(), p->grad.size() * sizeof(float));
  }
  return digest;
}

TEST(A2cAgentTwins, BackwardStepsOverCopiesIsBackwardOverFreshForwards) {
  int copies = 0;
  int none = 0;
  const std::uint64_t want = RolloutGradDigest(false, false, &none);
  EXPECT_EQ(RolloutGradDigest(true, true, &copies), want);
  EXPECT_EQ(RolloutGradDigest(true, false, &copies), want);
  EXPECT_EQ(none, 0);
  EXPECT_GE(copies, 5);
}

TEST(A2cAgentTwins, BootstrapTwinAddsNoEncoderNodes) {
  // The nodes of an update whose bootstrap state is, or is not, a twin of
  // a rollout step: the twin's critic value stands in for the bootstrap's
  // encode, mean pool and critic.
  const auto update_nodes = [](bool twin) {
    A2cAgent agent(A2cConfig{});
    Rng env(5);
    std::vector<GraphState> states;
    for (int t = 0; t < 17; ++t) {
      states.push_back(RandomState(ClusterGraph(104, 1), env));
    }
    for (int t = 0; t < 15; ++t) {
      agent.Act(states[static_cast<std::size_t>(t)]);
      agent.Observe(0.1f, states[static_cast<std::size_t>(t) + 1], false);
    }
    agent.Act(states[15]);
    const auto before = nn::NodeCount();
    agent.Observe(0.1f, states[twin ? 3 : 16], false);
    const auto added = nn::NodeCount() - before;
    EXPECT_EQ(agent.train_steps(), 1);
    EXPECT_EQ(agent.twin_forwards(), 0);
    EXPECT_EQ(agent.reuse_hits(), 16);
    return added;
  };
  // Per step the 11 loss nodes UpdateReusesTheActTimeForward lists, 15
  // Adds chaining the steps and one Scale; the bootstrap's GraphSAGE encode
  // (1 + 2 × 5), mean pool (2) and critic (4 × 2 + 3).
  constexpr int kLoss = 16 * 11 + 15 + 1;
  constexpr int kBootstrap = (1 + 2 * 5) + 2 + (4 * 2 + 3);
  EXPECT_EQ(update_nodes(true), kLoss);
  EXPECT_EQ(update_nodes(false), kLoss + kBootstrap);
}

}  // namespace
}  // namespace tango::rl
