// Reinforcement-learning agents for centralized BE scheduling (§5.3).
//
// Both agents act over a graph state: an encoder (GraphSAGE by default)
// embeds the topology; per-node logits are produced by the paper's 3-layer
// ReLU head; invalid nodes are removed by the policy context filter c_t
// (masked softmax). A2cAgent implements the paper's DCG-BE learner
// (advantage actor-critic, Adam lr 2e-4); SacAgent implements the GNN-SAC
// baseline of Figure 11(c) (discrete soft actor-critic with twin Q networks
// and Polyak-averaged targets).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "gnn/encoder.h"
#include "nn/adam.h"

namespace tango {
class ThreadPool;
}  // namespace tango

namespace tango::rl {

/// The process-wide pool every A2C decision forward and update runs on:
/// hardware concurrency − 1 threads plus the calling learner, created at the
/// first decision (so a run's setup never pays for it). Concurrent learners
/// share it; each result is the same whichever threads run it.
ThreadPool& LearnerPool();

/// A state observation: the global graph G' plus the validity mask c_t.
struct GraphState {
  gnn::GraphBatch graph;
  std::vector<bool> valid;  // c_t per node; empty = all valid
};

/// Common interface so the BE dispatcher can swap learners.
class Agent {
 public:
  virtual ~Agent() = default;
  /// Choose an action (node index). `greedy` disables exploration.
  virtual int Act(const GraphState& state, bool greedy = false) = 0;
  /// Report the transition outcome for the previous Act call.
  virtual void Observe(float reward, const GraphState& next_state,
                       bool done) = 0;
  virtual std::string name() const = 0;
  virtual std::int64_t train_steps() const = 0;
};

struct A2cConfig {
  int feature_dim = 9;
  int embed_dim = 64;
  gnn::EncoderKind encoder = gnn::EncoderKind::kGraphSage;
  float gamma = 0.95f;
  float entropy_coef = 0.01f;
  float value_coef = 0.5f;
  /// n̂ — actions between two training intervals (§5.3.1 reward definition).
  int train_interval = 16;
  nn::AdamConfig adam{};  // lr 2e-4 per the paper
  std::uint64_t seed = 7;
};

/// Act() runs the taped forward, the actor head in row bands on
/// LearnerPool() (nn::Mlp::Forward), and keeps it as the step's training
/// record; Train() builds the A2C loss on those records and runs one
/// backward, split at the per-step losses over LearnerPool()
/// (nn::BackwardSteps), then Adam on the same pool. The update draws each
/// step's neighbour sample from the RNG exactly where a re-run forward
/// would, and reuses the act-time forward when that sample equals the
/// act-time one (always, unless GraphSAGE samples a node of degree > p);
/// otherwise it rebuilds the step's forward on the new sample. Either way
/// the parameters and actions are bit-identical to re-running every forward
/// at update time and to one serial Backward.
///
/// A forward reads only the parameters, the features, the adjacency and
/// the neighbour sample, and the parameters change only in Train(), after
/// which the rollout is emptied. So a decision, or the update's bootstrap
/// value, whose features (bit for bit), adjacency and sample equal those
/// of an earlier step of the rollout takes that twin's forward: a copy of
/// its tape (nn::CloneTape) for a decision, its critic value for the
/// bootstrap. The sample is still drawn first, so the RNG stream, the
/// actions and the parameters stay those of a forward per decision.
class A2cAgent : public Agent {
 public:
  explicit A2cAgent(const A2cConfig& cfg);

  int Act(const GraphState& state, bool greedy = false) override;
  void Observe(float reward, const GraphState& next_state, bool done) override;
  std::string name() const override;
  std::int64_t train_steps() const override { return train_steps_; }

  const nn::ParamStore& params() const { return store_; }

  /// Rollout steps whose act-time forward the update reused, and steps it
  /// re-ran because the update's neighbour sample differed.
  std::int64_t reuse_hits() const { return reuse_hits_; }
  std::int64_t reuse_misses() const { return reuse_misses_; }
  /// Decisions that copied a twin's forward instead of running their own.
  std::int64_t twin_forwards() const { return twin_forwards_; }

 private:
  struct Step {
    GraphState state;
    gnn::NeighbourSample sample;
    nn::Var logits;  // 1×N actor logits
    nn::Var value;   // 1×1 critic value
    int action = -1;
    float reward = 0.0f;
  };

  /// Logits (1×N) and critic value of `s` encoded over `sample`.
  nn::Var PolicyLogits(const GraphState& s,
                       const gnn::NeighbourSample& sample,
                       nn::Var* value_out);
  /// The newest rollout step whose forward a forward of `s` over `sample`
  /// would repeat bit for bit, or null.
  const Step* FindTwin(const GraphState& s,
                       const gnn::NeighbourSample& sample) const;
  void Train(const GraphState& bootstrap_state, bool done);

  A2cConfig cfg_;
  Rng rng_;
  nn::ParamStore store_;
  std::unique_ptr<gnn::Encoder> encoder_;
  nn::Mlp actor_;
  nn::Mlp critic_;
  std::unique_ptr<nn::Adam> opt_;
  std::vector<Step> rollout_;
  std::optional<Step> pending_;
  std::int64_t train_steps_ = 0;
  std::int64_t reuse_hits_ = 0;
  std::int64_t reuse_misses_ = 0;
  std::int64_t twin_forwards_ = 0;
};

struct SacConfig {
  int feature_dim = 9;
  int embed_dim = 64;
  gnn::EncoderKind encoder = gnn::EncoderKind::kGraphSage;
  float gamma = 0.95f;
  float alpha = 0.05f;  // entropy temperature (fixed)
  float tau = 0.02f;    // target Polyak rate
  int batch_size = 8;
  int replay_capacity = 512;
  int train_every = 16;
  nn::AdamConfig adam{};
  std::uint64_t seed = 11;
};

class SacAgent : public Agent {
 public:
  explicit SacAgent(const SacConfig& cfg);

  int Act(const GraphState& state, bool greedy = false) override;
  void Observe(float reward, const GraphState& next_state, bool done) override;
  std::string name() const override;
  std::int64_t train_steps() const override { return train_steps_; }

 private:
  struct Transition {
    GraphState state;
    int action;
    float reward;
    GraphState next;
    bool done;
  };

  /// Networks bundled so the online and target copies share structure.
  struct Nets {
    nn::ParamStore store;
    std::unique_ptr<gnn::Encoder> encoder;
    nn::Mlp q1, q2;
    nn::Var Q1(const GraphState& s, Rng& rng);
    nn::Var Q2(const GraphState& s, Rng& rng);
  };

  nn::Var PolicyLogits(const GraphState& s);
  void Train();
  static std::unique_ptr<Nets> MakeNets(const SacConfig& cfg,
                                        const std::string& prefix, Rng& rng);

  SacConfig cfg_;
  Rng rng_;
  nn::ParamStore policy_store_;
  std::unique_ptr<gnn::Encoder> policy_encoder_;
  nn::Mlp policy_head_;
  std::unique_ptr<nn::Adam> policy_opt_;
  std::unique_ptr<Nets> online_;
  std::unique_ptr<Nets> target_;
  std::unique_ptr<nn::Adam> q_opt_;
  std::deque<Transition> replay_;
  std::optional<GraphState> pending_state_;
  int pending_action_ = -1;
  std::int64_t act_count_ = 0;
  std::int64_t train_steps_ = 0;
};

/// Convert a validity vector into a 1×N mask matrix (all-ones when empty).
nn::Matrix MaskRow(const std::vector<bool>& valid, int n);

}  // namespace tango::rl
