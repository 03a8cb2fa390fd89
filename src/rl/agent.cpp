#include "rl/agent.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "nn/gemm.h"

namespace tango::rl {

ThreadPool& LearnerPool() {
  static ThreadPool pool;  // hardware concurrency − 1 threads + the caller
  return pool;
}

using nn::Matrix;
using nn::Var;

nn::Matrix MaskRow(const std::vector<bool>& valid, int n) {
  Matrix m(1, n, 1.0f);
  if (!valid.empty()) {
    TANGO_CHECK(static_cast<int>(valid.size()) == n, "mask size mismatch");
    bool any = false;
    for (int i = 0; i < n; ++i) {
      m.at(0, i) = valid[static_cast<std::size_t>(i)] ? 1.0f : 0.0f;
      any = any || valid[static_cast<std::size_t>(i)];
    }
    // A fully-masked state would make the softmax degenerate; fall back to
    // all-valid (the dispatcher re-queues requests that land badly anyway).
    if (!any) m.Fill(1.0f);
  }
  return m;
}

namespace {

/// Mean-pool node embeddings into a single 1×D row.
Var MeanPool(const Var& h) {
  const int n = h->value.rows();
  Matrix pool(1, n, 1.0f / static_cast<float>(n));
  return nn::MatMul(nn::Constant(std::move(pool)), h);
}

int SampleRow(const Matrix& probs, Rng& rng, bool greedy) {
  const int n = probs.cols();
  if (greedy) {
    int best = 0;
    for (int i = 1; i < n; ++i) {
      if (probs.at(0, i) > probs.at(0, best)) best = i;
    }
    return best;
  }
  double u = rng.NextDouble();
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    acc += static_cast<double>(probs.at(0, i));
    if (u < acc) return i;
  }
  // Numerical fallback: last valid entry.
  for (int i = n - 1; i >= 0; --i) {
    if (probs.at(0, i) > 0.0f) return i;
  }
  return 0;
}

}  // namespace

// ---------------------------------------------------------------- A2C ----

A2cAgent::A2cAgent(const A2cConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
  encoder_ = gnn::MakeEncoder(cfg.encoder, store_, "enc", cfg.feature_dim,
                              cfg.embed_dim, rng_);
  actor_ = nn::Mlp::PaperHead(store_, "actor", cfg.embed_dim, 1, rng_);
  critic_ = nn::Mlp::PaperHead(store_, "critic", cfg.embed_dim, 1, rng_);
  opt_ = std::make_unique<nn::Adam>(store_, cfg.adam);
}

std::string A2cAgent::name() const {
  return std::string(gnn::EncoderKindName(cfg_.encoder)) + "-A2C";
}

Var A2cAgent::PolicyLogits(const GraphState& s,
                           const gnn::NeighbourSample& sample,
                           Var* value_out) {
  const Var h = encoder_->Forward(s.graph, sample);
  const Var scores = actor_.Forward(h, &LearnerPool());  // N×1
  const Var logits = nn::Transpose(scores);              // 1×N
  *value_out = critic_.Forward(MeanPool(h));             // 1×1
  return logits;
}

const A2cAgent::Step* A2cAgent::FindTwin(
    const GraphState& s, const gnn::NeighbourSample& sample) const {
  // The context filter c_t is not part of the key: the forward never
  // reads it. The features compare by bits, so -0.0 and +0.0 differ.
  const Matrix& f = s.graph.features;
  for (auto it = rollout_.rbegin(); it != rollout_.rend(); ++it) {
    const Matrix& g = it->state.graph.features;
    if (g.SameShape(f) &&
        std::memcmp(g.data(), f.data(), f.size() * sizeof(float)) == 0 &&
        it->sample == sample && it->state.graph.adj == s.graph.adj) {
      return &*it;
    }
  }
  return nullptr;
}

int A2cAgent::Act(const GraphState& state, bool greedy) {
  const int n = state.graph.num_nodes();
  TANGO_CHECK(n > 0, "empty graph state");
  const Matrix mask = MaskRow(state.valid, n);
  Step step;
  step.state = state;
  step.sample = encoder_->Sample(step.state.graph, rng_);
  if (const Step* twin = FindTwin(step.state, step.sample)) {
    const std::vector<Var> copy = nn::CloneTape({twin->logits, twin->value});
    step.logits = copy[0];
    step.value = copy[1];
    ++twin_forwards_;
  } else {
    step.logits = PolicyLogits(step.state, step.sample, &step.value);
  }
  step.action =
      SampleRow(nn::SoftmaxProbs(step.logits->value, &mask), rng_, greedy);
  pending_ = std::move(step);
  return pending_->action;
}

void A2cAgent::Observe(float reward, const GraphState& next_state, bool done) {
  TANGO_CHECK(pending_.has_value(), "Observe without Act");
  pending_->reward = reward;
  rollout_.push_back(std::move(*pending_));
  pending_.reset();
  if (done || static_cast<int>(rollout_.size()) >= cfg_.train_interval) {
    Train(next_state, done);
    rollout_.clear();
  }
}

void A2cAgent::Train(const GraphState& bootstrap_state, bool done) {
  if (rollout_.empty()) return;
  // Bootstrap value of the state following the last stored step; only the
  // critic reads it, and a twin in the rollout has already computed it.
  float boot = 0.0f;
  if (!done && bootstrap_state.graph.num_nodes() > 0) {
    const gnn::NeighbourSample sample =
        encoder_->Sample(bootstrap_state.graph, rng_);
    if (const Step* twin = FindTwin(bootstrap_state, sample)) {
      boot = nn::ScalarValue(twin->value);
    } else {
      const Var h = encoder_->Forward(bootstrap_state.graph, sample);
      boot = nn::ScalarValue(critic_.Forward(MeanPool(h)));
    }
  }
  // Discounted returns, newest-to-oldest.
  std::vector<float> returns(rollout_.size());
  float r = boot;
  for (int i = static_cast<int>(rollout_.size()) - 1; i >= 0; --i) {
    r = rollout_[static_cast<std::size_t>(i)].reward + cfg_.gamma * r;
    returns[static_cast<std::size_t>(i)] = r;
  }

  Var total_loss;
  std::vector<Var> step_losses;
  step_losses.reserve(rollout_.size());
  for (std::size_t i = 0; i < rollout_.size(); ++i) {
    Step& step = rollout_[i];
    const int n = step.state.graph.num_nodes();
    const Matrix mask = MaskRow(step.state.valid, n);
    // Draw this step's sample where a re-run forward would draw it, so the
    // RNG stream is unchanged; the act-time forward stands in for the
    // re-run exactly when the samples agree.
    const gnn::NeighbourSample sample =
        encoder_->Sample(step.state.graph, rng_);
    if (sample == step.sample) {
      ++reuse_hits_;
    } else {
      ++reuse_misses_;
      step.logits = PolicyLogits(step.state, sample, &step.value);
    }
    const Var& logits = step.logits;
    const Var& value = step.value;
    const Var logp = nn::LogSoftmax(logits, &mask);
    const Var logp_a = nn::GatherCols(logp, {step.action});  // 1×1
    const float advantage = returns[i] - nn::ScalarValue(value);
    // Policy gradient with the advantage detached (standard A2C).
    const Var pg = nn::Scale(logp_a, -advantage);
    // Critic regression toward the return.
    Matrix target(1, 1);
    target.at(0, 0) = returns[i];
    const Var diff = nn::Sub(value, nn::Constant(std::move(target)));
    const Var vloss = nn::Scale(nn::Mul(diff, diff), cfg_.value_coef);
    // Entropy bonus keeps exploration alive.
    const Var ent = nn::Scale(nn::EntropyOfSoftmax(logits, &mask),
                              -cfg_.entropy_coef);
    Var loss = nn::Add(nn::Add(pg, vloss), ent);
    total_loss = total_loss ? nn::Add(total_loss, loss) : loss;
    step_losses.push_back(std::move(loss));
  }
  total_loss = nn::Scale(total_loss,
                         1.0f / static_cast<float>(rollout_.size()));
  // The steps share only the parameters, so each one's backward runs as a
  // task on the learner pool, bit for bit Backward(total_loss).
  ThreadPool& pool = LearnerPool();
  nn::BackwardSteps(total_loss, step_losses, pool);
  opt_->Step(&pool);
  ++train_steps_;
}

// ---------------------------------------------------------------- SAC ----

Var SacAgent::Nets::Q1(const GraphState& s, Rng& rng) {
  return nn::Transpose(q1.Forward(encoder->Encode(s.graph, rng)));
}
Var SacAgent::Nets::Q2(const GraphState& s, Rng& rng) {
  return nn::Transpose(q2.Forward(encoder->Encode(s.graph, rng)));
}

std::unique_ptr<SacAgent::Nets> SacAgent::MakeNets(const SacConfig& cfg,
                                                   const std::string& prefix,
                                                   Rng& rng) {
  auto nets = std::make_unique<Nets>();
  nets->encoder = gnn::MakeEncoder(cfg.encoder, nets->store, prefix + ".enc",
                                   cfg.feature_dim, cfg.embed_dim, rng);
  nets->q1 = nn::Mlp::PaperHead(nets->store, prefix + ".q1", cfg.embed_dim, 1,
                                rng);
  nets->q2 = nn::Mlp::PaperHead(nets->store, prefix + ".q2", cfg.embed_dim, 1,
                                rng);
  return nets;
}

SacAgent::SacAgent(const SacConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
  policy_encoder_ = gnn::MakeEncoder(cfg.encoder, policy_store_, "pi.enc",
                                     cfg.feature_dim, cfg.embed_dim, rng_);
  policy_head_ =
      nn::Mlp::PaperHead(policy_store_, "pi.head", cfg.embed_dim, 1, rng_);
  policy_opt_ = std::make_unique<nn::Adam>(policy_store_, cfg.adam);
  // Seed both Q copies identically so the target starts in sync.
  Rng q_rng(cfg.seed + 1);
  Rng q_rng_copy = q_rng;
  online_ = MakeNets(cfg, "on", q_rng);
  target_ = MakeNets(cfg, "tg", q_rng_copy);
  nn::CopyParams(online_->store, target_->store);
  q_opt_ = std::make_unique<nn::Adam>(online_->store, cfg.adam);
}

std::string SacAgent::name() const {
  return std::string(gnn::EncoderKindName(cfg_.encoder)) + "-SAC";
}

Var SacAgent::PolicyLogits(const GraphState& s) {
  const Var h = policy_encoder_->Encode(s.graph, rng_);
  return nn::Transpose(policy_head_.Forward(h));
}

int SacAgent::Act(const GraphState& state, bool greedy) {
  const int n = state.graph.num_nodes();
  TANGO_CHECK(n > 0, "empty graph state");
  const Matrix mask = MaskRow(state.valid, n);
  const Var probs = nn::Softmax(PolicyLogits(state), &mask);
  const int action = SampleRow(probs->value, rng_, greedy);
  pending_state_ = state;
  pending_action_ = action;
  return action;
}

void SacAgent::Observe(float reward, const GraphState& next_state, bool done) {
  TANGO_CHECK(pending_state_.has_value(), "Observe without Act");
  replay_.push_back({std::move(*pending_state_), pending_action_, reward,
                     next_state, done});
  pending_state_.reset();
  if (static_cast<int>(replay_.size()) > cfg_.replay_capacity) {
    replay_.pop_front();
  }
  ++act_count_;
  if (act_count_ % cfg_.train_every == 0 &&
      static_cast<int>(replay_.size()) >= cfg_.batch_size) {
    Train();
  }
}

void SacAgent::Train() {
  // Sample a minibatch uniformly.
  std::vector<const Transition*> batch;
  batch.reserve(static_cast<std::size_t>(cfg_.batch_size));
  for (int i = 0; i < cfg_.batch_size; ++i) {
    const auto idx = static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(replay_.size()) - 1));
    batch.push_back(&replay_[idx]);
  }

  // ---- Q update.
  Var q_loss;
  for (const Transition* tr : batch) {
    // Target: r + γ Σ_a π(a|s') (min Q_t(s',a) − α log π(a|s')).
    float target = tr->reward;
    if (!tr->done && tr->next.graph.num_nodes() > 0) {
      const int n2 = tr->next.graph.num_nodes();
      const Matrix mask2 = MaskRow(tr->next.valid, n2);
      const Var logits2 = PolicyLogits(tr->next);
      const Var probs2 = nn::Softmax(logits2, &mask2);
      const Var q1t = target_->Q1(tr->next, rng_);
      const Var q2t = target_->Q2(tr->next, rng_);
      float soft_v = 0.0f;
      for (int a = 0; a < n2; ++a) {
        const float p = probs2->value.at(0, a);
        if (p <= 0.0f) continue;
        const float qmin =
            std::min(q1t->value.at(0, a), q2t->value.at(0, a));
        soft_v += p * (qmin - cfg_.alpha * std::log(p));
      }
      target += cfg_.gamma * soft_v;
    }
    Matrix tmat(1, 1);
    tmat.at(0, 0) = target;
    const Var tvar = nn::Constant(std::move(tmat));
    const Var q1 = nn::GatherCols(online_->Q1(tr->state, rng_), {tr->action});
    const Var q2 = nn::GatherCols(online_->Q2(tr->state, rng_), {tr->action});
    const Var d1 = nn::Sub(q1, tvar);
    const Var d2 = nn::Sub(q2, tvar);
    const Var l = nn::Add(nn::Mul(d1, d1), nn::Mul(d2, d2));
    q_loss = q_loss ? nn::Add(q_loss, l) : l;
  }
  q_loss = nn::Scale(q_loss, 1.0f / static_cast<float>(cfg_.batch_size));
  nn::Backward(q_loss);
  q_opt_->Step();

  // ---- Policy update: minimize Σ_a π(a|s)(α log π − min Q).
  Var pi_loss;
  for (const Transition* tr : batch) {
    const int n = tr->state.graph.num_nodes();
    const Matrix mask = MaskRow(tr->state.valid, n);
    const Var logits = PolicyLogits(tr->state);
    const Var probs = nn::Softmax(logits, &mask);
    const Var logp = nn::LogSoftmax(logits, &mask);
    const Var q1 = online_->Q1(tr->state, rng_);
    const Var q2 = online_->Q2(tr->state, rng_);
    // min Q, detached (Q params are updated by q_opt_, not the policy step).
    Matrix qmin(1, n);
    for (int a = 0; a < n; ++a) {
      qmin.at(0, a) = std::min(q1->value.at(0, a), q2->value.at(0, a));
    }
    const Var inner = nn::Sub(nn::Scale(logp, cfg_.alpha),
                              nn::Constant(std::move(qmin)));
    const Var weighted = nn::Mul(probs, inner);
    const Var l = nn::Sum(weighted);
    pi_loss = pi_loss ? nn::Add(pi_loss, l) : l;
  }
  pi_loss = nn::Scale(pi_loss, 1.0f / static_cast<float>(cfg_.batch_size));
  nn::Backward(pi_loss);
  policy_opt_->Step();

  nn::SoftUpdateParams(online_->store, target_->store, cfg_.tau);
  ++train_steps_;
}

}  // namespace tango::rl
