#include "sched/learned_be.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace tango::sched {

using metrics::NodeSnapshot;
using metrics::StateStorage;

LearnedBeScheduler::LearnedBeScheduler(const workload::ServiceCatalog* catalog,
                                       std::unique_ptr<rl::Agent> agent,
                                       LearnedBeConfig cfg)
    : catalog_(catalog), agent_(std::move(agent)), cfg_(cfg) {
  TANGO_CHECK(catalog_ != nullptr && agent_ != nullptr,
              "learned scheduler wiring incomplete");
}

rl::GraphState LearnedBeScheduler::BuildState(
    const k8s::PendingRequest& pending, const StateStorage& storage) {
  const auto& svc = catalog_->Get(pending.request.service);
  workers_.clear();
  int lo = std::numeric_limits<int>::max();
  int hi = std::numeric_limits<int>::min();
  for (const auto& s : storage.All()) {
    if (s.is_master) continue;
    workers_.push_back(s);
    lo = std::min(lo, s.cluster.value);
    hi = std::max(hi, s.cluster.value);
  }
  const std::size_t num_slots =
      workers_.empty() ? 0 : static_cast<std::size_t>(hi - lo) + 1;
  if (slots_.size() < num_slots) slots_.resize(num_slots);
  for (std::size_t c = 0; c < num_slots; ++c) {
    slots_[c].rep = nullptr;
    slots_[c].slack_sum = 0.0;
    slots_[c].count = 0;
    slots_[c].members.clear();
  }
  auto slot_of = [this, lo](const NodeSnapshot& s) -> ClusterSlot& {
    return slots_[static_cast<std::size_t>(s.cluster.value - lo)];
  };

  const std::vector<NodeSnapshot>* nodes = &workers_;
  if (cfg_.granularity == BeGranularity::kCluster) {
    // Collapse each cluster into one pseudo-node: resources are summed, the
    // representative NodeId is the least-loaded worker that fits the
    // request (what the dispatcher would pick after choosing the cluster).
    for (const auto& s : workers_) {
      ClusterSlot& slot = slot_of(s);
      if (slot.count == 0) {
        slot.agg = s;
      } else {
        slot.agg.cpu_total += s.cpu_total;
        slot.agg.cpu_available += s.cpu_available;
        slot.agg.mem_total += s.mem_total;
        slot.agg.mem_available += s.mem_available;
        slot.agg.queued += s.queued;
        slot.agg.running_be += s.running_be;
        slot.agg.running_lc += s.running_lc;
      }
      slot.slack_sum += s.slack_score;
      slot.count += 1;
      const bool fits = s.cpu_available >= svc.cpu_demand &&
                        s.mem_available >= svc.mem_demand;
      if (fits &&
          (slot.rep == nullptr || s.cpu_available > slot.rep->cpu_available)) {
        slot.rep = &s;
      }
    }
    clusters_.clear();
    for (std::size_t c = 0; c < num_slots; ++c) {
      const ClusterSlot& slot = slots_[c];
      if (slot.count == 0) continue;
      NodeSnapshot snap = slot.agg;
      snap.slack_score = slot.slack_sum / slot.count;
      // The pseudo-node's id routes to the representative worker; fall back
      // to the first worker when nothing fits (request will queue there).
      if (slot.rep != nullptr) snap.node = slot.rep->node;
      clusters_.push_back(snap);
    }
    nodes = &clusters_;
  }
  const std::vector<NodeSnapshot>& workers = *nodes;
  const int n = static_cast<int>(workers.size());
  rl::GraphState state;
  node_order_.clear();
  if (n == 0) return state;

  // ---- Node features (§5.3.1's state T, normalized to ~[0,1]).
  nn::Matrix f(n, 9);
  for (int i = 0; i < n; ++i) {
    const auto& s = workers[static_cast<std::size_t>(i)];
    const auto cpu_total = static_cast<float>(std::max<Millicores>(1, s.cpu_total));
    const auto mem_total = static_cast<float>(std::max<MiB>(1, s.mem_total));
    f.at(i, 0) = static_cast<float>(s.cpu_available) / cpu_total;
    f.at(i, 1) = static_cast<float>(s.mem_available) / mem_total;
    f.at(i, 2) = cpu_total / 16000.0f;  // r^{c,total} (16 cores ≈ 1.0)
    f.at(i, 3) = mem_total / 32768.0f;  // r^{m,total} (32 GiB ≈ 1.0)
    f.at(i, 4) = static_cast<float>(s.slack_score);
    f.at(i, 5) = static_cast<float>(svc.cpu_demand) / cpu_total;
    f.at(i, 6) = static_cast<float>(svc.mem_demand) / mem_total;
    f.at(i, 7) = static_cast<float>(s.queued) / 16.0f;
    f.at(i, 8) = static_cast<float>(s.running_be) / 16.0f;
    node_order_.push_back(s.node);
  }
  state.graph.features = std::move(f);

  // ---- Adjacency: full mesh inside a cluster (LAN) plus a bounded number
  // of inter-cluster links so the GNN can see remote load.
  for (int i = 0; i < n; ++i) {
    slot_of(workers[static_cast<std::size_t>(i)]).members.push_back(i);
  }
  ring_.clear();
  for (std::size_t c = 0; c < num_slots; ++c) {
    if (!slots_[c].members.empty()) ring_.push_back(&slots_[c].members);
  }
  state.graph.adj.assign(static_cast<std::size_t>(n), {});
  for (const std::vector<int>* members_ptr : ring_) {
    const std::vector<int>& members = *members_ptr;
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        state.graph.adj[static_cast<std::size_t>(members[a])].push_back(
            members[b]);
        state.graph.adj[static_cast<std::size_t>(members[b])].push_back(
            members[a]);
      }
    }
  }
  // Ring of clusters (by id) with `inter_cluster_links` bridges each.
  const int c = static_cast<int>(ring_.size());
  for (int ci = 0; ci + 1 < c + (c > 2 ? 1 : 0); ++ci) {
    const auto& a = *ring_[static_cast<std::size_t>(ci % c)];
    const auto& b = *ring_[static_cast<std::size_t>((ci + 1) % c)];
    const int links = std::min<int>(
        cfg_.inter_cluster_links,
        static_cast<int>(std::min(a.size(), b.size())));
    for (int l = 0; l < links; ++l) {
      const int u = a[static_cast<std::size_t>(l) % a.size()];
      const int v = b[static_cast<std::size_t>(l) % b.size()];
      state.graph.adj[static_cast<std::size_t>(u)].push_back(v);
      state.graph.adj[static_cast<std::size_t>(v)].push_back(u);
    }
  }

  // ---- Policy context filter c_t: a node is valid iff its available
  // resources satisfy the request (§5.3.2).
  state.valid.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& s = workers[static_cast<std::size_t>(i)];
    state.valid[static_cast<std::size_t>(i)] =
        s.cpu_available >= svc.cpu_demand && s.mem_available >= svc.mem_demand;
  }
  return state;
}

float LearnedBeScheduler::ShortReward(const NodeSnapshot& target,
                                      const workload::ServiceSpec& svc) const {
  // Approximate Σ_{q∈Q_t,i} r_q / r_i with the committed fraction of the
  // target node after this placement (storage view).
  const auto cpu_total =
      static_cast<double>(std::max<Millicores>(1, target.cpu_total));
  const auto mem_total = static_cast<double>(std::max<MiB>(1, target.mem_total));
  const double cpu_frac =
      (static_cast<double>(target.cpu_total - target.cpu_available) +
       static_cast<double>(svc.cpu_demand)) /
      cpu_total;
  const double mem_frac =
      (static_cast<double>(target.mem_total - target.mem_available) +
       static_cast<double>(svc.mem_demand)) /
      mem_total;
  return static_cast<float>(std::exp(-std::max(cpu_frac, mem_frac)));
}

std::optional<NodeId> LearnedBeScheduler::ScheduleOne(
    const k8s::PendingRequest& pending, const StateStorage& storage,
    SimTime /*now*/) {
  rl::GraphState state = BuildState(pending, storage);
  if (state.graph.num_nodes() == 0) return std::nullopt;

  // Close out the previous action with its reward, now that the next state
  // is observable.
  if (has_pending_) {
    const NodeSnapshot* target = storage.Find(last_target_);
    float r_short = 0.0f;
    if (target != nullptr) {
      r_short = ShortReward(*target, catalog_->Get(last_service_));
    }
    const float r_long = 1.0f - std::exp(-long_reward_acc_);
    last_reward_ = r_short + cfg_.eta * r_long;
    long_reward_acc_ = 0.0f;
    agent_->Observe(last_reward_, state, /*done=*/false);
  }

  const int action = agent_->Act(state, /*greedy=*/!cfg_.explore);
  TANGO_CHECK(action >= 0 && action < state.graph.num_nodes(),
              "action out of range");
  has_pending_ = true;
  last_target_ = node_order_[static_cast<std::size_t>(action)];
  last_service_ = pending.request.service;
  ++actions_;
  return last_target_;
}

void LearnedBeScheduler::OnBeCompleted(NodeId node,
                                       const workload::Request& request,
                                       SimTime /*now*/) {
  (void)node;
  const auto& svc = catalog_->Get(request.service);
  // Each completion contributes r^c/r^{c,node} + r^m/r^{m,node}; node totals
  // vary little across workers, so normalize by a nominal 4-core/8-GiB node.
  long_reward_acc_ += static_cast<float>(svc.cpu_demand) / 4000.0f +
                      static_cast<float>(svc.mem_demand) / 8192.0f;
}

std::unique_ptr<LearnedBeScheduler> MakeDcgBe(
    const workload::ServiceCatalog* catalog, gnn::EncoderKind encoder,
    std::uint64_t seed, LearnedBeConfig be_cfg) {
  rl::A2cConfig cfg;
  cfg.encoder = encoder;
  cfg.seed = seed;
  cfg.adam.lr = be_cfg.learning_rate;
  return std::make_unique<LearnedBeScheduler>(
      catalog, std::make_unique<rl::A2cAgent>(cfg), be_cfg);
}

std::unique_ptr<LearnedBeScheduler> MakeGnnSac(
    const workload::ServiceCatalog* catalog, std::uint64_t seed,
    LearnedBeConfig be_cfg) {
  rl::SacConfig cfg;
  cfg.seed = seed;
  cfg.adam.lr = be_cfg.learning_rate;
  return std::make_unique<LearnedBeScheduler>(
      catalog, std::make_unique<rl::SacAgent>(cfg), be_cfg);
}

}  // namespace tango::sched
