// Learned centralized BE schedulers (§5.3): DCG-BE (GraphSAGE + A2C, the
// paper's algorithm) and GNN-SAC (GraphSAGE + discrete SAC, the strongest
// baseline of Figure 11(c)). Both share the graph construction, the policy
// context filter c_t, and the reward of §5.3.1:
//
//   r_t = r_short + η·r_long,          η = 1
//   r_short = exp(−max(Σ r^c_q / r^c_i , Σ r^m_q / r^m_i))   (target-node load)
//   r_long  = 1 − exp(−Σ_i Σ_{q' done} (r^c_{q'}/r^c_i + r^m_{q'}/r^m_i))
//
// r_long accumulates completions between actions via OnBeCompleted.
#pragma once

#include <memory>

#include "k8s/scheduling_api.h"
#include "rl/agent.h"

namespace tango::sched {

/// Graph granularity of the learned schedulers. kNode is the paper's action
/// space (one action per worker). kCluster groups workers per cluster (action
/// = cluster, then least-loaded fitting worker inside) — used for the
/// 100+-cluster experiments where a per-node GNN forward per request would
/// dominate the run without changing the decision structure.
enum class BeGranularity { kNode, kCluster };

struct LearnedBeConfig {
  /// Edges per worker toward foreign clusters (topology sparsifier).
  int inter_cluster_links = 2;
  /// η — weight of the long-term reward component.
  float eta = 1.0f;
  BeGranularity granularity = BeGranularity::kNode;
  /// Learning rate. The paper fixes 2e-4 over hours-long traces; compressed
  /// experiment horizons scale it up proportionally (see DESIGN.md).
  float learning_rate = 2e-4f;
};

/// Builds graph states from the state storage and drives an rl::Agent.
class LearnedBeScheduler : public k8s::BeScheduler {
 public:
  LearnedBeScheduler(const workload::ServiceCatalog* catalog,
                     std::unique_ptr<rl::Agent> agent,
                     LearnedBeConfig cfg = {});

  std::optional<NodeId> ScheduleOne(const k8s::PendingRequest& pending,
                                    const metrics::StateStorage& storage,
                                    SimTime now) override;
  void OnBeCompleted(NodeId node, const workload::Request& request,
                     SimTime now) override;
  std::string name() const override { return agent_->name(); }

  rl::Agent& agent() { return *agent_; }
  std::int64_t actions() const { return actions_; }
  float last_reward() const { return last_reward_; }

  /// Exposed for tests: builds the state (features + adjacency + mask).
  rl::GraphState BuildState(const k8s::PendingRequest& pending,
                            const metrics::StateStorage& storage);

 private:
  float ShortReward(const metrics::NodeSnapshot& target,
                    const workload::ServiceSpec& svc) const;

  /// BuildState's per-cluster scratch, one slot per ClusterId in the
  /// decision's [lowest, highest] id range (ids are dense cluster indices),
  /// walked in ascending id order.
  struct ClusterSlot {
    metrics::NodeSnapshot agg;  // summed resources (kCluster)
    const metrics::NodeSnapshot* rep = nullptr;  // least-loaded fitting
    double slack_sum = 0.0;
    int count = 0;
    std::vector<int> members;  // graph node indices
  };

  const workload::ServiceCatalog* catalog_;
  std::unique_ptr<rl::Agent> agent_;
  LearnedBeConfig cfg_;
  std::vector<NodeId> node_order_;  // action index → NodeId of last state
  std::vector<metrics::NodeSnapshot> workers_;   // BuildState scratch
  std::vector<metrics::NodeSnapshot> clusters_;  // BuildState scratch
  std::vector<ClusterSlot> slots_;                // BuildState scratch
  std::vector<const std::vector<int>*> ring_;     // BuildState scratch
  bool has_pending_ = false;
  NodeId last_target_;
  ServiceId last_service_;
  float long_reward_acc_ = 0.0f;
  std::int64_t actions_ = 0;
  float last_reward_ = 0.0f;
};

/// Factory helpers with the paper's hyper-parameters.
std::unique_ptr<LearnedBeScheduler> MakeDcgBe(
    const workload::ServiceCatalog* catalog,
    gnn::EncoderKind encoder = gnn::EncoderKind::kGraphSage,
    std::uint64_t seed = 7, LearnedBeConfig cfg = {});
std::unique_ptr<LearnedBeScheduler> MakeGnnSac(
    const workload::ServiceCatalog* catalog, std::uint64_t seed = 11,
    LearnedBeConfig cfg = {});

}  // namespace tango::sched
