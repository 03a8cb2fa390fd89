#include "metrics/state_storage.h"

#include <algorithm>

#include "audit/audit.h"
#include "common/logging.h"
#include "common/vet.h"

namespace tango::metrics {

bool SameContent(const NodeSnapshot& a, const NodeSnapshot& b) {
  return a.node == b.node && a.cluster == b.cluster &&
         a.is_master == b.is_master && a.cpu_total == b.cpu_total &&
         a.cpu_available == b.cpu_available && a.mem_total == b.mem_total &&
         a.mem_available == b.mem_available &&
         a.cpu_available_lc == b.cpu_available_lc &&
         a.mem_available_lc == b.mem_available_lc &&
         a.running_lc == b.running_lc && a.running_be == b.running_be &&
         a.queued == b.queued && a.alive == b.alive &&
         a.draining == b.draining && a.slack_score == b.slack_score;
}

void StateStorage::Update(const NodeSnapshot& snap) {
  TANGO_CHECK(snap.node.valid(), "snapshot without a node id");
  const auto id = static_cast<std::size_t>(snap.node.value);
  NodeSnapshot* stored = nullptr;
  if (id < slot_.size() && slot_[id] >= 0) {
    stored = &nodes_[static_cast<std::size_t>(slot_[id])];
    if (stored->recorded_at > snap.recorded_at) return;
    *stored = snap;
  } else {
    stored = &Insert(snap);
  }
  // Keep freshly pushed snapshots consistent with the last reachability mark
  // (the sweep in MarkClusterReachability only runs on flips).
  const auto c = static_cast<std::size_t>(stored->cluster.value);
  if (stored->cluster.valid() && c < reach_mark_.size() &&
      reach_mark_[c] != kUnmarked) {
    stored->reachable = reach_mark_[c] != 0;
  }
}

TANGO_COLD NodeSnapshot& StateStorage::Insert(const NodeSnapshot& snap) {
  ++inserts_;
  const auto id = static_cast<std::size_t>(snap.node.value);
  if (id >= slot_.size()) slot_.resize(id + 1, -1);
  const auto pos = static_cast<std::size_t>(
      std::lower_bound(nodes_.begin(), nodes_.end(), snap.node,
                       [](const NodeSnapshot& s, NodeId n) {
                         return s.node < n;
                       }) -
      nodes_.begin());
  nodes_.insert(nodes_.begin() + static_cast<std::ptrdiff_t>(pos), snap);
  // Every snapshot from `pos` on moved one slot up (only the new one when
  // ids arrive in ascending order, as they do from a sync sweep).
  for (std::size_t i = pos; i < nodes_.size(); ++i) {
    slot_[static_cast<std::size_t>(nodes_[i].node.value)] =
        static_cast<std::int32_t>(i);
  }
  return nodes_[pos];
}

void StateStorage::MarkClusterReachability(ClusterId cluster,
                                           bool reachable) {
  TANGO_CHECK(cluster.valid(), "reachability mark without a cluster id");
  const auto c = static_cast<std::size_t>(cluster.value);
  const std::int8_t mark = reachable ? 1 : 0;
  if (c < reach_mark_.size() && reach_mark_[c] == mark) return;
  if (c >= reach_mark_.size()) reach_mark_.resize(c + 1, kUnmarked);
  reach_mark_[c] = mark;
  for (auto& snap : nodes_) {
    if (snap.cluster == cluster) snap.reachable = reachable;
  }
}

void StateStorage::UpdateRtt(ClusterId to, SimDuration rtt) {
  TANGO_CHECK(to.valid(), "RTT without a cluster id");
  const auto c = static_cast<std::size_t>(to.value);
  if (c >= rtt_.size()) rtt_.resize(c + 1);
  rtt_[c] = rtt;
}

const NodeSnapshot* StateStorage::Find(NodeId node) const {
  const auto id = static_cast<std::size_t>(node.value);
  if (!node.valid() || id >= slot_.size() || slot_[id] < 0) return nullptr;
  return &nodes_[static_cast<std::size_t>(slot_[id])];
}

std::vector<NodeSnapshot> StateStorage::ForCluster(ClusterId cluster) const {
  std::vector<NodeSnapshot> out;
  for (const auto& snap : nodes_) {
    if (snap.cluster == cluster) out.push_back(snap);
  }
  return out;
}

}  // namespace tango::metrics
