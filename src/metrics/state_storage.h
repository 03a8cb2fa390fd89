// The state storage of Figure 3 (component ➋): each master node keeps a
// possibly-stale snapshot of nearby clusters' node states, refreshed by
// periodic Prometheus pushes and QoS-detector reports. Schedulers read the
// snapshot — they never peek at live node objects — so decision staleness is
// modeled faithfully.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace tango::metrics {

/// Snapshot of one node, as pushed by its cluster's monitoring stack.
/// Field names follow §5.2.1: r^{c}_{i,ava}, r^{c}_{i,total}, etc.
struct NodeSnapshot {
  NodeId node;
  ClusterId cluster;
  bool is_master = false;
  Millicores cpu_total = 0;
  Millicores cpu_available = 0;
  MiB mem_total = 0;
  MiB mem_available = 0;
  /// Resources available *to LC requests* under the §4.1 regulations:
  /// idle plus whatever BE currently holds of compressible CPU (and
  /// evictable memory) when the node's allocation policy preempts BE for
  /// LC. −1 means "same as the raw availability" (no preemption).
  Millicores cpu_available_lc = -1;
  MiB mem_available_lc = -1;

  Millicores CpuForLc() const {
    return cpu_available_lc >= 0 ? cpu_available_lc : cpu_available;
  }
  MiB MemForLc() const {
    return mem_available_lc >= 0 ? mem_available_lc : mem_available;
  }
  /// Requests currently queued/executing on the node, by rough class.
  int running_lc = 0;
  int running_be = 0;
  int queued = 0;
  /// Liveness as seen by the monitoring stack: a crashed node's last
  /// snapshot is kept but flagged dead; a node behind a cut link is flagged
  /// unreachable by the viewing master's failure detector. Schedulers must
  /// not route to nodes that fail `Usable()`.
  bool alive = true;
  bool reachable = true;
  bool draining = false;
  bool Usable() const { return alive && reachable && !draining; }
  /// Most recent slack score reported by the QoS detector (min over
  /// services; +1 when idle).
  double slack_score = 1.0;
  SimTime recorded_at = 0;
};

/// Content equality modulo `recorded_at` — the equivalence the delta sync
/// protocol's skip decision must preserve (version equality ⇒ content
/// equality). Used by the TANGO_AUDIT delta-identity checker.
bool SameContent(const NodeSnapshot& a, const NodeSnapshot& b);

/// Per-master view of the (geo-nearby or global) system state.
///
/// Flat layout: snapshots live in one NodeId-ordered array with a dense
/// NodeId → slot index, so Update/Find of a known node are O(1) and All()
/// is a view of the array itself. RTTs and reachability marks are dense
/// per-ClusterId arrays. Only the first Update of a node (or an RTT/mark for
/// a cluster id beyond every one seen so far) grows storage.
class StateStorage {
 public:
  /// Upsert a node snapshot (newer timestamps replace older ones). The
  /// node id must be valid.
  void Update(const NodeSnapshot& snap);

  /// The stored snapshot of `node`, or nullptr (also for invalid ids).
  const NodeSnapshot* Find(NodeId node) const;

  /// All snapshots, in NodeId order (deterministic iteration for solvers).
  /// A view of the storage: valid until the next Update or Clear.
  const std::vector<NodeSnapshot>& All() const { return nodes_; }

  /// Snapshots restricted to one cluster.
  std::vector<NodeSnapshot> ForCluster(ClusterId cluster) const;

  /// Flip the reachability flag on every stored snapshot of one cluster —
  /// the viewing master's failure detector marking a partition (snapshots
  /// are preserved so the view heals instantly when the link does). The
  /// per-snapshot sweep only runs when the flag actually flips, so calling
  /// this every sync period costs O(1) in steady state. Snapshots inserted
  /// later pick up the cluster's last mark.
  void MarkClusterReachability(ClusterId cluster, bool reachable);

  /// Record the measured RTT from this master's cluster to another cluster.
  void UpdateRtt(ClusterId to, SimDuration rtt);
  /// The last recorded RTT to `to`; nullopt if none (also for invalid ids).
  std::optional<SimDuration> Rtt(ClusterId to) const {
    const auto c = static_cast<std::size_t>(to.value);
    if (!to.valid() || c >= rtt_.size()) return std::nullopt;
    return rtt_[c];
  }

  std::size_t size() const { return nodes_.size(); }
  void Clear() {
    nodes_.clear();
    slot_.clear();
    rtt_.clear();
    reach_mark_.clear();
  }

  /// Number of Update() calls that created a new entry (an allocation) —
  /// flat in steady state, when every push hits an existing node.
  std::int64_t inserts() const { return inserts_; }

 private:
  static constexpr std::int8_t kUnmarked = -1;

  /// Insert a snapshot of a node not stored yet, keeping NodeId order.
  NodeSnapshot& Insert(const NodeSnapshot& snap);

  std::vector<NodeSnapshot> nodes_;  // ascending NodeId
  std::vector<std::int32_t> slot_;   // NodeId value -> index in nodes_, -1
  std::vector<std::optional<SimDuration>> rtt_;  // by ClusterId value
  std::vector<std::int8_t> reach_mark_;  // by ClusterId value: -1, 0 or 1
  std::int64_t inserts_ = 0;
};

}  // namespace tango::metrics
