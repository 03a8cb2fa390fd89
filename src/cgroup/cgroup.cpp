#include "cgroup/cgroup.h"

#include <algorithm>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "common/logging.h"
#include "scope/scope.h"

namespace tango::cgroup {

const char* QosClassName(QosClass c) {
  switch (c) {
    case QosClass::kGuaranteed:
      return "guaranteed";
    case QosClass::kBurstable:
      return "burstable";
    case QosClass::kBestEffort:
      return "besteffort";
  }
  return "?";
}

Hierarchy::Hierarchy() {
  auto root = std::make_unique<Group>();
  root->path_ = "kubepods";
  root_ = root.get();
  groups_["kubepods"] = std::move(root);
  // Kubernetes pre-creates the three QoS-level groups.
  Create("kubepods", "guaranteed");
  Create("kubepods", "burstable");
  Create("kubepods", "besteffort");
}

Group* Hierarchy::Create(const std::string& parent_path,
                         const std::string& name) {
  AUDIT_SCOPE([this] { Audit(); });
  Group* parent = Find(parent_path);
  if (parent == nullptr) return nullptr;
  const std::string path = parent_path + "/" + name;
  if (groups_.count(path) != 0) return nullptr;
  auto g = std::make_unique<Group>();
  g->path_ = path;
  g->parent_ = parent;
  Group* raw = g.get();
  parent->children_.push_back(raw);
  groups_[path] = std::move(g);
  return raw;
}

WriteResult Hierarchy::Remove(const std::string& path) {
  AUDIT_SCOPE([this] { Audit(); });
  auto it = groups_.find(path);
  if (it == groups_.end()) return WriteResult::kNoSuchGroup;
  Group* g = it->second.get();
  if (!g->children_.empty()) return WriteResult::kBusy;
  if (g == root_) return WriteResult::kBusy;
  auto& sibs = g->parent_->children_;
  sibs.erase(std::remove(sibs.begin(), sibs.end(), g), sibs.end());
  groups_.erase(it);
  return WriteResult::kOk;
}

Group* Hierarchy::Find(const std::string& path) {
  auto it = groups_.find(path);
  return it == groups_.end() ? nullptr : it->second.get();
}
const Group* Hierarchy::Find(const std::string& path) const {
  auto it = groups_.find(path);
  return it == groups_.end() ? nullptr : it->second.get();
}

bool Hierarchy::CpuQuotaWithinParent(const Group& g,
                                     std::int64_t quota) const {
  const Group* p = g.parent_;
  if (p == nullptr) return true;
  const std::int64_t parent_quota = p->knobs_.cpu_cfs_quota_us;
  if (parent_quota < 0) return true;  // parent unlimited
  if (quota < 0) return false;        // unlimited child under limited parent
  return quota <= parent_quota;
}

bool Hierarchy::MemoryWithinParent(const Group& g, MiB limit) const {
  const Group* p = g.parent_;
  if (p == nullptr) return true;
  const MiB parent_limit = p->knobs_.memory_limit;
  if (parent_limit < 0) return true;
  if (limit < 0) return false;
  return limit <= parent_limit;
}

bool Hierarchy::AnyChildCpuExceeds(const Group& g, std::int64_t quota) const {
  if (quota < 0) return false;
  for (const Group* c : g.children_) {
    const std::int64_t cq = c->knobs_.cpu_cfs_quota_us;
    // An unlimited child is effectively clamped by the parent; only a child
    // with a *larger finite* quota blocks the shrink.
    if (cq >= 0 && cq > quota) return true;
  }
  return false;
}

bool Hierarchy::AnyChildMemoryExceeds(const Group& g, MiB limit) const {
  if (limit < 0) return false;
  for (const Group* c : g.children_) {
    const MiB cl = c->knobs_.memory_limit;
    if (cl >= 0 && cl > limit) return true;
  }
  return false;
}

WriteResult Hierarchy::WriteCpuQuota(const std::string& path,
                                     std::int64_t quota_us) {
  // Bracket the mutation: the hierarchy must be consistent both before the
  // write and after it, whether it succeeds or returns EINVAL.
  AUDIT_SCOPE([this] { Audit(); });
  Group* g = Find(path);
  if (g == nullptr) return WriteResult::kNoSuchGroup;
  if (quota_us == 0 || quota_us < -1) return WriteResult::kInvalidArgument;
  // Shrinking below a child's quota, or exceeding the parent's, is the
  // EINVAL that forces D-VPA's write ordering.
  if (!CpuQuotaWithinParent(*g, quota_us)) return WriteResult::kInvalidArgument;
  if (AnyChildCpuExceeds(*g, quota_us)) return WriteResult::kInvalidArgument;
  g->knobs_.cpu_cfs_quota_us = quota_us;
  ++writes_;
  return WriteResult::kOk;
}

WriteResult Hierarchy::WriteCpuShares(const std::string& path,
                                      std::int64_t shares) {
  AUDIT_SCOPE([this] { Audit(); });
  Group* g = Find(path);
  if (g == nullptr) return WriteResult::kNoSuchGroup;
  if (shares < 2) return WriteResult::kInvalidArgument;  // kernel floor
  g->knobs_.cpu_shares = shares;
  ++writes_;
  return WriteResult::kOk;
}

WriteResult Hierarchy::WriteMemoryLimit(const std::string& path, MiB limit) {
  AUDIT_SCOPE([this] { Audit(); });
  Group* g = Find(path);
  if (g == nullptr) return WriteResult::kNoSuchGroup;
  if (limit == 0 || limit < -1) return WriteResult::kInvalidArgument;
  if (!MemoryWithinParent(*g, limit)) return WriteResult::kInvalidArgument;
  if (AnyChildMemoryExceeds(*g, limit)) return WriteResult::kInvalidArgument;
  g->knobs_.memory_limit = limit;
  ++writes_;
  return WriteResult::kOk;
}

void Hierarchy::Audit() const {
  for (const auto& [path, g] : groups_) {
    const Group* parent = g->parent_;
    if (parent != nullptr) {
      // Structural coherence: the path nests under the parent's and the
      // parent lists this group among its children.
      AUDIT_CHECK(path.compare(0, parent->path_.size() + 1,
                               parent->path_ + "/") == 0,
                  .subsystem = "cgroup", .invariant = "cgroup.path_nesting",
                  .detail = audit::Detail("%s not nested under %s",
                                          path.c_str(),
                                          parent->path_.c_str()));
      AUDIT_CHECK(std::find(parent->children_.begin(),
                            parent->children_.end(),
                            g.get()) != parent->children_.end(),
                  .subsystem = "cgroup", .invariant = "cgroup.orphan_child",
                  .detail = audit::Detail("%s missing from parent %s",
                                          path.c_str(),
                                          parent->path_.c_str()));
      audit::checks::CheckCgroupBound(parent->knobs_.cpu_cfs_quota_us,
                                      g->knobs_.cpu_cfs_quota_us,
                                      "cpu.cfs_quota_us", path);
      audit::checks::CheckCgroupBound(parent->knobs_.memory_limit,
                                      g->knobs_.memory_limit,
                                      "memory.limit_in_bytes", path);
    }
    // Pod-level groups (kubepods/<qos>/<pod>) must cover the sum of their
    // containers' finite limits — D-VPA scales pod and container together
    // precisely so containers can never overdraw the pod bound.
    const auto depth = std::count(path.begin(), path.end(), '/');
    if (depth == 2 && !g->children_.empty()) {
      std::int64_t quota_sum = 0;
      std::int64_t mem_sum = 0;
      for (const Group* c : g->children_) {
        if (c->knobs_.cpu_cfs_quota_us >= 0) {
          quota_sum += c->knobs_.cpu_cfs_quota_us;
        }
        if (c->knobs_.memory_limit >= 0) mem_sum += c->knobs_.memory_limit;
      }
      audit::checks::CheckCgroupPodCoversChildren(
          g->knobs_.cpu_cfs_quota_us, quota_sum, "cpu.cfs_quota_us", path);
      audit::checks::CheckCgroupPodCoversChildren(
          g->knobs_.memory_limit, mem_sum, "memory.limit_in_bytes", path);
    }
  }
}

#if defined(TANGO_AUDIT)
void Hierarchy::SetCpuQuotaUncheckedForTest(const std::string& path,
                                            std::int64_t quota_us) {
  Group* g = Find(path);
  TANGO_CHECK(g != nullptr, "no such group: %s", path.c_str());
  g->knobs_.cpu_cfs_quota_us = quota_us;
}
#endif

int OrderedWrite(Hierarchy& h, Knob knob, const std::string& pod_path,
                 const std::string& container_path, std::int64_t value,
                 SimTime now, std::int32_t node, std::int32_t service) {
  using Level = audit::checks::DvpaOrderChecker::Level;
  const bool cpu = knob == Knob::kCpuQuota;
  const Group* pod = h.Find(pod_path);
  const std::int64_t old_pod =
      pod == nullptr ? -1
      : cpu          ? pod->knobs().cpu_cfs_quota_us
                     : pod->knobs().memory_limit;
  audit::checks::DvpaOrderChecker order(now, node, service);
  order.BeginKind(cpu ? "cpu.cfs_quota_us" : "memory.limit_in_bytes", old_pod,
                  value);
  const bool shrink = old_pod >= 0 && value < old_pod;
  int writes = 0;
  const auto write = [&](const std::string& path, Level level) {
    const WriteResult r =
        cpu ? h.WriteCpuQuota(path, value) : h.WriteMemoryLimit(path, value);
    order.OnWrite(level, r == WriteResult::kOk);
    if (r != WriteResult::kOk) return false;
    ++writes;
    return true;
  };
  if (shrink) {
    if (write(container_path, Level::kContainer)) write(pod_path, Level::kPod);
  } else {
    if (write(pod_path, Level::kPod)) write(container_path, Level::kContainer);
  }
  TANGO_SCOPE_INSTANT(cpu ? (shrink ? "dvpa.cpu.shrink" : "dvpa.cpu.expand")
                          : (shrink ? "dvpa.mem.shrink" : "dvpa.mem.expand"),
                      "hrm", now, .node = node, .service = service,
                      .value = value);
  return writes;
}

std::string Hierarchy::QosPath(QosClass qos) {
  return std::string("kubepods/") + QosClassName(qos);
}

std::vector<std::string> Hierarchy::ListPaths() const {
  std::vector<std::string> out;
  out.reserve(groups_.size());
  for (const auto& [p, g] : groups_) out.push_back(p);
  return out;
}

}  // namespace tango::cgroup
