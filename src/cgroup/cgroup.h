// In-memory emulation of the Linux control-group hierarchy that Kubernetes
// builds under /sys/fs/cgroup (Figure 5 of the paper):
//
//   kubepods (root)
//     └─ QoS level   (guaranteed / burstable / besteffort)
//         └─ pod level   (pod<uid>)
//             └─ container level (<container-id>)
//
// The knobs mirror cgroup-v1 cpu and memory controllers: cpu.shares,
// cpu.cfs_quota_us, cpu.cfs_period_us, memory.limit_in_bytes (held in MiB).
// The hierarchy enforces the invariant that D-VPA's ordered-write protocol
// exists to protect: a child's effective limit must never exceed its
// parent's. Writing a violating value fails, exactly like the EINVAL a real
// kernel returns — this is what forces "expand parent first, shrink child
// first" (§4.2).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"

namespace tango::cgroup {

/// cgroup-v1 style CPU+memory knobs. Negative quota means "unlimited"
/// (cpu.cfs_quota_us = -1 in the kernel).
struct Knobs {
  std::int64_t cpu_shares = 1024;
  std::int64_t cpu_cfs_quota_us = -1;
  std::int64_t cpu_cfs_period_us = 100'000;
  MiB memory_limit = -1;  // -1 = unlimited

  /// Effective CPU limit in millicores implied by quota/period
  /// (unlimited -> nullopt).
  std::optional<Millicores> CpuLimitMillicores() const {
    if (cpu_cfs_quota_us < 0 || cpu_cfs_period_us <= 0) return std::nullopt;
    return cpu_cfs_quota_us * 1000 / cpu_cfs_period_us;
  }
};

enum class QosClass { kGuaranteed, kBurstable, kBestEffort };
const char* QosClassName(QosClass c);

/// Result of a knob write. Mirrors errno-style failure of the kernel
/// interface; the simulation asserts on kOk in paths that must succeed.
enum class WriteResult {
  kOk,
  kNoSuchGroup,
  kInvalidArgument,   // e.g. child limit > parent limit
  kBusy,              // group has live children and the op requires none
};

class Hierarchy;

/// One node in the hierarchy. Owned by the Hierarchy; exposed by path.
class Group {
 public:
  const std::string& path() const { return path_; }
  const Knobs& knobs() const { return knobs_; }
  Group* parent() const { return parent_; }
  const std::vector<Group*>& children() const { return children_; }

 private:
  friend class Hierarchy;
  std::string path_;
  Knobs knobs_;
  Group* parent_ = nullptr;
  std::vector<Group*> children_;
};

/// The cgroup filesystem. Paths are '/'-separated, rooted at "kubepods".
class Hierarchy {
 public:
  Hierarchy();

  /// Create a group under `parent_path`; inherits unlimited knobs.
  /// Fails (nullptr) if the parent does not exist or the name is taken.
  Group* Create(const std::string& parent_path, const std::string& name);

  /// Remove a leaf group. Fails with kBusy when children remain.
  WriteResult Remove(const std::string& path);

  Group* Find(const std::string& path);
  const Group* Find(const std::string& path) const;

  /// Write the CPU quota (µs per period). Enforces the parent-bound
  /// invariant: a finite child quota may not exceed the parent's finite
  /// quota; raising a child above its parent fails with kInvalidArgument.
  WriteResult WriteCpuQuota(const std::string& path, std::int64_t quota_us);
  WriteResult WriteCpuShares(const std::string& path, std::int64_t shares);
  /// Write the memory limit (MiB, -1 unlimited). Same parent-bound rule.
  WriteResult WriteMemoryLimit(const std::string& path, MiB limit);

  /// Number of successful knob writes so far (drives the op-latency model).
  std::int64_t write_count() const { return writes_; }

  /// Audit sweep over the whole hierarchy (§4.2 invariants): every child's
  /// finite limit within its parent's, pod-level limits covering the sum of
  /// their containers', and parent/child structure coherent. Aborts with a
  /// structured report on violation; every check in it compiles to nothing
  /// when TANGO_AUDIT is off. Re-run after each successful mutation.
  void Audit() const;

#if defined(TANGO_AUDIT)
  /// Seeded-bug hook for the audit death tests: bypass the EINVAL
  /// validation and plant a raw quota value, so Audit() provably fires.
  void SetCpuQuotaUncheckedForTest(const std::string& path,
                                   std::int64_t quota_us);
#endif

  /// Standard kubepods QoS-level path, e.g. "kubepods/burstable".
  static std::string QosPath(QosClass qos);

  std::vector<std::string> ListPaths() const;

 private:
  Group* root_ = nullptr;
  std::map<std::string, std::unique_ptr<Group>> groups_;
  std::int64_t writes_ = 0;

  bool CpuQuotaWithinParent(const Group& g, std::int64_t quota) const;
  bool MemoryWithinParent(const Group& g, MiB limit) const;
  bool AnyChildCpuExceeds(const Group& g, std::int64_t quota) const;
  bool AnyChildMemoryExceeds(const Group& g, MiB limit) const;
};

/// Latency model for cgroup knob writes. The paper measures a full D-VPA
/// scaling operation (pod + container, CPU + memory, ordered) at ~23 ms and
/// the K8s-VPA delete-and-rebuild alternative at ~100x that.
struct OpLatencyModel {
  SimDuration per_write = FromMilliseconds(5.75);  // 4 writes ≈ 23 ms
  SimDuration pod_rebuild = FromMilliseconds(2300.0);
  SimDuration FullScaleOp() const { return 4 * per_write; }
};

/// The two knobs D-VPA scales at pod and container level.
enum class Knob { kCpuQuota, kMemoryLimit };

/// D-VPA's ordered write (§4.2): set `knob` to `value` on the pod group and
/// on its container in the order the parent-bound rule allows. A shrink (a
/// finite pod bound above `value`) writes container then pod; anything else
/// (expansion, unchanged bound, unlimited pod) writes pod then container.
/// Stops at the first rejected write and returns the accepted writes (2 on
/// success). Under TANGO_AUDIT the order checker audits every write with
/// `now` / `node` / `service` as context (-1 outside a simulated worker);
/// under TANGO_SCOPE one dvpa.{cpu,mem}.{expand,shrink} instant is emitted.
int OrderedWrite(Hierarchy& h, Knob knob, const std::string& pod_path,
                 const std::string& container_path, std::int64_t value,
                 SimTime now, std::int32_t node, std::int32_t service);

}  // namespace tango::cgroup
