#include "hrm/dvpa.h"

#include "common/logging.h"

namespace tango::hrm {

using cgroup::Hierarchy;
using cgroup::WriteResult;

std::int64_t QuotaFromMillicores(Millicores m) {
  // quota_us / period_us == cores; period is 100'000 µs.
  return m * 100;
}

ScaleResult DvpaScaler::Scale(Hierarchy& h, const std::string& pod_path,
                              const std::string& container_path,
                              Millicores cpu, MiB mem) const {
  ScaleResult result;
  if (h.Find(pod_path) == nullptr || h.Find(container_path) == nullptr) {
    return result;
  }
  // No simulated node or service here: the order checker reports -1.
  const auto write = [&](cgroup::Knob knob, std::int64_t value) {
    const int writes =
        cgroup::OrderedWrite(h, knob, pod_path, container_path, value,
                             /*now=*/-1, /*node=*/-1, /*service=*/-1);
    result.writes += writes;
    return writes == 2;
  };
  // A rejected CPU write leaves memory untouched.
  result.ok = write(cgroup::Knob::kCpuQuota, QuotaFromMillicores(cpu)) &&
              write(cgroup::Knob::kMemoryLimit, mem);
  result.latency = result.writes * latency_.per_write;
  result.uninterrupted = true;  // cgroup writes never stop the container
  return result;
}

ScaleResult DvpaScaler::NativeRebuild(Hierarchy& h,
                                      const std::string& pod_path,
                                      const std::string& container_name,
                                      Millicores cpu, MiB mem) const {
  ScaleResult result;
  const cgroup::Group* pod = h.Find(pod_path);
  if (pod == nullptr) return result;
  const std::string parent =
      pod_path.substr(0, pod_path.rfind('/'));
  const std::string pod_name = pod_path.substr(pod_path.rfind('/') + 1);
  // Delete children, then the pod.
  const std::string container_path = pod_path + "/" + container_name;
  if (h.Find(container_path) != nullptr) {
    if (h.Remove(container_path) != WriteResult::kOk) return result;
  }
  if (h.Remove(pod_path) != WriteResult::kOk) return result;
  // Recreate with new limits (pod before container, as kubelet does).
  cgroup::Group* new_pod = h.Create(parent, pod_name);
  if (new_pod == nullptr) return result;
  if (h.WriteCpuQuota(pod_path, QuotaFromMillicores(cpu)) != WriteResult::kOk)
    return result;
  if (h.WriteMemoryLimit(pod_path, mem) != WriteResult::kOk) return result;
  result.writes += 2;
  if (h.Create(pod_path, container_name) == nullptr) return result;
  if (h.WriteCpuQuota(container_path, QuotaFromMillicores(cpu)) !=
      WriteResult::kOk)
    return result;
  if (h.WriteMemoryLimit(container_path, mem) != WriteResult::kOk)
    return result;
  result.writes += 2;
  result.ok = true;
  result.uninterrupted = false;  // the workload restarted
  result.latency = latency_.pod_rebuild;
  return result;
}

}  // namespace tango::hrm
