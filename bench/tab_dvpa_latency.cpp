// §7.1 (text) — D-VPA single scaling-operation latency.
//
// The paper measures a full D-VPA vertical scaling operation at ~23 ms and
// notes it is ~100× faster than the K8s-VPA delete-and-rebuild path, without
// interrupting the running container. This bench reports the modeled
// latencies of both paths through cgroup::OrderedWrite, the ordered-write
// routine every simulated worker runs, and exits 1 if any check fails.
#include <cmath>

#include "bench_common.h"
#include "hrm/dvpa.h"

using namespace tango;

namespace {

cgroup::Hierarchy MakePod() {
  cgroup::Hierarchy h;
  h.Create("kubepods/burstable", "pod1");
  h.Create("kubepods/burstable/pod1", "c0");
  h.WriteCpuQuota("kubepods/burstable/pod1", hrm::QuotaFromMillicores(500));
  h.WriteCpuQuota("kubepods/burstable/pod1/c0",
                  hrm::QuotaFromMillicores(500));
  h.WriteMemoryLimit("kubepods/burstable/pod1", 512);
  h.WriteMemoryLimit("kubepods/burstable/pod1/c0", 512);
  return h;
}

bool Report() {
  std::printf("D-VPA scaling-op latency (paper §7.1 text)\n");
  hrm::DvpaScaler scaler;
  cgroup::Hierarchy h = MakePod();
  const hrm::ScaleResult up = scaler.Scale(
      h, "kubepods/burstable/pod1", "kubepods/burstable/pod1/c0", 1500, 1024);
  const hrm::ScaleResult down = scaler.Scale(
      h, "kubepods/burstable/pod1", "kubepods/burstable/pod1/c0", 250, 256);
  cgroup::Hierarchy h2 = MakePod();
  const hrm::ScaleResult rebuild = scaler.NativeRebuild(
      h2, "kubepods/burstable/pod1", "c0", 1500, 1024);

  bool ok = true;
  ok &= bench::PaperCheck(
      "D-VPA expand op (pod→container order)", "≈23 ms",
      eval::Fmt(ToMilliseconds(up.latency), 1) + " ms",
      up.ok && std::abs(ToMilliseconds(up.latency) - 23.0) < 1);
  ok &= bench::PaperCheck(
      "D-VPA shrink op (container→pod order)", "≈23 ms",
      eval::Fmt(ToMilliseconds(down.latency), 1) + " ms",
      down.ok && std::abs(ToMilliseconds(down.latency) - 23.0) < 1);
  ok &= bench::PaperCheck("container keeps running through D-VPA op",
                          "no interruption", up.uninterrupted ? "yes" : "no",
                          up.uninterrupted);
  const double ratio = static_cast<double>(rebuild.latency) /
                       static_cast<double>(up.latency);
  ok &= bench::PaperCheck("delete-and-rebuild (K8s-VPA plugin)",
                          "≈100× slower",
                          eval::Fmt(ratio, 1) + "x, interrupts workload",
                          rebuild.ok && !rebuild.uninterrupted && ratio > 50);
  std::printf("\n");
  return ok;
}

}  // namespace

int main() { return Report() ? 0 : 1; }
