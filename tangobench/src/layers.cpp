#include "layers.h"

#include <algorithm>
#include <cstdio>

namespace tangobench {

using namespace tango;

std::int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int32_t SpanLog::Begin(const char* name, std::int32_t parent,
                            std::int32_t cluster, std::int32_t queue) {
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  s.parent = parent;
  s.cluster = cluster;
  s.queue = queue;
  spans_.push_back(s);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::End(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"cluster\":%d,\"queue\":%d}}%s\n",
                 s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, s.cluster, s.queue,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<k8s::Assignment> TimedLcScheduler::Schedule(
    ClusterId cluster, const std::vector<k8s::PendingRequest>& queue,
    const metrics::StateStorage& storage, SimTime now) {
  const auto q = static_cast<std::int64_t>(queue.size());
  const std::int32_t span =
      probe_->spans.Begin("dsslc.round", probe_->parent, cluster.value,
                          static_cast<std::int32_t>(q));
  std::vector<k8s::Assignment> out =
      inner_->Schedule(cluster, queue, storage, now);
  probe_->spans.End(span);
  probe_->lc_queue_sum += q;
  probe_->lc_queue_max = std::max(probe_->lc_queue_max, q);
  probe_->lc_assigned += static_cast<std::int64_t>(out.size());
  return out;
}

std::optional<NodeId> TimedBeScheduler::ScheduleOne(
    const k8s::PendingRequest& pending, const metrics::StateStorage& storage,
    SimTime now) {
  const std::int32_t span = probe_->spans.Begin(
      "dcgbe.decide", probe_->parent, system_->acting_central().value,
      system_->be_queue_length());
  std::optional<NodeId> target = inner_->ScheduleOne(pending, storage, now);
  probe_->spans.End(span);
  if (target.has_value()) probe_->be_placed += 1;
  return target;
}

k8s::ResourceVec TimedAllocationPolicy::EffectiveDemand(
    NodeId node, const workload::ServiceSpec& service) const {
  const auto t0 = Clock::now();
  k8s::ResourceVec v = inner_->EffectiveDemand(node, service);
  Charge(t0);
  return v;
}

k8s::AdmitDecision TimedAllocationPolicy::Admit(
    const k8s::NodeSpec& node, const k8s::ExecSlot& incoming,
    const std::vector<k8s::ExecSlot>& running) const {
  const auto t0 = Clock::now();
  k8s::AdmitDecision d = inner_->Admit(node, incoming, running);
  Charge(t0);
  probe_->admit_attempts += 1;
  if (d.admit) probe_->admit_accepts += 1;
  return d;
}

void TimedAllocationPolicy::ComputeGrants(
    const k8s::NodeSpec& node, const std::vector<k8s::ExecSlot>& running,
    std::vector<Millicores>& grants) const {
  const auto t0 = Clock::now();
  inner_->ComputeGrants(node, running, grants);
  Charge(t0);
}

SimDuration TimedAllocationPolicy::AdmissionLatency() const {
  const auto t0 = Clock::now();
  const SimDuration d = inner_->AdmissionLatency();
  Charge(t0);
  return d;
}

}  // namespace tangobench
