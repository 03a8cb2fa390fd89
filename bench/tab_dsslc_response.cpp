// §7.2 (text) — DSS-LC response time at scale.
//
// The paper reports a 1.99 ms decision time for 500 nodes and 3.98 ms for
// 1000, under 2 % of the average QoS target. We sweep the node count with a
// 64-request queue and report the measured wall-clock decision time of our
// min-cost-flow implementation.
#include <chrono>

#include "bench_common.h"
#include "sched/dss_lc.h"

using namespace tango;

namespace {

metrics::StateStorage MakeStorage(int nodes, std::uint64_t seed) {
  metrics::StateStorage st;
  Rng rng(seed);
  const int clusters = std::max(1, nodes / 10);
  for (int i = 0; i < nodes; ++i) {
    metrics::NodeSnapshot s;
    s.node = NodeId{i + 1000};
    s.cluster = ClusterId{static_cast<std::int32_t>(i % clusters)};
    s.cpu_total = rng.UniformInt(2000, 8000);
    s.cpu_available = rng.UniformInt(0, s.cpu_total);
    s.mem_total = rng.UniformInt(4096, 16384);
    s.mem_available = rng.UniformInt(0, s.mem_total);
    st.Update(s);
  }
  for (int c = 0; c < clusters; ++c) {
    st.UpdateRtt(ClusterId{c},
                 FromMilliseconds(static_cast<double>(1 + c % 40)));
  }
  return st;
}

std::vector<k8s::PendingRequest> MakeQueue(int n) {
  std::vector<k8s::PendingRequest> q;
  for (int i = 0; i < n; ++i) {
    k8s::PendingRequest p;
    p.request.id = RequestId{i};
    p.request.service = ServiceId{i % 5};  // all five LC types
    p.request.origin = ClusterId{0};
    q.push_back(p);
  }
  return q;
}

double MeasureMs(int nodes, int queue_len, int reps) {
  const auto& catalog = bench::Catalog();
  const metrics::StateStorage st = MakeStorage(nodes, 7);
  const auto queue = MakeQueue(queue_len);
  sched::DssLcScheduler dss(&catalog);
  // The scheduler clocks each round inside Schedule; the returned
  // assignments are not part of the measurement.
  for (int r = 0; r < reps; ++r) {
    dss.Schedule(ClusterId{0}, queue, st,
                 static_cast<SimTime>(r) * kMillisecond * 10);
  }
  return dss.decision_seconds() * 1000.0 /
         static_cast<double>(dss.decisions());
}

void Report() {
  std::printf("DSS-LC decision response time (paper §7.2 text)\n");
  std::vector<std::vector<std::string>> table;
  const double ms100 = MeasureMs(100, 64, 20);
  const double ms500 = MeasureMs(500, 64, 20);
  const double ms1000 = MeasureMs(1000, 64, 20);
  table.push_back({"100", eval::Fmt(ms100, 3) + " ms", "-"});
  table.push_back({"500", eval::Fmt(ms500, 3) + " ms", "1.99 ms"});
  table.push_back({"1000", eval::Fmt(ms1000, 3) + " ms", "3.98 ms"});
  eval::PrintTable("decision time vs node count (queue = 64 requests)",
                   {"nodes", "measured", "paper"}, table);
  std::printf("\n");
  // Average LC QoS target in the catalog, for the "<2% of target" claim.
  double target_ms = 0.0;
  int n = 0;
  for (const auto& id : bench::Catalog().LcServices()) {
    target_ms += ToMilliseconds(bench::Catalog().Get(id).qos_target);
    ++n;
  }
  target_ms /= n;
  bench::PaperCheck("decision time @1000 nodes", "≈3.98 ms, <2% of QoS target",
                    eval::Fmt(ms1000, 2) + " ms = " +
                        eval::Pct(ms1000 / target_ms) + " of avg target",
                    ms1000 < 0.02 * target_ms);
  bench::PaperCheck("scaling 500→1000 nodes", "≈2× (linear in nodes)",
                    eval::Fmt(ms1000 / std::max(1e-9, ms500), 2) + "x",
                    ms1000 / std::max(1e-9, ms500) < 4.0);
}

}  // namespace

int main() {
  Report();
  return bench::ChecksExitCode();
}
