// perf_sched — scheduling-core performance baseline.
//
// Measures DSS-LC dispatch rounds/sec with the per-type G_k fan-out serial
// vs parallel on small (16-node), large (256-node) and huge (1024-node)
// cluster views, verifies the parallel mode is byte-identical to serial and
// that steady-state rounds perform zero MCMF graph allocations, compares
// TangoSolve warm-start incremental solving against full cold rebuilds,
// then times a short end-to-end simulation and concurrent benchmark
// repetitions. A DCG-BE row times the A2C learner's Act() and its update
// on paper_dual's shape (104 cluster pseudo-nodes in a ring, so GraphSAGE
// never samples) and on a node-level LAN mesh that samples, next to how
// many rollout steps the update trained on their act-time forward (hits)
// or had to re-run (misses). Emits BENCH_sched.json (cwd) so later PRs can
// diff scheduling throughput against this baseline. The ≥2× parallel
// speedup expectation only applies on hosts with ≥4 cores; the JSON
// records the core count either way.
//
// Flags: --smoke            small configs + invariant checks only, exit 1 on
//                           failure (including any DCG-BE miss on the
//                           ring), no BENCH write (CI gate)
//        --nodes N          single custom config of ~N workers (16/cluster)
//        --queue Q          requests per round for the custom config
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench_common.h"
#include "common/stats.h"
#include "rl/agent.h"
#include "sched/dss_lc.h"
#include "sched/learned_be.h"

using namespace tango;

namespace {

using k8s::Assignment;
using k8s::PendingRequest;
using metrics::NodeSnapshot;
using metrics::StateStorage;
using SolverPoolStats = sched::DssLcScheduler::SolverPoolStats;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

StateStorage MakeStorage(int clusters, int workers_per_cluster,
                         std::uint64_t seed) {
  StateStorage st;
  Rng rng(seed);
  int node = 1;
  for (int c = 0; c < clusters; ++c) {
    st.UpdateRtt(ClusterId{c}, rng.UniformInt(1, 40) * kMillisecond);
    for (int w = 0; w < workers_per_cluster; ++w) {
      NodeSnapshot s;
      s.node = NodeId{node++};
      s.cluster = ClusterId{c};
      s.cpu_total = 8000;
      s.cpu_available = rng.UniformInt(500, 8000);
      s.mem_total = 16384;
      s.mem_available = rng.UniformInt(1024, 16384);
      s.queued = static_cast<int>(rng.UniformInt(0, 16));
      st.Update(s);
    }
  }
  return st;
}

std::vector<PendingRequest> MakeQueue(int count, SimTime base) {
  std::vector<PendingRequest> q;
  q.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    PendingRequest p;
    p.request.id = RequestId{i};
    p.request.service = ServiceId{i % 5};  // the 5 LC types of the catalog
    p.request.origin = ClusterId{0};
    p.request.arrival = base + (i % 7) * kMillisecond;
    q.push_back(p);
  }
  return q;
}

struct SchedRun {
  double rounds_per_sec = 0.0;
  std::int64_t assignments = 0;
  std::int64_t steady_alloc_events = 0;  // MCMF allocations after warm-up
  SolverPoolStats stats;                 // solver pool counters at run end
  std::vector<std::vector<Assignment>> per_round;  // for the identity check
};

SchedRun RunRounds(int num_threads, const StateStorage& st, int queue_len,
                   int rounds, int warmup, bool warm_start = true) {
  sched::DssLcConfig cfg;
  cfg.num_threads = num_threads;
  cfg.warm_start = warm_start;
  sched::DssLcScheduler dss(&bench::Catalog(), cfg);
  SchedRun run;
  std::int64_t warm_allocs = 0;
  double t0 = 0.0;
  for (int r = 0; r < warmup + rounds; ++r) {
    const SimTime now = r * 100 * kMillisecond;
    if (r == warmup) {
      warm_allocs = dss.solver_pool_stats().alloc_events;
      t0 = Now();
    }
    auto as = dss.Schedule(ClusterId{0}, MakeQueue(queue_len, now), st, now);
    run.assignments += static_cast<std::int64_t>(as.size());
    run.per_round.push_back(std::move(as));
  }
  const double elapsed = Now() - t0;
  run.rounds_per_sec = elapsed > 0.0 ? rounds / elapsed : 0.0;
  run.steady_alloc_events = dss.solver_pool_stats().alloc_events - warm_allocs;
  run.stats = dss.solver_pool_stats();
  return run;
}

bool Identical(const SchedRun& a, const SchedRun& b) {
  if (a.per_round.size() != b.per_round.size()) return false;
  for (std::size_t r = 0; r < a.per_round.size(); ++r) {
    const auto& x = a.per_round[r];
    const auto& y = b.per_round[r];
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].request != y[i].request || x[i].target != y[i].target) {
        return false;
      }
    }
  }
  return true;
}

struct SchedComparison {
  const char* label;
  int nodes;
  int queue_len;
  SchedRun serial;
  SchedRun parallel;
  bool identical = false;
  double speedup = 0.0;
};

SchedComparison CompareSched(const char* label, int clusters, int workers,
                             int queue_len, int rounds) {
  SchedComparison cmp;
  cmp.label = label;
  cmp.nodes = clusters * workers;
  cmp.queue_len = queue_len;
  const StateStorage st = MakeStorage(clusters, workers, 77);
  cmp.serial = RunRounds(/*num_threads=*/1, st, queue_len, rounds, 3);
  cmp.parallel = RunRounds(/*num_threads=*/0, st, queue_len, rounds, 3);
  cmp.identical = Identical(cmp.serial, cmp.parallel);
  cmp.speedup = cmp.serial.rounds_per_sec > 0.0
                    ? cmp.parallel.rounds_per_sec / cmp.serial.rounds_per_sec
                    : 0.0;
  return cmp;
}

/// TangoSolve warm-start vs cold rebuild, both serial, same storage/queue.
/// The cold run still uses the SoA solver and the dispatch-star kernel —
/// this isolates what the incremental machinery (memo + delta re-solve)
/// buys on top of the fast solver itself.
struct WarmVsCold {
  const char* label;
  int nodes = 0;
  int queue_len = 0;
  SchedRun cold;
  SchedRun warm;
  bool identical = false;
  double speedup = 0.0;
  double avg_deltas = 0.0;  // UpdateArc deltas per warm (delta) re-solve
};

WarmVsCold CompareWarmCold(const char* label, int clusters, int workers,
                           int queue_len, int rounds) {
  WarmVsCold w;
  w.label = label;
  w.nodes = clusters * workers;
  w.queue_len = queue_len;
  const StateStorage st = MakeStorage(clusters, workers, 77);
  w.cold = RunRounds(/*num_threads=*/1, st, queue_len, rounds, 3,
                     /*warm_start=*/false);
  w.warm = RunRounds(/*num_threads=*/1, st, queue_len, rounds, 3,
                     /*warm_start=*/true);
  w.identical = Identical(w.cold, w.warm);
  w.speedup = w.cold.rounds_per_sec > 0.0
                  ? w.warm.rounds_per_sec / w.cold.rounds_per_sec
                  : 0.0;
  w.avg_deltas =
      w.warm.stats.warm_solves > 0
          ? static_cast<double>(w.warm.stats.delta_updates) /
                static_cast<double>(w.warm.stats.warm_solves)
          : 0.0;
  return w;
}

/// Per-phase wall-clock profile of the DSS-LC round (snapshot filter,
/// graph build, delta build, MCMF solve, merge, commit) from a
/// profile_phases run. Serial mode so phase timings are not interleaved
/// across pool threads.
std::vector<scope::MetricRow> ProfilePhases(const StateStorage& st,
                                            int queue_len, int rounds) {
  sched::DssLcConfig cfg;
  cfg.num_threads = 1;
  cfg.profile_phases = true;
  sched::DssLcScheduler dss(&bench::Catalog(), cfg);
  for (int r = 0; r < rounds; ++r) {
    const SimTime now = r * 100 * kMillisecond;
    dss.Schedule(ClusterId{0}, MakeQueue(queue_len, now), st, now);
  }
  std::vector<scope::MetricRow> rows;
  for (auto& row : dss.metrics().Snapshot()) {
    if (row.name.rfind("sched.phase.", 0) == 0 ||
        row.name == "sched.round_us") {
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

struct E2eComparison {
  double serial_s = 0.0;
  double parallel_s = 0.0;
  double speedup = 0.0;
};

E2eComparison CompareEndToEnd() {
  constexpr SimDuration kDur = 20 * kSecond;
  const workload::Trace trace = bench::MixedTrace(4, 150.0, 10.0, kDur);
  E2eComparison e;
  framework::FrameworkOptions serial_opts;
  serial_opts.dss.num_threads = 1;
  framework::FrameworkOptions parallel_opts;
  parallel_opts.dss.num_threads = 0;
  double t = Now();
  const auto rs = bench::RunPair(trace, 4, framework::LcAlgo::kDssLc,
                                 framework::BeAlgo::kK8sNative, true,
                                 kDur + 5 * kSecond, serial_opts);
  e.serial_s = Now() - t;
  t = Now();
  const auto rp = bench::RunPair(trace, 4, framework::LcAlgo::kDssLc,
                                 framework::BeAlgo::kK8sNative, true,
                                 kDur + 5 * kSecond, parallel_opts);
  e.parallel_s = Now() - t;
  e.speedup = e.parallel_s > 0.0 ? e.serial_s / e.parallel_s : 0.0;
  // Parallel DSS-LC must not change simulation results.
  if (rs.summary.qos_satisfaction != rp.summary.qos_satisfaction) {
    std::printf("  [!!] e2e serial vs parallel summaries diverge\n");
  }
  return e;
}

struct RepsComparison {
  int n = 3;
  double serial_s = 0.0;
  double parallel_s = 0.0;
  double speedup = 0.0;
};

RepsComparison CompareRepetitions() {
  constexpr SimDuration kDur = 10 * kSecond;
  const workload::Trace trace = bench::MixedTrace(4, 100.0, 8.0, kDur);
  const std::vector<std::uint64_t> seeds{9, 10, 11};
  RepsComparison reps;
  reps.n = static_cast<int>(seeds.size());
  double t = Now();
  const auto serial = bench::RunPairSeeds(
      trace, 4, framework::LcAlgo::kDssLc, framework::BeAlgo::kK8sNative,
      true, kDur + 5 * kSecond, seeds, /*num_threads=*/1);
  reps.serial_s = Now() - t;
  t = Now();
  const auto parallel = bench::RunPairSeeds(
      trace, 4, framework::LcAlgo::kDssLc, framework::BeAlgo::kK8sNative,
      true, kDur + 5 * kSecond, seeds, /*num_threads=*/0);
  reps.parallel_s = Now() - t;
  reps.speedup = reps.parallel_s > 0.0 ? reps.serial_s / reps.parallel_s : 0.0;
  // Same seeds ⇒ same per-run results whichever pool ran them.
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (serial[i].summary.qos_satisfaction !=
        parallel[i].summary.qos_satisfaction) {
      std::printf("  [!!] repetition %zu diverges between pools\n", i);
    }
  }
  return reps;
}

/// DCG-BE's learner on one graph shape: Act() latency and update latency
/// (the Observe that closes a rollout of n̂ = 16), with the update's reuse
/// counters.
struct DcgBeRow {
  const char* label = "";
  int nodes = 0;
  int decisions = 0;
  int updates = 0;
  double act_us_p50 = 0.0;
  double act_us_p95 = 0.0;
  double update_ms_p50 = 0.0;
  double update_ms_max = 0.0;
  std::int64_t reuse_hits = 0;
  std::int64_t reuse_misses = 0;
};

DcgBeRow TimeDcgBe(const char* label, int clusters, int workers_per_cluster,
                   sched::BeGranularity granularity, int decisions) {
  const auto catalog = workload::ServiceCatalog::Standard();
  sched::LearnedBeConfig cfg;
  cfg.granularity = granularity;
  auto be = sched::MakeDcgBe(&catalog, gnn::EncoderKind::kGraphSage,
                             /*seed=*/7, cfg);
  auto& agent = dynamic_cast<rl::A2cAgent&>(be->agent());
  StateStorage st = MakeStorage(clusters, workers_per_cluster, 91);
  std::vector<NodeSnapshot> nodes = st.All();
  PendingRequest req;
  req.request.service = ServiceId{9};  // be-backup
  Rng load(17);
  std::vector<double> act_us;
  std::vector<double> update_ms;
  rl::GraphState state = be->BuildState(req, st);
  DcgBeRow row;
  row.label = label;
  row.nodes = state.graph.num_nodes();
  row.decisions = decisions;
  for (int d = 0; d < decisions; ++d) {
    double t0 = Now();
    const int action = agent.Act(state);
    act_us.push_back((Now() - t0) * 1e6);
    // Load moves between decisions, so every state differs.
    for (int k = 0; k < 4; ++k) {
      auto& w = nodes[static_cast<std::size_t>(
          load.UniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1))];
      w.cpu_available = load.UniformInt(500, 8000);
      w.queued = static_cast<int>(load.UniformInt(0, 16));
      st.Update(w);
    }
    rl::GraphState next = be->BuildState(req, st);
    const auto steps = agent.train_steps();
    t0 = Now();
    agent.Observe(state.graph.features.at(action, 0), next, false);
    if (agent.train_steps() != steps) update_ms.push_back((Now() - t0) * 1e3);
    state = std::move(next);
  }
  row.updates = static_cast<int>(update_ms.size());
  row.act_us_p50 = Percentile(act_us, 0.50);
  row.act_us_p95 = Percentile(act_us, 0.95);
  if (!update_ms.empty()) {
    row.update_ms_p50 = Percentile(update_ms, 0.50);
    row.update_ms_max = *std::max_element(update_ms.begin(), update_ms.end());
  }
  row.reuse_hits = agent.reuse_hits();
  row.reuse_misses = agent.reuse_misses();
  return row;
}

void WriteJson(const char* path, int cores,
               const std::vector<SchedComparison>& sched,
               const WarmVsCold& wc, const E2eComparison& e2e,
               const RepsComparison& reps,
               const std::vector<scope::MetricRow>& phases,
               const std::vector<DcgBeRow>& dcgbe) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"perf_sched\",\n  "
      << bench::ProvenanceJson(cores) << ",\n  \"sched\": {\n";
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const auto& c = sched[i];
    out << "    \"" << c.label << "\": {\n"
        << "      \"nodes\": " << c.nodes << ",\n"
        << "      \"queue_per_round\": " << c.queue_len << ",\n"
        << "      \"serial_rounds_per_sec\": " << c.serial.rounds_per_sec
        << ",\n"
        << "      \"parallel_rounds_per_sec\": " << c.parallel.rounds_per_sec
        << ",\n"
        << "      \"speedup\": " << c.speedup << ",\n"
        << "      \"identical_assignments\": "
        << (c.identical ? "true" : "false") << ",\n"
        << "      \"steady_state_alloc_events_serial\": "
        << c.serial.steady_alloc_events << ",\n"
        << "      \"steady_state_alloc_events_parallel\": "
        << c.parallel.steady_alloc_events << ",\n"
        << "      \"memo_hits\": " << c.serial.stats.memo_hits << ",\n"
        << "      \"warm_solves\": " << c.serial.stats.warm_solves << ",\n"
        << "      \"cold_solves\": " << c.serial.stats.cold_solves << ",\n"
        << "      \"star_solves\": " << c.serial.stats.star_solves << ",\n"
        << "      \"spfa_downgrades\": " << c.serial.stats.spfa_downgrades
        << ",\n"
        << "      \"delta_updates\": " << c.serial.stats.delta_updates
        << "\n    }" << (i + 1 < sched.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"warm_vs_cold\": {\n"
      << "    \"label\": \"" << wc.label << "\",\n"
      << "    \"nodes\": " << wc.nodes << ",\n"
      << "    \"queue_per_round\": " << wc.queue_len << ",\n"
      << "    \"cold_rounds_per_sec\": " << wc.cold.rounds_per_sec << ",\n"
      << "    \"warm_rounds_per_sec\": " << wc.warm.rounds_per_sec << ",\n"
      << "    \"speedup\": " << wc.speedup << ",\n"
      << "    \"identical_assignments\": "
      << (wc.identical ? "true" : "false") << ",\n"
      << "    \"memo_hits\": " << wc.warm.stats.memo_hits << ",\n"
      << "    \"warm_solves\": " << wc.warm.stats.warm_solves << ",\n"
      << "    \"cold_solves\": " << wc.warm.stats.cold_solves << ",\n"
      << "    \"star_solves\": " << wc.warm.stats.star_solves << ",\n"
      << "    \"spfa_downgrades\": " << wc.warm.stats.spfa_downgrades << ",\n"
      << "    \"delta_updates\": " << wc.warm.stats.delta_updates << ",\n"
      << "    \"avg_deltas_per_warm_solve\": " << wc.avg_deltas << "\n"
      << "  },\n  \"e2e_sim\": {\n"
      << "    \"serial_wall_s\": " << e2e.serial_s << ",\n"
      << "    \"parallel_wall_s\": " << e2e.parallel_s << ",\n"
      << "    \"speedup\": " << e2e.speedup << "\n  },\n"
      << "  \"repetitions\": {\n"
      << "    \"n\": " << reps.n << ",\n"
      << "    \"serial_wall_s\": " << reps.serial_s << ",\n"
      << "    \"parallel_wall_s\": " << reps.parallel_s << ",\n"
      << "    \"speedup\": " << reps.speedup << "\n  },\n"
      << "  \"phase_profile_us\": {\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& p = phases[i];
    out << "    \"" << p.name << "\": {\"count\": " << p.count
        << ", \"mean\": " << p.value << ", \"p50\": " << p.p50
        << ", \"p95\": " << p.p95 << ", \"p99\": " << p.p99 << "}"
        << (i + 1 < phases.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"dcgbe\": {\n";
  for (std::size_t i = 0; i < dcgbe.size(); ++i) {
    const auto& r = dcgbe[i];
    out << "    \"" << r.label << "\": {\"nodes\": " << r.nodes
        << ", \"decisions\": " << r.decisions << ", \"updates\": "
        << r.updates << ", \"act_us_p50\": " << r.act_us_p50
        << ", \"act_us_p95\": " << r.act_us_p95 << ", \"update_ms_p50\": "
        << r.update_ms_p50 << ", \"update_ms_max\": " << r.update_ms_max
        << ", \"reuse_hits\": " << r.reuse_hits << ", \"reuse_misses\": "
        << r.reuse_misses << "}" << (i + 1 < dcgbe.size() ? "," : "")
        << "\n";
  }
  out << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int nodes_override = 0;
  int queue_override = 0;
  for (int i = 1; i < argc; ++i) {
    const auto next_int = [&](int fallback) {
      return i + 1 < argc ? std::atoi(argv[++i]) : fallback;
    };
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes_override = next_int(0);
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      queue_override = next_int(0);
    } else {
      std::fprintf(stderr, "usage: perf_sched [--smoke] [--nodes N] "
                           "[--queue Q]\n");
      return 2;
    }
  }
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("perf_sched — DSS-LC scheduling core (host: %d cores)%s\n\n",
              cores, smoke ? "  [smoke]" : "");
  bool ok = true;

  struct Config {
    const char* label;
    int clusters, workers, queue, rounds;
  };
  std::vector<Config> configs;
  const bool custom = !smoke && (nodes_override > 0 || queue_override > 0);
  if (smoke) {
    configs.push_back({"smoke", 2, 4, 128, 10});
  } else if (custom) {
    // ~N workers at 16 per cluster; queue defaults to the large config's.
    const int nodes = nodes_override > 0 ? nodes_override : 256;
    const int queue = queue_override > 0 ? queue_override : 4096;
    configs.push_back({"custom", std::max(1, (nodes + 15) / 16), 16, queue,
                       10});
  } else {
    configs.push_back({"small", 4, 4, 256, 60});
    configs.push_back({"large", 16, 16, 4096, 15});
    configs.push_back({"huge", 64, 16, 16384, 8});
  }

  std::vector<SchedComparison> sched;
  for (const auto& c : configs) {
    sched.push_back(
        CompareSched(c.label, c.clusters, c.workers, c.queue, c.rounds));
  }

  std::vector<std::vector<std::string>> rows;
  for (const auto& c : sched) {
    rows.push_back({c.label, std::to_string(c.nodes),
                    std::to_string(c.queue_len),
                    eval::Fmt(c.serial.rounds_per_sec, 1),
                    eval::Fmt(c.parallel.rounds_per_sec, 1),
                    eval::Fmt(c.speedup, 2) + "x",
                    c.identical ? "yes" : "NO",
                    std::to_string(c.serial.steady_alloc_events) + "/" +
                        std::to_string(c.parallel.steady_alloc_events)});
  }
  eval::PrintTable(
      "DSS-LC rounds/sec, serial vs parallel",
      {"cluster", "nodes", "queue", "serial r/s", "parallel r/s", "speedup",
       "identical", "steady allocs (s/p)"},
      rows);

  // TangoSolve warm-start vs cold rebuild on the largest standard view
  // (or the smoke/custom config when one was requested).
  const Config wc_cfg = custom || smoke
                            ? configs.back()
                            : Config{"large", 16, 16, 4096, 15};
  const WarmVsCold wc = CompareWarmCold(wc_cfg.label, wc_cfg.clusters,
                                        wc_cfg.workers, wc_cfg.queue,
                                        wc_cfg.rounds);
  std::printf("\n== warm-start vs cold rebuild (serial, %s) ==\n", wc.label);
  std::printf("  cold %.1f r/s  warm %.1f r/s  (%.2fx)  %s\n",
              wc.cold.rounds_per_sec, wc.warm.rounds_per_sec, wc.speedup,
              wc.identical ? "identical" : "DIVERGED");
  std::printf("  warm rounds: memo %lld  delta %lld  cold %lld  star %lld  "
              "downgrades %lld  avg %.1f deltas/warm-solve\n",
              static_cast<long long>(wc.warm.stats.memo_hits),
              static_cast<long long>(wc.warm.stats.warm_solves),
              static_cast<long long>(wc.warm.stats.cold_solves),
              static_cast<long long>(wc.warm.stats.star_solves),
              static_cast<long long>(wc.warm.stats.spfa_downgrades),
              wc.avg_deltas);

  // Per-phase wall-clock breakdown of a round on the large cluster view —
  // where a scheduling round actually spends its time.
  std::vector<scope::MetricRow> phases;
  if (!smoke) {
    phases = ProfilePhases(MakeStorage(16, 16, 77), /*queue_len=*/4096,
                           /*rounds=*/20);
    std::vector<std::vector<std::string>> phase_rows;
    for (const auto& p : phases) {
      phase_rows.push_back({p.name, std::to_string(p.count),
                            eval::Fmt(p.value, 1), eval::Fmt(p.p50, 1),
                            eval::Fmt(p.p95, 1), eval::Fmt(p.p99, 1)});
    }
    eval::PrintTable("DSS-LC round phase profile (µs, large cluster)",
                     {"phase", "samples", "mean", "p50", "p95", "p99"},
                     phase_rows);
  }

  // DCG-BE: paper_dual's 104-cluster ring (kCluster) and a node-level LAN
  // mesh whose degrees exceed GraphSAGE's p = 3.
  const int dcgbe_decisions = smoke ? 48 : 320;
  const std::vector<DcgBeRow> dcgbe = {
      TimeDcgBe("ring104", 104, 10, sched::BeGranularity::kCluster,
                dcgbe_decisions),
      TimeDcgBe("mesh128", 8, 16, sched::BeGranularity::kNode,
                dcgbe_decisions)};
  std::vector<std::vector<std::string>> dcgbe_rows;
  for (const auto& r : dcgbe) {
    dcgbe_rows.push_back(
        {r.label, std::to_string(r.nodes), std::to_string(r.decisions),
         eval::Fmt(r.act_us_p50, 0), eval::Fmt(r.act_us_p95, 0),
         std::to_string(r.updates), eval::Fmt(r.update_ms_p50, 2),
         eval::Fmt(r.update_ms_max, 2),
         std::to_string(r.reuse_hits) + "/" + std::to_string(r.reuse_misses)});
  }
  eval::PrintTable("DCG-BE learner (GraphSAGE A2C, n^ = 16)",
                   {"shape", "nodes", "decisions", "act p50 us", "act p95 us",
                    "updates", "update p50 ms", "update max ms",
                    "reuse hit/miss"},
                   dcgbe_rows);

  E2eComparison e2e;
  RepsComparison reps;
  if (!smoke) {
    e2e = CompareEndToEnd();
    reps = CompareRepetitions();
    std::printf("\n== end-to-end ==\n");
    std::printf("  sim wall time     serial %.2fs  parallel %.2fs  (%.2fx)\n",
                e2e.serial_s, e2e.parallel_s, e2e.speedup);
    std::printf("  3 reps wall time  serial %.2fs  parallel %.2fs  (%.2fx)\n",
                reps.serial_s, reps.parallel_s, reps.speedup);
  }

  std::printf("\n");
  for (const auto& c : sched) {
    bench::PaperCheck((std::string("parallel == serial (") + c.label + ")")
                          .c_str(),
                      "byte-identical assignments",
                      c.identical ? "identical" : "DIVERGED", c.identical);
    const bool no_alloc = c.serial.steady_alloc_events == 0 &&
                          c.parallel.steady_alloc_events == 0;
    bench::PaperCheck((std::string("steady-state allocations (") + c.label +
                       ")")
                          .c_str(),
                      "0 MCMF graph allocations",
                      std::to_string(c.serial.steady_alloc_events) + "/" +
                          std::to_string(c.parallel.steady_alloc_events),
                      no_alloc);
    ok = ok && c.identical && no_alloc;
  }
  bench::PaperCheck((std::string("warm == cold assignments (") + wc.label +
                     ")")
                        .c_str(),
                    "byte-identical assignments",
                    wc.identical ? "identical" : "DIVERGED", wc.identical);
  const bool warm_used =
      wc.warm.stats.memo_hits + wc.warm.stats.warm_solves > 0;
  bench::PaperCheck("warm path exercised", "memo hits + delta re-solves > 0",
                    std::to_string(wc.warm.stats.memo_hits) + "+" +
                        std::to_string(wc.warm.stats.warm_solves),
                    warm_used);
  ok = ok && wc.identical && warm_used;
  for (const auto& r : dcgbe) {
    // Every trained step is either reused or re-run.
    const bool accounted =
        r.reuse_hits + r.reuse_misses == 16LL * r.updates && r.updates > 0;
    bench::PaperCheck((std::string("DCG-BE update steps accounted (") +
                       r.label + ")")
                          .c_str(),
                      "hits + misses = 16 x updates",
                      std::to_string(r.reuse_hits + r.reuse_misses) + " of " +
                          std::to_string(16 * r.updates),
                      accounted);
    ok = ok && accounted;
  }
  const bool ring_reused = dcgbe[0].reuse_misses == 0;
  bench::PaperCheck("DCG-BE ring reuses every act-time forward",
                    "0 misses (degree 2 <= p = 3)",
                    std::to_string(dcgbe[0].reuse_misses) + " misses",
                    ring_reused);
  ok = ok && ring_reused;
  const auto& large = sched.back();
  if (smoke) {
    // Throughput targets are meaningless at smoke scale; only the
    // invariants above gate.
  } else if (cores >= 4) {
    bench::PaperCheck("large-cluster scheduling speedup", ">= 2x on >=4 cores",
                      eval::Fmt(large.speedup, 2) + "x", large.speedup >= 2.0);
  } else {
    std::printf("  [--] speedup target (>=2x) applies to >=4-core hosts; "
                "this host has %d (measured %.2fx)\n",
                cores, large.speedup);
  }

  if (!smoke && bench::ShouldWriteBench("BENCH_sched.json", cores)) {
    WriteJson("BENCH_sched.json", cores, sched, wc, e2e, reps, phases,
              dcgbe);
    std::printf("\nwrote BENCH_sched.json\n");
  }
  if (!ok) {
    std::printf("\nFAILED: identity, allocation, warm-path or DCG-BE reuse "
                "invariant violated\n");
    return 1;
  }
  return 0;
}
