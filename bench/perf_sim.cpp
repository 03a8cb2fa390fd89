// perf_sim — event-engine, state-sync and sharded-engine benchmark.
//
// Three measurements:
//   1. Raw event-engine throughput (events/sec) for one-shot churn,
//      periodic re-arm, and heavy cancel/re-schedule, with the engine's
//      alloc_events() asserted flat after warm-up.
//   2. End-to-end simulations of a 16-node and a 256-node system: wall
//      time, state-sync pushes vs skips, and zero event allocations and
//      snapshot insertions asserted after warm-up.
//   3. TangoShard scale sweep: the conservative sharded engine on 1k, 16k
//      and 100k-node layouts at shard counts {1, 2, 4, 8}, asserting
//      byte-identical digests across shard counts and recording events/sec
//      and speedup vs the serial run.
//
// Emits BENCH_sim.json (cwd). `--smoke` runs the identity and
// zero-allocation asserts on the small system only plus a small sharded
// identity check, and skips the timed sections — that mode is wired into
// CI (including the TSan and TANGO_AUDIT jobs), where timing gates would
// flake. The 8-shard ≥4x sweep target is only *gated* on hosts with ≥8
// cores; smaller hosts still print the measured value. The JSON records
// the core count, and ShouldWriteBench refuses to record on a 1-core host
// or to clobber a result from a bigger host unless TANGO_BENCH_FORCE is set.
//
// Flags: --smoke
//        --nodes N   replace the sweep tiers with one ~N-node layout
//        --shards S  sweep shard counts {1, 2, 4, ..., S}
//        --cores C   override the detected core count (gating + provenance)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "shard/engine.h"

using namespace tango;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- 1. Event-engine microbenchmarks --------------------------------------

struct EngineRun {
  double oneshot_events_per_sec = 0.0;
  double periodic_events_per_sec = 0.0;
  double cancel_churn_events_per_sec = 0.0;
  std::int64_t steady_alloc_events = 0;
  bool pending_exact = false;
};

EngineRun RunEngine(std::int64_t events) {
  EngineRun run;
  // One-shot self-rescheduling chain with a fan of 64 concurrently pending
  // events — the dispatch/transfer pattern of the simulation proper.
  {
    sim::Simulator s;
    s.ReserveEvents(128);
    std::int64_t remaining = events;
    struct Chain {
      sim::Simulator* s;
      std::int64_t* remaining;
      void operator()() const {
        if (--*remaining <= 0) return;
        s->ScheduleAfter(kMillisecond, Chain{s, remaining});
      }
    };
    for (int i = 0; i < 64; ++i) {
      s.ScheduleAfter(i, Chain{&s, &remaining});
    }
    s.RunUntil(kSecond / 10);  // warm the pool (64 chains × 100 ticks)
    const std::int64_t warm_allocs = s.alloc_events();
    const std::int64_t warm_executed =
        static_cast<std::int64_t>(s.executed_events());
    const double t0 = Now();
    s.RunAll();
    const double elapsed = Now() - t0;
    const auto executed =
        static_cast<std::int64_t>(s.executed_events()) - warm_executed;
    run.oneshot_events_per_sec =
        elapsed > 0.0 ? static_cast<double>(executed) / elapsed : 0.0;
    run.steady_alloc_events += s.alloc_events() - warm_allocs;
  }
  // First-class periodics: 64 timers re-armed in place.
  {
    sim::Simulator s;
    s.ReserveEvents(128);
    std::int64_t fired = 0;
    std::vector<sim::EventHandle> timers;
    for (int i = 0; i < 64; ++i) {
      timers.push_back(
          s.StartPeriodic(i + 1, kMillisecond, [&fired]() { ++fired; }));
    }
    s.RunUntil(10 * kMillisecond);  // warm-up
    const std::int64_t warm_allocs = s.alloc_events();
    const std::int64_t warm_fired = fired;
    const SimDuration horizon =
        (events / 64) * kMillisecond + 10 * kMillisecond;
    const double t0 = Now();
    s.RunUntil(horizon);
    const double elapsed = Now() - t0;
    run.periodic_events_per_sec =
        elapsed > 0.0 ? static_cast<double>(fired - warm_fired) / elapsed
                      : 0.0;
    run.steady_alloc_events += s.alloc_events() - warm_allocs;
    for (auto h : timers) s.Cancel(h);
    run.pending_exact = s.pending_events() == 0;
  }
  // Cancel/re-schedule churn: every event is cancelled and replaced before
  // it fires — the completion-rescheduling pattern of WorkerNode::Recompute.
  {
    sim::Simulator s;
    s.ReserveEvents(128);
    std::vector<sim::EventHandle> pending(64, sim::kInvalidEvent);
    std::int64_t churned = 0;
    for (std::int64_t i = 0; i < 64; ++i) {
      pending[static_cast<std::size_t>(i)] =
          s.ScheduleAt(100 * kSecond + i, []() {});
    }
    s.RunUntil(0);
    const std::int64_t warm_allocs = s.alloc_events();
    const double t0 = Now();
    for (std::int64_t i = 0; i < events; ++i) {
      const auto slot = static_cast<std::size_t>(i % 64);
      s.Cancel(pending[slot]);
      pending[slot] = s.ScheduleAt(100 * kSecond + i, []() {});
      ++churned;
    }
    const double elapsed = Now() - t0;
    run.cancel_churn_events_per_sec =
        elapsed > 0.0 ? static_cast<double>(churned) / elapsed : 0.0;
    run.steady_alloc_events += s.alloc_events() - warm_allocs;
    run.pending_exact = run.pending_exact && s.pending_events() == 64;
  }
  return run;
}

// ---- 2. End-to-end simulation ---------------------------------------------

struct SimRun {
  const char* label = "";
  int nodes = 0;
  std::int64_t sync_pushes = 0;
  std::int64_t sync_skipped = 0;
  std::int64_t steady_alloc_events = 0;
  std::int64_t steady_storage_inserts = 0;
  double wall_s = 0.0;
};

std::int64_t StorageInserts(const k8s::EdgeCloudSystem& system) {
  std::int64_t inserts = system.BeStorage().inserts();
  for (int c = 0; c < system.num_clusters(); ++c) {
    inserts += system.LcStorage(ClusterId{c}).inserts();
  }
  return inserts;
}

SimRun RunSim(const char* label, int clusters, int workers_per_cluster,
              double lc_rps, double be_rps, SimDuration dur) {
  // LoadGreedy schedulers keep the solver out of the picture: the monitoring
  // plane (sync + metrics + event engine) dominates, which is exactly the
  // layer this bench isolates.
  k8s::SystemConfig cfg;
  cfg.clusters = eval::PhysicalClusters(clusters);
  for (auto& cl : cfg.clusters) cl.num_workers = workers_per_cluster;
  cfg.region_km = 450.0;  // all clusters mutually nearby: max scope
  cfg.seed = 9;

  SimRun run;
  run.label = label;
  run.nodes = clusters * workers_per_cluster;
  k8s::EdgeCloudSystem system(cfg, &bench::Catalog());
  framework::Assembly assembly = framework::InstallPair(
      system, framework::LcAlgo::kLoadGreedy, framework::BeAlgo::kLoadGreedy,
      /*with_hrm=*/true, {});
  system.SubmitTrace(bench::MixedTrace(clusters, lc_rps, be_rps, dur));
  // Pre-warm the event pool past any burst's high-water mark so the
  // steady-state assert measures per-event behavior, not pool growth from
  // a late traffic peak.
  system.simulator().ReserveEvents(8192);
  const double t0 = Now();
  // Warm-up: run a slice of the trace so pools and storages reach their
  // high-water marks, then demand zero further allocations.
  system.Run(dur / 4);
  const std::int64_t warm_allocs = system.simulator().alloc_events();
  const std::int64_t warm_inserts = StorageInserts(system);
  system.Run(dur + 5 * kSecond);
  run.wall_s = Now() - t0;
  run.steady_alloc_events =
      system.simulator().alloc_events() - warm_allocs;
  run.steady_storage_inserts = StorageInserts(system) - warm_inserts;
  scope::MetricRegistry& reg = system.metrics_registry();
  run.sync_pushes = reg.GetCounter("sync.pushes").value();
  run.sync_skipped = reg.GetCounter("sync.pushes_skipped").value();
  return run;
}

// ---- 3. TangoShard scale sweep --------------------------------------------

struct ScalePoint {
  std::string label;
  int clusters = 0;
  int nodes = 0;
  int shards = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double speedup_vs_serial = 0.0;  // same layout, shards=1
};

ScalePoint RunShardPoint(const char* label, int clusters, int workers,
                         int shards, SimDuration dur) {
  shard::EngineConfig cfg;
  for (int c = 0; c < clusters; ++c) {
    k8s::ClusterSpec spec;
    spec.num_workers = workers;
    cfg.clusters.push_back(spec);
  }
  cfg.duration = dur;
  cfg.seed = 17;
  cfg.num_shards = shards;
  shard::ShardEngine engine(std::move(cfg));
  const shard::RunResult r = engine.Run();
  ScalePoint p;
  p.label = label;
  p.clusters = clusters;
  p.nodes = engine.num_nodes();
  p.shards = engine.num_shards();
  p.events = r.executed_events;
  p.digest = r.digest;
  p.wall_s = r.wall_seconds;
  p.events_per_sec = r.events_per_sec;
  return p;
}

struct SweepTier {
  const char* label;
  int clusters;
  int workers;
  SimDuration dur;
};

std::vector<ScalePoint> RunScaleSweep(const std::vector<SweepTier>& tiers,
                                      const std::vector<int>& shard_counts,
                                      bool* identical) {
  std::vector<ScalePoint> sweep;
  for (const auto& tier : tiers) {
    double serial_eps = 0.0;
    std::uint64_t serial_digest = 0;
    for (int shards : shard_counts) {
      if (shards > tier.clusters) continue;  // partitioner would clamp
      ScalePoint p = RunShardPoint(tier.label, tier.clusters, tier.workers,
                                   shards, tier.dur);
      if (shards == 1) {
        serial_eps = p.events_per_sec;
        serial_digest = p.digest;
      } else if (p.digest != serial_digest) {
        *identical = false;
      }
      p.speedup_vs_serial =
          serial_eps > 0.0 ? p.events_per_sec / serial_eps : 0.0;
      std::printf(
          "  %-6s %7d nodes  %3d clusters  %2d shards  %9.2e events/s  "
          "(%.2fx)  digest %016llx\n",
          p.label.c_str(), p.nodes, p.clusters, p.shards, p.events_per_sec,
          p.speedup_vs_serial,
          static_cast<unsigned long long>(p.digest));
      sweep.push_back(std::move(p));
    }
  }
  return sweep;
}

void WriteJson(const char* path, int cores, const EngineRun& engine,
               const std::vector<SimRun>& e2e,
               const std::vector<ScalePoint>& sweep) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"perf_sim\",\n  "
      << bench::ProvenanceJson(cores) << ",\n  \"engine\": {\n"
      << "    \"oneshot_events_per_sec\": " << engine.oneshot_events_per_sec
      << ",\n"
      << "    \"periodic_events_per_sec\": " << engine.periodic_events_per_sec
      << ",\n"
      << "    \"cancel_churn_events_per_sec\": "
      << engine.cancel_churn_events_per_sec << ",\n"
      << "    \"steady_state_alloc_events\": " << engine.steady_alloc_events
      << ",\n"
      << "    \"pending_events_exact\": "
      << (engine.pending_exact ? "true" : "false") << "\n  },\n"
      << "  \"e2e_sim\": {\n";
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const auto& e = e2e[i];
    out << "    \"" << e.label << "\": {\n"
        << "      \"nodes\": " << e.nodes << ",\n"
        << "      \"wall_s\": " << e.wall_s << ",\n"
        << "      \"sync_pushes\": " << e.sync_pushes << ",\n"
        << "      \"sync_pushes_skipped\": " << e.sync_skipped << ",\n"
        << "      \"steady_state_alloc_events\": " << e.steady_alloc_events
        << ",\n"
        << "      \"steady_state_storage_inserts\": "
        << e.steady_storage_inserts << "\n    }"
        << (i + 1 < e2e.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"scale_sweep\": [\n";
  char digest_hex[17];
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& p = sweep[i];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(p.digest));
    out << "    {\"tier\": \"" << p.label << "\", \"nodes\": " << p.nodes
        << ", \"clusters\": " << p.clusters << ", \"shards\": " << p.shards
        << ", \"events\": " << p.events
        << ", \"events_per_sec\": " << p.events_per_sec
        << ", \"speedup_vs_serial\": " << p.speedup_vs_serial
        << ", \"digest\": \"" << digest_hex << "\"}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int nodes_override = 0;
  int max_shards = 8;
  int cores = static_cast<int>(std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const auto next_int = [&](int fallback) {
      return i + 1 < argc ? std::atoi(argv[++i]) : fallback;
    };
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes_override = next_int(0);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      max_shards = next_int(max_shards);
    } else if (std::strcmp(argv[i], "--cores") == 0) {
      cores = next_int(cores);
    } else {
      std::fprintf(stderr,
                   "usage: perf_sim [--smoke] [--nodes N] [--shards S] "
                   "[--cores C]\n");
      return 2;
    }
  }
  std::printf("perf_sim — event engine, state sync & sharded engine (host: "
              "%d cores)%s\n\n",
              cores, smoke ? "  [smoke]" : "");
  bool ok = true;

  // Engine microbenchmarks (small in smoke mode — the asserts are about
  // allocations and exactness, not throughput).
  const EngineRun engine = RunEngine(smoke ? 50000 : 2000000);
  std::printf("== event engine ==\n");
  std::printf("  one-shot churn    %12.0f events/s\n",
              engine.oneshot_events_per_sec);
  std::printf("  periodic re-arm   %12.0f events/s\n",
              engine.periodic_events_per_sec);
  std::printf("  cancel+reschedule %12.0f events/s\n",
              engine.cancel_churn_events_per_sec);
  bench::PaperCheck("steady-state event allocations", "0 after warm-up",
                    std::to_string(engine.steady_alloc_events),
                    engine.steady_alloc_events == 0);
  bench::PaperCheck("pending_events() exact after churn", "no tombstones",
                    engine.pending_exact ? "exact" : "STALE",
                    engine.pending_exact);
  ok = ok && engine.steady_alloc_events == 0 && engine.pending_exact;

  // End-to-end: 16-node always; 256-node only in full mode.
  std::vector<SimRun> e2e;
  std::printf("\n== end-to-end simulation ==\n");
  e2e.push_back(RunSim("small", 4, 4, 100.0, 8.0,
                       smoke ? 5 * kSecond : 20 * kSecond));
  if (!smoke) {
    // Moderate load on a big fleet: the monitoring plane (sync + metrics +
    // timer churn), not request processing, is the dominant cost — the
    // regime a 256-node edge deployment actually runs in (§6.1 sizes
    // workloads per cluster, not per fleet).
    e2e.push_back(RunSim("large", 16, 16, 60.0, 8.0, 20 * kSecond));
  }
  for (const auto& e : e2e) {
    std::printf("  %-5s %4d nodes  %.2fs  pushes %lld  skipped %lld\n",
                e.label, e.nodes, e.wall_s,
                static_cast<long long>(e.sync_pushes),
                static_cast<long long>(e.sync_skipped));
    bench::PaperCheck(
        (std::string("steady-state allocations (") + e.label + ")").c_str(),
        "0 event allocs, 0 snapshot inserts",
        std::to_string(e.steady_alloc_events) + "/" +
            std::to_string(e.steady_storage_inserts),
        e.steady_alloc_events == 0 && e.steady_storage_inserts == 0);
    ok = ok && e.steady_alloc_events == 0 && e.steady_storage_inserts == 0;
  }

  // TangoShard scale sweep. Shard counts are powers of two up to
  // --shards; byte-identity across shard counts is always gated, the 8-shard
  // throughput target only on hosts with the cores to show it.
  std::vector<int> shard_counts;
  for (int s = 1; s <= max_shards; s *= 2) shard_counts.push_back(s);
  std::vector<SweepTier> tiers;
  if (smoke) {
    tiers.push_back({"smoke", 8, 4, 2 * kSecond});
  } else if (nodes_override > 0) {
    // One custom layout of ~N nodes: clusters scale with N up to the 128
    // of the hybrid-layout regime, workers fill the remainder.
    const int clusters = std::max(4, std::min(128, nodes_override / 256));
    const int workers = std::max(1, nodes_override / clusters - 1);
    tiers.push_back({"custom", clusters, workers, 10 * kSecond});
  } else {
    tiers.push_back({"edge1k", 16, 64, 10 * kSecond});
    tiers.push_back({"mixed16k", 64, 256, 10 * kSecond});
    tiers.push_back({"hyper100k", 128, 800, 10 * kSecond});
  }
  std::printf("\n== sharded engine scale sweep ==\n");
  bool sweep_identical = true;
  const std::vector<ScalePoint> sweep =
      RunScaleSweep(tiers, shard_counts, &sweep_identical);
  bench::PaperCheck("sharded digests across shard counts",
                    "byte-identical to serial",
                    sweep_identical ? "identical" : "DIVERGED",
                    sweep_identical);
  ok = ok && sweep_identical;
  if (!smoke) {
    double best8 = 0.0;
    for (const auto& p : sweep) {
      if (p.shards == 8) best8 = std::max(best8, p.speedup_vs_serial);
    }
    if (cores >= 8) {
      bench::PaperCheck("8-shard events/sec vs serial", ">= 4x on >=8 cores",
                        eval::Fmt(best8, 2) + "x", best8 >= 4.0);
      ok = ok && best8 >= 4.0;
    } else {
      std::printf(
          "  [--] 8-shard speedup target (>=4x) gates on >=8-core hosts; "
          "this host has %d (best measured %.2fx)\n",
          cores, best8);
    }
  }

  if (!smoke && bench::ShouldWriteBench("BENCH_sim.json", cores)) {
    WriteJson("BENCH_sim.json", cores, engine, e2e, sweep);
    std::printf("\nwrote BENCH_sim.json\n");
  }
  if (!ok) {
    std::printf("\nFAILED: identity or zero-allocation invariant violated\n");
    return 1;
  }
  return 0;
}
