#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <thread>

#include "eval/harness.h"
#include "layers.h"
#include "shard/engine.h"
#include "storm/scenario.h"
#include "tango/framework.h"
#include "workload/trace.h"

namespace tangobench {

using namespace tango;

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},         {"req_per_s", "1/s"},
      {"peak_rss_mb", "MB"},    {"lc_qos_sat", "ratio"},
      {"lc_p50_ms", "ms"},      {"lc_p95_ms", "ms"},
      {"lc_p99_ms", "ms"},      {"lc_mean_ms", "ms"},
      {"be_done", "ratio"},     {"util_mean", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"k8s.self_s", "s"},
      {"k8s.self_share", "ratio"},
      {"k8s.sync.pushes", "count"},
      {"k8s.sync.skip_ratio", "ratio"},
      {"k8s.admit.attempts", "count"},
      {"k8s.admit.accept_ratio", "ratio"},
      {"k8s.be.reschedules", "count"},
      {"inflight_frac", "ratio"},
      {"failed_frac", "ratio"},
      {"dsslc.rounds", "count"},
      {"dsslc.round_us.p50", "us"},
      {"dsslc.round_us.p99", "us"},
      {"dsslc.self_s", "s"},
      {"dsslc.share", "ratio"},
      {"dsslc.queue.mean", "count"},
      {"dsslc.queue.max", "count"},
      {"dsslc.assigned_ratio", "ratio"},
      {"dsslc.overflow", "count"},
      {"sched.phase.snapshot_us", "us"},
      {"sched.phase.graph_build_us", "us"},
      {"sched.phase.delta_build_us", "us"},
      {"sched.phase.mcmf_solve_us", "us"},
      {"sched.phase.merge_us", "us"},
      {"sched.phase.commit_us", "us"},
      {"dsslc.phase.unattributed_frac", "ratio"},
      {"dcgbe.decisions", "count"},
      {"dcgbe.decide_us.p50", "us"},
      {"dcgbe.decide_us.p99", "us"},
      {"dcgbe.self_s", "s"},
      {"dcgbe.share", "ratio"},
      {"dcgbe.placed_ratio", "ratio"},
      {"hrm.policy_s", "s"},
      {"hrm.policy_calls", "count"},
      {"hrm.reassure.up", "count"},
      {"hrm.reassure.down", "count"},
      {"hrm.dvpa.ops", "count"},
      {"shard.epochs", "count"},
      {"shard.epochs_skipped", "count"},
      {"shard.events_per_shard_epoch", "count"},
      {"shard.mailbox_per_epoch", "count"},
      {"shard.ref_s", "s"},
      {"shard.speedup", "ratio"},
      {"shard.efficiency", "ratio"},
      {"shard.model.delta_skip_ratio", "ratio"},
      {"shard.model.spilled", "count"},
      {"shard.model.bounced", "count"},
      {"gen.s", "s"},
      {"gen.req_per_s", "1/s"},
      {"trace.overhead", "ratio"},
  };
  return defs;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Percentile of span durations in µs (nearest rank).
double SpanPercentileUs(std::vector<double> us, double q) {
  std::sort(us.begin(), us.end());
  return NearestRank(us, q);
}

/// Registry row lookup by exact name (count for counters and histograms).
const scope::MetricRow* FindRow(const std::vector<scope::MetricRow>& rows,
                                const std::string& name) {
  for (const auto& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

std::int64_t RowCount(const std::vector<scope::MetricRow>& rows,
                      const std::string& name) {
  const scope::MetricRow* r = FindRow(rows, name);
  return r != nullptr ? r->count : 0;
}

// ---- Serial Tango on k8s::EdgeCloudSystem ----------------------------------

/// One serial workload: a fixed deployment plus a seeded trace generator.
struct SystemDef {
  k8s::SystemConfig system;
  const workload::ServiceCatalog* catalog = nullptr;
  framework::FrameworkOptions options;
  /// Arrivals end here; the rest of the pass up to `horizon` drains.
  SimDuration trace_duration = 0;
  SimTime horizon = 0;
  workload::Trace (*make_trace)(std::uint64_t seed, SimDuration duration) =
      nullptr;
};

/// A traced pass advances the simulation in slices of this much simulated
/// time; each slice is one span.
constexpr SimDuration kSlice = 250 * kMillisecond;

class SystemWorkload final : public Workload {
 public:
  explicit SystemWorkload(SystemDef def) : def_(std::move(def)) {}

  PassResult RunPass(std::uint64_t seed, bool traced, Gates* gates) override;
  double SetupOnly(std::uint64_t seed) override;
  bool WriteSpans(const std::string& path) const override {
    return last_spans_.WriteChromeTrace(path);
  }

 private:
  struct Prepared {
    workload::Trace trace;
    std::unique_ptr<k8s::EdgeCloudSystem> system;
    framework::Assembly assembly;
  };
  Prepared Prepare(std::uint64_t seed, bool traced, double* gen_s);

  SystemDef def_;
  SpanLog last_spans_;  // of the latest traced pass
};

SystemWorkload::Prepared SystemWorkload::Prepare(std::uint64_t seed,
                                                 bool traced, double* gen_s) {
  Prepared p;
  const auto t0 = Clock::now();
  p.trace = def_.make_trace(seed, def_.trace_duration);
  *gen_s = SecondsBetween(t0, Clock::now());
  p.system = std::make_unique<k8s::EdgeCloudSystem>(def_.system, def_.catalog);
  framework::FrameworkOptions options = def_.options;
  // Phase timing only reads the clock; the assignments are unchanged.
  options.dss.profile_phases = traced;
  p.assembly = framework::InstallFramework(
      *p.system, framework::FrameworkKind::kTango, options);
  return p;
}

double SystemWorkload::SetupOnly(std::uint64_t seed) {
  const auto t0 = Clock::now();
  double gen_s = 0.0;
  Prepared p = Prepare(seed, /*traced=*/false, &gen_s);
  p.system->SubmitTrace(p.trace);
  return SecondsBetween(t0, Clock::now());
}

PassResult SystemWorkload::RunPass(std::uint64_t seed, bool traced,
                                   Gates* gates) {
  PassResult r;
  const auto t0 = Clock::now();
  Prepared p = Prepare(seed, traced, &r.gen_s);
  k8s::EdgeCloudSystem& sys = *p.system;

  std::unique_ptr<Probe> probe;
  std::unique_ptr<TimedLcScheduler> lc;
  std::unique_ptr<TimedBeScheduler> be;
  std::unique_ptr<TimedAllocationPolicy> policy;
  if (traced) {
    // Same objects, wrapped: the Reassurer keeps driving the inner HRM
    // policy, the system calls it through the decorator.
    probe = std::make_unique<Probe>();
    lc = std::make_unique<TimedLcScheduler>(p.assembly.lc_scheduler(),
                                            probe.get());
    be = std::make_unique<TimedBeScheduler>(p.assembly.be_scheduler(),
                                            probe.get(), &sys);
    policy = std::make_unique<TimedAllocationPolicy>(
        p.assembly.hrm_policy(), probe.get());
    sys.SetLcScheduler(lc.get());
    sys.SetBeScheduler(be.get());
    sys.SetAllocationPolicy(policy.get());
  }
  sys.SubmitTrace(p.trace);
  const auto t1 = Clock::now();

  if (traced) {
    const std::int32_t pass_span = probe->spans.Begin("pass", -1);
    for (SimTime until = kSlice; until < def_.horizon + kSlice;
         until += kSlice) {
      probe->parent = probe->spans.Begin("slice", pass_span);
      sys.Run(std::min<SimTime>(until, def_.horizon));
      probe->spans.End(probe->parent);
    }
    probe->spans.End(pass_span);
  } else {
    sys.Run(def_.horizon);
  }
  const auto t2 = Clock::now();
  r.setup_s = SecondsBetween(t0, t1);
  r.run_s = SecondsBetween(t1, t2);

  // Outcomes from the per-request records; a record still pending at the
  // horizon is in flight, not failed.
  Outcomes& o = r.sim.outcomes;
  std::vector<double> lc_ms;
  std::uint64_t digest = kFnvBasis;
  std::int64_t be_reschedules = 0;
  for (const k8s::RequestRecord& rec : sys.records()) {
    if (!rec.request.id.valid()) continue;
    const bool lc_req = def_.catalog->Get(rec.request.service).is_lc();
    switch (rec.outcome) {
      case k8s::Outcome::kCompleted:
        if (lc_req) {
          o.lc_completed += 1;
          if (rec.qos_met) o.lc_qos_met += 1;
          lc_ms.push_back(static_cast<double>(rec.latency) / 1000.0);
        } else {
          o.be_completed += 1;
        }
        break;
      case k8s::Outcome::kAbandoned:
        // Only LC requests abandon; a BE one would show up as a
        // conservation failure (counted in no BE term).
        if (lc_req) o.lc_abandoned += 1;
        break;
      case k8s::Outcome::kDropped:
        (lc_req ? o.lc_dropped : o.be_dropped) += 1;
        break;
      case k8s::Outcome::kPending:
        (lc_req ? o.lc_inflight : o.be_inflight) += 1;
        break;
    }
    (lc_req ? o.lc_arrived : o.be_arrived) += 1;
    be_reschedules += rec.reschedules;
    digest = Fnv(digest, static_cast<std::uint64_t>(rec.outcome));
    digest = Fnv(digest, static_cast<std::uint64_t>(rec.target.value));
    digest = Fnv(digest, static_cast<std::uint64_t>(rec.latency));
  }
  r.requests = o.arrived();
  r.sim.latency = ExactLatency(std::move(lc_ms));
  r.sim.util_mean = sys.Summary().mean_util;
  r.sim.digest = digest;

  const std::vector<scope::MetricRow> rows = sys.metrics_registry().Snapshot();
  CounterView c;
  for (const auto& req : p.trace) {
    (def_.catalog->Get(req.service).is_lc() ? c.lc_submitted
                                            : c.be_submitted) += 1;
  }
  c.lc_arrived = RowCount(rows, "lc.arrived");
  c.lc_completed = RowCount(rows, "lc.completed");
  c.lc_qos_met = RowCount(rows, "lc.qos_met");
  c.lc_abandoned = RowCount(rows, "lc.abandoned");
  c.be_completed = RowCount(rows, "be.completed");
  GateConservation(o, gates);
  GateCounters(o, c, gates);

  if (!traced) return r;

  // ---- Per-layer metrics of the traced pass.
  LayerValues& L = r.layers;
  const double run_s = r.run_s;
  const auto events =
      static_cast<double>(sys.simulator().executed_events());
  L["sim.events"] = events;
  L["sim.events_per_s"] = Ratio(events, run_s);
  L["gen.s"] = r.gen_s;
  L["gen.req_per_s"] = Ratio(static_cast<double>(r.requests), r.gen_s);
  L["inflight_frac"] = InflightFrac(o);
  L["failed_frac"] = FailedFrac(o);

  const std::vector<Span>& spans = probe->spans.spans();
  std::vector<double> round_us, decide_us;
  double dsslc_s = 0.0, dcgbe_s = 0.0, slices_self_s = 0.0;
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.seconds();
    if (std::string_view(s.name) == "dsslc.round") {
      round_us.push_back(s.seconds() * 1e6);
      dsslc_s += s.seconds();
    } else if (std::string_view(s.name) == "dcgbe.decide") {
      decide_us.push_back(s.seconds() * 1e6);
      dcgbe_s += s.seconds();
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) == "slice") {
      slices_self_s += spans[i].seconds() - child_s[i];
    }
  }
  // k8s self time: slice time outside the wrapped plug-ins. Policy calls
  // are summed, not spanned, so they are taken out here.
  const double k8s_self = slices_self_s - probe->policy_s;
  L["k8s.self_s"] = k8s_self;
  L["k8s.self_share"] = Ratio(k8s_self, run_s);
  const std::int64_t pushes = RowCount(rows, "sync.pushes");
  const std::int64_t skipped = RowCount(rows, "sync.pushes_skipped");
  L["k8s.sync.pushes"] = static_cast<double>(pushes);
  L["k8s.sync.skip_ratio"] =
      Ratio(static_cast<double>(skipped), static_cast<double>(pushes + skipped));
  L["k8s.admit.attempts"] = static_cast<double>(probe->admit_attempts);
  L["k8s.admit.accept_ratio"] =
      Ratio(static_cast<double>(probe->admit_accepts),
            static_cast<double>(probe->admit_attempts));
  L["k8s.be.reschedules"] = static_cast<double>(be_reschedules);

  const auto rounds = static_cast<double>(round_us.size());
  L["dsslc.rounds"] = rounds;
  L["dsslc.round_us.p50"] = SpanPercentileUs(round_us, 0.50);
  L["dsslc.round_us.p99"] = SpanPercentileUs(round_us, 0.99);
  L["dsslc.self_s"] = dsslc_s;
  L["dsslc.share"] = Ratio(dsslc_s, run_s);
  L["dsslc.queue.mean"] = Ratio(static_cast<double>(probe->lc_queue_sum), rounds);
  L["dsslc.queue.max"] = static_cast<double>(probe->lc_queue_max);
  L["dsslc.assigned_ratio"] = Ratio(static_cast<double>(probe->lc_assigned),
                                    static_cast<double>(probe->lc_queue_sum));
  if (auto* dss = dynamic_cast<sched::DssLcScheduler*>(
          p.assembly.lc_scheduler())) {
    const std::vector<scope::MetricRow> srows = dss->metrics().Snapshot();
    L["dsslc.overflow"] = static_cast<double>(RowCount(srows, "sched.overflow"));
    // Phase histograms, read by prefix: µs per round for each, and the
    // share of the scheduler's own round time no phase accounts for.
    double phase_us = 0.0;
    const std::string prefix = "sched.phase.";
    const std::int64_t sched_rounds = RowCount(srows, "sched.rounds");
    for (const auto& row : srows) {
      if (row.name.compare(0, prefix.size(), prefix) != 0) continue;
      const double total = static_cast<double>(row.count) * row.value;
      phase_us += total;
      L[row.name] = Ratio(total, static_cast<double>(sched_rounds));
    }
    const scope::MetricRow* round = FindRow(srows, "sched.round_us");
    const double round_total =
        round != nullptr ? static_cast<double>(round->count) * round->value
                         : 0.0;
    L["dsslc.phase.unattributed_frac"] =
        round_total > 0.0 ? 1.0 - phase_us / round_total : 0.0;
  }

  const auto decisions = static_cast<double>(decide_us.size());
  L["dcgbe.decisions"] = decisions;
  L["dcgbe.decide_us.p50"] = SpanPercentileUs(decide_us, 0.50);
  L["dcgbe.decide_us.p99"] = SpanPercentileUs(decide_us, 0.99);
  L["dcgbe.self_s"] = dcgbe_s;
  L["dcgbe.share"] = Ratio(dcgbe_s, run_s);
  L["dcgbe.placed_ratio"] =
      Ratio(static_cast<double>(probe->be_placed), decisions);

  L["hrm.policy_s"] = probe->policy_s;
  L["hrm.policy_calls"] = static_cast<double>(probe->policy_calls);
  if (p.assembly.reassurer() != nullptr) {
    L["hrm.reassure.up"] =
        static_cast<double>(p.assembly.reassurer()->adjustments_up());
    L["hrm.reassure.down"] =
        static_cast<double>(p.assembly.reassurer()->adjustments_down());
  }
  L["hrm.dvpa.ops"] = static_cast<double>(sys.total_scaling_ops());
  last_spans_ = probe->spans;
  return r;
}

// ---- Workload definitions ---------------------------------------------------

/// fig13_sota's catalog: the standard ten services with BE memory cut to a
/// quarter, so enough CPU-bound batch work co-runs to squeeze LC (§4.1).
const workload::ServiceCatalog& DualCatalog() {
  static const workload::ServiceCatalog cat = [] {
    auto specs = workload::ServiceCatalog::Standard().all();
    for (auto& svc : specs) {
      if (!svc.is_lc()) svc.mem_demand = std::max<MiB>(64, svc.mem_demand / 4);
    }
    return workload::ServiceCatalog(std::move(specs));
  }();
  return cat;
}

const workload::ServiceCatalog& StandardCatalog() {
  static const workload::ServiceCatalog cat =
      workload::ServiceCatalog::Standard();
  return cat;
}

workload::Trace PaperDualTrace(std::uint64_t seed, SimDuration duration) {
  workload::TraceConfig tc;
  tc.catalog = &DualCatalog();
  tc.num_clusters = 104;
  tc.duration = duration;
  tc.lc_rps = 16.0;
  tc.be_rps = 1.1;
  tc.seed = DeriveSeed(seed, 1);
  tc.hotspot_fraction = 0.85;
  tc.num_hotspots = 2;
  workload::Trace t = workload::GenerateGoogleStyle(tc);
  for (auto& r : t) {
    if (!DualCatalog().Get(r.service).is_lc()) r.work_scale *= 60.0;
  }
  return t;
}

std::unique_ptr<Workload> PaperDual() {
  SystemDef d;
  // §6.1 dual space as in fig13_sota: 4 physical clusters plus 100 small
  // heterogeneous virtual ones (3-8 workers of 2-6 cores), fixed layout.
  d.system.clusters = eval::PhysicalClusters(4);
  Rng rng(88);
  for (int i = 0; i < 100; ++i) {
    k8s::ClusterSpec spec;
    spec.num_workers = static_cast<int>(rng.UniformInt(3, 8));
    spec.heterogeneous = true;
    spec.min_cpu = 2 * kCore;
    spec.max_cpu = 6 * kCore;
    spec.min_mem = 4 * 1024;
    spec.max_mem = 12 * 1024;
    d.system.clusters.push_back(spec);
  }
  d.system.seed = 9;
  d.catalog = &DualCatalog();
  d.options.be.granularity = sched::BeGranularity::kCluster;
  d.trace_duration = 16 * kSecond;
  d.horizon = d.trace_duration + 75 * kSecond;
  d.make_trace = PaperDualTrace;
  return std::make_unique<SystemWorkload>(std::move(d));
}

workload::Trace LcSurgeTrace(std::uint64_t seed, SimDuration duration) {
  storm::ScenarioConfig sc;
  sc.catalog = &StandardCatalog();
  sc.num_clusters = 16;
  sc.horizon = duration;
  sc.rps_per_cluster = 300.0;
  sc.lc_fraction = 0.998;
  sc.seed = DeriveSeed(seed, 2);
  sc.spike_mult = 28.0;
  sc.spike_clusters = 4;
  workload::Trace t;
  storm::Drain(*storm::BuildScenario(storm::ScenarioKind::kFlashCrowd, sc), &t);
  return t;
}

std::unique_ptr<Workload> LcSurge() {
  SystemDef d;
  // 16 clusters of 16 physical workers inside one 450 km region: every
  // master's DSS-LC view holds all 256 workers.
  d.system.clusters = eval::PhysicalClusters(16);
  for (auto& c : d.system.clusters) c.num_workers = 16;
  d.system.region_km = 450.0;
  d.system.seed = 9;
  d.catalog = &StandardCatalog();
  d.options.be.granularity = sched::BeGranularity::kCluster;
  d.trace_duration = 10 * kSecond;
  d.horizon = d.trace_duration + 5 * kSecond;
  d.make_trace = LcSurgeTrace;
  return std::make_unique<SystemWorkload>(std::move(d));
}

// ---- Sharded engine ----------------------------------------------------------

class ShardWorkload final : public Workload {
 public:
  PassResult RunPass(std::uint64_t seed, bool traced, Gates* gates) override;
  double SetupOnly(std::uint64_t seed) override;
  void TracedExtras(std::uint64_t seed, const PassResult& median,
                    LayerValues* layers, Gates* gates) override;

 private:
  static constexpr SimDuration kStorm = 6 * kSecond;
  static constexpr SimDuration kDrain = 3 * kSecond;

  shard::EngineConfig Config(std::uint64_t seed, bool reference);
  storm::ScenarioConfig scenario_;  // read by the engine while it runs
  int shards_ = 1;
  std::int64_t exchanged_ = 0;  // of the latest traced pass
};

shard::EngineConfig ShardWorkload::Config(std::uint64_t seed,
                                          bool reference) {
  // ROADMAP's hyper100k layout: 128 clusters × 800 workers.
  scenario_ = storm::ScenarioConfig{};
  scenario_.catalog = &StandardCatalog();
  scenario_.num_clusters = 128;
  scenario_.horizon = kStorm;
  scenario_.rps_per_cluster = 2000.0;
  scenario_.seed = DeriveSeed(seed, 3);
  scenario_.spike_clusters = 32;
  shard::EngineConfig cfg;
  for (int c = 0; c < 128; ++c) {
    k8s::ClusterSpec spec;
    spec.num_workers = 800;
    cfg.clusters.push_back(spec);
  }
  cfg.model.catalog = &StandardCatalog();
  cfg.model.scenario = &scenario_;
  cfg.model.scenario_kind = storm::ScenarioKind::kFlashCrowd;
  cfg.seed = 17;
  cfg.duration = kStorm + kDrain;
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  cfg.num_shards = std::min(4, cores);
  cfg.deterministic_reference = reference;
  return cfg;
}

double ShardWorkload::SetupOnly(std::uint64_t seed) {
  const auto t0 = Clock::now();
  shard::ShardEngine engine(Config(seed, false));
  return SecondsBetween(t0, Clock::now());
}

PassResult ShardWorkload::RunPass(std::uint64_t seed, bool traced,
                                  Gates* gates) {
  PassResult r;
  const auto t0 = Clock::now();
  auto engine = std::make_unique<shard::ShardEngine>(Config(seed, false));
  const auto t1 = Clock::now();
  const shard::RunResult res = engine->Run();
  const auto t2 = Clock::now();
  r.setup_s = SecondsBetween(t0, t1);
  r.run_s = SecondsBetween(t1, t2);

  const shard::ClusterStats& t = res.totals;
  Outcomes& o = r.sim.outcomes;
  o.lc_arrived = t.lc_arrived;
  o.lc_completed = t.lc_completed;
  o.lc_qos_met = t.lc_qos_met;
  o.lc_abandoned = t.lc_abandoned;
  o.lc_dropped = t.lc_dropped;
  o.lc_inflight = t.lc_arrived - t.lc_completed - t.lc_abandoned - t.lc_dropped;
  o.be_arrived = t.be_arrived;
  o.be_completed = t.be_completed;
  o.be_dropped = t.be_dropped;
  o.be_inflight = t.be_arrived - t.be_completed - t.be_dropped;
  r.requests = o.arrived();
  r.sim.latency = Log2Latency(t.latency_us_log2,
                              shard::ClusterStats::kLatencyBuckets,
                              t.latency_sum_us);
  r.sim.util_mean = res.mean_util;
  r.sim.digest = res.digest;
  GateConservation(o, gates);

  if (!traced) return r;
  LayerValues& L = r.layers;
  const auto events = static_cast<double>(res.executed_events);
  const auto epochs = static_cast<double>(res.epochs);
  L["sim.events"] = events;
  L["sim.events_per_s"] = Ratio(events, r.run_s);
  L["inflight_frac"] = InflightFrac(o);
  L["failed_frac"] = FailedFrac(o);
  L["shard.epochs"] = epochs;
  L["shard.epochs_skipped"] = static_cast<double>(res.epochs_skipped);
  L["shard.events_per_shard_epoch"] =
      Ratio(events, epochs * engine->num_shards());
  L["shard.mailbox_per_epoch"] =
      Ratio(static_cast<double>(res.mailbox_exchanged), epochs);
  L["shard.model.delta_skip_ratio"] =
      Ratio(static_cast<double>(t.deltas_skipped),
            static_cast<double>(t.deltas_sent + t.deltas_skipped));
  L["shard.model.spilled"] = static_cast<double>(t.lc_spilled);
  L["shard.model.bounced"] = static_cast<double>(t.be_bounced);
  shards_ = engine->num_shards();
  exchanged_ = res.mailbox_exchanged;
  return r;
}

void ShardWorkload::TracedExtras(std::uint64_t seed, const PassResult& median,
                                 LayerValues* layers, Gates* gates) {
  // The same configuration on one thread, same epochs in shard order: the
  // byte-identity reference and the denominator of the speedup.
  shard::ShardEngine engine(Config(seed, true));
  const auto t0 = Clock::now();
  const shard::RunResult res = engine.Run();
  const double ref_s = SecondsBetween(t0, Clock::now());
  GateReferenceDigest(median.sim.digest, res.digest, gates);
  gates->Check(res.mailbox_exchanged == exchanged_,
               "mailbox: parallel and reference runs exchanged different "
               "message counts");
  // Drained is checked on the one-thread run only: with parallel shards
  // the engine's drained() counter is bumped from every shard task without
  // synchronisation and under-counts (see README.md). Messages still in
  // flight at the horizon were sent within the longest delivery delay
  // before it: twice the widest WAN delay plus the 100 ms detection lag
  // that fault paths add, at the run's mean exchange rate per epoch.
  SimDuration widest = 0;
  const int n = static_cast<int>(engine.topology().num_clusters());
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      widest = std::max(widest,
                        engine.topology().OneWayDelay(ClusterId{a},
                                                      ClusterId{b}));
    }
  }
  const double window_epochs =
      std::ceil(static_cast<double>(2 * widest + 100 * kMillisecond) /
                static_cast<double>(engine.lookahead())) + 1.0;
  const double per_epoch = Ratio(static_cast<double>(res.mailbox_exchanged),
                                 static_cast<double>(res.epochs));
  GateMailbox(res.mailbox_exchanged, res.mailbox_drained,
              static_cast<std::int64_t>(per_epoch * window_epochs), gates);
  (*layers)["shard.ref_s"] = ref_s;
  (*layers)["shard.speedup"] = Ratio(ref_s, median.run_s);
  (*layers)["shard.efficiency"] = Ratio(ref_s, median.run_s * shards_);
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "paper_dual") return PaperDual();
  if (name == "lc_surge") return LcSurge();
  if (name == "shard_100k") return std::make_unique<ShardWorkload>();
  return nullptr;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper_dual", "lc_surge",
                                                 "shard_100k"};
  return names;
}

}  // namespace tangobench
