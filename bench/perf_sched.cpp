// perf_sched — scheduling-core performance baseline.
//
// Measures DSS-LC dispatch rounds/sec on small (16-node), large (256-node)
// and huge (1024-node) cluster views, prints an FNV-1a digest of each
// config's assignment sequence (equal digests ⇔ byte-identical dispatch
// across builds), counts heap allocations per steady-state round under a
// process-wide counting operator new (1 = the returned assignment vector),
// and profiles a round's phases (round-start view, capacity view, split
// ordering, greedy fill, assignment/commit) with the unattributed residual
// on the large and huge views. Then times a short end-to-end simulation
// and concurrent benchmark repetitions. A DCG-BE row times the A2C
// learner's Act() and its update on paper_dual's shape (104 cluster
// pseudo-nodes in a ring, so GraphSAGE never samples) and on a node-level
// LAN mesh that samples, next to how many rollout steps the update trained
// on their act-time forward (hits) or had to re-run (misses). Emits
// BENCH_sched.json (cwd) so later PRs can diff scheduling throughput
// against this baseline.
//
// Exit status 1 when any gate fails: a steady-state round allocating other
// than once, a DCG-BE update step unaccounted for (or any miss on the
// ring), or — full runs only — phases covering < 90% of sched.round_us on
// the large or huge view.
//
// Flags: --smoke            small configs + invariant checks only, exit 1 on
//                           failure, no BENCH write (CI gate)
//        --nodes N          single custom config of ~N workers (16/cluster)
//        --queue Q          requests per round for the custom config
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <thread>

#include "bench_common.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "rl/agent.h"
#include "sched/dss_lc.h"
#include "sched/learned_be.h"

// Process-wide counting operator new: the allocation count of a
// steady-state round is what the gate below reads.
static std::atomic<std::int64_t> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace tango;

namespace {

using k8s::Assignment;
using k8s::PendingRequest;
using metrics::NodeSnapshot;
using metrics::StateStorage;

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

std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct SchedRun {
  const char* label = "";
  int nodes = 0;
  int queue_len = 0;
  double rounds_per_sec = 0.0;
  std::int64_t assignments = 0;
  /// FNV-1a over every round's (round, request, target) sequence.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  /// Heap allocations per timed round (max over rounds; 1 = the result).
  std::int64_t allocs_per_round = 0;
};

/// `warmup` untimed rounds, then `rounds` timed ones, one scheduler, one
/// storage; round r is stamped r × 100 ms. Queues are built up front so
/// only Schedule is timed and counted.
SchedRun RunRounds(const char* label, int clusters, int workers,
                   int queue_len, int rounds, int warmup) {
  const StateStorage st = MakeStorage(clusters, workers, 77);
  sched::DssLcScheduler dss(&bench::Catalog(), {});
  std::vector<std::vector<PendingRequest>> queues;
  for (int r = 0; r < warmup + rounds; ++r) {
    queues.push_back(MakeQueue(queue_len, r * 100 * kMillisecond));
  }
  SchedRun run;
  run.label = label;
  run.nodes = clusters * workers;
  run.queue_len = queue_len;
  std::vector<std::vector<Assignment>> out(queues.size());
  double elapsed = 0.0;
  for (int r = 0; r < warmup + rounds; ++r) {
    const SimTime now = r * 100 * kMillisecond;
    const auto& q = queues[static_cast<std::size_t>(r)];
    const double t0 = Now();
    const std::int64_t a0 = g_allocs.load(std::memory_order_relaxed);
    out[static_cast<std::size_t>(r)] = dss.Schedule(ClusterId{0}, q, st, now);
    const std::int64_t allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    if (r >= warmup) {
      elapsed += Now() - t0;
      run.allocs_per_round = std::max(run.allocs_per_round, allocs);
    }
  }
  run.rounds_per_sec = elapsed > 0.0 ? rounds / elapsed : 0.0;
  for (std::size_t r = 0; r < out.size(); ++r) {
    run.digest = Fnv(run.digest, r);
    for (const auto& a : out[r]) {
      run.digest = Fnv(run.digest, static_cast<std::uint64_t>(a.request.value));
      run.digest = Fnv(run.digest, static_cast<std::uint64_t>(a.target.value));
    }
    run.assignments += static_cast<std::int64_t>(out[r].size());
  }
  return run;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Per-phase wall-clock profile of the DSS-LC round from a profile_phases
/// run: every "sched.phase.*_us" row, "sched.round_us", and the share of
/// round time no phase accounts for.
struct PhaseProfile {
  const char* label = "";
  std::vector<scope::MetricRow> rows;
  std::int64_t rounds = 0;
  double round_us_total = 0.0;
  double phase_us_total = 0.0;
  double coverage() const {
    return round_us_total > 0.0 ? phase_us_total / round_us_total : 0.0;
  }
};

PhaseProfile ProfilePhases(const char* label, int clusters, int workers,
                           int queue_len, int rounds) {
  const StateStorage st = MakeStorage(clusters, workers, 77);
  sched::DssLcConfig cfg;
  cfg.profile_phases = true;
  sched::DssLcScheduler dss(&bench::Catalog(), cfg);
  for (int r = 0; r < rounds; ++r) {
    const SimTime now = r * 100 * kMillisecond;
    dss.Schedule(ClusterId{0}, MakeQueue(queue_len, now), st, now);
  }
  PhaseProfile p;
  p.label = label;
  for (auto& row : dss.metrics().Snapshot()) {
    const double total = static_cast<double>(row.count) * row.value;
    if (row.name.rfind("sched.phase.", 0) == 0) {
      p.phase_us_total += total;
    } else if (row.name == "sched.round_us") {
      p.rounds = row.count;
      p.round_us_total = total;
    } else {
      continue;
    }
    p.rows.push_back(std::move(row));
  }
  return p;
}

/// Wall time of a short end-to-end DSS-LC simulation (4 clusters, 20 s).
double TimeEndToEnd() {
  constexpr SimDuration kDur = 20 * kSecond;
  const workload::Trace trace = bench::MixedTrace(4, 150.0, 10.0, kDur);
  const double t = Now();
  bench::RunPair(trace, 4, framework::LcAlgo::kDssLc,
                 framework::BeAlgo::kK8sNative, true, kDur + 5 * kSecond);
  return Now() - t;
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

/// The A2C update's backward and Adam step on one slot and on the learner
/// pool, phase by phase (median ms over alternating repetitions, each on a
/// freshly built copy of the same tapes), with the FNV-1a digest of every
/// parameter gradient each produced.
struct BackwardPhases {
  double prep_ms = 0.0;
  double steps_ms = 0.0;
  double replay_ms = 0.0;
  double adam_ms = 0.0;
  double total_ms() const { return prep_ms + steps_ms + replay_ms + adam_ms; }
  std::uint64_t digest = 0;
};

struct BackwardRow {
  int steps = 0;
  int tiles = 0;
  int slots = 0;  // the learner pool's
  int reps = 0;
  std::uint64_t oracle_digest = 0;  // one serial nn::Backward
  BackwardPhases one_slot;
  BackwardPhases pool;
};

std::uint64_t GradDigest(const nn::ParamStore& store) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& p : store.params()) {
    for (std::size_t i = 0; i < p->grad.size(); ++i) {
      std::uint32_t bits;
      std::memcpy(&bits, p->grad.data() + i, sizeof bits);
      h = Fnv(h, bits);
    }
  }
  return h;
}

/// One A2C update's loss over `steps` paper_dual-shaped decisions (the
/// 104-cluster ring, paper-default GraphSAGE + 256/128/32 heads), built as
/// A2cAgent::Train builds it: per step the policy-gradient, value and
/// entropy terms summed, the steps chained by Add and averaged.
struct UpdateTape {
  nn::ParamStore store;
  nn::Var root;
  std::vector<nn::Var> step_losses;
};

void BuildUpdateTape(int steps, UpdateTape* tape) {
  const auto catalog = workload::ServiceCatalog::Standard();
  sched::LearnedBeConfig cfg;
  cfg.granularity = sched::BeGranularity::kCluster;
  auto be = sched::MakeDcgBe(&catalog, gnn::EncoderKind::kGraphSage, 7, cfg);
  StateStorage st = MakeStorage(104, 10, 91);
  std::vector<NodeSnapshot> nodes = st.All();
  PendingRequest req;
  req.request.service = ServiceId{9};
  Rng rng(7);
  const rl::A2cConfig a2c;
  auto encoder = gnn::MakeEncoder(a2c.encoder, tape->store, "enc",
                                  a2c.feature_dim, a2c.embed_dim, rng);
  const auto actor =
      nn::Mlp::PaperHead(tape->store, "actor", a2c.embed_dim, 1, rng);
  const auto critic =
      nn::Mlp::PaperHead(tape->store, "critic", a2c.embed_dim, 1, rng);
  for (int s = 0; s < steps; ++s) {
    const rl::GraphState state = be->BuildState(req, st);
    const int n = state.graph.num_nodes();
    const nn::Matrix mask = rl::MaskRow(state.valid, n);
    const nn::Var h = encoder->Encode(state.graph, rng);
    const nn::Var logits = nn::Transpose(actor.Forward(h));
    const nn::Var value = critic.Forward(nn::MatMul(
        nn::Constant(nn::Matrix(1, n, 1.0f / static_cast<float>(n))), h));
    int action = (7 * s) % n;
    while (mask.at(0, action) == 0.0f) action = (action + 1) % n;
    const float advantage = 0.5f - nn::ScalarValue(value);
    const nn::Var pg = nn::Scale(
        nn::GatherCols(nn::LogSoftmax(logits, &mask), {action}), -advantage);
    const nn::Var diff =
        nn::Sub(value, nn::Constant(nn::Matrix(1, 1, 0.5f)));
    const nn::Var vloss = nn::Scale(nn::Mul(diff, diff), a2c.value_coef);
    const nn::Var ent = nn::Scale(nn::EntropyOfSoftmax(logits, &mask),
                                  -a2c.entropy_coef);
    nn::Var loss = nn::Add(nn::Add(pg, vloss), ent);
    tape->root = tape->root ? nn::Add(tape->root, loss) : loss;
    tape->step_losses.push_back(std::move(loss));
    for (int k = 0; k < 4; ++k) {
      auto& w = nodes[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(nodes.size()) - 1))];
      w.cpu_available = rng.UniformInt(500, 8000);
      w.queued = static_cast<int>(rng.UniformInt(0, 16));
      st.Update(w);
    }
  }
  tape->root = nn::Scale(tape->root, 1.0f / static_cast<float>(steps));
}

BackwardRow TimeBackward(int reps) {
  BackwardRow row;
  row.reps = reps;
  {
    UpdateTape tape;
    BuildUpdateTape(16, &tape);
    row.steps = static_cast<int>(tape.step_losses.size());
    nn::Backward(tape.root);
    row.oracle_digest = GradDigest(tape.store);
  }
  ThreadPool one_slot(1);
  one_slot.Shutdown();  // a shut-down pool runs every task on the caller
  ThreadPool& pool = rl::LearnerPool();
  row.slots = pool.concurrency();
  struct Side {
    ThreadPool* pool;
    BackwardPhases* out;
    std::vector<double> prep, steps, replay, adam;
  };
  Side sides[2] = {{&one_slot, &row.one_slot, {}, {}, {}, {}},
                   {&pool, &row.pool, {}, {}, {}, {}}};
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < 2; ++i) {
      Side& side = sides[(r + i) % 2];  // alternate which side runs first
      // A fresh tape each time, as every update has: the prep allocates
      // all of its gradient buffers.
      UpdateTape tape;
      BuildUpdateTape(16, &tape);
      nn::Adam adam(tape.store);
      const double t0 = Now();
      nn::SplitBackward split(tape.root, tape.step_losses);
      const double t1 = Now();
      split.RunSteps(*side.pool);
      const double t2 = Now();
      split.Replay(*side.pool);
      const double t3 = Now();
      if (r == 0) {
        side.out->digest = GradDigest(tape.store);
        row.tiles = static_cast<int>(split.num_tiles());
      }
      const double t4 = Now();
      adam.Step(side.pool == &pool ? &pool : nullptr);
      const double t5 = Now();
      side.prep.push_back((t1 - t0) * 1e3);
      side.steps.push_back((t2 - t1) * 1e3);
      side.replay.push_back((t3 - t2) * 1e3);
      side.adam.push_back((t5 - t4) * 1e3);
    }
  }
  for (Side& side : sides) {
    side.out->prep_ms = Percentile(side.prep, 0.50);
    side.out->steps_ms = Percentile(side.steps, 0.50);
    side.out->replay_ms = Percentile(side.replay, 0.50);
    side.out->adam_ms = Percentile(side.adam, 0.50);
  }
  return row;
}

void WriteJson(const char* path, int cores, const std::vector<SchedRun>& sched,
               const std::vector<PhaseProfile>& phases, double e2e_s,
               const RepsComparison& reps, const std::vector<DcgBeRow>& dcgbe,
               const BackwardRow& backward) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"perf_sched\",\n  "
      << bench::ProvenanceJson(cores) << ",\n  \"sched\": {\n";
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const auto& c = sched[i];
    out << "    \"" << c.label << "\": {\"nodes\": " << c.nodes
        << ", \"queue_per_round\": " << c.queue_len
        << ", \"rounds_per_sec\": " << c.rounds_per_sec
        << ", \"allocs_per_round\": " << c.allocs_per_round
        << ", \"assignments_digest\": \"" << Hex(c.digest) << "\"}"
        << (i + 1 < sched.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"phase_profile_us\": {\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& p = phases[i];
    out << "    \"" << p.label << "\": {\n";
    for (const auto& r : p.rows) {
      out << "      \"" << r.name << "\": {\"count\": " << r.count
          << ", \"mean\": " << r.value << ", \"p50\": " << r.p50
          << ", \"p95\": " << r.p95 << ", \"p99\": " << r.p99 << "},\n";
    }
    out << "      \"unattributed_frac\": " << 1.0 - p.coverage() << "\n    }"
        << (i + 1 < phases.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"e2e_sim\": {\"wall_s\": " << e2e_s << "},\n"
      << "  \"repetitions\": {\n"
      << "    \"n\": " << reps.n << ",\n"
      << "    \"serial_wall_s\": " << reps.serial_s << ",\n"
      << "    \"parallel_wall_s\": " << reps.parallel_s << ",\n"
      << "    \"speedup\": " << reps.speedup << "\n  },\n"
      << "  \"dcgbe\": {\n";
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
  const auto phases_json = [&out](const char* name, const BackwardPhases& p) {
    out << "    \"" << name << "\": {\"prep_ms\": " << p.prep_ms
        << ", \"steps_ms\": " << p.steps_ms << ", \"replay_ms\": "
        << p.replay_ms << ", \"adam_ms\": " << p.adam_ms
        << ", \"total_ms\": " << p.total_ms() << ", \"grad_digest\": \""
        << Hex(p.digest) << "\"}";
  };
  out << "  },\n  \"dcgbe_update\": {\n    \"shape\": \"ring104\", \"steps\": "
      << backward.steps << ", \"tiles\": " << backward.tiles
      << ", \"pool_slots\": " << backward.slots << ", \"reps\": "
      << backward.reps << ", \"oracle_grad_digest\": \""
      << Hex(backward.oracle_digest) << "\",\n";
  phases_json("one_slot", backward.one_slot);
  out << ",\n";
  phases_json("pool", backward.pool);
  out << ",\n    \"speedup\": "
      << backward.one_slot.total_ms() / backward.pool.total_ms() << "\n";
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

  std::vector<SchedRun> sched;
  for (const auto& c : configs) {
    sched.push_back(
        RunRounds(c.label, c.clusters, c.workers, c.queue, c.rounds, 3));
  }
  std::vector<std::vector<std::string>> rows;
  for (const auto& c : sched) {
    rows.push_back({c.label, std::to_string(c.nodes),
                    std::to_string(c.queue_len),
                    eval::Fmt(c.rounds_per_sec, 1),
                    std::to_string(c.allocs_per_round), Hex(c.digest)});
  }
  eval::PrintTable("DSS-LC rounds/sec",
                   {"cluster", "nodes", "queue", "rounds/s",
                    "allocs/round", "assignment digest"},
                   rows);

  // Per-phase wall-clock breakdown of a round on the large and huge views —
  // where a scheduling round actually spends its time.
  std::vector<PhaseProfile> phases;
  if (!smoke && !custom) {
    phases.push_back(ProfilePhases("large", 16, 16, 4096, 20));
    phases.push_back(ProfilePhases("huge", 64, 16, 16384, 10));
    for (const auto& p : phases) {
      std::vector<std::vector<std::string>> phase_rows;
      for (const auto& r : p.rows) {
        phase_rows.push_back({r.name, std::to_string(r.count),
                              eval::Fmt(r.value, 1), eval::Fmt(r.p50, 1),
                              eval::Fmt(r.p95, 1), eval::Fmt(r.p99, 1)});
      }
      const double residual_us =
          (p.round_us_total - p.phase_us_total) /
          static_cast<double>(std::max<std::int64_t>(1, p.rounds));
      phase_rows.push_back(
          {"unattributed", std::to_string(p.rounds),
           eval::Fmt(residual_us, 1),
           eval::Fmt(100.0 * (1.0 - p.coverage()), 1) + "% of round", "",
           ""});
      eval::PrintTable((std::string("DSS-LC round phase profile (µs, ") +
                        p.label + " cluster)")
                           .c_str(),
                       {"phase", "samples", "mean", "p50", "p95", "p99"},
                       phase_rows);
    }
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

  // The update's split backward and Adam step over identical ring104
  // tapes, on one slot (a shut-down pool) and on the learner pool.
  const BackwardRow backward = TimeBackward(smoke ? 3 : 15);
  std::vector<std::vector<std::string>> backward_rows;
  for (const auto& [name, p] :
       {std::pair<std::string, const BackwardPhases*>{"1 slot",
                                                      &backward.one_slot},
        {"pool (" + std::to_string(backward.slots) + " slots)",
         &backward.pool}}) {
    backward_rows.push_back(
        {name, eval::Fmt(p->prep_ms, 2), eval::Fmt(p->steps_ms, 2),
         eval::Fmt(p->replay_ms, 2), eval::Fmt(p->adam_ms, 2),
         eval::Fmt(p->total_ms(), 2), Hex(p->digest)});
  }
  eval::PrintTable(("DCG-BE update phases (ring104, " +
                    std::to_string(backward.steps) + " steps, " +
                    std::to_string(backward.tiles) +
                    " replay tiles, median ms of " +
                    std::to_string(backward.reps) + "; Backward digest " +
                    Hex(backward.oracle_digest) + ")")
                       .c_str(),
                   {"slots", "serial prep", "step fan-out", "param replay",
                    "adam", "total", "grad digest"},
                   backward_rows);

  double e2e_s = 0.0;
  RepsComparison reps;
  if (!smoke) {
    e2e_s = TimeEndToEnd();
    reps = CompareRepetitions();
    std::printf("\n== end-to-end ==\n");
    std::printf("  sim wall time     %.2fs\n", e2e_s);
    std::printf("  3 reps wall time  serial %.2fs  parallel %.2fs  (%.2fx)\n",
                reps.serial_s, reps.parallel_s, reps.speedup);
  }

  std::printf("\n");
  for (const auto& c : sched) {
    // The round's scratch is scheduler-owned, so once warm it allocates
    // only the assignment vector it returns.
    const bool one_alloc = c.allocs_per_round == 1;
    bench::PaperCheck((std::string("steady-state allocations (") + c.label +
                       ")")
                          .c_str(),
                      "1 per round (the result)",
                      std::to_string(c.allocs_per_round), one_alloc);
    ok = ok && one_alloc;
  }
  for (const auto& p : phases) {
    const bool covered = p.coverage() >= 0.90;
    bench::PaperCheck((std::string("phases cover the round (") + p.label +
                       ")")
                          .c_str(),
                      ">= 90% of sched.round_us",
                      eval::Fmt(100.0 * p.coverage(), 1) + "%", covered);
    ok = ok && covered;
  }
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
  // The split backward is exact: one slot, the pool and one serial
  // Backward leave the same bits in every parameter gradient.
  const bool exact = backward.one_slot.digest == backward.oracle_digest &&
                     backward.pool.digest == backward.oracle_digest;
  bench::PaperCheck("DCG-BE split backward is bit-identical",
                    "1 slot = pool = Backward",
                    Hex(backward.one_slot.digest) + " / " +
                        Hex(backward.pool.digest),
                    exact);
  ok = ok && exact;
  if (!smoke && cores >= 4) {
    const double speedup =
        backward.one_slot.total_ms() / backward.pool.total_ms();
    const bool faster = speedup > 1.0;
    bench::PaperCheck("DCG-BE update faster on the learner pool",
                      "pool < 1 slot on >= 4 cores",
                      eval::Fmt(speedup, 2) + "x", faster);
    ok = ok && faster;
  }

  if (!smoke && !custom && bench::ShouldWriteBench("BENCH_sched.json", cores)) {
    WriteJson("BENCH_sched.json", cores, sched, phases, e2e_s, reps, dcgbe,
              backward);
    std::printf("\nwrote BENCH_sched.json\n");
  }
  if (!ok) {
    std::printf("\nFAILED: allocation, phase-coverage or DCG-BE gate "
                "violated\n");
    return 1;
  }
  return 0;
}
