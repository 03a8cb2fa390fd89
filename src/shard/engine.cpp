#include "shard/engine.h"

#include <algorithm>
#include <chrono>

#include "audit/audit.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/vet.h"
#include "scope/export.h"

namespace tango::shard {

double RunResult::p95_latency_ms() const {
  if (totals.lc_completed <= 0) return 0.0;
  const std::int64_t target =
      (totals.lc_completed * 95 + 99) / 100;  // ceil(0.95 * n)
  std::int64_t seen = 0;
  for (int b = 0; b < ClusterStats::kLatencyBuckets; ++b) {
    seen += totals.latency_us_log2[b];
    if (seen >= target) {
      return ToMilliseconds(SimDuration{1} << (b + 1));
    }
  }
  return ToMilliseconds(SimDuration{1} << ClusterStats::kLatencyBuckets);
}

ShardEngine::ShardEngine(EngineConfig cfg)
    : cfg_(std::move(cfg)), grid_(1) {
  TANGO_CHECK(!cfg_.clusters.empty(), "engine needs at least one cluster");
  const int n = static_cast<int>(cfg_.clusters.size());
  for (int c = 0; c < n; ++c) {
    cfg_.clusters[static_cast<std::size_t>(c)].id = ClusterId{c};
  }

  // Geography is part of the seeded experiment identity, like
  // EdgeCloudSystem's layout.
  Rng layout_rng(cfg_.seed ^ 0xC1D07A9E5ULL);
  topology_ = net::Topology(
      net::Topology::RandomLayout(n, cfg_.region_km, layout_rng), cfg_.link);

  lookahead_ = cfg_.epoch_override > 0 ? cfg_.epoch_override
                                       : topology_.MinCrossClusterLatency();
  TANGO_CHECK(lookahead_ > 0, "lookahead must be positive");
  TANGO_CHECK(lookahead_ <= topology_.MinCrossClusterLatency(),
              "epoch override exceeds the conservative lookahead");

  partition_ = k8s::PartitionClusters(cfg_.clusters, cfg_.num_shards,
                                      cfg_.partition_strategy);
  grid_ = MailboxGrid(partition_.num_shards);

  shards_.reserve(static_cast<std::size_t>(partition_.num_shards));
  for (int s = 0; s < partition_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    if (cfg_.trace) {
      shards_.back()->tracer.Enable(
          scope::Tracer::Config{.capacity = cfg_.trace_capacity});
    }
  }

  model_cfg_ = cfg_.model;
  model_cfg_.topology = &topology_;
  if (model_cfg_.catalog == nullptr) {
    catalog_storage_ = workload::ServiceCatalog::Standard();
    model_cfg_.catalog = &catalog_storage_;
  }
  model_cfg_.end_time = cfg_.duration;
  model_cfg_.lc_services = model_cfg_.catalog->LcServices();
  model_cfg_.be_services = model_cfg_.catalog->BeServices();

  // Centrality ranking: ascending total distance, lowest id ties — the
  // failover order for the acting central master.
  std::vector<double> dist_sum(static_cast<std::size_t>(n), 0.0);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const double d = topology_.GeoDistanceKm(ClusterId{a}, ClusterId{b});
      dist_sum[static_cast<std::size_t>(a)] += d;
      dist_sum[static_cast<std::size_t>(b)] += d;
    }
  }
  model_cfg_.central_rank.resize(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    model_cfg_.central_rank[static_cast<std::size_t>(c)] = ClusterId{c};
  }
  std::sort(model_cfg_.central_rank.begin(), model_cfg_.central_rank.end(),
            [&dist_sum](ClusterId a, ClusterId b) {
              const double da = dist_sum[static_cast<std::size_t>(a.value)];
              const double db = dist_sum[static_cast<std::size_t>(b.value)];
              if (da != db) return da < db;
              return a < b;
            });

  // Node numbering matches fault::WorkerIds: per cluster, master first,
  // then workers, ids sequential across clusters.
  std::vector<std::int32_t> first_node(static_cast<std::size_t>(n), 0);
  std::int32_t next = 0;
  for (int c = 0; c < n; ++c) {
    first_node[static_cast<std::size_t>(c)] = next;
    next += 1 + cfg_.clusters[static_cast<std::size_t>(c)].num_workers;
  }
  num_nodes_ = next;

  models_.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    const int s = partition_.shard_of[static_cast<std::size_t>(c)];
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    ClusterModel::Hookup hookup;
    hookup.sim = &sh.sim;
    hookup.grid = &grid_;
    hookup.partition = &partition_;
    hookup.tracer = cfg_.trace ? &sh.tracer : nullptr;
    hookup.shard = s;
    models_.push_back(std::make_unique<ClusterModel>(
        &model_cfg_, cfg_.clusters[static_cast<std::size_t>(c)],
        NodeId{first_node[static_cast<std::size_t>(c)]}, cfg_.seed, hookup));
  }

  cluster_faults_ = fault::SplitByCluster(
      cfg_.faults, n, [&first_node, n](NodeId node) {
        // Clusters are contiguous id ranges; find the owning range.
        for (int c = n - 1; c >= 0; --c) {
          if (node.value >= first_node[static_cast<std::size_t>(c)]) {
            return ClusterId{c};
          }
        }
        return ClusterId{};
      });
}

TANGO_HOT void ShardEngine::RunShardEpoch(std::size_t s, SimTime bound) {
  Shard& sh = *shards_[s];
  grid_.Drain(static_cast<int>(s), sh.inbox);
  for (const ShardMessage& m : sh.inbox) {
    ClusterModel* model = models_[static_cast<std::size_t>(m.dst.value)].get();
    std::uint32_t idx;
    if (!sh.slab_free.empty()) {
      idx = sh.slab_free.back();
      sh.slab_free.pop_back();
      sh.slab[idx] = m;
    } else {
      idx = static_cast<std::uint32_t>(sh.slab.size());
      // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
      sh.slab.push_back(m);
    }
    Shard* shp = &sh;
    sh.sim.ScheduleAt(m.deliver, [shp, model, idx] {
      const ShardMessage msg = shp->slab[idx];
      // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
      shp->slab_free.push_back(idx);
      model->OnMessage(msg);
    });
  }
  sh.inbox.clear();
  sh.executed += sh.sim.RunUntil(bound);
  AUDIT_CHECK(sh.sim.Now() == bound, .subsystem = "shard",
              .invariant = "shard.barrier_time", .sim_time = sh.sim.Now(),
              .detail = audit::Detail(
                  "shard stopped at %lld, epoch barrier %lld",
                  static_cast<long long>(sh.sim.Now()),
                  static_cast<long long>(bound)));
}

RunResult ShardEngine::Run() {
  TANGO_CHECK(!ran_, "ShardEngine::Run is one-shot");
  ran_ = true;

  // TANGOVET_ALLOW_NEXT(telemetry: wall throughput stats, not sim state)
  const auto wall_start = std::chrono::steady_clock::now();
  RunResult result;

  // Models start in cluster-id order; each only touches its own shard's
  // simulator, so per-shard schedules are partition-invariant projections.
  for (std::size_t c = 0; c < models_.size(); ++c) {
    models_[c]->Start();
    models_[c]->ScheduleFaults(cluster_faults_[c]);
  }

  const bool serial =
      cfg_.deterministic_reference || partition_.num_shards == 1;
  if (!serial && pool_ == nullptr) {
    // One pool thread per shard but one: the calling thread takes a shard.
    pool_ = std::make_unique<ThreadPool>(partition_.num_shards - 1);
  }

  const auto num_shards = static_cast<std::size_t>(partition_.num_shards);
  std::int64_t k_prev = -1;
  while (true) {
    SimTime next_event = sim::Simulator::kNoEvent;
    for (const auto& sh : shards_) {
      next_event = std::min(next_event, sh->sim.NextEventTime());
    }
    // Exchanged-but-undrained messages are future events that live in no
    // simulator heap; skipping past one would schedule it into its shard's
    // past and trip the lookahead check on anything it then sends.
    next_event = std::min(next_event, grid_.MinPendingDeliver());
    if (next_event == sim::Simulator::kNoEvent ||
        next_event > cfg_.duration) {
      break;
    }
    // Epoch k covers ((k-1)L, kL]; an event at t belongs to epoch
    // ceil(t / L). Monotonic advance: events scheduled exactly at the
    // previous bound run in the next window (RunUntil is inclusive).
    std::int64_t k = (next_event + lookahead_ - 1) / lookahead_;
    if (k <= k_prev) {
      k = k_prev + 1;
    } else if (k > k_prev + 1) {
      result.epochs_skipped += k - k_prev - 1;
    }
    k_prev = k;
    const SimTime bound = std::min(k * lookahead_, cfg_.duration);

    grid_.BeginEpoch(bound);
    if (serial) {
      for (std::size_t s = 0; s < num_shards; ++s) RunShardEpoch(s, bound);
    } else {
      pool_->ParallelFor(num_shards,
                         [this, bound](std::size_t s, int) {
                           RunShardEpoch(s, bound);
                         });
    }
    grid_.Exchange();
    ++result.epochs;
  }

  // Merge per-cluster outcomes in cluster-id order (partition-invariant).
  double util_acc = 0.0;
  std::int64_t util_rows = 0;
  result.digest = 14695981039346656037ULL;
  for (const auto& model : models_) {
    result.totals.Merge(model->stats());
    result.cluster_digests.push_back(model->digest());
    result.digest = (result.digest ^ model->digest()) * 1099511628211ULL;
    for (const auto& row : model->periods()) {
      util_acc += row.util;
      ++util_rows;
    }
  }
  result.mean_util = util_rows > 0 ? util_acc / static_cast<double>(util_rows)
                                   : 0.0;
  for (const auto& sh : shards_) result.executed_events += sh->executed;
  result.mailbox_exchanged = grid_.exchanged();
  result.mailbox_drained = grid_.drained();
  TANGO_CHECK(result.mailbox_drained <= result.mailbox_exchanged,
              "mailbox conservation violated");

  // TANGOVET_ALLOW_NEXT(telemetry: wall throughput stats, not sim state)
  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.events_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.executed_events) / result.wall_seconds
          : 0.0;
  return result;
}

std::vector<const scope::Tracer*> ShardEngine::tracers() const {
  std::vector<const scope::Tracer*> out;
  if (!cfg_.trace) return out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) out.push_back(&sh->tracer);
  return out;
}

bool ShardEngine::ExportTrace(const std::string& path) const {
  return scope::WriteChromeTraceFile(path, tracers());
}

}  // namespace tango::shard
