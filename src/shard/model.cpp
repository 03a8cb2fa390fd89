#include "shard/model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "audit/audit.h"
#include "common/logging.h"

namespace tango::shard {

namespace {

// Digest event codes. Every externally visible transition folds
// (code, now, a, b) into the per-cluster FNV-1a digest, so two runs match
// iff the same transitions happen at the same virtual times in the same
// per-cluster order — the byte-identity witness across shard counts.
constexpr std::uint8_t kDigArrive = 1;
constexpr std::uint8_t kDigExec = 2;
constexpr std::uint8_t kDigComplete = 3;
constexpr std::uint8_t kDigAbandon = 4;
constexpr std::uint8_t kDigDrop = 5;
constexpr std::uint8_t kDigEvict = 6;
constexpr std::uint8_t kDigDelta = 7;
constexpr std::uint8_t kDigMaster = 8;
constexpr std::uint8_t kDigRequeue = 9;
constexpr std::uint8_t kDigFault = 10;

}  // namespace

void ClusterStats::Merge(const ClusterStats& o) {
  lc_arrived += o.lc_arrived;
  lc_completed += o.lc_completed;
  lc_qos_met += o.lc_qos_met;
  lc_abandoned += o.lc_abandoned;
  lc_dropped += o.lc_dropped;
  lc_spilled += o.lc_spilled;
  lc_remote += o.lc_remote;
  be_arrived += o.be_arrived;
  be_completed += o.be_completed;
  be_dropped += o.be_dropped;
  be_bounced += o.be_bounced;
  be_evicted += o.be_evicted;
  fault_requeues += o.fault_requeues;
  failovers += o.failovers;
  deltas_sent += o.deltas_sent;
  deltas_skipped += o.deltas_skipped;
  full_resyncs += o.full_resyncs;
  nacks += o.nacks;
  msgs_sent += o.msgs_sent;
  msgs_lost += o.msgs_lost;
  latency_sum_us += o.latency_sum_us;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    latency_us_log2[b] += o.latency_us_log2[b];
  }
}

ClusterModel::ClusterModel(const ModelConfig* cfg,
                           const k8s::ClusterSpec& spec, NodeId first_node,
                           std::uint64_t run_seed, const Hookup& hookup)
    : cfg_(cfg),
      spec_(spec),
      id_(spec.id),
      first_node_(first_node),
      sim_(hookup.sim),
      grid_(hookup.grid),
      partition_(hookup.partition),
      tracer_(hookup.tracer),
      shard_(hookup.shard),
      rng_(run_seed ^
           (0x9E3779B97F4A7C15ULL *
            (static_cast<std::uint64_t>(spec.id.value) + 1))) {
  TANGO_CHECK(cfg_ != nullptr && cfg_->topology != nullptr &&
                  cfg_->catalog != nullptr,
              "model config incomplete");
  TANGO_CHECK(sim_ != nullptr && grid_ != nullptr && partition_ != nullptr,
              "model hookup incomplete");

  workers_.resize(static_cast<std::size_t>(spec_.num_workers));
  be_used_.assign(workers_.size(), 0);
  if (cfg_->interference != nullptr) {
    membw_load_.assign(workers_.size(), 0.0);
    llc_load_.assign(workers_.size(), 0.0);
  }
  worker_execs_.resize(workers_.size());
  for (auto& w : workers_) {
    w.capacity = spec_.heterogeneous
                     ? rng_.UniformInt(spec_.min_cpu, spec_.max_cpu)
                     : spec_.worker_capacity.cpu;
  }
  worker_index_ = sched::WorkerIndex(workers_, be_used_);

  const int n = cfg_->topology->num_clusters();
  views_.resize(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) views_[static_cast<std::size_t>(c)].cluster = ClusterId{c};
  master_alive_view_.assign(static_cast<std::size_t>(n), 1);
  links_.assign(static_cast<std::size_t>(n), LinkFault{});
  nearby_ = cfg_->topology->NearbyClusters(id_, cfg_->lc_nearby_radius_km);
  // Failover preference: nearest first, lowest id on equal delay. Delays
  // are computed once per peer rather than once per sort comparison.
  std::vector<std::pair<SimDuration, ClusterId>> by_delay;
  by_delay.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    if (c == id_.value) continue;
    by_delay.emplace_back(cfg_->topology->OneWayDelay(id_, ClusterId{c}),
                          ClusterId{c});
  }
  std::sort(by_delay.begin(), by_delay.end());
  delegate_order_.reserve(by_delay.size());
  for (const auto& entry : by_delay) delegate_order_.push_back(entry.second);
}

Millicores ClusterModel::capacity_total() const {
  Millicores total = 0;
  for (const auto& w : workers_) total += w.capacity;
  return total;
}

void ClusterModel::Start() {
  sim_->StartPeriodic(cfg_->sync_period, cfg_->sync_period,
                      [this] { SyncTick(); });
  sim_->StartPeriodic(cfg_->metrics_period, cfg_->metrics_period,
                      [this] { MetricsTick(); });
  if (cfg_->scenario != nullptr) {
    TANGO_CHECK(cfg_->scenario->num_clusters ==
                    cfg_->topology->num_clusters(),
                "scenario config and topology disagree on cluster count");
    storm_source_ =
        storm::BuildClusterStream(cfg_->scenario_kind, *cfg_->scenario, id_);
    ScheduleNextStorm();
    return;
  }
  ScheduleNextLc();
  ScheduleNextBe();
}

void ClusterModel::ScheduleFaults(const fault::FaultScript& script) {
  for (const fault::FaultEvent& ev : script.events()) {
    if (ev.at > cfg_->end_time) continue;
    sim_->ScheduleAt(ev.at, [this, ev] { ApplyFault(ev); });
  }
}

// --- workload -------------------------------------------------------------

void ClusterModel::ScheduleNextLc() {
  if (cfg_->lc_rps <= 0.0 || cfg_->lc_services.empty()) return;
  SimDuration gap = FromSeconds(rng_.Exponential(cfg_->lc_rps));
  if (gap < 1) gap = 1;
  const SimTime t = sim_->Now() + gap;
  if (t > cfg_->end_time) return;
  sim_->ScheduleAt(t, [this] { OnLcArrival(); });
}

void ClusterModel::ScheduleNextBe() {
  if (cfg_->be_rps <= 0.0 || cfg_->be_services.empty()) return;
  SimDuration gap = FromSeconds(rng_.Exponential(cfg_->be_rps));
  if (gap < 1) gap = 1;
  const SimTime t = sim_->Now() + gap;
  if (t > cfg_->end_time) return;
  sim_->ScheduleAt(t, [this] { OnBeArrival(); });
}

Payload ClusterModel::SampleRequest(bool is_lc) {
  const auto& ids = is_lc ? cfg_->lc_services : cfg_->be_services;
  const ServiceId service = ids[static_cast<std::size_t>(
      rng_.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))];
  const workload::ServiceSpec& spec = cfg_->catalog->Get(service);
  const auto exec_us = static_cast<SimDuration>(
      static_cast<double>(spec.base_proc) * rng_.Uniform(0.5, 1.5));
  return MakePayload(is_lc, service, exec_us);
}

Payload ClusterModel::MakePayload(bool is_lc, ServiceId service,
                                  SimDuration exec_us) {
  Payload p;
  p.is_lc = is_lc;
  p.service = service;
  const workload::ServiceSpec& spec = cfg_->catalog->Get(service);
  p.demand = spec.cpu_demand;
  p.exec_us = exec_us;
  if (p.exec_us < 1) p.exec_us = 1;
  p.deadline_us = spec.qos_target;
  p.request_bytes = spec.request_size;
  p.response_bytes = spec.response_size;
  p.arrival = sim_->Now();
  p.origin = id_;
  p.uid = (static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(id_.value))
           << 40) |
          uid_next_++;

  const std::int32_t slot = AllocRecord();
  Record& r = records_[static_cast<std::size_t>(slot)];
  r.uid = p.uid;
  r.open = true;
  r.is_lc = is_lc;
  r.arrival = p.arrival;
  r.deadline_us = p.deadline_us;
  p.slot = slot;
  p.gen = r.gen;
  if (is_lc && p.deadline_us > 0) {
    const SimDuration grace =
        p.deadline_us * static_cast<SimDuration>(cfg_->abandon_after_targets);
    r.abandon = sim_->ScheduleAfter(
        grace, [this, slot, gen = r.gen] { AbandonLc(slot, gen); });
  }
  if (tracer_ != nullptr) {
    r.span = tracer_->Begin(
        is_lc ? "lc-request" : "be-request", "shard", p.arrival,
        scope::SpanIds{.node = -1, .service = p.service.value,
                       .request = static_cast<std::int64_t>(p.uid)});
  }
  FoldEvent(kDigArrive, p.uid);
  return p;
}

void ClusterModel::OnLcArrival() {
  ScheduleNextLc();
  const Payload p = SampleRequest(/*is_lc=*/true);
  ++stats_.lc_arrived;
  RouteLc(p);
}

void ClusterModel::OnBeArrival() {
  ScheduleNextBe();
  const Payload p = SampleRequest(/*is_lc=*/false);
  ++stats_.be_arrived;
  RouteBe(p);
}

void ClusterModel::ScheduleNextStorm() {
  // One pending arrival at a time: the stream is arrival-ordered, so the
  // next pull cannot land before the one in flight.
  workload::Request req;
  while (storm_source_->NextRequest(&req)) {
    if (req.arrival > cfg_->end_time) return;  // nondecreasing => done
    sim_->ScheduleAt(req.arrival, [this, req] { OnStormArrival(req); });
    return;
  }
}

void ClusterModel::OnStormArrival(const workload::Request& req) {
  ScheduleNextStorm();
  const workload::ServiceSpec& spec = cfg_->catalog->Get(req.service);
  const auto exec_us = static_cast<SimDuration>(
      static_cast<double>(spec.base_proc) * req.work_scale);
  const bool is_lc = spec.is_lc();
  const Payload p = MakePayload(is_lc, req.service, exec_us);
  if (is_lc) {
    ++stats_.lc_arrived;
    RouteLc(p);
  } else {
    ++stats_.be_arrived;
    RouteBe(p);
  }
}

// --- LC path --------------------------------------------------------------

void ClusterModel::RouteLc(const Payload& p) {
  if (master_alive_) {
    // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
    lc_queue_.push_back(p);
    ArmLcTick();
    return;
  }
  // Own master down: the client side dispatches straight to the failover
  // delegate (nearest believed-alive master).
  const ClusterId d = FirstAliveDelegate();
  if (d.valid()) {
    Route(MsgKind::kLcTransfer, d, p, p.request_bytes);
  } else {
    DropRequest(p);
  }
}

void ClusterModel::ArmLcTick() {
  if (lc_tick_armed_ || !master_alive_) return;
  lc_tick_armed_ = true;
  sim_->ScheduleAfter(cfg_->lc_dispatch_interval, [this] {
    lc_tick_armed_ = false;
    if (master_alive_) LcDispatch();
  });
}

bool ClusterModel::TryPlaceLc(const Payload& p) {
  int w = worker_index_.Pick(p.demand);
  if (w < 0) {
    // No worker fits: evict BE (restart elsewhere, §4.1) when that frees
    // enough on the heaviest-BE worker.
    const int victim = sched::PickEvictionWorker(workers_, be_used_, 1);
    if (victim >= 0 &&
        workers_[static_cast<std::size_t>(victim)].free() +
                be_used_[static_cast<std::size_t>(victim)] >=
            p.demand) {
      const Millicores need =
          p.demand - workers_[static_cast<std::size_t>(victim)].free();
      EvictBeFrom(victim, need);
      if (workers_[static_cast<std::size_t>(victim)].free() >= p.demand) {
        w = victim;
      }
    }
  }
  if (w < 0) return false;
  StartExec(w, p);
  return true;
}

void ClusterModel::LcDispatch() {
  while (lc_head_ < lc_queue_.size()) {
    const Payload p = lc_queue_[lc_head_];
    if (TryPlaceLc(p)) {
      ++lc_head_;
      continue;
    }
    // Spill to the best geo-nearby cluster by synced free capacity.
    spill_scratch_.clear();
    for (ClusterId c : nearby_) {
      const auto idx = static_cast<std::size_t>(c.value);
      if (master_alive_view_[idx] == 0) continue;
      if (views_[idx].version == 0) continue;
      // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
      spill_scratch_.push_back(views_[idx]);
    }
    const ClusterId target =
        sched::PickSpillCluster(spill_scratch_, p.demand);
    if (!target.valid()) break;  // neighborhood full too: wait for capacity
    ++lc_head_;
    ++stats_.lc_spilled;
    // Optimistic belief update so one tick does not dump the whole batch
    // on the same neighbor.
    views_[static_cast<std::size_t>(target.value)].free_total -= p.demand;
    Route(MsgKind::kLcTransfer, target, p, p.request_bytes);
  }
  if (lc_head_ > 0 &&
      (lc_head_ == lc_queue_.size() || lc_head_ >= 64)) {
    lc_queue_.erase(lc_queue_.begin(),
                    lc_queue_.begin() + static_cast<std::ptrdiff_t>(lc_head_));
    lc_head_ = 0;
  }
  if (lc_head_ < lc_queue_.size()) ArmLcTick();
}

void ClusterModel::OnSpillArrival(const Payload& p) {
  if (TryPlaceLc(p)) return;
  Route(MsgKind::kLcReject, p.origin, p, cfg_->control_bytes);
}

void ClusterModel::FaultRequeueLc(Payload p) {
  ++stats_.fault_requeues;
  FoldEvent(kDigRequeue, p.uid);
  ++p.reroutes;
  if (p.reroutes > cfg_->max_reroutes) {
    DropRequest(p);
  } else {
    RouteLc(p);
  }
}

void ClusterModel::LoseLc(const Payload& p, SimDuration extra_delay) {
  // Notify the origin after the failure detector fires; local origins take
  // the same path through local delivery.
  Route(MsgKind::kLcLost, p.origin, p, cfg_->control_bytes, extra_delay);
}

void ClusterModel::CompleteLc(const Payload& p) {
  if (p.origin != id_ || !RecordLive(p.slot, p.gen)) return;
  const Record& r = records_[static_cast<std::size_t>(p.slot)];
  const SimDuration latency = sim_->Now() - r.arrival;
  ++stats_.lc_completed;
  stats_.latency_sum_us += latency;
  CountLatency(latency);
  if (r.deadline_us > 0 && latency <= r.deadline_us) ++stats_.lc_qos_met;
  FoldEvent(kDigComplete, p.uid, static_cast<std::uint64_t>(latency));
  CloseRecord(p.slot, p.gen, Outcome::kCompleted);
}

void ClusterModel::AbandonLc(std::int32_t slot, std::uint32_t gen) {
  if (!RecordLive(slot, gen)) return;
  ++stats_.lc_abandoned;
  FoldEvent(kDigAbandon, records_[static_cast<std::size_t>(slot)].uid);
  CloseRecord(slot, gen, Outcome::kAbandoned);
}

void ClusterModel::DropRequest(const Payload& p) {
  TANGO_CHECK(p.origin == id_, "drop must happen at the origin cluster");
  if (!RecordLive(p.slot, p.gen)) return;
  if (p.is_lc) {
    ++stats_.lc_dropped;
  } else {
    ++stats_.be_dropped;
  }
  FoldEvent(kDigDrop, p.uid);
  CloseRecord(p.slot, p.gen, Outcome::kDropped);
}

// --- BE path --------------------------------------------------------------

ClusterId ClusterModel::BelievedCentral() const {
  for (ClusterId c : cfg_->central_rank) {
    if (master_alive_view_[static_cast<std::size_t>(c.value)] != 0) return c;
  }
  return ClusterId{};
}

void ClusterModel::RouteBe(Payload p) {
  const ClusterId central = BelievedCentral();
  if (!central.valid()) {
    if (p.origin == id_) {
      DropRequest(p);
    } else {
      Route(MsgKind::kBeDrop, p.origin, p, cfg_->control_bytes);
    }
    return;
  }
  if (central == id_) {
    // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
    be_queue_.push_back(p);
    ArmBeTick();
    return;
  }
  Route(MsgKind::kBeForward, central, p, p.request_bytes);
}

void ClusterModel::ArmBeTick() {
  if (be_tick_armed_ || !master_alive_) return;
  be_tick_armed_ = true;
  sim_->ScheduleAfter(cfg_->be_dispatch_interval, [this] {
    be_tick_armed_ = false;
    if (master_alive_) BeDispatch();
  });
}

void ClusterModel::BeDispatch() {
  sched::RankBeClusters(views_, &be_rank_scratch_);
  const std::vector<ClusterId>& rank = be_rank_scratch_;
  be_keep_.clear();
  for (const Payload& p : be_queue_) {
    bool placed = false;
    for (ClusterId c : rank) {
      const auto idx = static_cast<std::size_t>(c.value);
      if (master_alive_view_[idx] == 0) continue;
      if (c == id_) {
        if (AdmitBeLocal(p)) {
          placed = true;
          break;
        }
        continue;
      }
      if (views_[idx].version == 0 || views_[idx].free_total < p.demand) {
        continue;
      }
      views_[idx].free_total -= p.demand;
      Route(MsgKind::kBeTransfer, c, p, p.request_bytes);
      placed = true;
      break;
    }
    // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
    if (!placed) be_keep_.push_back(p);
  }
  std::swap(be_queue_, be_keep_);
  if (!be_queue_.empty()) ArmBeTick();
}

bool ClusterModel::AdmitBeLocal(const Payload& p) {
  const sched::WorkerIndex& ix = worker_index_;
  if (!hrm::AdmitBe(cfg_->be_guard, ix.usable_capacity(),
                    ix.usable_used() - ix.usable_be_used(),
                    ix.usable_be_used(), p.demand)) {
    return false;
  }
  const int w = ix.Pick(p.demand);
  if (w < 0) return false;
  StartExec(w, p);
  return true;
}

void ClusterModel::BounceBe(Payload p, SimDuration extra_delay) {
  ++p.bounces;
  const ClusterId central = BelievedCentral();
  if (central.valid()) {
    Route(MsgKind::kBeBounce, central, p, cfg_->control_bytes, extra_delay);
    return;
  }
  if (p.origin == id_) {
    DropRequest(p);
  } else {
    Route(MsgKind::kBeDrop, p.origin, p, cfg_->control_bytes, extra_delay);
  }
}

void ClusterModel::CompleteBe(const Payload& p) {
  if (p.origin != id_ || !RecordLive(p.slot, p.gen)) return;
  ++stats_.be_completed;
  FoldEvent(kDigComplete, p.uid);
  CloseRecord(p.slot, p.gen, Outcome::kCompleted);
}

// --- execution ------------------------------------------------------------

void ClusterModel::UpdateWorker(std::int32_t worker,
                                const sched::WorkerView& view,
                                Millicores be_used) {
  const auto i = static_cast<std::size_t>(worker);
  worker_index_.Update(i, workers_[i], be_used_[i], view, be_used);
  workers_[i] = view;
  be_used_[i] = be_used;
  if constexpr (audit::kEnabled) {
    // O(workers) rescan, so throttle it like the simulator's heap sweep;
    // drift is still caught within 64 mutations.
    if ((++index_audit_tick_ & 63) == 0) {
      worker_index_.Audit(workers_, be_used_, sim_->Now());
    }
  }
}

void ClusterModel::StartExec(std::int32_t worker, const Payload& p) {
  std::int32_t slot;
  if (!free_execs_.empty()) {
    slot = free_execs_.back();
    free_execs_.pop_back();
  } else {
    slot = static_cast<std::int32_t>(execs_.size());
    // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
    execs_.emplace_back();
  }
  Exec& e = execs_[static_cast<std::size_t>(slot)];
  e.req = p;
  e.worker = worker;
  e.live = true;
  const sched::WorkerView& w = workers_[static_cast<std::size_t>(worker)];
  // Admission-time interference: the incoming request's exec time is
  // inflated by its response to the worker's co-runner pressure, read
  // before the request's own contribution lands. The enabled-only block
  // keeps disabled runs byte-identical.
  SimDuration exec_us = p.exec_us;
  if (cfg_->interference != nullptr) {
    const double cap_cores = static_cast<double>(w.capacity) / 1000.0;
    storm::PressureVec v;
    v.cpu = static_cast<double>(w.used) / static_cast<double>(w.capacity);
    v.membw = membw_load_[static_cast<std::size_t>(worker)] / cap_cores;
    v.llc = llc_load_[static_cast<std::size_t>(worker)] / cap_cores;
    const double f = cfg_->interference->Inflation(p.service, v);
    exec_us = static_cast<SimDuration>(
        std::ceil(static_cast<double>(exec_us) * f));
    if (exec_us < 1) exec_us = 1;
    const auto& prof = cfg_->interference->Profile(p.service);
    const double cores = static_cast<double>(p.demand) / 1000.0;
    membw_load_[static_cast<std::size_t>(worker)] +=
        prof.membw_intensity * cores;
    llc_load_[static_cast<std::size_t>(worker)] += prof.llc_intensity * cores;
  }
  sched::WorkerView next = w;
  next.used += p.demand;
  UpdateWorker(worker, next,
               be_used_[static_cast<std::size_t>(worker)] +
                   (p.is_lc ? 0 : p.demand));
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  worker_execs_[static_cast<std::size_t>(worker)].push_back(slot);
  e.done = sim_->ScheduleAfter(exec_us, [this, slot] { FinishExec(slot); });
  if (p.is_lc && p.origin != id_) ++stats_.lc_remote;
  FoldEvent(kDigExec, p.uid, static_cast<std::uint64_t>(worker));
}

void ClusterModel::ReleaseExec(std::int32_t slot) {
  Exec& e = execs_[static_cast<std::size_t>(slot)];
  TANGO_CHECK(e.live, "releasing a dead exec slot");
  sched::WorkerView next = workers_[static_cast<std::size_t>(e.worker)];
  next.used -= e.req.demand;
  UpdateWorker(e.worker, next,
               be_used_[static_cast<std::size_t>(e.worker)] -
                   (e.req.is_lc ? 0 : e.req.demand));
  if (cfg_->interference != nullptr) {
    const auto& prof = cfg_->interference->Profile(e.req.service);
    const double cores = static_cast<double>(e.req.demand) / 1000.0;
    membw_load_[static_cast<std::size_t>(e.worker)] -=
        prof.membw_intensity * cores;
    llc_load_[static_cast<std::size_t>(e.worker)] -=
        prof.llc_intensity * cores;
  }
  auto& list = worker_execs_[static_cast<std::size_t>(e.worker)];
  const auto it = std::find(list.begin(), list.end(), slot);
  TANGO_CHECK(it != list.end(), "exec slot missing from worker list");
  *it = list.back();
  list.pop_back();
  e.live = false;
  e.done = sim::kInvalidEvent;
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  free_execs_.push_back(slot);
}

void ClusterModel::FinishExec(std::int32_t slot) {
  const Payload p = execs_[static_cast<std::size_t>(slot)].req;
  ReleaseExec(slot);
  Route(p.is_lc ? MsgKind::kLcResult : MsgKind::kBeResult, p.origin, p,
        p.response_bytes);
}

Millicores ClusterModel::EvictBeFrom(std::int32_t worker, Millicores need) {
  Millicores freed = 0;
  auto& list = worker_execs_[static_cast<std::size_t>(worker)];
  // Walk from the back (youngest first). ReleaseExec swap-erases, moving
  // the already-visited tail element into the hole, so earlier indices
  // stay valid.
  for (auto i = static_cast<std::ptrdiff_t>(list.size()) - 1;
       i >= 0 && freed < need; --i) {
    const std::int32_t slot = list[static_cast<std::size_t>(i)];
    Exec& e = execs_[static_cast<std::size_t>(slot)];
    if (e.req.is_lc) continue;
    const Payload p = e.req;
    sim_->Cancel(e.done);
    ReleaseExec(slot);
    freed += p.demand;
    ++stats_.be_evicted;
    FoldEvent(kDigEvict, p.uid);
    if (tracer_ != nullptr) {
      tracer_->Instant("be-evict", "shard", sim_->Now(),
                       scope::SpanIds{
                           .request = static_cast<std::int64_t>(p.uid)});
    }
    // Evicted BE restarts elsewhere: bounce through the central.
    BounceBe(p, 0);
  }
  return freed;
}

// --- state sync & control --------------------------------------------------

void ClusterModel::SyncTick() {
  if (!master_alive_) return;
  const Millicores free = worker_index_.usable_free();
  const std::int32_t live = worker_index_.live_workers();
  if (free == last_free_ && live == last_live_ && !force_push_) {
    ++stats_.deltas_skipped;
    return;
  }
  last_free_ = free;
  last_live_ = live;
  force_push_ = false;
  ++sync_version_;

  Payload p;
  p.is_lc = false;
  p.version = sync_version_;
  p.free_total = free;
  p.live_workers = live;

  auto push = [&](ClusterId r) {
    if (master_alive_view_[static_cast<std::size_t>(r.value)] == 0) return;
    Route(MsgKind::kStateDelta, r, p, cfg_->delta_bytes);
    ++stats_.deltas_sent;
  };
  for (ClusterId r : nearby_) push(r);
  const ClusterId central = BelievedCentral();
  if (central.valid() && central != id_ &&
      std::find(nearby_.begin(), nearby_.end(), central) == nearby_.end()) {
    push(central);
  }
}

void ClusterModel::MetricsTick() {
  Millicores cap = 0;
  Millicores used = 0;
  for (const auto& w : workers_) {
    if (!w.alive) continue;
    cap += w.capacity;
    used += w.used;
  }
  PeriodRow row;
  row.at = sim_->Now();
  row.util = cap > 0 ? static_cast<double>(used) / static_cast<double>(cap)
                     : 0.0;
  periods_.push_back(row);
}

void ClusterModel::BroadcastControl(MsgKind kind) {
  Payload p;
  p.is_lc = false;
  p.subject = id_;
  const int n = cfg_->topology->num_clusters();
  for (int c = 0; c < n; ++c) {
    if (c == id_.value) continue;
    Route(kind, ClusterId{c}, p, cfg_->control_bytes);
  }
}

ClusterId ClusterModel::FirstAliveDelegate() const {
  for (ClusterId c : delegate_order_) {
    if (master_alive_view_[static_cast<std::size_t>(c.value)] != 0) return c;
  }
  return ClusterId{};
}

void ClusterModel::ApplyFault(const fault::FaultEvent& ev) {
  switch (ev.kind) {
    case fault::FaultKind::kNodeCrash: {
      const std::int32_t w = LocalWorkerIndex(ev.node);
      if (w < 0 || !workers_[static_cast<std::size_t>(w)].alive) return;
      sched::WorkerView down = workers_[static_cast<std::size_t>(w)];
      down.alive = false;
      UpdateWorker(w, down, be_used_[static_cast<std::size_t>(w)]);
      FoldEvent(kDigFault, static_cast<std::uint64_t>(ev.node.value), 0);
      // Lose everything running on the node; origins learn after the
      // failure detector fires.
      const std::vector<std::int32_t> running =
          worker_execs_[static_cast<std::size_t>(w)];
      for (const std::int32_t slot : running) {
        Exec& e = execs_[static_cast<std::size_t>(slot)];
        const Payload p = e.req;
        sim_->Cancel(e.done);
        ReleaseExec(slot);
        if (p.is_lc) {
          LoseLc(p, cfg_->fault_detect_delay);
        } else {
          BounceBe(p, cfg_->fault_detect_delay);
        }
      }
      break;
    }
    case fault::FaultKind::kNodeRecover: {
      const std::int32_t w = LocalWorkerIndex(ev.node);
      if (w < 0 || workers_[static_cast<std::size_t>(w)].alive) return;
      sched::WorkerView up = workers_[static_cast<std::size_t>(w)];
      up.alive = true;
      UpdateWorker(w, up, be_used_[static_cast<std::size_t>(w)]);
      FoldEvent(kDigFault, static_cast<std::uint64_t>(ev.node.value), 1);
      if (lc_head_ < lc_queue_.size()) ArmLcTick();
      break;
    }
    case fault::FaultKind::kNodeDrain:
    case fault::FaultKind::kNodeUndrain: {
      const std::int32_t w = LocalWorkerIndex(ev.node);
      if (w < 0) return;
      sched::WorkerView v = workers_[static_cast<std::size_t>(w)];
      v.draining = ev.kind == fault::FaultKind::kNodeDrain;
      UpdateWorker(w, v, be_used_[static_cast<std::size_t>(w)]);
      break;
    }
    case fault::FaultKind::kLinkDegrade:
    case fault::FaultKind::kLinkRestore:
    case fault::FaultKind::kPartition:
    case fault::FaultKind::kHeal: {
      const ClusterId peer = ev.cluster_a == id_ ? ev.cluster_b : ev.cluster_a;
      if (!peer.valid() ||
          peer.value >= cfg_->topology->num_clusters()) {
        return;
      }
      LinkFault& lf = links_[static_cast<std::size_t>(peer.value)];
      if (ev.kind == fault::FaultKind::kLinkDegrade) {
        lf.latency_mult = ev.latency_mult;
        lf.loss = ev.loss;
      } else if (ev.kind == fault::FaultKind::kLinkRestore) {
        lf.latency_mult = 1.0;
        lf.loss = 0.0;
      } else if (ev.kind == fault::FaultKind::kPartition) {
        lf.cut = true;
      } else {
        lf.cut = false;
      }
      FoldEvent(kDigFault, static_cast<std::uint64_t>(peer.value),
                static_cast<std::uint64_t>(ev.kind));
      break;
    }
    case fault::FaultKind::kMasterFail: {
      if (!master_alive_) return;
      master_alive_ = false;
      master_alive_view_[static_cast<std::size_t>(id_.value)] = 0;
      ++stats_.failovers;
      FoldEvent(kDigMaster, static_cast<std::uint64_t>(id_.value), 0);
      if (tracer_ != nullptr) {
        tracer_->Instant("master-fail", "shard", sim_->Now(),
                         scope::SpanIds{.value = id_.value});
      }
      BroadcastControl(MsgKind::kMasterDown);
      // Queued LC fails over to the nearest believed-alive master once the
      // failure detector fires. The BE central queue (if this master was
      // acting central) stays durable and resumes on recovery.
      for (std::size_t i = lc_head_; i < lc_queue_.size(); ++i) {
        const Payload p = lc_queue_[i];
        const ClusterId d = FirstAliveDelegate();
        if (d.valid()) {
          Route(MsgKind::kLcTransfer, d, p, p.request_bytes,
                cfg_->fault_detect_delay);
        } else if (p.origin == id_) {
          DropRequest(p);
        } else {
          Route(MsgKind::kLcLost, p.origin, p, cfg_->control_bytes,
                cfg_->fault_detect_delay);
        }
      }
      lc_queue_.clear();
      lc_head_ = 0;
      break;
    }
    case fault::FaultKind::kMasterRecover: {
      if (master_alive_) return;
      master_alive_ = true;
      master_alive_view_[static_cast<std::size_t>(id_.value)] = 1;
      force_push_ = true;
      FoldEvent(kDigMaster, static_cast<std::uint64_t>(id_.value), 1);
      if (tracer_ != nullptr) {
        tracer_->Instant("master-recover", "shard", sim_->Now(),
                         scope::SpanIds{.value = id_.value});
      }
      BroadcastControl(MsgKind::kMasterUp);
      if (lc_head_ < lc_queue_.size()) ArmLcTick();
      if (!be_queue_.empty()) ArmBeTick();
      break;
    }
  }
}

// --- transport -------------------------------------------------------------

void ClusterModel::Route(MsgKind kind, ClusterId dst, const Payload& p,
                         Bytes bytes, SimDuration extra_delay) {
  ShardMessage m;
  m.kind = kind;
  m.src = id_;
  m.dst = dst;
  m.sent = sim_->Now();
  m.payload = p;
  if (dst == id_) {
    // Intra-cluster delivery rides this shard's own simulator at LAN
    // delay — below the lookahead, so it never needs the mailbox.
    const SimDuration lan =
        cfg_->topology->TransferDelay(id_, id_, bytes) + extra_delay;
    m.deliver = m.sent + lan;
    EnqueueLocal(m, lan);
    return;
  }
  const LinkFault& lf = links_[static_cast<std::size_t>(dst.value)];
  if (lf.cut || (lf.loss > 0.0 && rng_.Bernoulli(lf.loss))) {
    OnSendFailed(kind, p);
    return;
  }
  SimDuration prop = cfg_->topology->OneWayDelay(id_, dst);
  if (lf.latency_mult > 1.0) {
    prop = static_cast<SimDuration>(static_cast<double>(prop) *
                                    lf.latency_mult);
  }
  m.deliver = m.sent + prop +
              TransferTime(bytes, cfg_->topology->Bandwidth(id_, dst)) +
              extra_delay;
  m.seq = seq_next_++;
  grid_->Send(shard_, partition_->shard_of_cluster(dst), m);
  ++stats_.msgs_sent;
}

void ClusterModel::OnSendFailed(MsgKind kind, const Payload& p) {
  switch (kind) {
    case MsgKind::kLcTransfer:
      // The connection attempt fails; after detection the origin requeues
      // (locally delivered when we *are* the origin).
      LoseLc(p, cfg_->fault_detect_delay);
      break;
    case MsgKind::kBeForward: {
      // Could not reach the believed central: burn a bounce and retry —
      // bounded by max_be_bounces since the belief only changes on master
      // events, not link faults.
      Payload q = p;
      ++q.bounces;
      if (q.bounces > cfg_->max_be_bounces) {
        if (q.origin == id_) {
          DropRequest(q);
        } else {
          ++stats_.msgs_lost;
        }
      } else {
        RouteBe(q);
      }
      break;
    }
    case MsgKind::kBeTransfer: {
      // We are the central and the target is unreachable: requeue for the
      // next dispatch tick (its view was already debited, so the walk will
      // prefer someone else).
      Payload q = p;
      ++q.bounces;
      if (q.bounces > cfg_->max_be_bounces) {
        if (q.origin == id_) {
          DropRequest(q);
        } else {
          Route(MsgKind::kBeDrop, q.origin, q, cfg_->control_bytes);
        }
      } else {
        // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
        be_queue_.push_back(q);
        ArmBeTick();
      }
      break;
    }
    default:
      // Results, deltas, control notices: lost silently but *counted* —
      // LC origins recover via the abandonment timer, BE losses surface in
      // arrived-vs-completed accounting.
      ++stats_.msgs_lost;
      break;
  }
}

void ClusterModel::EnqueueLocal(const ShardMessage& msg, SimDuration delay) {
  std::uint32_t idx;
  if (!local_free_.empty()) {
    idx = local_free_.back();
    local_free_.pop_back();
    local_slab_[idx] = msg;
  } else {
    idx = static_cast<std::uint32_t>(local_slab_.size());
    // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
    local_slab_.push_back(msg);
  }
  sim_->ScheduleAfter(delay, [this, idx] {
    const ShardMessage m = local_slab_[idx];
    // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
    local_free_.push_back(idx);
    OnMessage(m);
  });
}

// --- message handling -------------------------------------------------------

void ClusterModel::OnMessage(const ShardMessage& m) {
  switch (m.kind) {
    case MsgKind::kLcTransfer:
    case MsgKind::kBeForward:
    case MsgKind::kBeTransfer:
    case MsgKind::kBeBounce:
      if (!master_alive_) {
        // The cluster's infrastructure bounces master-bound traffic back
        // so the sender learns the master is gone (connection refused).
        ++stats_.nacks;
        Payload p = m.payload;
        p.orig = m.kind;
        p.subject = id_;
        Route(MsgKind::kMasterNack, m.src, p, cfg_->control_bytes);
        return;
      }
      break;
    case MsgKind::kStateDelta:
      if (!master_alive_) return;  // nobody home to apply it
      break;
    default:
      break;  // client-side and control kinds process regardless
  }

  switch (m.kind) {
    case MsgKind::kLcTransfer:
      OnSpillArrival(m.payload);
      break;
    case MsgKind::kLcReject: {
      if (m.payload.origin != id_) break;
      Payload p = m.payload;
      ++p.reroutes;
      if (p.reroutes > cfg_->max_reroutes) {
        DropRequest(p);
      } else {
        RouteLc(p);
      }
      break;
    }
    case MsgKind::kLcResult:
      CompleteLc(m.payload);
      break;
    case MsgKind::kLcLost:
      if (m.payload.origin == id_) FaultRequeueLc(m.payload);
      break;
    case MsgKind::kBeForward:
      // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
      be_queue_.push_back(m.payload);
      ArmBeTick();
      break;
    case MsgKind::kBeTransfer:
      if (!AdmitBeLocal(m.payload)) {
        Payload p = m.payload;
        ++p.bounces;
        Route(MsgKind::kBeBounce, m.src, p, cfg_->control_bytes);
      }
      break;
    case MsgKind::kBeBounce: {
      ++stats_.be_bounced;
      const Payload& p = m.payload;
      if (p.bounces > cfg_->max_be_bounces) {
        if (p.origin == id_) {
          DropRequest(p);
        } else {
          Route(MsgKind::kBeDrop, p.origin, p, cfg_->control_bytes);
        }
      } else {
        // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
        be_queue_.push_back(p);
        ArmBeTick();
      }
      break;
    }
    case MsgKind::kBeResult:
      CompleteBe(m.payload);
      break;
    case MsgKind::kBeDrop:
      if (m.payload.origin == id_) DropRequest(m.payload);
      break;
    case MsgKind::kStateDelta: {
      const auto idx = static_cast<std::size_t>(m.src.value);
      if (m.payload.version > views_[idx].version) {
        views_[idx].free_total = m.payload.free_total;
        views_[idx].live_workers = m.payload.live_workers;
        views_[idx].version = m.payload.version;
        FoldEvent(kDigDelta,
                  (static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(m.src.value))
                   << 32) |
                      m.payload.version,
                  static_cast<std::uint64_t>(m.payload.free_total));
      }
      break;
    }
    case MsgKind::kMasterDown:
      master_alive_view_[static_cast<std::size_t>(m.payload.subject.value)] =
          0;
      FoldEvent(kDigMaster,
                static_cast<std::uint64_t>(m.payload.subject.value), 2);
      break;
    case MsgKind::kMasterUp:
      master_alive_view_[static_cast<std::size_t>(m.payload.subject.value)] =
          1;
      // Our aggregate view is stale on their side: force a full push at
      // the next sync tick (the sharded analogue of a full resync).
      force_push_ = true;
      ++stats_.full_resyncs;
      FoldEvent(kDigMaster,
                static_cast<std::uint64_t>(m.payload.subject.value), 3);
      break;
    case MsgKind::kMasterNack: {
      const Payload& p = m.payload;
      if (p.subject.valid()) {
        master_alive_view_[static_cast<std::size_t>(p.subject.value)] = 0;
      }
      switch (p.orig) {
        case MsgKind::kLcTransfer:
          if (p.origin == id_) {
            FaultRequeueLc(p);
          } else {
            Route(MsgKind::kLcLost, p.origin, p, cfg_->control_bytes);
          }
          break;
        case MsgKind::kBeForward: {
          Payload q = p;
          ++q.bounces;
          if (q.bounces > cfg_->max_be_bounces) {
            if (q.origin == id_) {
              DropRequest(q);
            } else {
              ++stats_.msgs_lost;
            }
          } else {
            RouteBe(q);
          }
          break;
        }
        case MsgKind::kBeTransfer:
        case MsgKind::kBeBounce: {
          Payload q = p;
          ++q.bounces;
          if (q.bounces > cfg_->max_be_bounces) {
            if (q.origin == id_) {
              DropRequest(q);
            } else {
              Route(MsgKind::kBeDrop, q.origin, q, cfg_->control_bytes);
            }
          } else {
            // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
            be_queue_.push_back(q);
            ArmBeTick();
          }
          break;
        }
        default:
          break;
      }
      break;
    }
  }
}

// --- records ----------------------------------------------------------------

std::int32_t ClusterModel::AllocRecord() {
  if (!free_records_.empty()) {
    const std::int32_t slot = free_records_.back();
    free_records_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::int32_t>(records_.size());
  records_.emplace_back();
  return slot;
}

bool ClusterModel::RecordLive(std::int32_t slot, std::uint32_t gen) const {
  if (slot < 0 || slot >= static_cast<std::int32_t>(records_.size())) {
    return false;
  }
  const Record& r = records_[static_cast<std::size_t>(slot)];
  return r.open && r.gen == gen;
}

void ClusterModel::CloseRecord(std::int32_t slot, std::uint32_t gen,
                               Outcome outcome) {
  if (!RecordLive(slot, gen)) return;
  Record& r = records_[static_cast<std::size_t>(slot)];
  sim_->Cancel(r.abandon);
  r.abandon = sim::kInvalidEvent;
  if (tracer_ != nullptr && r.span != scope::kInvalidSpan) {
    tracer_->End(r.span, sim_->Now());
    r.span = scope::kInvalidSpan;
  }
  (void)outcome;  // counted at the call sites, which know the story
  r.open = false;
  ++r.gen;
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  free_records_.push_back(slot);
}

// --- bookkeeping ------------------------------------------------------------

std::int32_t ClusterModel::LocalWorkerIndex(NodeId node) const {
  const std::int32_t idx = node.value - first_node_.value - 1;
  if (idx < 0 || idx >= spec_.num_workers) return -1;
  return idx;
}

void ClusterModel::FoldEvent(std::uint8_t code, std::uint64_t a,
                             std::uint64_t b) {
  Fold(code);
  Fold(static_cast<std::uint64_t>(sim_->Now()));
  Fold(a);
  Fold(b);
}

void ClusterModel::CountLatency(SimDuration latency) {
  const std::uint64_t us =
      latency < 1 ? 1ULL : static_cast<std::uint64_t>(latency);
  int bucket = std::bit_width(us) - 1;
  if (bucket >= ClusterStats::kLatencyBuckets) {
    bucket = ClusterStats::kLatencyBuckets - 1;
  }
  ++stats_.latency_us_log2[bucket];
}

}  // namespace tango::shard
