#include "sched/dss_lc.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/vet.h"
#include "metrics/state_storage.h"
#include "scope/scope.h"

namespace tango::sched {

using k8s::Assignment;
using k8s::PendingRequest;

namespace {

/// Commitments decayed below this are evicted (zeroed), so the decay walk
/// stays bounded by the recently used node set.
constexpr double kCommitEpsilon = 1e-6;

constexpr const char* kPhaseNames[] = {
    "sched.phase.snapshot_us", "sched.phase.capacity_us",
    "sched.phase.split_us", "sched.phase.fill_us", "sched.phase.commit_us"};

double ElapsedUs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Independent per-(type, round) RNG stream: the Rng constructor splitmixes
/// the seed, so a distinct linear combination per stream is sufficient.
std::uint64_t TypeStreamSeed(std::uint64_t seed, ServiceId svc,
                             std::uint64_t round) {
  return seed + 0x9E3779B97F4A7C15ULL *
                    (static_cast<std::uint64_t>(svc.value) + 1) +
         0x94D049BB133111EBULL * (round + 1);
}

}  // namespace

const char* SplitPolicyName(SplitPolicy p) {
  switch (p) {
    case SplitPolicy::kRandom:
      return "random";
    case SplitPolicy::kFifo:
      return "fifo";
    case SplitPolicy::kDeadline:
      return "deadline";
  }
  return "?";
}

std::int64_t FillStar(std::span<const std::int64_t> cost,
                      std::span<const std::int64_t> cap, std::int64_t amount,
                      std::int64_t edge_capacity, std::vector<StarKey>& heap,
                      std::vector<StarFill>& fills) {
  fills.clear();
  heap.clear();
  for (std::size_t i = 0; i < cap.size(); ++i) {
    // A worker whose arc pair carries nothing never takes a unit.
    if (std::min(cap[i], edge_capacity) <= 0) continue;
    // TANGOVET_ALLOW_NEXT(scratch: capacity sized to the view at round start)
    heap.emplace_back(cost[i], static_cast<std::int32_t>(i));
  }
  // Min-heap on (cost, index): one pop per filled worker instead of a full
  // sort, since a round usually carries only a few requests per type.
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  std::int64_t remaining = amount;
  while (remaining > 0 && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const std::int32_t w = heap.back().second;
    heap.pop_back();
    const std::int64_t take = std::min(
        {remaining, edge_capacity, cap[static_cast<std::size_t>(w)]});
    // TANGOVET_ALLOW_NEXT(scratch: capacity sized to the view at round start)
    fills.push_back({w, take});
    remaining -= take;
  }
  if constexpr (audit::kEnabled) {
    AuditStarFill(cost, cap, amount, edge_capacity, fills);
  }
  return amount > 0 ? amount - remaining : 0;
}

TANGO_COLD void AuditStarFill(std::span<const std::int64_t> cost,
                              std::span<const std::int64_t> cap,
                              std::int64_t amount, std::int64_t edge_capacity,
                              std::span<const StarFill> fills) {
  if constexpr (!audit::kEnabled) return;
  {
    const auto usable = [&](std::size_t i) {
      return std::max<std::int64_t>(0, std::min(cap[i], edge_capacity));
    };
    std::int64_t total_usable = 0;
    for (std::size_t i = 0; i < cap.size(); ++i) total_usable += usable(i);
    std::int64_t routed = 0;
    bool any = false;
    StarKey last{};  // the filled worker latest in (cost, index) order
    for (const StarFill& f : fills) {
      AUDIT_CHECK(f.worker >= 0 &&
                      static_cast<std::size_t>(f.worker) < cap.size() &&
                      f.count > 0,
                  .subsystem = "sched", .invariant = "sched.star_fill_bound",
                  .detail = audit::Detail("fill of %lld onto worker %d of %zu",
                                          static_cast<long long>(f.count),
                                          f.worker, cap.size()));
      routed += f.count;
      const StarKey key{cost[static_cast<std::size_t>(f.worker)], f.worker};
      if (!any || last < key) last = key;
      any = true;
    }
    const std::int64_t want =
        std::min(std::max<std::int64_t>(0, amount), total_usable);
    AUDIT_CHECK(routed == want, .subsystem = "sched",
                .invariant = "sched.star_fill_total",
                .detail = audit::Detail(
                    "routed %lld, want min(amount %lld, usable %lld)",
                    static_cast<long long>(routed),
                    static_cast<long long>(amount),
                    static_cast<long long>(total_usable)));
    for (std::size_t j = 0; j < cap.size(); ++j) {
      std::int64_t count = 0;
      for (const StarFill& f : fills) {
        if (static_cast<std::size_t>(f.worker) == j) count += f.count;
      }
      AUDIT_CHECK(count <= usable(j), .subsystem = "sched",
                  .invariant = "sched.star_fill_bound",
                  .detail = audit::Detail(
                      "worker %zu took %lld over min(cap, edge) %lld", j,
                      static_cast<long long>(count),
                      static_cast<long long>(usable(j))));
      if (count >= usable(j)) continue;
      // Spare capacity: only the last-filled worker may be partly filled,
      // and every other spare worker must come after it.
      const StarKey key{cost[j], static_cast<std::int32_t>(j)};
      AUDIT_CHECK(!any || key == last || last < key, .subsystem = "sched",
                  .invariant = "sched.star_fill_order",
                  .detail = audit::Detail(
                      "worker %zu (cost %lld) has spare capacity but comes "
                      "before filled worker %d (cost %lld)",
                      j, static_cast<long long>(cost[j]), last.second,
                      static_cast<long long>(last.first)));
    }
  }
}

DssLcScheduler::DssLcScheduler(const workload::ServiceCatalog* catalog,
                               DssLcConfig cfg)
    : catalog_(catalog), cfg_(cfg) {
  TANGO_CHECK(catalog_ != nullptr, "catalog required");
  buckets_.resize(static_cast<std::size_t>(catalog_->size()));
  m_rounds_ = &metrics_.GetCounter("sched.rounds");
  m_assigned_ = &metrics_.GetCounter("sched.assigned");
  m_overflow_ = &metrics_.GetCounter("sched.overflow");
  h_round_ = &metrics_.GetHistogram("sched.round_us");
  for (int p = 0; p < kNumPhases; ++p) {
    h_phase_[static_cast<std::size_t>(p)] =
        &metrics_.GetHistogram(kPhaseNames[p]);
  }
}

void DssLcScheduler::Lap(Phase phase) {
  if (!cfg_.profile_phases) return;
  // TANGOVET_ALLOW_NEXT(profiling: phase timing never feeds routing state)
  const auto t = std::chrono::steady_clock::now();
  phase_us_[static_cast<std::size_t>(phase)] += ElapsedUs(phase_mark_, t);
  phase_mark_ = t;
}

void DssLcScheduler::DecayCommitments(SimTime now) {
  // Half-life 125 ms ≈ typical service time, so commitments only bridge the
  // staleness window of the state storage. Multiply, then evict below the
  // epsilon, per node and per resource.
  if (now <= last_decay_) return;
  const double factor =
      std::pow(0.5, static_cast<double>(now - last_decay_) /
                        static_cast<double>(125 * kMillisecond));
  for (std::size_t k = 0; k < committed_live_.size();) {
    const auto id = static_cast<std::size_t>(committed_live_[k]);
    double& cpu = committed_cpu_[id];
    double& mem = committed_mem_[id];
    cpu *= factor;
    if (cpu < kCommitEpsilon) cpu = 0.0;
    mem *= factor;
    if (mem < kCommitEpsilon) mem = 0.0;
    if (cpu == 0.0 && mem == 0.0) {
      committed_live_[k] = committed_live_.back();
      committed_live_.pop_back();
    } else {
      ++k;
    }
  }
  last_decay_ = now;
}

void DssLcScheduler::BuildView(const metrics::StateStorage& storage,
                               k8s::LcRoundStats& round) {
  // Workers the fault plane took out (crashed, draining, or behind a cut
  // link) are excluded up front — dispatching to them would strand the
  // request until the failure detector re-queues it.
  view_.clear();
  for (const auto& s : storage.All()) {
    if (s.is_master) continue;
    round.considered += 1;
    if (!s.alive || s.draining) {
      round.excluded_dead += 1;
      continue;
    }
    if (!s.reachable) {
      round.excluded_unreachable += 1;
      continue;
    }
    const auto id = static_cast<std::size_t>(s.node.value);
    if (id >= committed_cpu_.size()) {
      committed_cpu_.resize(id + 1, 0.0);
      committed_mem_.resize(id + 1, 0.0);
      // Each node is live at most once, so this bounds the live list.
      committed_live_.reserve(id + 1);
    }
    // Eq. 2 over the §4.1-regulated LC view (idle + BE-preemptible), minus
    // what this dispatcher already committed since the last sync.
    WorkerView w;
    w.node = s.node;
    w.committed_cpu = committed_cpu_[id];
    w.cpu_for_lc = s.CpuForLc() - static_cast<Millicores>(w.committed_cpu);
    w.mem_for_lc = s.MemForLc() - static_cast<MiB>(committed_mem_[id]);
    w.cpu_total = s.cpu_total;
    w.mem_total = s.mem_total;
    w.queued = s.queued;
    w.half_rtt = storage.Rtt(s.cluster).value_or(kMillisecond) / 2;
    view_.push_back(w);
  }
  const std::size_t n = view_.size();
  cap_.resize(n);
  total_cap_.resize(n);
  ovf_cap_.resize(n);
  cost_.resize(n);
  heap_.reserve(n);
  fills_.reserve(n);
  ovf_fills_.reserve(n);
  // At most one commitment per (type, worker).
  round_commits_.reserve(buckets_.size() * n);
}

void DssLcScheduler::Emit(const std::vector<StarFill>& fills,
                          std::size_t first,
                          std::vector<Assignment>& out) const {
  std::size_t cursor = first;
  for (const StarFill& f : fills) {
    const NodeId target = view_[static_cast<std::size_t>(f.worker)].node;
    for (std::int64_t c = 0; c < f.count; ++c) {
      // TANGOVET_ALLOW_NEXT(reserved: out holds the whole queue)
      out.push_back({ordered_[cursor++]->request.id, target});
    }
  }
}

TANGO_HOT void DssLcScheduler::DispatchType(
    ServiceId svc_id, const std::vector<const PendingRequest*>& requests,
    std::uint64_t round, std::vector<Assignment>& out) {
  const auto& svc = catalog_->Get(svc_id);
  const Millicores cpu_demand = std::max<Millicores>(1, svc.cpu_demand);
  const MiB mem_demand = std::max<MiB>(1, svc.mem_demand);

  // Capacity view (Eq. 2 / Eq. 7) over the round-start state: commitments
  // made by sibling types this round are intentionally invisible.
  const std::size_t n = view_.size();
  std::int64_t total_capacity = 0;
  std::int64_t total_res_capacity = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const WorkerView& w = view_[i];
    const std::int64_t cap =
        std::min(std::max<Millicores>(0, w.cpu_for_lc) / cpu_demand,
                 std::max<MiB>(0, w.mem_for_lc) / mem_demand);
    const std::int64_t total_cap =
        std::min(w.cpu_total / cpu_demand, w.mem_total / mem_demand);
    // Edge cost = transmission delay + estimated queueing delay (queued
    // work observed at the node, plus our own not-yet-visible
    // commitments) — the "routing and queuing delays" the paper's
    // objective integrates. Without the queue term the overflow graph
    // keeps feeding saturated nodes proportional to their total size.
    const double queued_estimate =
        static_cast<double>(w.queued) +
        (w.committed_cpu > 0.0
             ? w.committed_cpu / static_cast<double>(svc.cpu_demand)
             : 0.0);
    const auto queue_cost = static_cast<std::int64_t>(
        queued_estimate * static_cast<double>(svc.base_proc));
    cap_[i] = std::max<std::int64_t>(0, cap);
    total_cap_[i] = std::max<std::int64_t>(0, total_cap);
    cost_[i] = w.half_rtt + queue_cost;
    total_capacity += cap_[i];
    total_res_capacity += total_cap_[i];
  }
  Lap(kCapacity);

  // Order requests by the split policy ρ(·) on this type's own RNG stream.
  // The bucket points into the queue in queue order, so breaking ties by
  // address keeps queue order: a stable sort without stable_sort's
  // temporary buffer.
  // TANGOVET_ALLOW_NEXT(scratch: capacity retained across rounds)
  ordered_.assign(requests.begin(), requests.end());
  switch (cfg_.split_policy) {
    case SplitPolicy::kRandom: {
      Rng rng(TypeStreamSeed(cfg_.seed, svc_id, round));
      for (std::size_t i = ordered_.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(ordered_[i - 1], ordered_[j]);
      }
      break;
    }
    case SplitPolicy::kFifo:
      std::sort(ordered_.begin(), ordered_.end(),
                [](const PendingRequest* a, const PendingRequest* b) {
                  return a->request.arrival != b->request.arrival
                             ? a->request.arrival < b->request.arrival
                             : a < b;
                });
      break;
    case SplitPolicy::kDeadline: {
      const SimDuration target = svc.qos_target;
      std::sort(ordered_.begin(), ordered_.end(),
                [target](const PendingRequest* a, const PendingRequest* b) {
                  const SimTime da = a->request.arrival + target;
                  const SimTime db = b->request.arrival + target;
                  return da != db ? da < db : a < b;
                });
      break;
    }
  }
  Lap(kSplit);

  const auto by_worker = [](const StarFill& a, const StarFill& b) {
    return a.worker < b.worker;
  };
  const auto pending = static_cast<std::int64_t>(requests.size());
  // Case 1 (capacity suffices) routes everything on G_k; case 2 (overload)
  // routes R_k = the first Σ t_i^k requests on G_k and R'_k on Ĝ'_k.
  const std::int64_t immediate = std::min(pending, total_capacity);
  const std::int64_t overflow = pending - immediate;
  fills_.clear();
  ovf_fills_.clear();
  if (immediate > 0) {
    FillStar(cost_, cap_, immediate, cfg_.edge_capacity, heap_, fills_);
    std::sort(fills_.begin(), fills_.end(), by_worker);
    Lap(kFill);
    Emit(fills_, 0, out);
    Lap(kCommit);
  }
  if (overflow > 0 && total_res_capacity > 0) {
    // λ scales total-resource capacities so Ĝ'_k fits exactly R'_k (Eq. 8).
    const double lambda = static_cast<double>(overflow) /
                          static_cast<double>(total_res_capacity);
    for (std::size_t i = 0; i < n; ++i) {
      ovf_cap_[i] = std::max<std::int64_t>(
          0, static_cast<std::int64_t>(
                 std::ceil(static_cast<double>(total_cap_[i]) * lambda)));
    }
    const std::int64_t routed = FillStar(cost_, ovf_cap_, overflow,
                                         cfg_.edge_capacity, heap_,
                                         ovf_fills_);
    std::sort(ovf_fills_.begin(), ovf_fills_.end(), by_worker);
    round_lambda_ = lambda;
    round_overloaded_ = true;
    round_overflow_ += routed;
    Lap(kFill);
    // R'_k starts after all of R_k, even the part G_k could not route.
    Emit(ovf_fills_, static_cast<std::size_t>(immediate), out);
  }

  // One commitment per worker this type used, in worker-index order.
  constexpr std::int32_t kNoWorker = std::numeric_limits<std::int32_t>::max();
  const auto commit = [&](NodeId node, std::int64_t count) {
    const double k = static_cast<double>(count);
    // TANGOVET_ALLOW_NEXT(scratch: capacity retained across rounds)
    round_commits_.push_back({node, k * static_cast<double>(svc.cpu_demand),
                              k * static_cast<double>(svc.mem_demand)});
  };
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < fills_.size() || b < ovf_fills_.size()) {
    const std::int32_t wa = a < fills_.size() ? fills_[a].worker : kNoWorker;
    const std::int32_t wb =
        b < ovf_fills_.size() ? ovf_fills_[b].worker : kNoWorker;
    const std::int32_t w = std::min(wa, wb);
    std::int64_t count = 0;
    if (wa == w) count += fills_[a++].count;
    if (wb == w) count += ovf_fills_[b++].count;
    commit(view_[static_cast<std::size_t>(w)].node, count);
  }
  Lap(kCommit);
}

void DssLcScheduler::AuditRound(const std::vector<Assignment>& out,
                                std::size_t queued, SimTime now) {
  // view_ is in NodeId order (All() is, and the filter keeps order).
  for (const auto& a : out) {
    const auto it = std::lower_bound(
        view_.begin(), view_.end(), a.target,
        [](const WorkerView& w, NodeId id) { return w.node < id; });
    const bool usable = it != view_.end() && it->node == a.target;
    audit::checks::CheckLcTargetUsable(now, a.target.value, usable);
  }
  audit_ids_.clear();
  for (const auto& a : out) audit_ids_.push_back(a.request.value);
  std::sort(audit_ids_.begin(), audit_ids_.end());
  for (std::size_t k = 0; k < audit_ids_.size(); ++k) {
    audit::checks::CheckUniqueAssignment(
        now, audit_ids_[k], k > 0 && audit_ids_[k] == audit_ids_[k - 1]);
  }
  AUDIT_CHECK(out.size() <= queued, .subsystem = "sched",
              .invariant = "sched.assignment_count", .sim_time = now,
              .detail = audit::Detail("%zu assignments from a queue of %zu",
                                      out.size(), queued));
}

std::vector<Assignment> DssLcScheduler::Schedule(
    ClusterId /*cluster*/, const std::vector<PendingRequest>& queue,
    const metrics::StateStorage& storage, SimTime now) {
  // TANGOVET_ALLOW_NEXT(profiling: decision-latency telemetry only)
  const auto t0 = std::chrono::steady_clock::now();
  const scope::SpanId round_span = scope::BeginSpan(
      "dsslc.round", "sched", now,
      {.value = static_cast<std::int64_t>(queue.size())});
  phase_us_.fill(0.0);
  phase_mark_ = t0;
  std::vector<Assignment> out;
  out.reserve(queue.size());

  DecayCommitments(now);

  // Group queued requests by type k ∈ K, walked in ascending service id.
  ordered_.reserve(queue.size());
  for (auto& bucket : buckets_) bucket.clear();
  for (const auto& p : queue) {
    const auto k = static_cast<std::size_t>(p.request.service.value);
    TANGO_CHECK(p.request.service.valid() && k < buckets_.size(),
                "request of unknown service %d", p.request.service.value);
    buckets_[k].push_back(&p);
  }

  k8s::LcRoundStats round;
  round.at = now;
  BuildView(storage, round);
  Lap(kSnapshot);

  const auto round_index = static_cast<std::uint64_t>(decisions_);
  round_commits_.clear();
  round_lambda_ = 0.0;
  round_overloaded_ = false;
  round_overflow_ = 0;
  if (!view_.empty()) {
    for (std::size_t k = 0; k < buckets_.size(); ++k) {
      if (buckets_[k].empty()) continue;
      DispatchType(ServiceId{static_cast<std::int32_t>(k)}, buckets_[k],
                   round_index, out);
    }
  }

  // The round's commitments become visible to the next round, in type
  // order (the same per-node addition order as the flow formulation).
  for (const NodeCommit& c : round_commits_) {
    const auto id = static_cast<std::size_t>(c.node.value);
    const bool was_zero =
        committed_cpu_[id] == 0.0 && committed_mem_[id] == 0.0;
    committed_cpu_[id] += c.cpu;
    committed_mem_[id] += c.mem;
    if (was_zero && (committed_cpu_[id] != 0.0 || committed_mem_[id] != 0.0)) {
      committed_live_.push_back(c.node.value);
    }
  }
  if (round_overloaded_) last_lambda_ = round_lambda_;
  overflow_routed_ += round_overflow_;
  Lap(kCommit);
  if (round_overflow_ > 0) {
    TANGO_SCOPE_INSTANT("dsslc.overflow", "sched", now,
                        .value = round_overflow_);
  }
  if constexpr (audit::kEnabled) AuditRound(out, queue.size(), now);

  round.assigned = static_cast<int>(out.size());
  round.left_queued = static_cast<int>(queue.size()) - round.assigned;
  last_round_ = round;
  total_round_.at = now;
  total_round_.considered += round.considered;
  total_round_.excluded_dead += round.excluded_dead;
  total_round_.excluded_unreachable += round.excluded_unreachable;
  total_round_.assigned += round.assigned;
  total_round_.left_queued += round.left_queued;

  // TANGOVET_ALLOW_NEXT(profiling: decision-latency telemetry only)
  const auto t1 = std::chrono::steady_clock::now();
  decision_seconds_ += std::chrono::duration<double>(t1 - t0).count();
  ++decisions_;
  m_rounds_->Add();
  m_assigned_->Add(static_cast<std::int64_t>(out.size()));
  m_overflow_->Add(round_overflow_);
  h_round_->Observe(std::llround(ElapsedUs(t0, t1)));
  if (cfg_.profile_phases) {
    for (int p = 0; p < kNumPhases; ++p) {
      h_phase_[static_cast<std::size_t>(p)]->Observe(
          std::llround(phase_us_[static_cast<std::size_t>(p)]));
    }
  }
  scope::EndSpan(round_span, now);
  return out;
}

}  // namespace tango::sched
