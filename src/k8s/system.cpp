#include "k8s/system.h"

#include <algorithm>
#include <cmath>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "common/logging.h"
#include "common/stats.h"

namespace tango::k8s {

EdgeCloudSystem::EdgeCloudSystem(SystemConfig cfg,
                                 const workload::ServiceCatalog* catalog)
    : cfg_(std::move(cfg)), catalog_(catalog), rng_(cfg_.seed) {
  TANGO_CHECK(catalog_ != nullptr, "catalog required");
  TANGO_CHECK(!cfg_.clusters.empty(), "need at least one cluster");
  // Register every metric once, up front; hot paths only touch the cached
  // pointers (O(1), allocation-free — see scope/metrics.h).
  m_syncs_ = &metrics_.GetCounter("sync.syncs");
  m_pushes_ = &metrics_.GetCounter("sync.pushes");
  m_pushes_skipped_ = &metrics_.GetCounter("sync.pushes_skipped");
  m_full_resyncs_ = &metrics_.GetCounter("sync.full_resyncs");
  m_fault_requeues_ = &metrics_.GetCounter("fault.requeues");
  m_fault_drops_ = &metrics_.GetCounter("fault.drops");
  m_lc_arrived_ = &metrics_.GetCounter("lc.arrived");
  m_lc_completed_ = &metrics_.GetCounter("lc.completed");
  m_lc_qos_met_ = &metrics_.GetCounter("lc.qos_met");
  m_lc_abandoned_ = &metrics_.GetCounter("lc.abandoned");
  m_be_completed_ = &metrics_.GetCounter("be.completed");
  h_lc_latency_ = &metrics_.GetHistogram("lc.latency_us");
  h_be_latency_ = &metrics_.GetHistogram("be.latency_us");
  g_util_total_ = &metrics_.GetGauge("util.total");
  g_util_lc_ = &metrics_.GetGauge("util.lc");
  g_util_be_ = &metrics_.GetGauge("util.be");
  topology_ = net::Topology(
      net::Topology::RandomLayout(static_cast<int>(cfg_.clusters.size()),
                                  cfg_.region_km, rng_),
      cfg_.link);
  native_policy_ = std::make_unique<NativeAllocationPolicy>(
      catalog_, NativeAllocationPolicy::ProportionalFractions(*catalog_));
  default_policy_ = native_policy_.get();
  egress_ = net::EgressRegulator(cfg_.egress);
  central_ = topology_.CentralCluster();
  acting_central_ = central_;
  master_alive_.assign(cfg_.clusters.size(), true);
  BuildClusters();
  // Periodic state sync and metrics sampling: first-class periodic events,
  // each a single pool entry re-armed in place every tick.
  sim_.StartPeriodic(cfg_.state_sync_period, cfg_.state_sync_period,
                     [this]() { SyncState(sim_.Now()); });
  sim_.StartPeriodic(cfg_.metrics_period, cfg_.metrics_period,
                     [this]() { SampleMetrics(sim_.Now()); });
  period_stats_.push_back(PeriodStats{0});
  SyncState(0);
}

void EdgeCloudSystem::BuildClusters() {
  std::int32_t total_nodes = 0;
  for (const auto& spec : cfg_.clusters) total_nodes += 1 + spec.num_workers;
  node_index_.assign(static_cast<std::size_t>(total_nodes), nullptr);
  node_cluster_.assign(static_cast<std::size_t>(total_nodes), ClusterId{});
  worker_list_.reserve(static_cast<std::size_t>(total_nodes));
  synced_version_.assign(static_cast<std::size_t>(total_nodes), 0);
  changed_in_.assign(static_cast<std::size_t>(total_nodes), 0);

  std::int32_t next_node = 0;
  clusters_.reserve(cfg_.clusters.size());
  for (std::size_t b = 0; b < cfg_.clusters.size(); ++b) {
    Cluster cl;
    cl.spec = cfg_.clusters[b];
    cl.spec.id = ClusterId{static_cast<std::int32_t>(b)};
    cl.master = NodeId{next_node++};
    node_cluster_[static_cast<std::size_t>(cl.master.value)] = cl.spec.id;
    for (int w = 0; w < cl.spec.num_workers; ++w) {
      NodeSpec ns;
      ns.id = NodeId{next_node++};
      ns.cluster = cl.spec.id;
      if (cl.spec.heterogeneous) {
        ns.capacity.cpu = rng_.UniformInt(cl.spec.min_cpu, cl.spec.max_cpu);
        ns.capacity.mem = rng_.UniformInt(cl.spec.min_mem, cl.spec.max_mem);
      } else {
        ns.capacity = cl.spec.worker_capacity;
      }
      const NodeId nid = ns.id;
      WorkerNode::Callbacks cbs;
      cbs.on_complete = [this](const CompletionInfo& info) {
        OnComplete(info);
      };
      cbs.on_abandon = [this](const workload::Request& r, SimTime now) {
        OnAbandon(r, now);
      };
      cbs.on_be_return = [this, nid](const workload::Request& r) {
        OnBeReturn(nid, r);
      };
      cbs.on_usage_delta = [this](Millicores d_total, Millicores d_lc,
                                  Millicores d_be) {
        use_total_ += d_total;
        use_lc_ += d_lc;
        use_be_ += d_be;
      };
      cl.workers.push_back(std::make_unique<WorkerNode>(
          &sim_, ns, catalog_, default_policy_, std::move(cbs),
          cfg_.node_tunables));
      const auto idx = static_cast<std::size_t>(nid.value);
      node_index_[idx] = cl.workers.back().get();
      node_cluster_[idx] = cl.spec.id;
      worker_list_.push_back(cl.workers.back().get());
      cap_total_ += ns.capacity.cpu;
    }
    cl.changes.reserve(cl.workers.size());
    clusters_.push_back(std::move(cl));
  }
  // Sync scopes are a pure function of the (static) topology — compute them
  // once instead of re-deriving NearbyClusters every sync period.
  be_synced_.assign(clusters_.size(), 0);
  for (auto& cl : clusters_) {
    cl.sync_scope =
        topology_.NearbyClusters(cl.spec.id, cfg_.lc_nearby_radius_km);
    cl.sync_scope.push_back(cl.spec.id);
    cl.scope_synced.assign(cl.sync_scope.size(), 0);
  }
}

void EdgeCloudSystem::SetAllocationPolicy(const AllocationPolicy* policy) {
  TANGO_CHECK(policy != nullptr, "null policy");
  default_policy_ = policy;
  for (WorkerNode* node : worker_list_) node->SetPolicy(policy);
  // Bandwidth follows the policy's regulation stance (§4.1): LC priority at
  // the egress when BE is preemptible, fair sharing otherwise.
  egress_.set_mode(policy->PreemptsBeForLc() ? net::EgressMode::kLcPriority
                                             : net::EgressMode::kFairShare);
}

WorkerNode* EdgeCloudSystem::FindWorker(NodeId id) {
  const auto idx = static_cast<std::size_t>(id.value);
  if (!id.valid() || idx >= node_index_.size()) return nullptr;
  return node_index_[idx];  // nullptr for masters
}

NodeId EdgeCloudSystem::MasterOf(ClusterId cluster) const {
  return clusters_[static_cast<std::size_t>(cluster.value)].master;
}

ClusterId EdgeCloudSystem::ClusterOfNode(NodeId node) const {
  const auto idx = static_cast<std::size_t>(node.value);
  TANGO_CHECK(node.valid() && idx < node_cluster_.size(), "unknown node %d",
              node.value);
  return node_cluster_[idx];
}

const metrics::StateStorage& EdgeCloudSystem::LcStorage(
    ClusterId cluster) const {
  return clusters_[static_cast<std::size_t>(cluster.value)].lc_storage;
}

std::int64_t EdgeCloudSystem::total_scaling_ops() const {
  std::int64_t total = 0;
  for (const WorkerNode* node : worker_list_) total += node->scaling_ops();
  return total;
}

LinkFault EdgeCloudSystem::LinkStateOf(ClusterId a, ClusterId b) const {
  if (a == b) return LinkFault{};  // intra-cluster LANs are not faultable
  const auto key = std::minmax(a.value, b.value);
  const auto it = link_faults_.find({key.first, key.second});
  return it == link_faults_.end() ? LinkFault{} : it->second;
}

SimDuration EdgeCloudSystem::Transfer(ClusterId from, ClusterId to,
                                      Bytes size, bool is_lc) {
  SimDuration propagation = topology_.OneWayDelay(from, to);
  const LinkFault lf = LinkStateOf(from, to);
  if (lf.latency_mult > 1.0) {
    propagation = static_cast<SimDuration>(
        static_cast<double>(propagation) * lf.latency_mult);
  }
  // LAN transfers are effectively free of uplink contention.
  if (from == to) {
    return propagation + TransferTime(size, topology_.Bandwidth(from, to));
  }
  return propagation + egress_.Serialize(from, size, is_lc, sim_.Now());
}

RequestRecord& EdgeCloudSystem::Record(RequestId id) {
  const auto idx = static_cast<std::size_t>(id.value);
  TANGO_CHECK(idx < records_.size(), "unknown request %d", id.value);
  return records_[idx];
}

void EdgeCloudSystem::BeginRequestSpan(const workload::Request& request,
                                       bool is_lc) {
  if (!scope::TracingActive()) return;  // keeps request_spans_ empty when off
  const auto idx = static_cast<std::size_t>(request.id.value);
  if (request_spans_.size() <= idx) {
    request_spans_.resize(records_.size() > idx ? records_.size() : idx + 1,
                          scope::kInvalidSpan);
  }
  request_spans_[idx] =
      scope::BeginSpan("request", is_lc ? "lc" : "be", sim_.Now(),
                       {.service = request.service.value,
                        .request = request.id.value});
}

scope::SpanId EdgeCloudSystem::RequestSpan(RequestId id) const {
  const auto idx = static_cast<std::size_t>(id.value);
  return idx < request_spans_.size() ? request_spans_[idx]
                                     : scope::kInvalidSpan;
}

void EdgeCloudSystem::EndRequestSpan(RequestId id, SimTime at) {
  scope::EndSpan(RequestSpan(id), at);
}

PeriodStats& EdgeCloudSystem::CurrentPeriod() { return period_stats_.back(); }

void EdgeCloudSystem::SubmitTrace(const workload::Trace& trace) {
  for (const auto& request : trace) {
    const auto idx = static_cast<std::size_t>(request.id.value);
    if (records_.size() <= idx) records_.resize(idx + 1);
    records_[idx].request = request;
    sim_.ScheduleAt(request.arrival,
                    [this, request]() { OnArrival(request); });
  }
}

void EdgeCloudSystem::OnArrival(const workload::Request& request) {
  const auto& svc = catalog_->Get(request.service);
  BeginRequestSpan(request, svc.is_lc());
  if (svc.is_lc()) {
    CurrentPeriod().lc_arrived += 1;
    m_lc_arrived_->Add();
    const ClusterId home = DelegateMaster(request.origin);
    if (!home.valid()) {
      // No reachable live master anywhere: counted as dropped, not lost.
      DropRequest(Record(request.id));
      return;
    }
    if (home == request.origin) {
      Cluster& cl = clusters_[static_cast<std::size_t>(home.value)];
      cl.lc_queue.push_back({request, sim_.Now(), 0});
      ScheduleLcDispatch(home);
      return;
    }
    // Origin master is down: the eAP delegates dispatch to the nearest live
    // master (cf. delegated orchestration in hierarchical edge systems).
    RequestRecord& rec = Record(request.id);
    rec.fault_reroutes += 1;
    m_fault_requeues_->Add();
    CurrentPeriod().lost_requeued += 1;
    TANGO_SCOPE_INSTANT("lc.delegate", "fault", sim_.Now(),
                        .service = request.service.value,
                        .request = request.id.value, .value = home.value);
    const SimDuration fwd =
        Transfer(request.origin, home, svc.request_size, /*is_lc=*/true);
    sim_.ScheduleAfter(fwd, [this, request, home]() {
      clusters_[static_cast<std::size_t>(home.value)].lc_queue.push_back(
          {request, sim_.Now(), 0});
      ScheduleLcDispatch(home);
    });
  } else {
    // BE requests are uniformly forwarded to the central cluster (§3).
    ForwardBeToCentral(request);
  }
}

void EdgeCloudSystem::ForwardBeToCentral(const workload::Request& request) {
  if (Record(request.id).outcome != Outcome::kPending) return;
  const auto& svc = catalog_->Get(request.service);
  const ClusterId dst = acting_central_;
  const LinkFault lf = LinkStateOf(request.origin, dst);
  if (!MasterAlive(dst) || lf.cut) {
    // Store-and-forward at the eAP until the path or a failover heals it.
    sim_.ScheduleAfter(cfg_.fault_detect_delay,
                       [this, request]() { ForwardBeToCentral(request); });
    return;
  }
  const SimDuration fwd =
      Transfer(request.origin, dst, svc.request_size, /*is_lc=*/false);
  if (request.origin != dst && lf.loss > 0.0 && rng_.Bernoulli(lf.loss)) {
    // Lost in flight; the eAP re-sends after a timeout.
    sim_.ScheduleAfter(fwd + cfg_.fault_detect_delay,
                       [this, request]() { ForwardBeToCentral(request); });
    return;
  }
  sim_.ScheduleAfter(fwd, [this, request]() {
    be_queue_.push_back({request, sim_.Now(), 0});
    ScheduleBeDispatch();
  });
}

void EdgeCloudSystem::ScheduleLcDispatch(ClusterId cluster) {
  Cluster& cl = clusters_[static_cast<std::size_t>(cluster.value)];
  if (cl.lc_dispatch_pending || !MasterAlive(cluster)) return;
  cl.lc_dispatch_pending = true;
  sim_.ScheduleAfter(cfg_.lc_dispatch_interval,
                     [this, cluster]() { DispatchLc(cluster); });
}

void EdgeCloudSystem::DispatchLc(ClusterId cluster) {
  Cluster& cl = clusters_[static_cast<std::size_t>(cluster.value)];
  cl.lc_dispatch_pending = false;
  if (!MasterAlive(cluster)) return;  // queue already failed over
  TANGO_CHECK(lc_sched_ != nullptr, "no LC scheduler installed");
  // Age out requests that can no longer meet any deadline.
  for (auto it = cl.lc_queue.begin(); it != cl.lc_queue.end();) {
    const auto& svc = catalog_->Get(it->request.service);
    const SimTime deadline =
        it->request.arrival +
        static_cast<SimDuration>(cfg_.node_tunables.lc_abandon_factor *
                                 static_cast<double>(svc.qos_target));
    if (svc.qos_target > 0 && sim_.Now() > deadline) {
      OnAbandon(it->request, sim_.Now());
      it = cl.lc_queue.erase(it);
    } else {
      ++it;
    }
  }
  if (cl.lc_queue.empty()) return;

  std::vector<PendingRequest> queue(cl.lc_queue.begin(), cl.lc_queue.end());
  const std::vector<Assignment> assignments =
      lc_sched_->Schedule(cluster, queue, cl.lc_storage, sim_.Now());

  for (const Assignment& a : assignments) {
    auto it = std::find_if(cl.lc_queue.begin(), cl.lc_queue.end(),
                           [&a](const PendingRequest& p) {
                             return p.request.id == a.request;
                           });
    if (it == cl.lc_queue.end()) continue;  // scheduler returned a stale id
    WorkerNode* target = FindWorker(a.target);
    if (target == nullptr) continue;
    // Stale state view: target died/drained or its cluster got cut off
    // after the snapshot — keep the request queued for the next round.
    if (!target->alive() || target->draining()) continue;
    const workload::Request request = it->request;
    if (!SendToWorker(cluster, a.target, request, /*is_lc=*/true)) continue;
    cl.lc_queue.erase(it);
    RequestRecord& rec = Record(request.id);
    rec.dispatched = sim_.Now();
    rec.target = a.target;
    scope::InstantEvent("dispatch", "sched", sim_.Now(),
                        {.node = a.target.value,
                         .service = request.service.value,
                         .request = request.id.value},
                        RequestSpan(request.id));
  }
  if (!cl.lc_queue.empty()) ScheduleLcDispatch(cluster);
}

void EdgeCloudSystem::ScheduleBeDispatch() {
  if (be_dispatch_pending_) return;
  be_dispatch_pending_ = true;
  sim_.ScheduleAfter(cfg_.be_dispatch_interval, [this]() { DispatchBe(); });
}

void EdgeCloudSystem::DispatchBe() {
  be_dispatch_pending_ = false;
  if (!MasterAlive(acting_central_)) return;  // resumes on failover/recovery
  TANGO_CHECK(be_sched_ != nullptr, "no BE scheduler installed");
  while (!be_queue_.empty()) {
    PendingRequest pending = be_queue_.front();
    if (Record(pending.request.id).outcome != Outcome::kPending) {
      be_queue_.pop_front();  // dropped while queued
      continue;
    }
    const auto target = be_sched_->ScheduleOne(pending, be_storage_, sim_.Now());
    if (!target.has_value()) break;  // nothing placeable right now
    WorkerNode* node = FindWorker(*target);
    if (node == nullptr) break;
    if (!node->alive() || node->draining() ||
        !SendToWorker(acting_central_, *target, pending.request,
                      /*is_lc=*/false)) {
      // Stale pick (dead/drained target or cut path): rotate it to the back
      // and retry next interval, when the state view may have caught up.
      be_queue_.pop_front();
      be_queue_.push_back(pending);
      break;
    }
    be_queue_.pop_front();
    RequestRecord& rec = Record(pending.request.id);
    rec.dispatched = sim_.Now();
    rec.target = *target;
    scope::InstantEvent("dispatch", "sched", sim_.Now(),
                        {.node = target->value,
                         .service = pending.request.service.value,
                         .request = pending.request.id.value},
                        RequestSpan(pending.request.id));
  }
  if (!be_queue_.empty()) ScheduleBeDispatch();
}

void EdgeCloudSystem::OnComplete(const CompletionInfo& info) {
  RequestRecord& rec = Record(info.request.id);
  const workload::Request original = rec.request;
  const auto& svc = catalog_->Get(original.service);
  if (svc.is_lc()) {
    // The result must travel back to the origin before the user sees it.
    ReturnLcResult(info.node, original);
  } else {
    if (rec.outcome != Outcome::kPending) return;
    rec.outcome = Outcome::kCompleted;
    rec.completed = sim_.Now();
    rec.latency = sim_.Now() - original.arrival;
    CurrentPeriod().be_completed += 1;
    m_be_completed_->Add();
    h_be_latency_->Observe(rec.latency);
    EndRequestSpan(original.id, sim_.Now());
    if (be_sched_ != nullptr) {
      be_sched_->OnBeCompleted(info.node, original, sim_.Now());
    }
  }
}

void EdgeCloudSystem::ReturnLcResult(NodeId node,
                                     const workload::Request& original) {
  if (Record(original.id).outcome != Outcome::kPending) return;
  const auto& svc = catalog_->Get(original.service);
  const ClusterId from = ClusterOfNode(node);
  if (LinkStateOf(from, original.origin).cut) {
    // Result computed but the way home is cut: retransmit until it heals.
    sim_.ScheduleAfter(cfg_.fault_detect_delay, [this, node, original]() {
      ReturnLcResult(node, original);
    });
    return;
  }
  const SimDuration back =
      Transfer(from, original.origin, svc.response_size, /*is_lc=*/true);
  const SimTime completed = sim_.Now() + back;
  if (scope::TracingActive()) {
    // The transfer duration is known up front, so the span closes at its
    // (future) delivery time immediately — no lambda capture grows.
    scope::Tracer& tracer = scope::DefaultTracer();
    tracer.End(tracer.Begin("lc.return", "net", sim_.Now(),
                            {.node = node.value,
                             .service = original.service.value,
                             .request = original.id.value,
                             .value = svc.response_size},
                            RequestSpan(original.id)),
               completed);
  }
  sim_.ScheduleAfter(back, [this, original, completed, node]() {
    RequestRecord& r = Record(original.id);
    if (r.outcome != Outcome::kPending) return;
    r.outcome = Outcome::kCompleted;
    r.completed = completed;
    r.latency = completed - original.arrival;
    const auto& s = catalog_->Get(original.service);
    r.qos_met = r.latency <= s.qos_target;
    PeriodStats& p = CurrentPeriod();
    p.lc_completed += 1;
    if (r.qos_met) p.lc_qos_met += 1;
    m_lc_completed_->Add();
    if (r.qos_met) m_lc_qos_met_->Add();
    h_lc_latency_->Observe(r.latency);
    EndRequestSpan(original.id, completed);
    qos_detector_.Observe(sim_.Now(), node, original.service, r.latency);
  });
}

void EdgeCloudSystem::OnAbandon(const workload::Request& request,
                                SimTime /*now*/) {
  RequestRecord& rec = Record(request.id);
  if (rec.outcome != Outcome::kPending) return;
  rec.outcome = Outcome::kAbandoned;
  CurrentPeriod().lc_abandoned += 1;
  m_lc_abandoned_->Add();
  TANGO_SCOPE_INSTANT("abandon", "lc", sim_.Now(),
                      .service = request.service.value,
                      .request = request.id.value);
  EndRequestSpan(request.id, sim_.Now());
}

void EdgeCloudSystem::OnBeReturn(NodeId from, const workload::Request& req) {
  RequestRecord& rec = Record(req.id);
  if (rec.outcome != Outcome::kPending) return;
  rec.reschedules += 1;
  ReturnBeToCentral(ClusterOfNode(from), rec.request, rec.reschedules);
}

void EdgeCloudSystem::ReturnBeToCentral(ClusterId from,
                                        const workload::Request& original,
                                        int bounces) {
  if (Record(original.id).outcome != Outcome::kPending) return;
  const ClusterId dst = acting_central_;
  if (!MasterAlive(dst) || LinkStateOf(from, dst).cut) {
    sim_.ScheduleAfter(cfg_.fault_detect_delay,
                       [this, from, original, bounces]() {
                         ReturnBeToCentral(from, original, bounces);
                       });
    return;
  }
  const auto& svc = catalog_->Get(original.service);
  const SimDuration back =
      Transfer(from, dst, svc.request_size, /*is_lc=*/false);
  sim_.ScheduleAfter(back, [this, original, bounces]() {
    be_queue_.push_back({original, sim_.Now(), bounces});
    ScheduleBeDispatch();
  });
}

bool EdgeCloudSystem::SendToWorker(ClusterId from, NodeId target,
                                   const workload::Request& request,
                                   bool is_lc) {
  const ClusterId to = ClusterOfNode(target);
  const LinkFault lf = LinkStateOf(from, to);
  if (lf.cut) return false;  // path down: caller keeps the request queued
  const auto& svc = catalog_->Get(request.service);
  const SimDuration delay = Transfer(from, to, svc.request_size, is_lc);
  if (scope::TracingActive()) {
    // Closed at its known (future) delivery time up front, so the
    // delivery lambda below stays inside the SBO callback buffer.
    scope::Tracer& tracer = scope::DefaultTracer();
    tracer.End(tracer.Begin("transfer", is_lc ? "lc" : "be", sim_.Now(),
                            {.node = target.value,
                             .service = request.service.value,
                             .request = request.id.value,
                             .value = svc.request_size},
                            RequestSpan(request.id)),
               sim_.Now() + delay);
  }
  if (from != to && lf.loss > 0.0 && rng_.Bernoulli(lf.loss)) {
    // Lost in flight; the master detects the missed delivery ack after a
    // timeout and puts the request back on a scheduling queue.
    TANGO_SCOPE_INSTANT("net.loss", "fault", sim_.Now(),
                        .node = target.value, .request = request.id.value);
    const RequestId id = request.id;
    sim_.ScheduleAfter(delay + cfg_.fault_detect_delay,
                       [this, id]() { RequeueLost(id); });
    return true;  // from the dispatcher's view the send happened
  }
  sim_.ScheduleAfter(delay, [this, target, request]() {
    DeliverToWorker(target, request);
  });
  return true;
}

void EdgeCloudSystem::DeliverToWorker(NodeId target,
                                      const workload::Request& request) {
  if (Record(request.id).outcome != Outcome::kPending) return;
  WorkerNode* node = FindWorker(target);
  TANGO_CHECK(node != nullptr, "unknown worker %d", target.value);
  const RequestId id = request.id;
  if (!node->alive()) {
    // Target died while the request was in flight; detected by timeout.
    sim_.ScheduleAfter(cfg_.fault_detect_delay,
                       [this, id]() { RequeueLost(id); });
    return;
  }
  if (node->draining()) {
    // A draining node refuses admission immediately (graceful NACK).
    RequeueLost(id);
    return;
  }
  node->Enqueue(request);
}

void EdgeCloudSystem::RequeueLost(RequestId id) {
  RequestRecord& rec = Record(id);
  if (rec.outcome != Outcome::kPending) return;
  rec.fault_reroutes += 1;
  if (rec.fault_reroutes > cfg_.max_fault_reroutes) {
    DropRequest(rec);
    return;
  }
  m_fault_requeues_->Add();
  CurrentPeriod().lost_requeued += 1;
  TANGO_SCOPE_INSTANT("requeue", "fault", sim_.Now(),
                      .service = rec.request.service.value,
                      .request = id.value, .value = rec.fault_reroutes);
  const workload::Request request = rec.request;
  const auto& svc = catalog_->Get(request.service);
  if (svc.is_lc()) {
    const ClusterId home = DelegateMaster(request.origin);
    if (!home.valid()) {
      DropRequest(rec);
      return;
    }
    Cluster& cl = clusters_[static_cast<std::size_t>(home.value)];
    cl.lc_queue.push_back({request, sim_.Now(), 0});
    ScheduleLcDispatch(home);
  } else {
    // BE work restarts from the central queue (§4.1 restart semantics).
    be_queue_.push_back({request, sim_.Now(), rec.reschedules});
    ScheduleBeDispatch();
  }
}

void EdgeCloudSystem::HandleLost(std::vector<workload::Request> lost,
                                 SimDuration delay) {
  for (const workload::Request& r : lost) {
    const RequestId id = r.id;
    if (delay <= 0) {
      RequeueLost(id);
    } else {
      sim_.ScheduleAfter(delay, [this, id]() { RequeueLost(id); });
    }
  }
}

void EdgeCloudSystem::DropRequest(RequestRecord& rec) {
  if (rec.outcome != Outcome::kPending) return;
  rec.outcome = Outcome::kDropped;
  rec.completed = sim_.Now();
  m_fault_drops_->Add();
  CurrentPeriod().dropped += 1;
  TANGO_SCOPE_INSTANT("drop", "fault", sim_.Now(),
                      .service = rec.request.service.value,
                      .request = rec.request.id.value);
  EndRequestSpan(rec.request.id, sim_.Now());
}

ClusterId EdgeCloudSystem::DelegateMaster(ClusterId cluster) const {
  if (MasterAlive(cluster)) return cluster;
  ClusterId best{};
  SimDuration best_rtt = 0;
  for (const auto& cl : clusters_) {
    const ClusterId c = cl.spec.id;
    if (!MasterAlive(c)) continue;
    if (LinkStateOf(cluster, c).cut) continue;  // unreachable from the eAP
    const SimDuration rtt = topology_.Rtt(cluster, c);
    if (!best.valid() || rtt < best_rtt) {
      best = c;
      best_rtt = rtt;
    }
  }
  return best;
}

ClusterId EdgeCloudSystem::ElectCentral() const {
  if (MasterAlive(central_)) return central_;
  // Nearest live master to the geographic centre takes over BE dispatch.
  ClusterId best{};
  SimDuration best_rtt = 0;
  for (const auto& cl : clusters_) {
    const ClusterId c = cl.spec.id;
    if (!MasterAlive(c)) continue;
    const SimDuration rtt = topology_.Rtt(central_, c);
    if (!best.valid() || rtt < best_rtt) {
      best = c;
      best_rtt = rtt;
    }
  }
  return best;
}

void EdgeCloudSystem::CrashWorker(NodeId id) {
  WorkerNode* w = FindWorker(id);
  TANGO_CHECK(w != nullptr, "unknown worker %d", id.value);
  if (!w->alive()) return;
  HandleLost(w->Crash(), cfg_.fault_detect_delay);
}

void EdgeCloudSystem::RecoverWorker(NodeId id) {
  WorkerNode* w = FindWorker(id);
  TANGO_CHECK(w != nullptr, "unknown worker %d", id.value);
  if (w->alive()) return;
  w->Recover();
  // A node-ready event pushes fresh state at once (like a kubelet
  // re-registering), so schedulers can use the node without waiting for
  // the next sync period; BE dispatch restarts evicted work immediately.
  SyncState(sim_.Now());
  ScheduleBeDispatch();
  for (auto& cl : clusters_) {
    if (!cl.lc_queue.empty()) ScheduleLcDispatch(cl.spec.id);
  }
}

void EdgeCloudSystem::DrainWorker(NodeId id) {
  WorkerNode* w = FindWorker(id);
  TANGO_CHECK(w != nullptr, "unknown worker %d", id.value);
  if (!w->alive() || w->draining()) return;
  // Graceful: queued work is re-routed now, running work finishes in place.
  HandleLost(w->Drain(), 0);
  SyncState(sim_.Now());
}

void EdgeCloudSystem::UndrainWorker(NodeId id) {
  WorkerNode* w = FindWorker(id);
  TANGO_CHECK(w != nullptr, "unknown worker %d", id.value);
  if (!w->draining()) return;
  w->Undrain();
  SyncState(sim_.Now());
  ScheduleBeDispatch();
}

void EdgeCloudSystem::SetLinkFault(ClusterId a, ClusterId b, LinkFault fault) {
  TANGO_CHECK(a != b, "cannot fault an intra-cluster LAN");
  const auto key = std::minmax(a.value, b.value);
  if (fault.faulty()) {
    link_faults_[{key.first, key.second}] = fault;
  } else {
    link_faults_.erase({key.first, key.second});
  }
  SyncState(sim_.Now());
}

void EdgeCloudSystem::ClearLinkFault(ClusterId a, ClusterId b) {
  SetLinkFault(a, b, LinkFault{});
  // A healed path may unblock queued work on both sides.
  ScheduleBeDispatch();
  for (auto& cl : clusters_) {
    if (!cl.lc_queue.empty()) ScheduleLcDispatch(cl.spec.id);
  }
}

void EdgeCloudSystem::FailMaster(ClusterId cluster) {
  const auto idx = static_cast<std::size_t>(cluster.value);
  if (!master_alive_[idx]) return;
  master_alive_[idx] = false;
  Cluster& cl = clusters_[idx];
  // LC requests queued at the dead master fail over to the nearest live
  // master once the failure detector notices.
  std::vector<workload::Request> lost;
  lost.reserve(cl.lc_queue.size());
  for (const auto& p : cl.lc_queue) lost.push_back(p.request);
  cl.lc_queue.clear();
  HandleLost(std::move(lost), cfg_.fault_detect_delay);
  if (cluster == acting_central_) {
    // The BE central died with its queue; elect a new central and restart
    // the queued BE work there after detection.
    std::vector<workload::Request> be_lost;
    be_lost.reserve(be_queue_.size());
    for (const auto& p : be_queue_) be_lost.push_back(p.request);
    be_queue_.clear();
    acting_central_ = ElectCentral();
    // The new central cannot trust the deltas the old one had applied —
    // its BE view catches up on every worker at its next sync.
    std::fill(be_synced_.begin(), be_synced_.end(), 0);
    m_full_resyncs_->Add();
    HandleLost(std::move(be_lost), cfg_.fault_detect_delay);
  }
}

void EdgeCloudSystem::RecoverMaster(ClusterId cluster) {
  const auto idx = static_cast<std::size_t>(cluster.value);
  if (master_alive_[idx]) return;
  master_alive_[idx] = true;
  // The original central reclaims the BE dispatcher role on recovery; a
  // graceful handover migrates the queue without loss.
  const ClusterId previous_central = acting_central_;
  acting_central_ = ElectCentral();
  // The recovered master's own view went stale while it was down; reset
  // its pairs (and the BE ones on a central handover) so the next sync is
  // a full re-push, like a kubelet re-list after an apiserver restart.
  std::vector<std::int64_t>& synced = clusters_[idx].scope_synced;
  std::fill(synced.begin(), synced.end(), 0);
  m_full_resyncs_->Add();
  if (acting_central_ != previous_central) {
    std::fill(be_synced_.begin(), be_synced_.end(), 0);
    m_full_resyncs_->Add();
  }
  SyncState(sim_.Now());
  ScheduleLcDispatch(cluster);
  ScheduleBeDispatch();
}

bool EdgeCloudSystem::WorkerAlive(NodeId id) const {
  const auto idx = static_cast<std::size_t>(id.value);
  if (!id.valid() || idx >= node_index_.size()) return false;
  const WorkerNode* node = node_index_[idx];
  return node != nullptr && node->alive();
}

int EdgeCloudSystem::workers_alive() const {
  int n = 0;
  for (const WorkerNode* node : worker_list_) n += node->alive() ? 1 : 0;
  return n;
}

int EdgeCloudSystem::masters_alive() const {
  int n = 0;
  for (const bool b : master_alive_) n += b ? 1 : 0;
  return n;
}

void EdgeCloudSystem::SyncState(SimTime now) {
  // Change-list sync: masters schedule from pushed node state (§5.2,
  // Fig. 3 ➋). Each worker's state_version is read once per round; a
  // worker whose version moved since the previous round goes on its
  // cluster's change list, snapshotted once. Version equality implies
  // snapshot-content equality, and no consumer reads `recorded_at`, so
  // every other worker needs no push. Each live view then syncs every
  // cluster in its scope through SyncPair.
  m_syncs_->Add();
  ++sync_round_;
  for (auto& cl : clusters_) {
    cl.changes.clear();
    for (const auto& w : cl.workers) {
      const auto id = static_cast<std::size_t>(w->id().value);
      const std::uint64_t version = w->state_version();
      if constexpr (audit::kEnabled) {
        audit::checks::CheckVersionMonotonic(now, w->id().value,
                                             synced_version_[id], version);
      }
      if (synced_version_[id] == version) continue;
      synced_version_[id] = version;
      changed_in_[id] = sync_round_;
      cl.changes.push_back(w->Snapshot(now));
    }
  }
  // One registry add per round instead of one per pair.
  SyncTally tally;
  // Per-cluster LC storage: own + geo-nearby workers, plus RTT estimates.
  for (auto& cl : clusters_) {
    if (!MasterAlive(cl.spec.id)) continue;  // a dead master syncs nothing
    for (std::size_t i = 0; i < cl.sync_scope.size(); ++i) {
      SyncPair(cl.lc_storage, cl.spec.id, cl.sync_scope[i],
               cl.scope_synced[i], now, tally);
    }
  }
  // The acting central's BE storage sees every reachable cluster.
  if (MasterAlive(acting_central_)) {
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      SyncPair(be_storage_, acting_central_, clusters_[c].spec.id,
               be_synced_[c], now, tally);
    }
  }
  m_pushes_->Add(tally.pushes);
  m_pushes_skipped_->Add(tally.skipped);
}

void EdgeCloudSystem::SyncPair(metrics::StateStorage& view, ClusterId viewer,
                               ClusterId source, std::int64_t& last_synced,
                               SimTime now, SyncTally& tally) {
  // A cut link freezes the far side's snapshots and marks its nodes
  // unreachable in the viewing master's storage; the pair catches up once
  // the link heals.
  const LinkFault lf = LinkStateOf(viewer, source);
  if (lf.cut) {
    view.MarkClusterReachability(source, false);
    return;
  }
  const Cluster& src = clusters_[static_cast<std::size_t>(source.value)];
  std::int64_t pushes = 0;
  if (last_synced == sync_round_ - 1) {
    // Received the previous round: this round's change list is exactly
    // what moved since.
    for (const metrics::NodeSnapshot& snap : src.changes) view.Update(snap);
    pushes = static_cast<std::int64_t>(src.changes.size());
  } else {
    // Missed rounds (cut link, dead master, failover reset): push every
    // worker whose last change came after this pair's last sync.
    for (const auto& w : src.workers) {
      const auto id = static_cast<std::size_t>(w->id().value);
      if (changed_in_[id] <= last_synced) continue;
      view.Update(w->Snapshot(now));
      ++pushes;
    }
  }
  last_synced = sync_round_;
  if constexpr (audit::kEnabled) {
    // The pushes claim to be complete: every worker left unpushed must
    // still match its stored snapshot. Prove it against a fresh snapshot
    // of every worker in the pair.
    for (const auto& w : src.workers) {
      const metrics::NodeSnapshot* stored = view.Find(w->id());
      audit::checks::CheckDeltaIdentity(
          now, w->id().value,
          stored != nullptr &&
              metrics::SameContent(*stored, w->Snapshot(now)));
    }
  }
  tally.pushes += pushes;
  tally.skipped += static_cast<std::int64_t>(src.workers.size()) - pushes;
  view.MarkClusterReachability(source, true);
  SimDuration rtt = topology_.Rtt(viewer, source);
  if (lf.latency_mult > 1.0) {
    rtt = static_cast<SimDuration>(static_cast<double>(rtt) *
                                   lf.latency_mult);
  }
  view.UpdateRtt(source, rtt);
}

void EdgeCloudSystem::SampleMetrics(SimTime now) {
  // Aggregates are maintained at admission/completion via usage-delta
  // callbacks; integer sums make them exact.
  if constexpr (audit::kEnabled) {
    // Certificate: the aggregates equal a rescan of every worker.
    Millicores total = 0, lc = 0, be = 0;
    for (const WorkerNode* node : worker_list_) {
      total += node->cpu_in_use();
      lc += node->cpu_in_use_lc();
      be += node->cpu_in_use_be();
    }
    audit::checks::CheckUsageAggregate(now, "cpu_in_use", use_total_, total);
    audit::checks::CheckUsageAggregate(now, "cpu_in_use_lc", use_lc_, lc);
    audit::checks::CheckUsageAggregate(now, "cpu_in_use_be", use_be_, be);
  }
  const auto cap = static_cast<double>(cap_total_);
  PeriodStats& p = CurrentPeriod();
  p.util_total = cap > 0.0 ? static_cast<double>(use_total_) / cap : 0.0;
  p.util_lc = cap > 0.0 ? static_cast<double>(use_lc_) / cap : 0.0;
  p.util_be = cap > 0.0 ? static_cast<double>(use_be_) / cap : 0.0;
  g_util_total_->Set(p.util_total);
  g_util_lc_->Set(p.util_lc);
  g_util_be_->Set(p.util_be);
  period_stats_.push_back(PeriodStats{now});
}

void EdgeCloudSystem::Run(SimTime until) { sim_.RunUntil(until); }

RunSummary EdgeCloudSystem::Summary() const {
  RunSummary s;
  std::vector<double> lc_latencies;
  for (const auto& rec : records_) {
    if (!rec.request.id.valid()) continue;
    const auto& svc = catalog_->Get(rec.request.service);
    if (svc.is_lc()) {
      s.lc_total += 1;
      if (rec.outcome == Outcome::kCompleted) {
        s.lc_completed += 1;
        if (rec.qos_met) s.lc_qos_met += 1;
        lc_latencies.push_back(ToMilliseconds(rec.latency));
      } else if (rec.outcome == Outcome::kAbandoned) {
        s.lc_abandoned += 1;
      } else if (rec.outcome == Outcome::kDropped) {
        s.lc_dropped += 1;
      }
    } else {
      s.be_total += 1;
      if (rec.outcome == Outcome::kCompleted) s.be_completed += 1;
      if (rec.outcome == Outcome::kDropped) s.be_dropped += 1;
    }
  }
  s.fault_requeues = m_fault_requeues_->value();
  s.qos_satisfaction =
      s.lc_total > 0
          ? static_cast<double>(s.lc_qos_met) / static_cast<double>(s.lc_total)
          : 0.0;
  s.be_throughput = static_cast<double>(s.be_completed);
  s.mean_latency_ms = Mean(lc_latencies);
  s.p95_latency_ms = Percentile(lc_latencies, 0.95);
  RunningStat util;
  for (const auto& p : period_stats_) util.Add(p.util_total);
  s.mean_util = util.mean();
  return s;
}

}  // namespace tango::k8s
