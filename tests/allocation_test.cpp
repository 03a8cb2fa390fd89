// Tests for the allocation policies: native K8s (fixed container limits),
// HRM (§4.1 regulations), and the CERES baseline — plus the memory-
// allocation discipline of the hot paths under a process-wide counting
// operator new: the storm generators, a steady-state DSS-LC round, the
// state storage's sync/read path, a whole system's state sync, and the
// pool threads of an A2C update and of an A2C decision's forward.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "eval/harness.h"
#include "hrm/regulations.h"
#include "k8s/allocation.h"
#include "k8s/system.h"
#include "metrics/state_storage.h"
#include "rl/agent.h"
#include "sched/be_baselines.h"
#include "sched/ceres.h"
#include "sched/dss_lc.h"
#include "sched/lc_baselines.h"
#include "storm/scenario.h"
#include "storm/source.h"

// TU-global counting operator new: this binary's strongest-scope version of
// sim::Simulator's alloc_events counter.
// Every heap allocation in the process bumps the counter, so a snapshot
// taken around a hot loop proves the loop allocation-free. The per-thread
// count tells the calling thread's allocations from everyone else's: the
// pool threads', in a test that fans out.
static std::atomic<std::int64_t> g_alloc_events{0};
static thread_local std::int64_t t_alloc_events = 0;

void* operator new(std::size_t size) {
  g_alloc_events.fetch_add(1, std::memory_order_relaxed);
  ++t_alloc_events;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_events.fetch_add(1, std::memory_order_relaxed);
  ++t_alloc_events;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
// Out of line: inlined into a delete expression, the free() would look to
// GCC's -Wmismatched-new-delete like a free of a `new` pointer, although
// this file's operator new is malloc underneath.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace tango {
namespace {

using k8s::ExecSlot;
using k8s::NativeAllocationPolicy;
using k8s::NodeSpec;
using k8s::ResourceVec;
using workload::ServiceCatalog;

NodeSpec StdNode() {
  NodeSpec n;
  n.id = NodeId{1};
  n.cluster = ClusterId{0};
  n.capacity = {4000, 8192};
  return n;
}

ExecSlot Slot(const ServiceCatalog& cat, ServiceId svc, RequestId id,
              double need_scale = 1.0) {
  const auto& s = cat.Get(svc);
  ExecSlot slot;
  slot.request = id;
  slot.service = svc;
  slot.is_lc = s.is_lc();
  slot.need = {static_cast<Millicores>(s.cpu_demand * need_scale),
               s.mem_demand};
  slot.remaining_work = s.cpu_work();
  return slot;
}

// ------------------------------------------------------------- resources --

TEST(ResourceVec, Arithmetic) {
  ResourceVec a{1000, 2048};
  ResourceVec b{500, 1024};
  EXPECT_EQ((a + b).cpu, 1500);
  EXPECT_EQ((a - b).mem, 1024);
  a -= b;
  EXPECT_EQ(a.cpu, 500);
  EXPECT_TRUE(a.NonNegative());
  EXPECT_TRUE(b.FitsWithin(ResourceVec{500, 1024}));
  EXPECT_FALSE(b.FitsWithin(ResourceVec{499, 1024}));
}

// ---------------------------------------------------------------- native --

TEST(NativePolicy, ProportionalFractionsSumToOne) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  const auto f = NativeAllocationPolicy::ProportionalFractions(cat);
  double sum = 0.0;
  for (const auto& [svc, frac] : f) sum += frac;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(f.size(), 10u);
}

TEST(NativePolicy, ContainerLimitFollowsFraction) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  NativeAllocationPolicy p(&cat, {{ServiceId{0}, 0.5}, {ServiceId{5}, 0.25}});
  const NodeSpec node = StdNode();
  EXPECT_EQ(p.ContainerLimit(node, ServiceId{0}).cpu, 2000);
  EXPECT_EQ(p.ContainerLimit(node, ServiceId{5}).mem, 2048);
  // Unlisted service: zero limit.
  EXPECT_EQ(p.ContainerLimit(node, ServiceId{3}).cpu, 0);
}

TEST(NativePolicy, AdmissionRespectsContainerSilo) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  // Service 0 (500 mc, 512 MiB demand) gets 25% of a 4-core node = 1000 mc.
  NativeAllocationPolicy p(&cat, {{ServiceId{0}, 0.25}});
  const NodeSpec node = StdNode();
  std::vector<ExecSlot> running{Slot(cat, ServiceId{0}, RequestId{1})};
  // Second request fits (2×500 = 1000 = limit).
  EXPECT_TRUE(p.Admit(node, Slot(cat, ServiceId{0}, RequestId{2}), running)
                  .admit);
  running.push_back(Slot(cat, ServiceId{0}, RequestId{2}));
  // Third does not (1500 > 1000) even though the node is mostly idle.
  EXPECT_FALSE(p.Admit(node, Slot(cat, ServiceId{0}, RequestId{3}), running)
                   .admit);
}

TEST(NativePolicy, NeverEvicts) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  NativeAllocationPolicy p(&cat,
                           NativeAllocationPolicy::ProportionalFractions(cat));
  std::vector<ExecSlot> running;
  for (int i = 0; i < 6; ++i) {
    running.push_back(Slot(cat, ServiceId{6}, RequestId{i}));
  }
  const auto d = p.Admit(StdNode(), Slot(cat, ServiceId{0}, RequestId{99}),
                         running);
  EXPECT_TRUE(d.evict.empty());
}

TEST(NativePolicy, GrantsCappedByContainerThenNode) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  NativeAllocationPolicy p(&cat, {{ServiceId{0}, 0.25}, {ServiceId{5}, 0.75}});
  const NodeSpec node = StdNode();
  // Three requests of service 0 ask 1500 total against a 1000 limit.
  std::vector<ExecSlot> running{Slot(cat, ServiceId{0}, RequestId{1}),
                                Slot(cat, ServiceId{0}, RequestId{2}),
                                Slot(cat, ServiceId{0}, RequestId{3})};
  std::vector<Millicores> grants;
  p.ComputeGrants(node, running, grants);
  Millicores total = 0;
  for (const auto g : grants) total += g;
  EXPECT_LE(total, 1000);
  EXPECT_NEAR(static_cast<double>(grants[0]), 333, 2);
}

TEST(NativePolicy, NoAdjustmentOfDemand) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  NativeAllocationPolicy p(&cat,
                           NativeAllocationPolicy::ProportionalFractions(cat));
  const auto& svc = cat.Get(ServiceId{0});
  const auto d = p.EffectiveDemand(NodeId{1}, svc);
  EXPECT_EQ(d.cpu, svc.cpu_demand);
  EXPECT_EQ(d.mem, svc.mem_demand);
  EXPECT_EQ(p.AdmissionLatency(), 0);
}

// ------------------------------------------------------------------- HRM --

TEST(HrmPolicy, LcGetsPriorityUnderContention) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  hrm::HrmAllocationPolicy p(&cat);
  const NodeSpec node = StdNode();
  // LC asks 3×500=1500; BE asks 2×800=1600. Node has 4000.
  std::vector<ExecSlot> running;
  for (int i = 0; i < 3; ++i) running.push_back(Slot(cat, ServiceId{0}, RequestId{i}));
  for (int i = 3; i < 5; ++i) running.push_back(Slot(cat, ServiceId{6}, RequestId{i}));
  std::vector<Millicores> grants;
  p.ComputeGrants(node, running, grants);
  // Every LC slot receives its full need.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(grants[static_cast<std::size_t>(i)], 500);
  // BE absorbs the leftover (water-fill beyond need, capped at 2×).
  Millicores be_total = grants[3] + grants[4];
  EXPECT_GT(be_total, 1600);           // expanded into idle CPU
  EXPECT_LE(grants[3], 1600);          // per-request speedup cap 2×800
  Millicores total = 0;
  for (const auto g : grants) total += g;
  EXPECT_LE(total, node.capacity.cpu);
}

TEST(HrmPolicy, LcOverloadScalesProRataAndStarvesBe) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  hrm::HrmAllocationPolicy p(&cat);
  const NodeSpec node = StdNode();
  std::vector<ExecSlot> running;
  for (int i = 0; i < 10; ++i) {
    running.push_back(Slot(cat, ServiceId{0}, RequestId{i}));  // 10×500=5000
  }
  running.push_back(Slot(cat, ServiceId{6}, RequestId{100}));
  std::vector<Millicores> grants;
  p.ComputeGrants(node, running, grants);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(static_cast<double>(grants[static_cast<std::size_t>(i)]), 400,
                1);  // 4000/5000 × 500
  }
  EXPECT_EQ(grants[10], 0);  // BE fully compressed
}

TEST(HrmPolicy, BeMaximizesIdleWhenAlone) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  hrm::HrmAllocationPolicy p(&cat);
  std::vector<ExecSlot> running{Slot(cat, ServiceId{9}, RequestId{1})};
  std::vector<Millicores> grants;
  p.ComputeGrants(StdNode(), running, grants);
  // be-backup needs 200; cap 2× → 400 granted despite 4000 idle.
  EXPECT_EQ(grants[0], 400);
}

TEST(HrmPolicy, LcAdmissionEvictsBeForMemory) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  hrm::HrmAllocationPolicy p(&cat);
  NodeSpec node = StdNode();
  node.capacity.mem = 4096;
  // Two BE training jobs of 2048 MiB fill memory.
  std::vector<ExecSlot> running{Slot(cat, ServiceId{6}, RequestId{1}),
                                Slot(cat, ServiceId{6}, RequestId{2})};
  const auto d =
      p.Admit(node, Slot(cat, ServiceId{0}, RequestId{3}), running);
  EXPECT_TRUE(d.admit);
  ASSERT_EQ(d.evict.size(), 1u);  // evicting one 2048 MiB BE job suffices
  EXPECT_FALSE(running[d.evict[0]].is_lc);
}

TEST(HrmPolicy, BeAdmissionNeverEvicts) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  hrm::HrmAllocationPolicy p(&cat);
  NodeSpec node = StdNode();
  node.capacity.mem = 2048;
  std::vector<ExecSlot> running{Slot(cat, ServiceId{6}, RequestId{1})};
  const auto d =
      p.Admit(node, Slot(cat, ServiceId{7}, RequestId{2}), running);
  EXPECT_FALSE(d.admit);
  EXPECT_TRUE(d.evict.empty());
}

TEST(HrmPolicy, AdmitRejectsWhenEvenEvictionCannotHelp) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  hrm::HrmAllocationPolicy p(&cat);
  NodeSpec node = StdNode();
  node.capacity.mem = 256;  // tiny node
  std::vector<ExecSlot> running{Slot(cat, ServiceId{9}, RequestId{1})};
  // lc-cloud-render needs 512 MiB > 256 even after evicting everything.
  const auto d =
      p.Admit(node, Slot(cat, ServiceId{0}, RequestId{2}), running);
  EXPECT_FALSE(d.admit);
  EXPECT_TRUE(d.evict.empty());
}

TEST(HrmPolicy, ReassuranceMultiplierAdjustsDemand) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  hrm::HrmAllocationPolicy p(&cat);
  const auto& svc = cat.Get(ServiceId{0});
  EXPECT_EQ(p.EffectiveDemand(NodeId{1}, svc).cpu, 500);
  p.NudgeMultiplier(NodeId{1}, ServiceId{0}, 1.2);
  EXPECT_EQ(p.EffectiveDemand(NodeId{1}, svc).cpu, 600);
  // Other nodes unaffected.
  EXPECT_EQ(p.EffectiveDemand(NodeId{2}, svc).cpu, 500);
}

TEST(HrmPolicy, MultiplierClampsToBounds) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  hrm::HrmConfig cfg;
  cfg.min_multiplier = 0.5;
  cfg.max_multiplier = 3.0;
  hrm::HrmAllocationPolicy p(&cat, cfg);
  for (int i = 0; i < 50; ++i) p.NudgeMultiplier(NodeId{1}, ServiceId{0}, 1.5);
  EXPECT_DOUBLE_EQ(p.Multiplier(NodeId{1}, ServiceId{0}), 3.0);
  for (int i = 0; i < 50; ++i) p.NudgeMultiplier(NodeId{1}, ServiceId{0}, 0.5);
  EXPECT_DOUBLE_EQ(p.Multiplier(NodeId{1}, ServiceId{0}), 0.5);
}

TEST(HrmPolicy, AdmissionLatencyIsDvpaOp) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  hrm::HrmAllocationPolicy p(&cat);
  EXPECT_NEAR(ToMilliseconds(p.AdmissionLatency()), 23.0, 0.1);
}

// ----------------------------------------------------------------- CERES --

TEST(CeresPolicy, ClassBlindProportionalSharing) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  sched::CeresAllocationPolicy p(&cat);
  const NodeSpec node = StdNode();
  // LC 500 + BE 800×5 = 4500 > 4000: everyone scales by 8/9 — the LC slot
  // gets no protection (contrast with HrmPolicy tests above).
  std::vector<ExecSlot> running{Slot(cat, ServiceId{0}, RequestId{0})};
  for (int i = 1; i <= 5; ++i) {
    running.push_back(Slot(cat, ServiceId{6}, RequestId{i}));
  }
  std::vector<Millicores> grants;
  p.ComputeGrants(node, running, grants);
  EXPECT_LT(grants[0], 500);  // LC squeezed below its need
  EXPECT_NEAR(static_cast<double>(grants[0]), 500.0 * 4000 / 4500, 2);
}

TEST(CeresPolicy, ElasticExpansionWhenIdle) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  sched::CeresAllocationPolicy p(&cat);
  std::vector<ExecSlot> running{Slot(cat, ServiceId{6}, RequestId{1})};
  std::vector<Millicores> grants;
  p.ComputeGrants(StdNode(), running, grants);
  EXPECT_EQ(grants[0], 1600);  // 2× the 800 need
}

TEST(CeresPolicy, SlowerScalingThanDvpa) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  sched::CeresAllocationPolicy ceres(&cat);
  hrm::HrmAllocationPolicy hrm_policy(&cat);
  EXPECT_GT(ceres.AdmissionLatency(), hrm_policy.AdmissionLatency());
}

// ------------------------------------------------- storm generator allocs --

TEST(StormAllocation, NextRequestIsAllocationFreeAcrossFamilies) {
  const ServiceCatalog cat = ServiceCatalog::Standard();
  for (int k = 0; k < storm::kNumScenarioKinds; ++k) {
    const auto kind = static_cast<storm::ScenarioKind>(k);
    storm::ScenarioConfig cfg;
    cfg.catalog = &cat;
    cfg.num_clusters = 4;
    cfg.horizon = 20 * kSecond;
    cfg.rps_per_cluster = 80.0;
    cfg.seed = 11;
    auto source = storm::BuildScenario(kind, cfg);
    // Warm up: construction and any first-pull lazy state may allocate.
    workload::Request req;
    int warmed = 0;
    for (; warmed < 128 && source->NextRequest(&req); ++warmed) {
    }
    ASSERT_EQ(warmed, 128) << storm::ScenarioKindName(kind);
    // Steady state: thousands of pulls, zero allocation events.
    const std::int64_t before = g_alloc_events;
    std::int64_t pulled = 0;
    SimTime last_arrival = 0;
    bool ordered = true;
    for (int i = 0; i < 2000 && source->NextRequest(&req); ++i) {
      ++pulled;
      ordered = ordered && req.arrival >= last_arrival;
      last_arrival = req.arrival;
    }
    const std::int64_t during = g_alloc_events - before;
    EXPECT_EQ(during, 0) << storm::ScenarioKindName(kind);
    EXPECT_EQ(pulled, 2000) << storm::ScenarioKindName(kind);
    EXPECT_TRUE(ordered) << storm::ScenarioKindName(kind);
  }
}

// --------------------------------------------- DSS-LC round and storage --

metrics::StateStorage DssStorage() {
  metrics::StateStorage st;
  Rng rng(23);
  for (int i = 0; i < 48; ++i) {
    metrics::NodeSnapshot s;
    s.node = NodeId{i + 1};
    s.cluster = ClusterId{i % 4};
    s.cpu_total = 8000;
    s.cpu_available = rng.UniformInt(0, 8000);
    s.mem_total = 16384;
    s.mem_available = rng.UniformInt(1024, 16384);
    s.queued = static_cast<int>(rng.UniformInt(0, 8));
    st.Update(s);
  }
  for (int c = 0; c < 4; ++c) {
    st.UpdateRtt(ClusterId{c}, rng.UniformInt(1, 40) * kMillisecond);
  }
  return st;
}

std::vector<k8s::PendingRequest> LcQueue(int count) {
  std::vector<k8s::PendingRequest> q;
  for (int i = 0; i < count; ++i) {
    k8s::PendingRequest p;
    p.request.id = RequestId{i};
    p.request.service = ServiceId{i % 5};  // the five LC types
    p.request.arrival = (i % 7) * kMillisecond;
    q.push_back(p);
  }
  return q;
}

TEST(DssLcAllocation, SteadyStateRoundAllocatesOnlyItsResult) {
  // A light round routes on G_k alone; a heavy one overloads every type
  // and routes the backlog through Ĝ'_k. Once warm-up rounds have sized
  // the scheduler's scratch, either kind of round allocates exactly once:
  // the assignment vector Schedule returns.
  const ServiceCatalog cat = ServiceCatalog::Standard();
  const metrics::StateStorage st = DssStorage();
  const auto light = LcQueue(12);
  const auto heavy = LcQueue(3000);
  for (const auto policy : {sched::SplitPolicy::kRandom,
                            sched::SplitPolicy::kFifo,
                            sched::SplitPolicy::kDeadline}) {
    for (const auto* q : {&light, &heavy}) {
      sched::DssLcConfig cfg;
      cfg.split_policy = policy;
      sched::DssLcScheduler dss(&cat, cfg);
      SimTime now = 0;
      for (int r = 0; r < 4; ++r) {
        dss.Schedule(ClusterId{0}, *q, st, now += 20 * kMillisecond);
      }
      for (int r = 0; r < 3; ++r) {
        const std::int64_t overflow = dss.overflow_routed();
        now += 20 * kMillisecond;
        const std::int64_t before = g_alloc_events;
        const auto out = dss.Schedule(ClusterId{0}, *q, st, now);
        const std::int64_t during = g_alloc_events - before;
        EXPECT_EQ(during, 1) << sched::SplitPolicyName(policy) << " queue "
                             << q->size();
        EXPECT_FALSE(out.empty());
        EXPECT_EQ(dss.overflow_routed() > overflow, q == &heavy)
            << sched::SplitPolicyName(policy) << " queue " << q->size();
      }
    }
  }
}

TEST(StateStorageAllocation, KnownNodeUpdatesAndReadsAllocateNothing) {
  metrics::StateStorage st = DssStorage();
  st.MarkClusterReachability(ClusterId{1}, false);
  metrics::NodeSnapshot s = *st.Find(NodeId{17});
  const std::int64_t before = g_alloc_events;
  std::size_t seen = 0;
  SimDuration rtt_sum = 0;
  for (int i = 1; i <= 2000; ++i) {
    s.recorded_at = i;
    s.queued = i % 9;
    st.Update(s);
    seen += st.Find(NodeId{1 + i % 48}) != nullptr ? 1 : 0;
    rtt_sum += st.Rtt(ClusterId{i % 4}).value_or(0);
    seen += st.All().size();
  }
  EXPECT_EQ(g_alloc_events - before, 0);
  EXPECT_EQ(seen, 2000u * 49);
  EXPECT_GT(rtt_sum, 0);
  EXPECT_EQ(st.Find(NodeId{17})->queued, 2000 % 9);
}

TEST(SyncAllocation, SteadyStateSyncOnBusySystemAllocatesNothing) {
  // Every view holds every worker after the first sync, so a later sync
  // only overwrites known snapshots from the cluster change lists.
  const ServiceCatalog cat = ServiceCatalog::Standard();
  k8s::SystemConfig cfg;
  cfg.clusters = eval::PhysicalClusters(5);
  cfg.region_km = 900.0;
  cfg.seed = 11;
  k8s::EdgeCloudSystem sys(cfg, &cat);
  sched::LoadGreedyLcScheduler lc(&cat);
  sched::LoadGreedyBeScheduler be(&cat);
  sys.SetLcScheduler(&lc);
  sys.SetBeScheduler(&be);
  workload::Trace trace;
  for (int i = 0; i < 400; ++i) {
    workload::Request r;
    r.id = RequestId{i};
    r.service = i % 3 == 2 ? ServiceId{9} : ServiceId{3};
    r.origin = ClusterId{i % 5};
    r.arrival = i * 5 * kMillisecond;
    r.work_scale = 1.0;
    trace.push_back(r);
  }
  sys.SubmitTrace(trace);
  // The forced sync below also arms the dispatchers; keep their events
  // inside a pre-sized pool.
  sys.simulator().ReserveEvents(4096);
  const scope::Counter& pushes =
      sys.metrics_registry().GetCounter("sync.pushes");
  for (const SimTime at : {1 * kSecond + 50 * kMillisecond,
                           1 * kSecond + 420 * kMillisecond}) {
    sys.Run(at);
    const std::int64_t pushed = pushes.value();
    const std::int64_t before = g_alloc_events;
    // Clearing a fault on a pair that has none forces a sync right now.
    sys.ClearLinkFault(ClusterId{0}, ClusterId{1});
    EXPECT_EQ(g_alloc_events - before, 0) << "sync at " << at;
    EXPECT_GT(pushes.value(), pushed) << "sync at " << at;
  }
}

/// Random-load states on paper_dual's shape: 104 cluster pseudo-nodes in a
/// ring.
class RingStates {
 public:
  explicit RingStates(int feature_dim) : feature_dim_(feature_dim) {
    for (int i = 0; i < kNodes; ++i) {
      ring_[static_cast<std::size_t>(i)] = {(i + kNodes - 1) % kNodes,
                                            (i + 1) % kNodes};
      std::sort(ring_[static_cast<std::size_t>(i)].begin(),
                ring_[static_cast<std::size_t>(i)].end());
    }
  }

  rl::GraphState Next() {
    rl::GraphState s;
    s.graph.features = nn::Matrix(kNodes, feature_dim_);
    for (int i = 0; i < kNodes; ++i) {
      for (int f = 0; f < feature_dim_; ++f) {
        s.graph.features.at(i, f) = static_cast<float>(env_.NextDouble());
      }
    }
    s.graph.adj = ring_;
    return s;
  }

 private:
  static constexpr int kNodes = 104;
  int feature_dim_;
  std::vector<std::vector<int>> ring_ =
      std::vector<std::vector<int>>(kNodes);
  Rng env_{41};
};

TEST(BackwardStepsAllocation, PoolThreadsAllocateNothingInASteadyUpdate) {
  // The paper-default learner on paper_dual's ring. The updating thread
  // allocates every gradient buffer and scratch matrix before the fan-out,
  // so after one warm-up update the pool threads (the step walks, the
  // replay, Adam) allocate nothing: no pool thread grows a malloc arena of
  // its own.
  rl::A2cConfig cfg;
  rl::A2cAgent agent(cfg);
  RingStates states(cfg.feature_dim);
  for (int update = 0; update < 2; ++update) {
    for (int t = 0; t + 1 < cfg.train_interval; ++t) {
      agent.Act(states.Next());
      agent.Observe(0.1f, states.Next(), false);
    }
    agent.Act(states.Next());
    const rl::GraphState next = states.Next();
    const std::int64_t total_before = g_alloc_events.load();
    const std::int64_t mine_before = t_alloc_events;
    agent.Observe(0.1f, next, false);  // the interval's last step trains
    const std::int64_t mine = t_alloc_events - mine_before;
    const std::int64_t others = g_alloc_events.load() - total_before - mine;
    ASSERT_EQ(agent.train_steps(), update + 1);
    EXPECT_GT(mine, 0);  // the update's tape and buffers, on the caller
    if (update == 1) {
      EXPECT_EQ(others, 0) << "pool threads allocated";
    }
  }
}

TEST(MlpForwardAllocation, PoolThreadsAllocateNothingInASteadyAct) {
  // Act() builds the actor head's whole tape on the deciding thread, then
  // fills its values in row bands on the learner pool (104 rows: at least
  // two bands on any host), so after a warm-up decision the pool threads
  // allocate nothing.
  rl::A2cConfig cfg;
  rl::A2cAgent agent(cfg);
  RingStates states(cfg.feature_dim);
  agent.Act(states.Next());
  agent.Observe(0.1f, states.Next(), false);
  for (int t = 0; t < 8; ++t) {
    const rl::GraphState s = states.Next();
    const std::int64_t total_before = g_alloc_events.load();
    const std::int64_t mine_before = t_alloc_events;
    agent.Act(s);
    const std::int64_t mine = t_alloc_events - mine_before;
    const std::int64_t others = g_alloc_events.load() - total_before - mine;
    EXPECT_GT(mine, 0);  // the tape, on the deciding thread
    EXPECT_EQ(others, 0) << "pool threads allocated in decision " << t;
    agent.Observe(0.1f, states.Next(), false);
  }
  EXPECT_EQ(agent.train_steps(), 0);
}

}  // namespace
}  // namespace tango
