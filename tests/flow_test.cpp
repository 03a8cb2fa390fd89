// Unit + property tests for the min-cost max-flow solver (the successive-
// shortest-paths oracle DSS-LC's greedy star dispatch is checked against).
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "common/rng.h"
#include "flow/mcmf.h"

namespace tango::flow {
namespace {

TEST(Mcmf, SingleArc) {
  MinCostMaxFlow g(2);
  const int a = g.AddArc(0, 1, 5, 3);
  const auto r = g.Solve(0, 1);
  EXPECT_EQ(r.max_flow, 5);
  EXPECT_EQ(r.total_cost, 15);
  EXPECT_EQ(g.Flow(a), 5);
  EXPECT_EQ(g.Residual(a), 0);
}

TEST(Mcmf, PrefersCheaperPath) {
  // Two parallel paths: cost 1 (cap 3) and cost 10 (cap 3); ask for 4 units.
  MinCostMaxFlow g(4);
  const int cheap1 = g.AddArc(0, 1, 3, 1);
  g.AddArc(1, 3, 3, 0);
  const int dear1 = g.AddArc(0, 2, 3, 10);
  g.AddArc(2, 3, 3, 0);
  const auto r = g.Solve(0, 3, 4);
  EXPECT_EQ(r.max_flow, 4);
  EXPECT_EQ(r.total_cost, 3 * 1 + 1 * 10);
  EXPECT_EQ(g.Flow(cheap1), 3);
  EXPECT_EQ(g.Flow(dear1), 1);
  EXPECT_TRUE(r.saturated);
}

TEST(Mcmf, RespectsAmountLimit) {
  MinCostMaxFlow g(2);
  g.AddArc(0, 1, 100, 1);
  const auto r = g.Solve(0, 1, 7);
  EXPECT_EQ(r.max_flow, 7);
  EXPECT_EQ(r.total_cost, 7);
}

TEST(Mcmf, ReportsUnsaturatedWhenCapacityShort) {
  MinCostMaxFlow g(3);
  g.AddArc(0, 1, 2, 1);
  g.AddArc(1, 2, 2, 1);
  const auto r = g.Solve(0, 2, 10);
  EXPECT_EQ(r.max_flow, 2);
  EXPECT_FALSE(r.saturated);
}

TEST(Mcmf, DisconnectedGraphMovesNothing) {
  MinCostMaxFlow g(4);
  g.AddArc(0, 1, 5, 1);
  g.AddArc(2, 3, 5, 1);
  const auto r = g.Solve(0, 3);
  EXPECT_EQ(r.max_flow, 0);
  EXPECT_EQ(r.total_cost, 0);
}

TEST(Mcmf, HandlesNegativeCosts) {
  // Taking the negative-cost detour must be preferred.
  MinCostMaxFlow g(3);
  const int direct = g.AddArc(0, 2, 1, 5);
  const int via_a = g.AddArc(0, 1, 1, -2);
  g.AddArc(1, 2, 1, 1);
  const auto r = g.Solve(0, 2, 1);
  EXPECT_EQ(r.max_flow, 1);
  EXPECT_EQ(r.total_cost, -1);
  EXPECT_EQ(g.Flow(via_a), 1);
  EXPECT_EQ(g.Flow(direct), 0);
}

TEST(Mcmf, BottleneckLimitsThroughput) {
  MinCostMaxFlow g(4);
  g.AddArc(0, 1, 10, 0);
  g.AddArc(1, 2, 3, 0);  // bottleneck
  g.AddArc(2, 3, 10, 0);
  EXPECT_EQ(g.Solve(0, 3).max_flow, 3);
}

TEST(Mcmf, ResetFlowRestoresCapacity) {
  MinCostMaxFlow g(2);
  const int a = g.AddArc(0, 1, 5, 2);
  g.Solve(0, 1);
  EXPECT_EQ(g.Residual(a), 0);
  g.ResetFlow();
  EXPECT_EQ(g.Residual(a), 5);
  const auto r = g.Solve(0, 1, 2);
  EXPECT_EQ(r.max_flow, 2);
  EXPECT_EQ(r.total_cost, 4);
}

TEST(Mcmf, ZeroCapacityArcUnused) {
  MinCostMaxFlow g(2);
  const int a = g.AddArc(0, 1, 0, 1);
  EXPECT_EQ(g.Solve(0, 1).max_flow, 0);
  EXPECT_EQ(g.Flow(a), 0);
}

TEST(Mcmf, TransportationProblemMatchesKnownOptimum) {
  // 2 sources (supply 3, 2) → 3 sinks (demand 2, 2, 1) with a cost matrix;
  // optimum computed by hand: assign greedily by cost with capacities.
  //        d0 d1 d2
  //   s0:   1  4  6     supply 3
  //   s1:   3  2  5     supply 2
  // Optimal: s0→d0:2, s0→d2:1, s1→d1:2 → 2·1 + 1·6 + 2·2 = 12.
  MinCostMaxFlow g(7);  // 0 src, 1-2 sources, 3-5 sinks, 6 sink
  g.AddArc(0, 1, 3, 0);
  g.AddArc(0, 2, 2, 0);
  const int c00 = g.AddArc(1, 3, 5, 1);
  g.AddArc(1, 4, 5, 4);
  const int c02 = g.AddArc(1, 5, 5, 6);
  g.AddArc(2, 3, 5, 3);
  const int c11 = g.AddArc(2, 4, 5, 2);
  g.AddArc(2, 5, 5, 5);
  g.AddArc(3, 6, 2, 0);
  g.AddArc(4, 6, 2, 0);
  g.AddArc(5, 6, 1, 0);
  const auto r = g.Solve(0, 6, 5);
  EXPECT_EQ(r.max_flow, 5);
  EXPECT_EQ(r.total_cost, 12);
  EXPECT_EQ(g.Flow(c00), 2);
  EXPECT_EQ(g.Flow(c02), 1);
  EXPECT_EQ(g.Flow(c11), 2);
}

// ---- Property test: optimal cost on random bipartite instances matches an
// exhaustive assignment search.

struct Instance {
  int workers;
  std::vector<std::int64_t> cap;
  std::vector<std::int64_t> cost;
  std::int64_t amount;
};

std::int64_t BruteForceMinCost(const Instance& in) {
  // Requests are identical units: enumerate worker load vectors recursively.
  std::int64_t best = -1;
  std::vector<std::int64_t> load(static_cast<std::size_t>(in.workers), 0);
  std::function<void(int, std::int64_t, std::int64_t)> rec =
      [&](int w, std::int64_t remaining, std::int64_t cost_so_far) {
        if (w == in.workers) {
          if (remaining == 0 && (best < 0 || cost_so_far < best)) {
            best = cost_so_far;
          }
          return;
        }
        const std::int64_t maxu =
            std::min(remaining, in.cap[static_cast<std::size_t>(w)]);
        for (std::int64_t u = 0; u <= maxu; ++u) {
          rec(w + 1, remaining - u,
              cost_so_far + u * in.cost[static_cast<std::size_t>(w)]);
        }
      };
  rec(0, in.amount, 0);
  return best;
}

TEST(McmfProperty, MatchesBruteForceOnRandomStarInstances) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    Instance in;
    in.workers = static_cast<int>(rng.UniformInt(2, 5));
    std::int64_t total_cap = 0;
    for (int w = 0; w < in.workers; ++w) {
      in.cap.push_back(rng.UniformInt(0, 4));
      in.cost.push_back(rng.UniformInt(1, 20));
      total_cap += in.cap.back();
    }
    if (total_cap == 0) continue;
    in.amount = rng.UniformInt(1, total_cap);

    MinCostMaxFlow g(in.workers + 2);
    const int src = 0, snk = in.workers + 1;
    for (int w = 0; w < in.workers; ++w) {
      g.AddArc(src, 1 + w, in.cap[static_cast<std::size_t>(w)],
               in.cost[static_cast<std::size_t>(w)]);
      g.AddArc(1 + w, snk, in.cap[static_cast<std::size_t>(w)], 0);
    }
    const auto r = g.Solve(src, snk, in.amount);
    ASSERT_EQ(r.max_flow, in.amount) << "trial " << trial;
    EXPECT_EQ(r.total_cost, BruteForceMinCost(in)) << "trial " << trial;
  }
}

TEST(McmfProperty, FlowConservationOnRandomGraphs) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(4, 10));
    MinCostMaxFlow g(n);
    struct ArcRef {
      int id, from, to;
    };
    std::vector<ArcRef> arcs;
    for (int e = 0; e < 3 * n; ++e) {
      const int u = static_cast<int>(rng.UniformInt(0, n - 1));
      const int v = static_cast<int>(rng.UniformInt(0, n - 1));
      if (u == v) continue;
      const int id = g.AddArc(u, v, rng.UniformInt(0, 5),
                              rng.UniformInt(0, 9));
      arcs.push_back({id, u, v});
    }
    const auto r = g.Solve(0, n - 1);
    // Conservation: net flow out of each internal node is zero.
    std::map<int, std::int64_t> net;
    for (const auto& a : arcs) {
      net[a.from] += g.Flow(a.id);
      net[a.to] -= g.Flow(a.id);
    }
    for (int v = 1; v + 1 < n; ++v) {
      EXPECT_EQ(net[v], 0) << "node " << v << " trial " << trial;
    }
    EXPECT_EQ(net[0], r.max_flow);
    EXPECT_EQ(net[n - 1], -r.max_flow);
    // Capacity: flow never exceeds the arc's initial capacity.
    for (const auto& a : arcs) {
      EXPECT_GE(g.Flow(a.id), 0);
    }
  }
}

// ---- Solver reuse (Reset / ReserveArcs / alloc_events) --------------------

// Build a small two-path instance parameterized by cost so "graph A" and
// "graph B" are genuinely different problems.
struct TwoPath {
  int cheap, dear;
  MinCostMaxFlow::Result result;
};
TwoPath BuildAndSolve(MinCostMaxFlow& g, CostUnit cheap_cost,
                      CostUnit dear_cost, FlowUnit amount) {
  TwoPath t;
  t.cheap = g.AddArc(0, 1, 3, cheap_cost);
  g.AddArc(1, 3, 3, 0);
  t.dear = g.AddArc(0, 2, 3, dear_cost);
  g.AddArc(2, 3, 3, 0);
  t.result = g.Solve(0, 3, amount);
  return t;
}

TEST(McmfReuse, ResetSolvesSecondGraphIdenticallyToFreshSolver) {
  MinCostMaxFlow reused(4);
  BuildAndSolve(reused, 1, 10, 4);  // graph A, discarded
  reused.Reset(4);
  const auto via_reuse = BuildAndSolve(reused, 2, 7, 5);  // graph B

  MinCostMaxFlow fresh(4);
  const auto via_fresh = BuildAndSolve(fresh, 2, 7, 5);

  EXPECT_EQ(via_reuse.result.max_flow, via_fresh.result.max_flow);
  EXPECT_EQ(via_reuse.result.total_cost, via_fresh.result.total_cost);
  EXPECT_EQ(via_reuse.result.saturated, via_fresh.result.saturated);
  EXPECT_EQ(reused.Flow(via_reuse.cheap), fresh.Flow(via_fresh.cheap));
  EXPECT_EQ(reused.Flow(via_reuse.dear), fresh.Flow(via_fresh.dear));
}

TEST(McmfReuse, ResetCanShrinkAndGrowTheNodeCount) {
  MinCostMaxFlow g(8);
  g.AddArc(0, 7, 2, 1);
  g.Solve(0, 7);
  g.Reset(2);  // shrink
  const int a = g.AddArc(0, 1, 5, 3);
  EXPECT_EQ(g.Solve(0, 1).max_flow, 5);
  EXPECT_EQ(g.Flow(a), 5);
  g.Reset(16);  // grow past the original size
  g.AddArc(0, 15, 4, 2);
  EXPECT_EQ(g.Solve(0, 15).max_flow, 4);
}

TEST(McmfReuse, SteadyStateRebuildsAllocateNothing) {
  MinCostMaxFlow g(4);
  // Two warm-up cycles grow every buffer to its working-set size...
  for (int i = 0; i < 2; ++i) {
    g.Reset(4);
    g.ReserveArcs(4);
    BuildAndSolve(g, 1 + i, 10, 4);
  }
  const auto warm = g.alloc_events();
  // ...after which identical-shaped rebuild/solve cycles are allocation-free.
  for (int i = 0; i < 20; ++i) {
    g.Reset(4);
    g.ReserveArcs(4);
    BuildAndSolve(g, 1 + i % 5, 10 + i % 3, 4);
  }
  EXPECT_EQ(g.alloc_events(), warm);
}

TEST(McmfReuse, DefaultConstructedSolverWorksAfterReset) {
  MinCostMaxFlow g;
  EXPECT_EQ(g.num_nodes(), 0);
  g.Reset(3);
  g.AddArc(0, 1, 2, 1);
  g.AddArc(1, 2, 2, 1);
  const auto r = g.Solve(0, 2);
  EXPECT_EQ(r.max_flow, 2);
  EXPECT_EQ(r.total_cost, 4);
}

TEST(McmfReuse, RandomGraphsMatchFreshSolverAfterReuse) {
  // Property check: a solver cycled through random graphs returns the same
  // optimum a fresh solver does on every instance.
  Rng rng(1234);
  MinCostMaxFlow reused(1);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 4 + static_cast<int>(rng.UniformInt(0, 6));
    std::vector<std::array<std::int64_t, 4>> arcs;
    for (int e = 0; e < 3 * n; ++e) {
      const auto u = rng.UniformInt(0, n - 1);
      const auto v = rng.UniformInt(0, n - 1);
      if (u == v) continue;
      arcs.push_back({u, v, rng.UniformInt(0, 5), rng.UniformInt(0, 9)});
    }
    reused.Reset(n);
    MinCostMaxFlow fresh(n);
    for (const auto& a : arcs) {
      reused.AddArc(static_cast<int>(a[0]), static_cast<int>(a[1]), a[2],
                    a[3]);
      fresh.AddArc(static_cast<int>(a[0]), static_cast<int>(a[1]), a[2],
                   a[3]);
    }
    const auto r1 = reused.Solve(0, n - 1);
    const auto r2 = fresh.Solve(0, n - 1);
    EXPECT_EQ(r1.max_flow, r2.max_flow) << "trial " << trial;
    EXPECT_EQ(r1.total_cost, r2.total_cost) << "trial " << trial;
  }
}

}  // namespace
}  // namespace tango::flow
