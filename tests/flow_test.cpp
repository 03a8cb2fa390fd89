// Unit + property tests for the min-cost max-flow solver (the successive-
// shortest-paths oracle DSS-LC's greedy star dispatch is checked against).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
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

// ---- Property test: on general graphs the solution is certified from the
// outside. Arc costs w + pi(u) - pi(v) with w >= 0 are often negative, but
// every cycle costs its sum of w >= 0, so the instance has an optimum. Later
// augmentations on these graphs push flow back along reverse arcs, which no
// star instance does.

struct ResidualArc {
  int from, to;
  CostUnit cost;
};

/// Bellman-Ford from a virtual source joined to every node at cost 0: true
/// iff some cycle of `arcs` has negative total cost.
bool HasNegativeCycle(int n, const std::vector<ResidualArc>& arcs) {
  std::vector<CostUnit> dist(static_cast<std::size_t>(n), 0);
  for (int pass = 0; pass < n; ++pass) {
    bool relaxed = false;
    for (const auto& a : arcs) {
      const CostUnit nd = dist[static_cast<std::size_t>(a.from)] + a.cost;
      if (nd < dist[static_cast<std::size_t>(a.to)]) {
        dist[static_cast<std::size_t>(a.to)] = nd;
        relaxed = true;
      }
    }
    if (!relaxed) return false;
  }
  return true;
}

bool Reachable(int n, const std::vector<ResidualArc>& arcs, int from, int to) {
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<int> stack = {from};
  seen[static_cast<std::size_t>(from)] = 1;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    for (const auto& a : arcs) {
      if (a.from != u || seen[static_cast<std::size_t>(a.to)] != 0) continue;
      seen[static_cast<std::size_t>(a.to)] = 1;
      stack.push_back(a.to);
    }
  }
  return seen[static_cast<std::size_t>(to)] != 0;
}

std::uint64_t Fnv(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(McmfProperty, ResidualGraphCertifiesGeneralGraphs) {
  Rng rng(8191);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(4, 12));
    std::vector<CostUnit> pi(static_cast<std::size_t>(n));
    for (auto& p : pi) p = rng.UniformInt(-15, 15);
    struct Arc {
      int id, from, to;
      FlowUnit cap;
      CostUnit cost;
    };
    std::vector<Arc> arcs;
    MinCostMaxFlow g(n);
    for (int e = 0; e < 3 * n; ++e) {
      const int u = static_cast<int>(rng.UniformInt(0, n - 1));
      const int v = static_cast<int>(rng.UniformInt(0, n - 1));
      if (u == v) continue;
      const FlowUnit cap = rng.UniformInt(0, 6);
      const CostUnit cost = rng.UniformInt(0, 9) +
                            pi[static_cast<std::size_t>(u)] -
                            pi[static_cast<std::size_t>(v)];
      arcs.push_back({g.AddArc(u, v, cap, cost), u, v, cap, cost});
    }
    const FlowUnit amount =
        trial % 2 == 0 ? MinCostMaxFlow::kMaxFlow : rng.UniformInt(1, 8);
    const auto r = g.Solve(0, n - 1, amount);

    // Rebuild the residual graph from the arc list and the reported flows.
    std::vector<ResidualArc> residual;
    std::vector<FlowUnit> net(static_cast<std::size_t>(n), 0);
    CostUnit cost = 0;
    for (const auto& a : arcs) {
      const FlowUnit flow = g.Flow(a.id);
      ASSERT_TRUE(flow >= 0 && flow <= a.cap &&
                  flow + g.Residual(a.id) == a.cap)
          << "trial " << trial;
      if (flow < a.cap) residual.push_back({a.from, a.to, a.cost});
      if (flow > 0) residual.push_back({a.to, a.from, -a.cost});
      net[static_cast<std::size_t>(a.from)] += flow;
      net[static_cast<std::size_t>(a.to)] -= flow;
      cost += flow * a.cost;
    }
    // A flow of the reported value and cost...
    EXPECT_EQ(net.front(), r.max_flow) << "trial " << trial;
    EXPECT_EQ(net.back(), -r.max_flow) << "trial " << trial;
    for (int v = 1; v + 1 < n; ++v) {
      EXPECT_EQ(net[static_cast<std::size_t>(v)], 0) << "trial " << trial;
    }
    EXPECT_EQ(r.total_cost, cost) << "trial " << trial;
    // ...at min cost for its value: no negative residual cycle; and max
    // flow when the amount was not met: no augmenting path left.
    EXPECT_FALSE(HasNegativeCycle(n, residual)) << "trial " << trial;
    if (!r.saturated) {
      EXPECT_FALSE(Reachable(n, residual, 0, n - 1)) << "trial " << trial;
    }
    digest = Fnv(Fnv(digest, r.max_flow), r.total_cost);
  }
  EXPECT_EQ(digest, 0x2e1bea2d0d450168ULL) << "digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace tango::flow
