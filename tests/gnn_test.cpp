// Tests for the graph encoders (GraphSAGE, GCN, GAT, Native) and for
// GraphSAGE's sparse neighbour mean against the dense mean matrix it
// replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "gnn/encoder.h"

namespace tango::gnn {
namespace {

using nn::Matrix;
using nn::Var;

/// A 6-node graph: two triangles bridged by one edge (0-1-2, 3-4-5, 2-3).
GraphBatch TwoTriangles() {
  GraphBatch g;
  g.features = Matrix(6, 4);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 4; ++j) {
      g.features.at(i, j) = static_cast<float>(i * 4 + j) / 24.0f;
    }
  }
  g.adj = {{1, 2}, {0, 2}, {0, 1, 3}, {2, 4, 5}, {3, 5}, {3, 4}};
  return g;
}

class EncoderKindTest : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(EncoderKindTest, OutputShape) {
  Rng rng(1);
  nn::ParamStore store;
  auto enc = MakeEncoder(GetParam(), store, "e", 4, 16, rng);
  ASSERT_NE(enc, nullptr);
  Rng fwd(2);
  const GraphBatch g = TwoTriangles();
  const Var h = enc->Encode(g, fwd);
  EXPECT_EQ(h->value.rows(), 6);
  EXPECT_EQ(h->value.cols(), 16);
  EXPECT_EQ(enc->out_dim(), 16);
}

TEST_P(EncoderKindTest, GradientsReachParameters) {
  Rng rng(3);
  nn::ParamStore store;
  auto enc = MakeEncoder(GetParam(), store, "e", 4, 8, rng);
  Rng fwd(4);
  Var loss = nn::Sum(enc->Encode(TwoTriangles(), fwd));
  nn::Backward(loss);
  float total = 0.0f;
  for (const auto& p : store.params()) {
    if (!p->grad.SameShape(p->value)) continue;
    for (int r = 0; r < p->grad.rows(); ++r) {
      for (int c = 0; c < p->grad.cols(); ++c) {
        total += std::abs(p->grad.at(r, c));
      }
    }
  }
  EXPECT_GT(total, 0.0f) << EncoderKindName(GetParam());
}

TEST_P(EncoderKindTest, DeterministicUnderSameSeeds) {
  const GraphBatch g = TwoTriangles();
  auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    nn::ParamStore store;
    auto enc = MakeEncoder(GetParam(), store, "e", 4, 8, rng);
    Rng fwd(seed + 1);
    return enc->Encode(g, fwd)->value;
  };
  const Matrix a = run(42);
  const Matrix b = run(42);
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      EXPECT_FLOAT_EQ(a.at(r, c), b.at(r, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, EncoderKindTest,
                         ::testing::Values(EncoderKind::kGraphSage,
                                           EncoderKind::kGcn,
                                           EncoderKind::kGat,
                                           EncoderKind::kNative),
                         [](const auto& param_info) {
                           return std::string(
                               EncoderKindName(param_info.param));
                         });

TEST(GraphSage, UsesTopologyNativeDoesNot) {
  // Changing a *neighbor's* features must change a node's embedding under
  // GraphSAGE but not under the Native encoder.
  GraphBatch g = TwoTriangles();
  auto embed_node0 = [&](EncoderKind kind, const GraphBatch& graph) {
    Rng rng(7);
    nn::ParamStore store;
    auto enc = MakeEncoder(kind, store, "e", 4, 8, rng);
    Rng fwd(8);
    const Var h = enc->Encode(graph, fwd);
    float sum = 0.0f;
    for (int c = 0; c < 8; ++c) sum += h->value.at(0, c);
    return sum;
  };
  GraphBatch g2 = g;
  for (int j = 0; j < 4; ++j) g2.features.at(1, j) += 5.0f;  // node 1 changes
  EXPECT_NE(embed_node0(EncoderKind::kGraphSage, g),
            embed_node0(EncoderKind::kGraphSage, g2));
  EXPECT_FLOAT_EQ(embed_node0(EncoderKind::kNative, g),
                  embed_node0(EncoderKind::kNative, g2));
}

TEST(GraphSage, SamplingBoundsNeighborCount) {
  // With p = 3 and a hub of degree 10, each forward must still work and mix
  // at most 3 neighbors + self (checked indirectly: encode succeeds and
  // differs across RNG draws because sampling picks different neighbors).
  GraphBatch g;
  const int n = 11;
  g.features = Matrix(n, 2);
  for (int i = 0; i < n; ++i) g.features.at(i, 0) = static_cast<float>(i);
  g.adj.assign(static_cast<std::size_t>(n), {});
  for (int i = 1; i < n; ++i) {
    g.adj[0].push_back(i);
    g.adj[static_cast<std::size_t>(i)].push_back(0);
  }
  Rng rng(9);
  nn::ParamStore store;
  GraphSage sage(store, "s", 2, 8, /*layers=*/1, /*sample_p=*/3, rng);
  Rng fwd1(1), fwd2(2);
  const Var h1 = sage.Encode(g, fwd1);
  const Var h2 = sage.Encode(g, fwd2);
  // Hub row (degree 10 > p) should differ between draws.
  float diff = 0.0f;
  for (int c = 0; c < 8; ++c) {
    diff += std::abs(h1->value.at(0, c) - h2->value.at(0, c));
  }
  EXPECT_GT(diff, 0.0f);
  // Leaf rows (degree 1 ≤ p) are sampled deterministically.
  for (int c = 0; c < 8; ++c) {
    EXPECT_FLOAT_EQ(h1->value.at(5, c), h2->value.at(5, c));
  }
}

TEST(Gcn, IsolatedNodeSeesOnlyItself) {
  GraphBatch g;
  g.features = Matrix(3, 2);
  g.features.at(0, 0) = 1.0f;
  g.features.at(1, 0) = 2.0f;
  g.features.at(2, 0) = 100.0f;  // isolated, feature much larger
  g.adj = {{1}, {0}, {}};
  Rng rng(10);
  nn::ParamStore store;
  Gcn gcn(store, "g", 2, 4, 1, rng);
  Rng fwd(11);
  const Var h = gcn.Encode(g, fwd);
  // Altering the isolated node's features must not change node 0's output.
  GraphBatch g2 = g;
  g2.features.at(2, 0) = 500.0f;
  const Var h2 = gcn.Encode(g2, fwd);
  for (int c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(h->value.at(0, c), h2->value.at(0, c));
  }
}

TEST(Gat, OneLayerRespectsLocality) {
  // On a path 0-1-2-3 a single GAT layer must propagate a change at node 1
  // into node 0 but keep node 0 blind to changes at node 3 (two hops away).
  GraphBatch g;
  g.features = Matrix(4, 2, 0.5f);
  g.adj = {{1}, {0, 2}, {1, 3}, {2}};
  Rng rng(12);
  nn::ParamStore store;
  Gat gat(store, "a", 2, 4, 1, rng);
  Rng fwd(13);
  const Var base = gat.Encode(g, fwd);
  auto row_delta = [&](const GraphBatch& variant, int row) {
    const Var h = gat.Encode(variant, fwd);
    float d = 0.0f;
    for (int c = 0; c < 4; ++c) {
      d += std::abs(h->value.at(row, c) - base->value.at(row, c));
    }
    return d;
  };
  GraphBatch near = g;
  near.features.at(1, 0) += 3.0f;
  EXPECT_GT(row_delta(near, 0), 1e-6f);  // neighbor change propagates
  GraphBatch far = g;
  far.features.at(3, 0) += 3.0f;
  EXPECT_FLOAT_EQ(row_delta(far, 0), 0.0f);  // two hops away: invisible
}

TEST(EncoderFactory, NamesAreStable) {
  EXPECT_STREQ(EncoderKindName(EncoderKind::kGraphSage), "GraphSAGE");
  EXPECT_STREQ(EncoderKindName(EncoderKind::kGcn), "GCN");
  EXPECT_STREQ(EncoderKindName(EncoderKind::kGat), "GAT");
  EXPECT_STREQ(EncoderKindName(EncoderKind::kNative), "Native");
}

// ---- Neighbour sampling split from the forward -----------------------------

TEST_P(EncoderKindTest, SampleThenForwardIsEncode) {
  Rng rng(7);
  nn::ParamStore store;
  auto enc = MakeEncoder(GetParam(), store, "e", 4, 16, rng);
  const GraphBatch g = TwoTriangles();
  Rng whole(11);
  Rng split(11);
  const nn::Var encoded = enc->Encode(g, whole);
  const NeighbourSample sample = enc->Sample(g, split);
  const nn::Var forward = enc->Forward(g, sample);
  ASSERT_TRUE(forward->value.SameShape(encoded->value));
  for (int r = 0; r < forward->value.rows(); ++r) {
    for (int c = 0; c < forward->value.cols(); ++c) {
      ASSERT_EQ(forward->value.at(r, c), encoded->value.at(r, c))
          << "entry (" << r << "," << c << ")";
    }
  }
  // Both leave the RNG at the same point of its stream.
  EXPECT_EQ(whole.NextDouble(), split.NextDouble());
  if (GetParam() != EncoderKind::kGraphSage) {
    EXPECT_TRUE(sample.offsets.empty() && sample.nbrs.empty());
  }
}

TEST(GraphSage, SampleDrawsOnlyAboveDegreeP) {
  Rng rng(19);
  nn::ParamStore store;
  auto enc = MakeEncoder(EncoderKind::kGraphSage, store, "e", 4, 8, rng);
  // TwoTriangles' degrees are 2 and 3, all within p = 3: nothing is drawn,
  // every neighbour is kept, and any two samples agree.
  const GraphBatch g = TwoTriangles();
  Rng f1(3);
  const NeighbourSample all = enc->Sample(g, f1);
  EXPECT_EQ(f1.NextDouble(), Rng(3).NextDouble());
  Rng f2(4);
  EXPECT_EQ(enc->Sample(g, f2), all);
  ASSERT_EQ(all.offsets.size(), 2u * 7u);  // two layers of n + 1 offsets
  EXPECT_EQ(all.offsets[6], 14);           // 2+2+3+3+2+2 neighbours
  // A hub of degree 5 keeps a sorted sample of p = 3 per layer, and
  // different RNG streams disagree on it at least once over a few draws.
  GraphBatch star;
  star.features = Matrix(6, 4, 0.5f);
  star.adj = {{1, 2, 3, 4, 5}, {0}, {0}, {0}, {0}, {0}};
  bool differed = false;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng a(seed);
    Rng b(seed + 100);
    const NeighbourSample sa = enc->Sample(star, a);
    for (int l = 0; l < 2; ++l) {
      const int begin = sa.offsets[static_cast<std::size_t>(l * 7)];
      const int end = sa.offsets[static_cast<std::size_t>(l * 7 + 1)];
      ASSERT_EQ(end - begin, 3);
      EXPECT_TRUE(std::is_sorted(sa.nbrs.begin() + begin,
                                 sa.nbrs.begin() + end));
    }
    differed = differed || !(sa == enc->Sample(star, b));
  }
  EXPECT_TRUE(differed);
}

// ---- Sparse neighbour mean (nn::NeighbourMean) ----------------------------

/// The row-normalised N×N mean matrix of one layer of `sample`, as GraphSAGE
/// built it before the sparse op: 1/count at each sampled neighbour.
Matrix DenseMeanMatrix(const NeighbourSample& sample, std::size_t layer,
                       int n) {
  Matrix agg(n, n);
  const int* off =
      sample.offsets.data() + layer * (static_cast<std::size_t>(n) + 1);
  for (int i = 0; i < n; ++i) {
    if (off[i] == off[i + 1]) continue;
    const float w = 1.0f / static_cast<float>(off[i + 1] - off[i]);
    for (int t = off[i]; t < off[i + 1]; ++t) {
      agg.at(i, sample.nbrs[static_cast<std::size_t>(t)]) = w;
    }
  }
  return agg;
}

/// Random values of mixed magnitude, with zeros and −0.0 sprinkled in.
Matrix MixedValues(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const auto pick = rng.UniformInt(0, 15);
      const auto exponent = static_cast<int>(rng.UniformInt(-6, 6));
      const auto scale = std::ldexp(1.0, exponent);
      const auto v = static_cast<float>(rng.Uniform(-1.0, 1.0) * scale);
      m.at(r, c) = pick == 0 ? 0.0f : pick == 1 ? -0.0f : v;
    }
  }
  return m;
}

void ExpectSameBits(const Matrix& want, const Matrix& got,
                    const std::string& what) {
  ASSERT_TRUE(want.SameShape(got)) << what;
  for (int r = 0; r < want.rows(); ++r) {
    for (int c = 0; c < want.cols(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(want.at(r, c)),
                std::bit_cast<std::uint32_t>(got.at(r, c)))
          << what << " entry (" << r << "," << c << "): want "
          << want.at(r, c) << ", got " << got.at(r, c);
    }
  }
}

/// NeighbourMean(h) against MatMul(Constant(M), h) on every layer of
/// GraphSAGE's sample of `g`: the forward values, and h's gradient after two
/// backward passes (the second adds onto the first, so an op that added its
/// products into h's gradient one by one would round differently).
void CheckAgainstDense(const GraphBatch& g, const std::string& what) {
  const int n = g.num_nodes();
  Rng init(5);
  nn::ParamStore store;
  const GraphSage sage(store, "s", g.features.cols(), 8, /*layers=*/2,
                       /*sample_p=*/3, init);
  Rng draw(static_cast<std::uint64_t>(n));
  const NeighbourSample sample = sage.Sample(g, draw);
  const Matrix h = MixedValues(n, 40, draw);
  const Matrix upstream = MixedValues(n, 40, draw);
  for (std::size_t l = 0; l < 2; ++l) {
    const std::string at = what + " layer " + std::to_string(l);
    const Var h_dense = nn::Parameter(h);
    const Var dense =
        nn::MatMul(nn::Constant(DenseMeanMatrix(sample, l, n)), h_dense);
    const Var h_sparse = nn::Parameter(h);
    const Var sparse = nn::NeighbourMean(h_sparse, sample, l);
    ExpectSameBits(dense->value, sparse->value, at + " forward");
    const Var dense_loss = nn::Sum(nn::Mul(dense, nn::Constant(upstream)));
    const Var sparse_loss = nn::Sum(nn::Mul(sparse, nn::Constant(upstream)));
    for (int pass = 0; pass < 2; ++pass) {
      nn::Backward(dense_loss);
      nn::Backward(sparse_loss);
    }
    ExpectSameBits(h_dense->grad, h_sparse->grad, at + " gradient");
  }
}

GraphBatch WithFeatures(std::vector<std::vector<int>> adj) {
  GraphBatch g;
  g.features = Matrix(static_cast<int>(adj.size()), 3, 0.5f);
  g.adj = std::move(adj);
  return g;
}

TEST(NeighbourMean, MatchesTheDenseMeanMatrixBitForBit) {
  // Isolated nodes beside one edge.
  CheckAgainstDense(WithFeatures({{}, {2}, {1}, {}, {}}), "isolated");
  // paper_dual's 104-node ring: degree 2, nothing sampled.
  std::vector<std::vector<int>> ring(104);
  for (int i = 0; i < 104; ++i) {
    ring[static_cast<std::size_t>(i)] = {(i + 103) % 104, (i + 1) % 104};
    std::sort(ring[static_cast<std::size_t>(i)].begin(),
              ring[static_cast<std::size_t>(i)].end());
  }
  CheckAgainstDense(WithFeatures(ring), "ring");
  // Eight LAN meshes of six workers in a ring of bridges: degree 5–7 > p,
  // so every node samples 3 and most nodes are sampled by 3 or more.
  std::vector<std::vector<int>> mesh(48);
  auto link = [](std::vector<std::vector<int>>& adj, int u, int v) {
    adj[static_cast<std::size_t>(u)].push_back(v);
    adj[static_cast<std::size_t>(v)].push_back(u);
  };
  for (int c = 0; c < 8; ++c) {
    for (int a = 0; a < 6; ++a) {
      for (int b = a + 1; b < 6; ++b) link(mesh, c * 6 + a, c * 6 + b);
    }
    link(mesh, c * 6, ((c + 1) % 8) * 6 + 1);
  }
  CheckAgainstDense(WithFeatures(mesh), "mesh");
  // 300 nodes, past the kernel's 256-entry packing chunk, with random
  // degrees from 0 up.
  Rng topo(300);
  std::vector<std::vector<int>> random(300);
  for (int u = 0; u < 300; ++u) {
    const auto edges = topo.UniformInt(0, 4);
    for (std::int64_t e = 0; e < edges; ++e) {
      const int v = static_cast<int>(topo.UniformInt(0, 299));
      const auto& nu = random[static_cast<std::size_t>(u)];
      if (v == u || std::find(nu.begin(), nu.end(), v) != nu.end()) continue;
      link(random, u, v);
    }
  }
  CheckAgainstDense(WithFeatures(random), "300 nodes");
}

TEST(NeighbourMeanDeathTest, RepeatedNeighbourFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  NeighbourSample sample;
  sample.offsets = {0, 2, 2, 2};  // node 0 samples node 1 twice
  sample.nbrs = {1, 1};
  const Var h = nn::Parameter(Matrix(3, 4, 1.0f));
  EXPECT_DEATH(nn::NeighbourMean(h, sample, 0), "not strictly ascending");
}

}  // namespace
}  // namespace tango::gnn
