#include "gnn/encoder.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace tango::gnn {

using nn::Matrix;
using nn::Var;

namespace {

/// Row-normalized mean over one layer's sampled neighbourhoods (self
/// excluded; rows of isolated nodes are zero). The layer concatenates this
/// neighbor mean with the node's own vector, per GraphSAGE's Algorithm 1
/// (Hamilton et al.) — including self in the mean instead would make
/// embeddings collapse on dense subgraphs (e.g. a cluster's full LAN mesh),
/// leaving the policy unable to tell same-cluster workers apart.
Matrix SampledMeanMatrix(const NeighbourSample& sample, std::size_t layer,
                         int n) {
  Matrix agg(n, n);
  const int* off = sample.offsets.data() +
                   layer * (static_cast<std::size_t>(n) + 1);
  for (int i = 0; i < n; ++i) {
    const int begin = off[i];
    const int end = off[i + 1];
    if (begin == end) continue;
    const float w = 1.0f / static_cast<float>(end - begin);
    for (int t = begin; t < end; ++t) {
      agg.at(i, sample.nbrs[static_cast<std::size_t>(t)]) = w;
    }
  }
  return agg;
}

/// Symmetric GCN normalization D^{-1/2}(A+I)D^{-1/2}.
Matrix GcnNormMatrix(const GraphBatch& g) {
  const int n = g.num_nodes();
  Matrix a(n, n);
  std::vector<float> deg(static_cast<std::size_t>(n), 1.0f);  // self loop
  for (int i = 0; i < n; ++i) {
    a.at(i, i) = 1.0f;
    for (int j : g.adj[static_cast<std::size_t>(i)]) {
      a.at(i, j) = 1.0f;
      deg[static_cast<std::size_t>(i)] += 1.0f;
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (a.at(i, j) != 0.0f) {
        a.at(i, j) /= std::sqrt(deg[static_cast<std::size_t>(i)] *
                                deg[static_cast<std::size_t>(j)]);
      }
    }
  }
  return a;
}

/// Adjacency+self 0/1 mask for GAT attention.
Matrix AdjacencyMask(const GraphBatch& g) {
  const int n = g.num_nodes();
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) {
    m.at(i, i) = 1.0f;
    for (int j : g.adj[static_cast<std::size_t>(i)]) m.at(i, j) = 1.0f;
  }
  return m;
}

}  // namespace

NeighbourSample Encoder::Sample(const GraphBatch& /*g*/,
                                Rng& /*rng*/) const {
  return {};
}

GraphSage::GraphSage(nn::ParamStore& store, const std::string& name,
                     int in_dim, int hidden_dim, int layers, int sample_p,
                     Rng& rng)
    : hidden_(hidden_dim), sample_p_(sample_p) {
  TANGO_CHECK(layers >= 1, "need >= 1 layer");
  int d = in_dim;
  for (int l = 0; l < layers; ++l) {
    // CONCAT(self, neighbor-mean) doubles the input width.
    layers_.emplace_back(store, name + ".sage" + std::to_string(l), 2 * d,
                         hidden_dim, rng);
    d = hidden_dim;
  }
}

NeighbourSample GraphSage::Sample(const GraphBatch& g, Rng& rng) const {
  const int n = g.num_nodes();
  NeighbourSample s;
  s.offsets.reserve(layers_.size() * (static_cast<std::size_t>(n) + 1));
  std::vector<int> pool;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    for (int i = 0; i < n; ++i) {
      s.offsets.push_back(static_cast<int>(s.nbrs.size()));
      const auto& nbrs = g.adj[static_cast<std::size_t>(i)];
      const auto begin = static_cast<std::ptrdiff_t>(s.nbrs.size());
      if (static_cast<int>(nbrs.size()) <= sample_p_) {
        s.nbrs.insert(s.nbrs.end(), nbrs.begin(), nbrs.end());
      } else {
        // Sample p without replacement (partial Fisher-Yates on a copy).
        pool.assign(nbrs.begin(), nbrs.end());
        for (int k = 0; k < sample_p_; ++k) {
          const auto j = static_cast<std::size_t>(
              rng.UniformInt(k, static_cast<std::int64_t>(pool.size()) - 1));
          std::swap(pool[static_cast<std::size_t>(k)], pool[j]);
          s.nbrs.push_back(pool[static_cast<std::size_t>(k)]);
        }
      }
      // The mean does not depend on draw order; sorting makes equal
      // neighbourhoods compare equal.
      std::sort(s.nbrs.begin() + begin, s.nbrs.end());
    }
    s.offsets.push_back(static_cast<int>(s.nbrs.size()));
  }
  return s;
}

Var GraphSage::Forward(const GraphBatch& g,
                       const NeighbourSample& sample) const {
  const int n = g.num_nodes();
  TANGO_CHECK(sample.offsets.size() ==
                  layers_.size() * (static_cast<std::size_t>(n) + 1),
              "neighbour sample does not fit a %d-node graph", n);
  Var h = nn::Constant(g.features);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Var agg = nn::Constant(SampledMeanMatrix(sample, l, n));
    const Var neigh = nn::MatMul(agg, h);
    h = nn::Relu(layers_[l].Forward(nn::ConcatCols(h, neigh)));
  }
  return h;
}

Gcn::Gcn(nn::ParamStore& store, const std::string& name, int in_dim,
         int hidden_dim, int layers, Rng& rng)
    : hidden_(hidden_dim) {
  TANGO_CHECK(layers >= 1, "need >= 1 layer");
  int d = in_dim;
  for (int l = 0; l < layers; ++l) {
    layers_.emplace_back(store, name + ".gcn" + std::to_string(l), d,
                         hidden_dim, rng);
    d = hidden_dim;
  }
}

Var Gcn::Forward(const GraphBatch& g,
                 const NeighbourSample& /*sample*/) const {
  const Var norm = nn::Constant(GcnNormMatrix(g));
  Var h = nn::Constant(g.features);
  for (const auto& layer : layers_) {
    h = nn::Relu(layer.Forward(nn::MatMul(norm, h)));
  }
  return h;
}

Gat::Gat(nn::ParamStore& store, const std::string& name, int in_dim,
         int hidden_dim, int layers, Rng& rng)
    : hidden_(hidden_dim) {
  TANGO_CHECK(layers >= 1, "need >= 1 layer");
  int d = in_dim;
  for (int l = 0; l < layers; ++l) {
    const std::string base = name + ".gat" + std::to_string(l);
    layers_.push_back(Layer{
        nn::Linear(store, base + ".proj", d, hidden_dim, rng),
        store.Create(base + ".a_self", hidden_dim, 1, rng),
        store.Create(base + ".a_neigh", hidden_dim, 1, rng)});
    d = hidden_dim;
  }
}

Var Gat::Forward(const GraphBatch& g,
                 const NeighbourSample& /*sample*/) const {
  const int n = g.num_nodes();
  const Matrix mask = AdjacencyMask(g);

  Var h = nn::Constant(g.features);
  for (const auto& layer : layers_) {
    const Var hw = layer.proj.Forward(h);               // N×D
    const Var f = nn::MatMul(hw, layer.attn_self);      // N×1: a_selfᵀ·Wh_i
    const Var gvec = nn::MatMul(hw, layer.attn_neigh);  // N×1: a_neighᵀ·Wh_j
    // Attention coefficients α_ij = softmax_j(leakyrelu(f_i + g_j)) over
    // the neighborhood (plus self). The coefficients are treated as
    // constants w.r.t. the parameters (detached attention): gradients flow
    // through the value path α·(HW), which is sufficient at the sizes the
    // ablation uses and keeps the op set small.
    Matrix alpha(n, n);
    for (int i = 0; i < n; ++i) {
      float mx = -1e30f;
      for (int j = 0; j < n; ++j) {
        if (mask.at(i, j) == 0.0f) continue;
        const float s = f->value.at(i, 0) + gvec->value.at(j, 0);
        const float e = s > 0.0f ? s : 0.2f * s;
        alpha.at(i, j) = e;
        mx = std::max(mx, e);
      }
      float denom = 0.0f;
      for (int j = 0; j < n; ++j) {
        if (mask.at(i, j) == 0.0f) continue;
        alpha.at(i, j) = std::exp(alpha.at(i, j) - mx);
        denom += alpha.at(i, j);
      }
      if (denom > 0.0f) {
        for (int j = 0; j < n; ++j) {
          if (mask.at(i, j) != 0.0f) alpha.at(i, j) /= denom;
        }
      }
    }
    h = nn::Relu(nn::MatMul(nn::Constant(std::move(alpha)), hw));
  }
  return h;
}

NativeEncoder::NativeEncoder(nn::ParamStore& store, const std::string& name,
                             int in_dim, int hidden_dim, Rng& rng)
    : proj_(store, name + ".native", in_dim, hidden_dim, rng),
      hidden_(hidden_dim) {}

Var NativeEncoder::Forward(const GraphBatch& g,
                           const NeighbourSample& /*sample*/) const {
  return nn::Relu(proj_.Forward(nn::Constant(g.features)));
}

const char* EncoderKindName(EncoderKind k) {
  switch (k) {
    case EncoderKind::kGraphSage:
      return "GraphSAGE";
    case EncoderKind::kGcn:
      return "GCN";
    case EncoderKind::kGat:
      return "GAT";
    case EncoderKind::kNative:
      return "Native";
  }
  return "?";
}

std::unique_ptr<Encoder> MakeEncoder(EncoderKind kind, nn::ParamStore& store,
                                     const std::string& name, int in_dim,
                                     int hidden_dim, Rng& rng) {
  switch (kind) {
    case EncoderKind::kGraphSage:
      return std::make_unique<GraphSage>(store, name, in_dim, hidden_dim,
                                         /*layers=*/2, /*sample_p=*/3, rng);
    case EncoderKind::kGcn:
      return std::make_unique<Gcn>(store, name, in_dim, hidden_dim,
                                   /*layers=*/2, rng);
    case EncoderKind::kGat:
      return std::make_unique<Gat>(store, name, in_dim, hidden_dim,
                                   /*layers=*/2, rng);
    case EncoderKind::kNative:
      return std::make_unique<NativeEncoder>(store, name, in_dim, hidden_dim,
                                             rng);
  }
  return nullptr;
}

}  // namespace tango::gnn
