// Graph encoders for the centralized BE scheduler (§5.3.2).
//
// The paper's DCG-BE uses GraphSAGE (2-layer mean aggregation with neighbor
// sampling p); Figure 11(d) ablates it against GCN, GAT, and a native (no
// GNN) A2C. All four are implemented here on top of the autograd engine.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/module.h"

namespace tango::gnn {

/// One encoding input: node features plus adjacency.
struct GraphBatch {
  nn::Matrix features;               // N×F
  std::vector<std::vector<int>> adj; // adjacency lists (no self loops)
  int num_nodes() const { return features.rows(); }
};

/// The neighbours one encode aggregates over (nn::NeighbourMean's input).
using nn::NeighbourSample;

class Encoder {
 public:
  virtual ~Encoder() = default;
  /// Draw the neighbour sample of one encode from `rng`. Encoders that do
  /// not sample draw nothing and return an empty sample.
  virtual NeighbourSample Sample(const GraphBatch& g, Rng& rng) const;
  /// Per-node embeddings (N×out_dim) of `g`, aggregated over `sample`.
  virtual nn::Var Forward(const GraphBatch& g,
                          const NeighbourSample& sample) const = 0;
  /// Sample, then Forward: one full encode.
  nn::Var Encode(const GraphBatch& g, Rng& rng) const {
    return Forward(g, Sample(g, rng));
  }
  virtual int out_dim() const = 0;
  virtual std::string name() const = 0;
};

/// GraphSAGE with mean aggregation (Hamilton et al. 2017), Eq. 9 of the
/// paper: v^{l+1}_i = σ(W · MEAN(v^l_i ∪ {v^l_j : j ∈ N(i)})), with at most
/// `sample_p` neighbors sampled without replacement per node and L layers.
class GraphSage : public Encoder {
 public:
  GraphSage(nn::ParamStore& store, const std::string& name, int in_dim,
            int hidden_dim, int layers, int sample_p, Rng& rng);
  /// At most `sample_p` neighbours per node and layer, drawn without
  /// replacement; nodes of degree ≤ p keep all neighbours and draw nothing.
  NeighbourSample Sample(const GraphBatch& g, Rng& rng) const override;
  nn::Var Forward(const GraphBatch& g,
                  const NeighbourSample& sample) const override;
  int out_dim() const override { return hidden_; }
  std::string name() const override { return "GraphSAGE"; }
  int sample_p() const { return sample_p_; }

 private:
  std::vector<nn::Linear> layers_;
  int hidden_;
  int sample_p_;
};

/// Two-layer GCN with symmetric normalization D^{-1/2}(A+I)D^{-1/2}.
class Gcn : public Encoder {
 public:
  Gcn(nn::ParamStore& store, const std::string& name, int in_dim,
      int hidden_dim, int layers, Rng& rng);
  nn::Var Forward(const GraphBatch& g,
                  const NeighbourSample& sample) const override;
  int out_dim() const override { return hidden_; }
  std::string name() const override { return "GCN"; }

 private:
  std::vector<nn::Linear> layers_;
  int hidden_;
};

/// Single-head GAT layers with LeakyReLU attention over adjacency (+self).
class Gat : public Encoder {
 public:
  Gat(nn::ParamStore& store, const std::string& name, int in_dim,
      int hidden_dim, int layers, Rng& rng);
  nn::Var Forward(const GraphBatch& g,
                  const NeighbourSample& sample) const override;
  int out_dim() const override { return hidden_; }
  std::string name() const override { return "GAT"; }

 private:
  struct Layer {
    nn::Linear proj;
    nn::Var attn_self;   // D×1
    nn::Var attn_neigh;  // D×1
  };
  std::vector<Layer> layers_;
  int hidden_;
};

/// No topology encoding: a per-node linear projection of raw features
/// (Figure 11(d)'s "Native-A2C").
class NativeEncoder : public Encoder {
 public:
  NativeEncoder(nn::ParamStore& store, const std::string& name, int in_dim,
                int hidden_dim, Rng& rng);
  nn::Var Forward(const GraphBatch& g,
                  const NeighbourSample& sample) const override;
  int out_dim() const override { return hidden_; }
  std::string name() const override { return "Native"; }

 private:
  nn::Linear proj_;
  int hidden_;
};

enum class EncoderKind { kGraphSage, kGcn, kGat, kNative };
const char* EncoderKindName(EncoderKind k);

/// Factory with the paper's defaults (L = 2, p = 3 as in Figure 7).
std::unique_ptr<Encoder> MakeEncoder(EncoderKind kind, nn::ParamStore& store,
                                     const std::string& name, int in_dim,
                                     int hidden_dim, Rng& rng);

}  // namespace tango::gnn
