// Network building blocks: Linear layers, the 3-layer ReLU MLP the paper
// uses for both actor and critic (256/128/32 hidden units, §5.3.2), and a
// parameter registry that feeds the Adam optimizer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/autograd.h"

namespace tango {
class ThreadPool;
}  // namespace tango

namespace tango::nn {

/// Collects trainable parameters so optimizers can iterate them.
class ParamStore {
 public:
  Var Create(const std::string& name, int rows, int cols, Rng& rng);
  Var CreateZero(const std::string& name, int rows, int cols);
  const std::vector<Var>& params() const { return params_; }
  const std::vector<std::string>& names() const { return names_; }
  std::size_t ParamCount() const;
  void ZeroGrads();

 private:
  std::vector<Var> params_;
  std::vector<std::string> names_;
};

/// Fully-connected layer y = xW + b.
class Linear {
 public:
  Linear() = default;
  Linear(ParamStore& store, const std::string& name, int in, int out,
         Rng& rng);
  Var Forward(const Var& x) const;
  int in_features() const { return in_; }
  int out_features() const { return out_; }
  const Var& weight() const { return w_; }
  const Var& bias() const { return b_; }

 private:
  Var w_;
  Var b_;
  int in_ = 0;
  int out_ = 0;
};

/// Copy parameter values from `src` into `dst` (same structure required).
void CopyParams(const ParamStore& src, ParamStore& dst);

/// Polyak soft update: dst ← (1−tau)·dst + tau·src. Used for SAC targets.
void SoftUpdateParams(const ParamStore& src, ParamStore& dst, float tau);

/// Multi-layer perceptron: ReLU between layers, linear output.
class Mlp {
 public:
  Mlp() = default;
  /// `dims` = {in, h1, ..., out}.
  Mlp(ParamStore& store, const std::string& name, std::vector<int> dims,
      Rng& rng);

  /// The taped forward: per layer MatMul, the bias Add and (but for the
  /// last layer) Relu, the nodes and values those ops make, bit for bit
  /// (DESIGN.md §14, "Decision forward on the pool"). The tape is built
  /// first, on the caller, in the order the ops allocate it; then the
  /// values are filled in row bands, each band running every layer for its
  /// own rows, one band per slot of `pool`. A null pool, or an input with
  /// fewer than two bands' worth of rows, fills everything as one band on
  /// the caller. Pool threads allocate nothing.
  Var Forward(const Var& x, ThreadPool* pool = nullptr) const;

  /// The paper's actor/critic body: in → 256 → 128 → 32 → out, ReLU.
  static Mlp PaperHead(ParamStore& store, const std::string& name, int in,
                       int out, Rng& rng);

 private:
  std::vector<Linear> layers_;
};

}  // namespace tango::nn
