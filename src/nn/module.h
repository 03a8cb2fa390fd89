// Network building blocks: Linear layers, the 3-layer ReLU MLP the paper
// uses for both actor and critic (256/128/32 hidden units, §5.3.2), and a
// parameter registry that feeds the Adam optimizer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/autograd.h"

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

enum class Activation { kRelu, kTanh, kNone };

/// Multi-layer perceptron with a configurable head activation.
class Mlp {
 public:
  Mlp() = default;
  /// `dims` = {in, h1, ..., out}; hidden activations ReLU, output linear.
  Mlp(ParamStore& store, const std::string& name, std::vector<int> dims,
      Rng& rng, Activation hidden = Activation::kRelu);
  Var Forward(const Var& x) const;

  /// The paper's actor/critic body: in → 256 → 128 → 32 → out, ReLU.
  static Mlp PaperHead(ParamStore& store, const std::string& name, int in,
                       int out, Rng& rng);

 private:
  std::vector<Linear> layers_;
  Activation hidden_ = Activation::kRelu;
};

}  // namespace tango::nn
