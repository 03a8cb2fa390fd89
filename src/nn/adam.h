// Adam optimizer (Kingma & Ba) — the paper trains DCG-BE with Adam at a
// fixed learning rate of 2e-4 (§5.3.2).
#pragma once

#include <vector>

#include "nn/module.h"

namespace tango {
class ThreadPool;
}  // namespace tango

namespace tango::nn {

struct AdamConfig {
  float lr = 2e-4f;  // paper's fixed learning rate
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  /// Optional global-norm gradient clip (0 disables).
  float grad_clip = 5.0f;
};

class Adam {
 public:
  explicit Adam(const ParamStore& store, AdamConfig cfg = {});

  /// Apply one update from the gradients currently stored on the params,
  /// then zero them. Returns the pre-clip global gradient norm. The norm is
  /// summed serially; with a `pool`, the per-element update runs on it in
  /// tiles of whole parameters or parameter slices, which changes no float
  /// since every element is updated on its own.
  float Step(ThreadPool* pool = nullptr);

  std::int64_t steps() const { return t_; }
  const AdamConfig& config() const { return cfg_; }

 private:
  /// Elements [begin, end) of parameter k: one task of a pooled update.
  struct Tile {
    std::size_t k;
    std::size_t begin;
    std::size_t end;
  };
  void Update(const Tile& tile, float scale, float bc1, float bc2);

  std::vector<Var> params_;
  std::vector<Tile> tiles_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  AdamConfig cfg_;
  std::int64_t t_ = 0;
};

}  // namespace tango::nn
