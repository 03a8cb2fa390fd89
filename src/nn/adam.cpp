#include "nn/adam.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

namespace tango::nn {

namespace {

/// Elements per Adam tile: big parameters split into slices this long.
constexpr std::size_t kTileElems = 8192;

}  // namespace

Adam::Adam(const ParamStore& store, AdamConfig cfg)
    : params_(store.params()), cfg_(cfg) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (std::size_t k = 0; k < params_.size(); ++k) {
    const Matrix& value = params_[k]->value;
    m_.emplace_back(value.rows(), value.cols());
    v_.emplace_back(value.rows(), value.cols());
    for (std::size_t i = 0; i < value.size(); i += kTileElems) {
      tiles_.push_back({k, i, std::min(value.size(), i + kTileElems)});
    }
  }
}

float Adam::Step(ThreadPool* pool) {
  ++t_;
  // Global gradient norm for optional clipping.
  double norm_sq = 0.0;
  for (auto& p : params_) {
    if (!p->grad.SameShape(p->value)) p->grad = Matrix(p->value.rows(), p->value.cols());
    const float* g = p->grad.data();
    for (std::size_t i = 0; i < p->grad.size(); ++i) {
      norm_sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
    }
  }
  const float norm = static_cast<float>(std::sqrt(norm_sq));
  float scale = 1.0f;
  if (cfg_.grad_clip > 0.0f && norm > cfg_.grad_clip) {
    scale = cfg_.grad_clip / norm;
  }

  const float bc1 = 1.0f - std::pow(cfg_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(cfg_.beta2, static_cast<float>(t_));
  if (pool == nullptr) {
    for (const Tile& tile : tiles_) Update(tile, scale, bc1, bc2);
  } else {
    const float coeffs[3] = {scale, bc1, bc2};
    pool->ParallelFor(tiles_.size(), [this, &coeffs](std::size_t t, int) {
      Update(tiles_[t], coeffs[0], coeffs[1], coeffs[2]);
    });
  }
  return norm;
}

void Adam::Update(const Tile& tile, float scale, float bc1, float bc2) {
  float* x = params_[tile.k]->value.data();
  float* g = params_[tile.k]->grad.data();
  float* mm = m_[tile.k].data();
  float* vv = v_[tile.k].data();
  for (std::size_t i = tile.begin; i < tile.end; ++i) {
    const float gi = g[i] * scale;
    mm[i] = cfg_.beta1 * mm[i] + (1.0f - cfg_.beta1) * gi;
    vv[i] = cfg_.beta2 * vv[i] + (1.0f - cfg_.beta2) * gi * gi;
    const float mhat = mm[i] / bc1;
    const float vhat = vv[i] / bc2;
    x[i] -= cfg_.lr * mhat / (std::sqrt(vhat) + cfg_.eps);
    g[i] = 0.0f;  // zero the gradient for the next step
  }
}

}  // namespace tango::nn
