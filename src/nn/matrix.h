// Dense row-major float matrix — the storage type of the autograd engine.
// Sized for the paper's networks (3-layer MLPs of 256/128/32 units, graphs
// of up to ~1000 nodes), so one register-tiled kernel (nn/gemm.h) beats the
// complexity of a BLAS dependency.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace tango::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, float fill = 0.0f)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
              fill) {}

  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(int r, int c) {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }
  float at(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Reshape to rows×cols keeping the buffer, so a resize within the
  /// capacity the matrix already has never allocates. Entries are
  /// unspecified afterwards: this is for scratch that is overwritten.
  void Resize(int rows, int cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<std::size_t>(rows) *
                 static_cast<std::size_t>(cols));
  }

  /// Xavier/Glorot-uniform initialization, deterministic under `rng`.
  void XavierInit(Rng& rng);

  Matrix Transposed() const;

  /// this * other (asserts on shape mismatch).
  Matrix MatMul(const Matrix& other) const;
  /// thisᵀ * other, without materialising thisᵀ.
  Matrix TransposedMatMul(const Matrix& other) const;

  /// In-place accumulate: this += other (same shape).
  void Add(const Matrix& other);
  /// this += scale * other.
  void AddScaled(const Matrix& other, float scale);

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

}  // namespace tango::nn
