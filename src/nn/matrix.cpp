#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/gemm.h"

namespace tango::nn {

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (int r = 0; r < m.rows(); ++r) {
    TANGO_CHECK(rows[static_cast<std::size_t>(r)].size() ==
                    static_cast<std::size_t>(m.cols()),
                "ragged row %d", r);
    for (int c = 0; c < m.cols(); ++c) {
      m.at(r, c) = rows[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
    }
  }
  return m;
}

void Matrix::XavierInit(Rng& rng) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(rows_ + cols_));
  for (auto& v : data_) {
    v = static_cast<float>(rng.Uniform(-bound, bound));
  }
}

Matrix Matrix::Transposed() const {
  // 16×16 blocks keep both the strided reads and the writes in cache.
  constexpr int kBlock = 16;
  Matrix t(cols_, rows_);
  const float* src = data();
  float* dst = t.data();
  const auto rows = static_cast<std::size_t>(rows_);
  const auto cols = static_cast<std::size_t>(cols_);
  for (std::size_t r0 = 0; r0 < rows; r0 += kBlock) {
    const std::size_t r1 = std::min(rows, r0 + kBlock);
    for (std::size_t c0 = 0; c0 < cols; c0 += kBlock) {
      const std::size_t c1 = std::min(cols, c0 + kBlock);
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = c0; c < c1; ++c) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
  return t;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Matrix out(rows_, other.cols_);
  MatMulInto(*this, other, &out);
  return out;
}

Matrix Matrix::TransposedMatMul(const Matrix& other) const {
  Matrix out(cols_, other.cols_);
  MatMulTransAInto(*this, other, &out);
  return out;
}

void Matrix::Add(const Matrix& other) {
  TANGO_CHECK(SameShape(other), "add shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::AddScaled(const Matrix& other, float scale) {
  TANGO_CHECK(SameShape(other), "addscaled shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

}  // namespace tango::nn
