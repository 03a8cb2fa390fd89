#include "nn/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define TANGO_GEMM_AVX2 1
#else
#define TANGO_GEMM_AVX2 0
#endif

namespace tango::nn {

namespace {

using V4 = float __attribute__((vector_size(16)));
using V8 = float __attribute__((vector_size(32)));

/// One product: element (i, k) of the left operand is
/// a[i·row_stride + k·k_stride], so the same body serves a·b (row_stride k,
/// k_stride 1) and aᵀ·b (row_stride 1, k_stride m). Row k of b starts at
/// b + k·ldb and row i of out at out + i·ldo, so a block of columns is a
/// pointer offset.
struct GemmArgs {
  const float* a;
  std::size_t row_stride;
  std::size_t k_stride;
  const float* b;  // k×n, rows ldb apart
  std::size_t ldb;
  float* out;  // m×n, rows ldo apart
  std::size_t ldo;
  int m;
  int k;
  int n;
  /// Sums resume from `out` instead of starting at +0.0f: the caller feeds
  /// k in consecutive slices, which a float store and reload keep exact.
  bool resume = false;
};

/// A row's nonzeros are packed at most this many k at a time, on the stack;
/// longer rows carry their partial sums through `out` between chunks, which
/// a float store and reload keep exact.
constexpr int kChunk = 256;

/// out[0, kVecs·lanes) of one row, summed over the packed (idx, val) pairs.
/// `first` starts the sums at +0.0f; otherwise they resume from `out`. V is
/// a vector type, or float for the columns past the last full vector.
template <class V, int kVecs>
[[gnu::always_inline]] inline void Strip(const int* idx, const float* val,
                                         int nnz, const float* b,
                                         std::size_t ldb, float* out,
                                         bool first) {
  constexpr int kLanes = sizeof(V) / sizeof(float);
  V acc[kVecs];
#pragma GCC unroll 16
  for (int v = 0; v < kVecs; ++v) {
    if (first) {
      acc[v] = V{};
    } else {
      std::memcpy(&acc[v], out + v * kLanes, sizeof(V));
    }
  }
  for (int t = 0; t < nnz; ++t) {
    const float a = val[t];
    const float* brow = b + static_cast<std::size_t>(idx[t]) * ldb;
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) {
      V bv;
      std::memcpy(&bv, brow + v * kLanes, sizeof(V));
      // Rounded, then added: -ffp-contract=off keeps the two unfused.
      const V prod = a * bv;
      acc[v] += prod;
    }
  }
#pragma GCC unroll 16
  for (int v = 0; v < kVecs; ++v) {
    std::memcpy(out + v * kLanes, &acc[v], sizeof(V));
  }
}

/// The whole product: register strips of kVecs vectors, then one strip each
/// of 4, 2 and 1 vectors for what is left, then one float column at a time.
template <class V, int kVecs>
[[gnu::always_inline]] inline void GemmBody(const GemmArgs& g) {
  constexpr int kLanes = sizeof(V) / sizeof(float);
  constexpr int kTile = kVecs * kLanes;
  const std::size_t ldb = g.ldb;
  int idx[kChunk];
  float val[kChunk];
  for (int i = 0; i < g.m; ++i) {
    float* orow = g.out + static_cast<std::size_t>(i) * g.ldo;
    if (g.k == 0) {
      if (!g.resume) std::fill(orow, orow + g.n, 0.0f);
      continue;
    }
    const float* arow = g.a + static_cast<std::size_t>(i) * g.row_stride;
    for (int k0 = 0; k0 < g.k; k0 += kChunk) {
      const int k1 = std::min(g.k, k0 + kChunk);
      // Branch-free pack: every k is written, only nonzeros advance.
      int nnz = 0;
      for (int k = k0; k < k1; ++k) {
        const float a = arow[static_cast<std::size_t>(k) * g.k_stride];
        idx[nnz] = k;
        val[nnz] = a;
        nnz += a != 0.0f ? 1 : 0;
      }
      const bool first = k0 == 0 && !g.resume;
      if (nnz == 0 && !first) continue;
      int j = 0;
      for (; j + kTile <= g.n; j += kTile) {
        Strip<V, kVecs>(idx, val, nnz, g.b + j, ldb, orow + j, first);
      }
      if (j + 4 * kLanes <= g.n) {
        Strip<V, 4>(idx, val, nnz, g.b + j, ldb, orow + j, first);
        j += 4 * kLanes;
      }
      if (j + 2 * kLanes <= g.n) {
        Strip<V, 2>(idx, val, nnz, g.b + j, ldb, orow + j, first);
        j += 2 * kLanes;
      }
      if (j + kLanes <= g.n) {
        Strip<V, 1>(idx, val, nnz, g.b + j, ldb, orow + j, first);
        j += kLanes;
      }
      for (; j < g.n; ++j) {
        Strip<float, 1>(idx, val, nnz, g.b + j, ldb, orow + j, first);
      }
    }
  }
}

/// Eight 4-lane accumulators: half the SSE register file.
void GemmBaseline(const GemmArgs& g) { GemmBody<V4, 8>(g); }

#if TANGO_GEMM_AVX2
/// Eight 8-lane accumulators.
[[gnu::target("avx2")]] void GemmAvx2(const GemmArgs& g) {
  GemmBody<V8, 8>(g);
}
#endif

void Run(GemmIsa isa, const GemmArgs& g) {
  if (isa == GemmIsa::kBaseline) {
    GemmBaseline(g);
    return;
  }
  TANGO_CHECK(ActiveGemmIsa() == GemmIsa::kAvx2,
              "AVX2 gemm requested on a host without AVX2");
#if TANGO_GEMM_AVX2
  GemmAvx2(g);
#endif
}

}  // namespace

bool GemmIsaSupported(GemmIsa isa) {
  if (isa == GemmIsa::kBaseline) return true;
#if TANGO_GEMM_AVX2
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

GemmIsa ActiveGemmIsa() {
  static const GemmIsa isa = GemmIsaSupported(GemmIsa::kAvx2)
                                 ? GemmIsa::kAvx2
                                 : GemmIsa::kBaseline;
  return isa;
}

TANGO_HOT void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                          GemmIsa isa) {
  MatMulRowsInto(a, b, 0, a.rows(), out, isa);
}

TANGO_HOT void MatMulRowsInto(const Matrix& a, const Matrix& b, int r0, int r1,
                              Matrix* out, GemmIsa isa) {
  TANGO_CHECK(a.cols() == b.rows(), "matmul shape mismatch %dx%d * %dx%d",
              a.rows(), a.cols(), b.rows(), b.cols());
  TANGO_CHECK(out->rows() == a.rows() && out->cols() == b.cols(),
              "matmul output is %dx%d, want %dx%d", out->rows(), out->cols(),
              a.rows(), b.cols());
  TANGO_CHECK(0 <= r0 && r0 <= r1 && r1 <= a.rows(),
              "rows [%d,%d) outside a %d-row product", r0, r1, a.rows());
  const auto k = static_cast<std::size_t>(a.cols());
  const auto n = static_cast<std::size_t>(b.cols());
  const auto first = static_cast<std::size_t>(r0);
  Run(isa, {a.data() + first * k, k, 1, b.data(), n, out->data() + first * n,
            n, r1 - r0, a.cols(), b.cols()});
}

TANGO_HOT void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* out,
                                GemmIsa isa) {
  MatMulTransABlockInto(a, b, {0, a.cols(), 0, b.cols()}, out, isa);
}

TANGO_HOT void MatMulTransABlockInto(const Matrix& a, const Matrix& b,
                                     const GemmBlock& block, Matrix* out,
                                     GemmIsa isa) {
  TANGO_CHECK(a.rows() == b.rows(), "matmul shape mismatch %dx%d^T * %dx%d",
              a.rows(), a.cols(), b.rows(), b.cols());
  TANGO_CHECK(0 <= block.r0 && block.r0 <= block.r1 && block.r1 <= a.cols() &&
                  0 <= block.c0 && block.c0 <= block.c1 &&
                  block.c1 <= b.cols(),
              "block [%d,%d)x[%d,%d) outside a %dx%d product", block.r0,
              block.r1, block.c0, block.c1, a.cols(), b.cols());
  TANGO_CHECK(out->rows() == block.r1 - block.r0 &&
                  out->cols() == block.c1 - block.c0,
              "matmul output is %dx%d, want %dx%d", out->rows(), out->cols(),
              block.r1 - block.r0, block.c1 - block.c0);
  Run(isa, {a.data() + block.r0, 1, static_cast<std::size_t>(a.cols()),
            b.data() + block.c0, static_cast<std::size_t>(b.cols()),
            out->data(), static_cast<std::size_t>(out->cols()),
            block.r1 - block.r0, a.rows(), block.c1 - block.c0});
}

TANGO_HOT void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* out,
                                GemmIsa isa) {
  TANGO_CHECK(a.cols() == b.cols(), "matmul shape mismatch %dx%d * %dx%d^T",
              a.rows(), a.cols(), b.rows(), b.cols());
  TANGO_CHECK(out->rows() == a.rows() && out->cols() == b.rows(),
              "matmul output is %dx%d, want %dx%d", out->rows(), out->cols(),
              a.rows(), b.rows());
  const int k = a.cols();
  const int n = b.rows();
  const auto ldo = static_cast<std::size_t>(n);
  if (k == 0) {
    out->Fill(0.0f);
    return;
  }
  // bᵀ one block at a time, on the stack: columns [j0, j0 + kBlockCols) of
  // the output over k in [k0, k0 + kChunk). Later k slices resume their
  // sums from `out`, which keeps every element's k order.
  constexpr int kBlockCols = 64;
  float bt[kChunk * kBlockCols];
  for (int j0 = 0; j0 < n; j0 += kBlockCols) {
    const int nb = std::min(kBlockCols, n - j0);
    for (int k0 = 0; k0 < k; k0 += kChunk) {
      const int kb = std::min(kChunk, k - k0);
      for (int jj = 0; jj < nb; ++jj) {
        const float* brow = b.data() +
                            static_cast<std::size_t>(j0 + jj) *
                                static_cast<std::size_t>(k) +
                            static_cast<std::size_t>(k0);
        for (int kk = 0; kk < kb; ++kk) {
          bt[static_cast<std::size_t>(kk) * static_cast<std::size_t>(nb) +
             static_cast<std::size_t>(jj)] = brow[kk];
        }
      }
      Run(isa, {a.data() + k0, static_cast<std::size_t>(k), 1, bt,
                static_cast<std::size_t>(nb), out->data() + j0, ldo, a.rows(),
                kb, nb, /*resume=*/k0 > 0});
    }
  }
}

Matrix SoftmaxProbs(const Matrix& logits, const Matrix* mask) {
  Matrix p(logits.rows(), logits.cols());
  for (int r = 0; r < logits.rows(); ++r) {
    float maxv = -1e30f;
    for (int c = 0; c < logits.cols(); ++c) {
      if (mask != nullptr && mask->at(r, c) == 0.0f) continue;
      maxv = std::max(maxv, logits.at(r, c));
    }
    float denom = 0.0f;
    for (int c = 0; c < logits.cols(); ++c) {
      if (mask != nullptr && mask->at(r, c) == 0.0f) {
        p.at(r, c) = 0.0f;
        continue;
      }
      const float e = std::exp(logits.at(r, c) - maxv);
      p.at(r, c) = e;
      denom += e;
    }
    if (denom > 0.0f) {
      for (int c = 0; c < logits.cols(); ++c) p.at(r, c) /= denom;
    }
  }
  return p;
}

}  // namespace tango::nn
