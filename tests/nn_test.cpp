// Tests for the autograd engine: every op is verified against numerical
// (finite-difference) gradients, plus Adam convergence, module plumbing,
// the GEMM kernel's exactness, the split backward against Backward and the
// banded Mlp forward against the composed ops.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "nn/adam.h"
#include "nn/autograd.h"
#include "nn/gemm.h"
#include "nn/module.h"

namespace tango::nn {
namespace {

Matrix RandomMatrix(int r, int c, Rng& rng, float scale = 1.0f) {
  Matrix m(r, c);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) {
      m.at(i, j) = static_cast<float>(rng.Uniform(-scale, scale));
    }
  }
  return m;
}

/// Numerically check d(scalar_fn)/d(input) against autograd for every entry
/// of `input`'s value.
void CheckGradients(const Var& input,
                    const std::function<Var()>& scalar_fn,
                    float eps = 1e-2f, float tol = 2e-2f) {
  Var out = scalar_fn();
  ZeroGrad(out);
  Backward(out);
  const Matrix analytic = input->grad;
  for (int r = 0; r < input->value.rows(); ++r) {
    for (int c = 0; c < input->value.cols(); ++c) {
      const float saved = input->value.at(r, c);
      input->value.at(r, c) = saved + eps;
      const float up = ScalarValue(scalar_fn());
      input->value.at(r, c) = saved - eps;
      const float down = ScalarValue(scalar_fn());
      input->value.at(r, c) = saved;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(analytic.at(r, c), numeric, tol)
          << "entry (" << r << "," << c << ")";
    }
  }
}

TEST(Autograd, MatMulForward) {
  Var a = Constant(Matrix::FromRows({{1, 2}, {3, 4}}));
  Var b = Constant(Matrix::FromRows({{5, 6}, {7, 8}}));
  const Var c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c->value.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c->value.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c->value.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c->value.at(1, 1), 50);
}

TEST(Autograd, MatMulGradients) {
  Rng rng(1);
  Var a = Parameter(RandomMatrix(3, 4, rng));
  Var b = Parameter(RandomMatrix(4, 2, rng));
  CheckGradients(a, [&] { return Sum(MatMul(a, b)); });
  CheckGradients(b, [&] { return Sum(MatMul(a, b)); });
}

TEST(Autograd, AddBroadcastGradients) {
  Rng rng(2);
  Var x = Parameter(RandomMatrix(3, 4, rng));
  Var bias = Parameter(RandomMatrix(1, 4, rng));
  CheckGradients(bias, [&] { return Sum(Add(x, bias)); });
  CheckGradients(x, [&] { return Sum(Add(x, bias)); });
  // Broadcast bias gradient = column sums of upstream (all ones here ×3 rows).
  Var out = Sum(Add(x, bias));
  ZeroGrad(out);
  Backward(out);
  for (int c = 0; c < 4; ++c) EXPECT_FLOAT_EQ(bias->grad.at(0, c), 3.0f);
}

TEST(Autograd, SubMulScaleGradients) {
  Rng rng(3);
  Var a = Parameter(RandomMatrix(2, 3, rng));
  Var b = Parameter(RandomMatrix(2, 3, rng));
  CheckGradients(a, [&] { return Sum(Sub(a, b)); });
  CheckGradients(b, [&] { return Sum(Mul(a, b)); });
  CheckGradients(a, [&] { return Sum(Scale(a, -2.5f)); });
}

TEST(Autograd, ActivationGradients) {
  Rng rng(4);
  // Keep away from the ReLU kink for finite differences.
  Var a = Parameter(RandomMatrix(3, 3, rng));
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (std::abs(a->value.at(r, c)) < 0.15f) a->value.at(r, c) = 0.5f;
    }
  }
  CheckGradients(a, [&] { return Sum(Relu(a)); });
}

TEST(Autograd, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Var logits = Constant(RandomMatrix(4, 6, rng, 3.0f));
  const Var p = Softmax(logits);
  for (int r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 6; ++c) {
      sum += p->value.at(r, c);
      EXPECT_GE(p->value.at(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Autograd, SoftmaxMaskZeroesEntries) {
  Var logits = Constant(Matrix::FromRows({{10.0f, 1.0f, 5.0f}}));
  Matrix mask(1, 3, 1.0f);
  mask.at(0, 0) = 0.0f;  // best logit masked out
  const Var p = Softmax(logits, &mask);
  EXPECT_FLOAT_EQ(p->value.at(0, 0), 0.0f);
  EXPECT_NEAR(p->value.at(0, 1) + p->value.at(0, 2), 1.0f, 1e-5f);
  EXPECT_GT(p->value.at(0, 2), p->value.at(0, 1));
}

TEST(Autograd, SoftmaxGradients) {
  Rng rng(6);
  Var logits = Parameter(RandomMatrix(2, 4, rng));
  Var weights = Constant(RandomMatrix(2, 4, rng));
  CheckGradients(logits, [&] { return Sum(Mul(Softmax(logits), weights)); });
}

TEST(Autograd, LogSoftmaxGradients) {
  Rng rng(7);
  Var logits = Parameter(RandomMatrix(2, 5, rng));
  CheckGradients(logits,
                 [&] { return Sum(GatherCols(LogSoftmax(logits), {1, 3})); });
}

TEST(Autograd, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(8);
  Var logits = Constant(RandomMatrix(3, 4, rng, 2.0f));
  const Var ls = LogSoftmax(logits);
  const Var p = Softmax(logits);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(ls->value.at(r, c), std::log(p->value.at(r, c)), 1e-4f);
    }
  }
}

TEST(Autograd, GatherColsPicksOnePerRow) {
  Var a = Constant(Matrix::FromRows({{1, 2, 3}, {4, 5, 6}}));
  const Var picked = GatherCols(a, {2, 0});
  EXPECT_EQ(picked->value.rows(), 2);
  EXPECT_EQ(picked->value.cols(), 1);
  EXPECT_FLOAT_EQ(picked->value.at(0, 0), 3);
  EXPECT_FLOAT_EQ(picked->value.at(1, 0), 4);
}

TEST(Autograd, GatherGradientsAccumulate) {
  // Two gathers pick a(0,0) and a(2,2): both add into the same entries.
  Rng rng(9);
  Var a = Parameter(RandomMatrix(3, 3, rng));
  CheckGradients(a, [&] {
    return Sum(Add(GatherCols(a, {0, 1, 2}), GatherCols(a, {0, 0, 2})));
  });
}

TEST(Autograd, ConcatColsGradients) {
  Rng rng(10);
  Var a = Parameter(RandomMatrix(2, 2, rng));
  Var b = Parameter(RandomMatrix(2, 3, rng));
  const Var cat = ConcatCols(a, b);
  EXPECT_EQ(cat->value.cols(), 5);
  CheckGradients(a, [&] { return Sum(ConcatCols(a, b)); });
  CheckGradients(b, [&] { return Sum(ConcatCols(a, b)); });
}

TEST(Autograd, TransposeGradients) {
  Rng rng(11);
  Var a = Parameter(RandomMatrix(2, 4, rng));
  const Var t = Transpose(a);
  EXPECT_EQ(t->value.rows(), 4);
  EXPECT_EQ(t->value.cols(), 2);
  Var w = Constant(RandomMatrix(4, 2, rng));
  CheckGradients(a, [&] { return Sum(Mul(Transpose(a), w)); });
}

TEST(Autograd, SumAndMeanToScalar) {
  Var a = Constant(Matrix::FromRows({{2, 4}, {6, 8}}));
  EXPECT_FLOAT_EQ(ScalarValue(Sum(a)), 20.0f);
  EXPECT_FLOAT_EQ(ScalarValue(Scale(Sum(a), 0.25f)), 5.0f);
}

TEST(Autograd, EntropyValueAndGradients) {
  // Uniform logits → entropy log(n).
  Var logits = Parameter(Matrix(1, 4, 0.0f));
  EXPECT_NEAR(ScalarValue(EntropyOfSoftmax(logits)), std::log(4.0f), 1e-5f);
  Rng rng(12);
  Var l2 = Parameter(RandomMatrix(2, 3, rng));
  CheckGradients(l2, [&] { return EntropyOfSoftmax(l2); });
}

TEST(Autograd, DiamondGraphAccumulatesGradients) {
  // y = sum(a∘a): d/da = 2a, via two paths through the same node.
  Var a = Parameter(Matrix::FromRows({{3.0f, -2.0f}}));
  Var y = Sum(Mul(a, a));
  ZeroGrad(y);
  Backward(y);
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(a->grad.at(0, 1), -4.0f);
}

TEST(Autograd, ConstantsReceiveNoGradient) {
  Var a = Constant(Matrix(2, 2, 1.0f));
  Var b = Parameter(Matrix(2, 2, 2.0f));
  Var y = Sum(Mul(a, b));
  ZeroGrad(y);
  Backward(y);
  EXPECT_FALSE(a->grad.SameShape(a->value));  // never allocated
  EXPECT_TRUE(b->grad.SameShape(b->value));
}

// ----------------------------------------------------------------- Adam --

TEST(Adam, ConvergesOnLeastSquares) {
  // Fit w to minimize ||Xw − y||², X random, y = X·w*.
  Rng rng(13);
  const Matrix x = RandomMatrix(16, 3, rng);
  Matrix wstar(3, 1);
  wstar.at(0, 0) = 1.5f;
  wstar.at(1, 0) = -2.0f;
  wstar.at(2, 0) = 0.5f;
  const Matrix y = x.MatMul(wstar);

  ParamStore store;
  Var w = store.CreateZero("w", 3, 1);
  AdamConfig cfg;
  cfg.lr = 0.05f;
  Adam opt(store, cfg);
  float loss = 0.0f;
  for (int it = 0; it < 400; ++it) {
    Var diff = Sub(MatMul(Constant(x), w), Constant(y));
    Var l = Scale(Sum(Mul(diff, diff)), 1.0f / 16.0f);  // mean over rows
    loss = ScalarValue(l);
    Backward(l);
    opt.Step();
  }
  EXPECT_LT(loss, 1e-3f);
  EXPECT_NEAR(w->value.at(0, 0), 1.5f, 0.05f);
  EXPECT_NEAR(w->value.at(1, 0), -2.0f, 0.05f);
  EXPECT_NEAR(w->value.at(2, 0), 0.5f, 0.05f);
}

TEST(Adam, GradClipBoundsUpdateAndZeroesGrads) {
  ParamStore store;
  Var w = store.CreateZero("w", 1, 1);
  AdamConfig cfg;
  cfg.grad_clip = 1.0f;
  Adam opt(store, cfg);
  w->EnsureGrad().at(0, 0) = 100.0f;
  const float norm = opt.Step();
  EXPECT_FLOAT_EQ(norm, 100.0f);       // reported pre-clip
  EXPECT_FLOAT_EQ(w->grad.at(0, 0), 0.0f);  // zeroed after step
  EXPECT_EQ(opt.steps(), 1);
}

// -------------------------------------------------------------- modules --

TEST(Module, LinearShapesAndBias) {
  Rng rng(14);
  ParamStore store;
  Linear lin(store, "l", 3, 5, rng);
  const Var y = lin.Forward(Constant(Matrix(2, 3, 1.0f)));
  EXPECT_EQ(y->value.rows(), 2);
  EXPECT_EQ(y->value.cols(), 5);
  EXPECT_EQ(store.params().size(), 2u);  // w and b
}

TEST(Module, PaperHeadArchitecture) {
  // in → 256 → 128 → 32 → out, so 4 Linear layers = 8 parameter tensors.
  Rng rng(15);
  ParamStore store;
  Mlp mlp = Mlp::PaperHead(store, "actor", 9, 1, rng);
  EXPECT_EQ(store.params().size(), 8u);
  const Var y = mlp.Forward(Constant(Matrix(7, 9, 0.1f)));
  EXPECT_EQ(y->value.rows(), 7);
  EXPECT_EQ(y->value.cols(), 1);
  const std::size_t expected =
      9 * 256 + 256 + 256 * 128 + 128 + 128 * 32 + 32 + 32 * 1 + 1;
  EXPECT_EQ(store.ParamCount(), expected);
}

TEST(Module, CopyAndSoftUpdate) {
  Rng rng(16);
  ParamStore a, b;
  a.Create("w", 2, 2, rng);
  b.Create("w", 2, 2, rng);
  CopyParams(a, b);
  EXPECT_FLOAT_EQ(a.params()[0]->value.at(0, 0), b.params()[0]->value.at(0, 0));
  // Soft update moves b toward a by tau.
  a.params()[0]->value.at(0, 0) = 10.0f;
  b.params()[0]->value.at(0, 0) = 0.0f;
  SoftUpdateParams(a, b, 0.1f);
  EXPECT_NEAR(b.params()[0]->value.at(0, 0), 1.0f, 1e-5f);
}

TEST(Module, MlpGradientFlowsToAllLayers) {
  Rng rng(17);
  ParamStore store;
  Mlp mlp(store, "m", {4, 8, 3}, rng);
  Var y = Sum(mlp.Forward(Constant(Matrix(2, 4, 0.5f))));
  Backward(y);
  for (const auto& p : store.params()) {
    ASSERT_TRUE(p->grad.SameShape(p->value));
  }
  // At least the first layer weight should have a nonzero gradient.
  float norm = 0.0f;
  const auto& g = store.params()[0]->grad;
  for (int r = 0; r < g.rows(); ++r) {
    for (int c = 0; c < g.cols(); ++c) norm += std::abs(g.at(r, c));
  }
  EXPECT_GT(norm, 0.0f);
}

// ---- GEMM kernel (nn/gemm.h) ----------------------------------------------

/// The product the kernel must reproduce bit for bit: i-k-j order, sums
/// starting at +0.0f, zero entries of `a` skipped, each product rounded to
/// float before it is added. The volatile store forces that rounding
/// whatever the compiler's -ffp-contract, so a kernel built to fuse its
/// multiply-adds fails against it.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const float v = a.at(i, k);
      if (v == 0.0f) continue;
      for (int j = 0; j < b.cols(); ++j) {
        volatile float prod = v * b.at(k, j);
        out.at(i, j) += prod;
      }
    }
  }
  return out;
}

Matrix NaiveTranspose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) t.at(c, r) = a.at(r, c);
  }
  return t;
}

/// Bitwise equality, element by element: tells −0.0 from +0.0 and matches
/// NaN payloads, so "exact" means exact.
void ExpectSameBits(const Matrix& want, const Matrix& got,
                    const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  for (int r = 0; r < want.rows(); ++r) {
    for (int c = 0; c < want.cols(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(want.at(r, c)),
                std::bit_cast<std::uint32_t>(got.at(r, c)))
          << what << " entry (" << r << "," << c << "): want "
          << want.at(r, c) << ", got " << got.at(r, c);
    }
  }
}

/// A left operand with the inputs the zero skip must get right: ReLU-sparse
/// values, −0.0 entries and all-zero rows.
Matrix SparseOperand(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    const bool zero_row = rng.UniformInt(0, 7) == 0;
    for (int j = 0; j < cols; ++j) {
      const float v = static_cast<float>(rng.Uniform(-1.0, 1.0));
      float x = std::max(0.0f, v);  // ReLU: about half the entries are zero
      if (rng.UniformInt(0, 15) == 0) x = -0.0f;
      m.at(i, j) = zero_row ? 0.0f : x;
    }
  }
  return m;
}

/// Zeroes slice `k` of the left operand (column k of a for a·b, row k of a
/// for aᵀ·b) and puts inf and NaN in row k of `b`: the skip must keep them
/// out of every sum.
void PoisonBehindZero(Matrix* a, Matrix* b, int k, bool transposed) {
  const float poison[] = {std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::infinity()};
  if (transposed) {
    for (int c = 0; c < a->cols(); ++c) a->at(k, c) = c % 2 ? -0.0f : 0.0f;
  } else {
    for (int r = 0; r < a->rows(); ++r) a->at(r, k) = r % 2 ? -0.0f : 0.0f;
  }
  for (int j = 0; j < b->cols(); ++j) b->at(k, j) = poison[j % 3];
}

/// Seeded random shapes from 1 to 300 (k beyond the kernel's 256-entry
/// packing chunk included), widths off every tile multiple, k = 1, and the
/// operands above, through both products of one kernel variant.
void CheckKernelAgainstNaive(GemmIsa isa) {
  Rng rng(20231);
  std::vector<std::array<int, 3>> shapes = {
      {1, 1, 1},    {3, 1, 70},   {104, 104, 9}, {104, 18, 64},
      {104, 128, 64}, {104, 64, 256}, {104, 256, 128}, {104, 32, 1},
      {7, 300, 33}, {300, 257, 65}, {2, 9, 7},     {5, 40, 63}};
  for (int t = 0; t < 24; ++t) {
    const int limit = t % 2 == 0 ? 300 : 24;
    shapes.push_back({static_cast<int>(rng.UniformInt(1, limit)),
                      static_cast<int>(rng.UniformInt(1, limit)),
                      static_cast<int>(rng.UniformInt(1, limit))});
  }
  for (const auto& [m, k, n] : shapes) {
    const std::string what = "isa " + std::to_string(static_cast<int>(isa)) +
                             " shape " + std::to_string(m) + "x" +
                             std::to_string(k) + "x" + std::to_string(n);
    // a·b: a is m×k.
    Matrix a = SparseOperand(m, k, rng);
    Matrix b = RandomMatrix(k, n, rng);
    const int poisoned = static_cast<int>(rng.UniformInt(0, k - 1));
    if (k > 1) PoisonBehindZero(&a, &b, poisoned, /*transposed=*/false);
    // The kernel must overwrite every element of a caller-sized output.
    Matrix out(m, n, std::numeric_limits<float>::quiet_NaN());
    MatMulInto(a, b, &out, isa);
    const Matrix want = NaiveMatMul(a, b);
    ExpectSameBits(want, out, what + " a*b");

    // One random band of rows of a·b: the full product's rows, and no
    // other row written.
    const int r0 = static_cast<int>(rng.UniformInt(0, m - 1));
    const int r1 = static_cast<int>(rng.UniformInt(r0 + 1, m));
    Matrix band(m, n, std::numeric_limits<float>::quiet_NaN());
    MatMulRowsInto(a, b, r0, r1, &band, isa);
    Matrix want_band(m, n, std::numeric_limits<float>::quiet_NaN());
    for (int r = r0; r < r1; ++r) {
      for (int c = 0; c < n; ++c) want_band.at(r, c) = want.at(r, c);
    }
    ExpectSameBits(want_band, band, what + " a*b rows");

    // aᵀ·b: a is k×m.
    Matrix at = SparseOperand(k, m, rng);
    Matrix bt = RandomMatrix(k, n, rng);
    if (k > 1) PoisonBehindZero(&at, &bt, poisoned, /*transposed=*/true);
    Matrix out_t(m, n, std::numeric_limits<float>::quiet_NaN());
    MatMulTransAInto(at, bt, &out_t, isa);
    const Matrix want_t = NaiveMatMul(NaiveTranspose(at), bt);
    ExpectSameBits(want_t, out_t, what + " aT*b");

    // One random block of aᵀ·b: the same elements as the full product.
    GemmBlock block;
    block.r0 = static_cast<int>(rng.UniformInt(0, m - 1));
    block.r1 = static_cast<int>(rng.UniformInt(block.r0 + 1, m));
    block.c0 = static_cast<int>(rng.UniformInt(0, n - 1));
    block.c1 = static_cast<int>(rng.UniformInt(block.c0 + 1, n));
    Matrix out_block(block.r1 - block.r0, block.c1 - block.c0,
                     std::numeric_limits<float>::quiet_NaN());
    MatMulTransABlockInto(at, bt, block, &out_block, isa);
    Matrix want_block(out_block.rows(), out_block.cols());
    for (int r = block.r0; r < block.r1; ++r) {
      for (int c = block.c0; c < block.c1; ++c) {
        want_block.at(r - block.r0, c - block.c0) = want_t.at(r, c);
      }
    }
    ExpectSameBits(want_block, out_block, what + " aT*b block");

    // a·bᵀ: b is n×k; the poison sits in column k of b, behind a zero
    // column of a.
    Matrix ab = SparseOperand(m, k, rng);
    Matrix bb_t = RandomMatrix(k, n, rng);  // bᵀ
    if (k > 1) PoisonBehindZero(&ab, &bb_t, poisoned, /*transposed=*/false);
    const Matrix bb = NaiveTranspose(bb_t);
    Matrix out_b(m, n, std::numeric_limits<float>::quiet_NaN());
    MatMulTransBInto(ab, bb, &out_b, isa);
    ExpectSameBits(NaiveMatMul(ab, bb_t), out_b, what + " a*bT");
  }
}

TEST(Gemm, BaselineMatchesNaiveBitForBit) {
  CheckKernelAgainstNaive(GemmIsa::kBaseline);
}

TEST(Gemm, Avx2MatchesNaiveBitForBit) {
  if (!GemmIsaSupported(GemmIsa::kAvx2)) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  CheckKernelAgainstNaive(GemmIsa::kAvx2);
}

TEST(Gemm, MatchesNaiveExactlyAcrossShapes) {
  // Matrix::MatMul and MatMulTransAInto on the active variant, at the
  // paper's layer sizes; sprinkled exact zeros exercise the sparse-row skip.
  Rng rng(31);
  const int shapes[][3] = {{1, 9, 64},   {6, 64, 256}, {3, 256, 128},
                           {2, 128, 32}, {5, 32, 1},   {4, 47, 49},
                           {2, 96, 95},  {1, 1, 1}};
  for (const auto& s : shapes) {
    Matrix a = RandomMatrix(s[0], s[1], rng);
    Matrix b = RandomMatrix(s[1], s[2], rng);
    for (int r = 0; r < a.rows(); ++r) {
      for (int c = 0; c < a.cols(); ++c) {
        if (rng.UniformInt(0, 3) == 0) a.at(r, c) = 0.0f;
      }
    }
    ExpectSameBits(NaiveMatMul(a, b), a.MatMul(b), "MatMul");
    const Matrix c = RandomMatrix(s[0], s[2], rng);
    Matrix at_c(a.cols(), c.cols());
    MatMulTransAInto(a, c, &at_c);
    ExpectSameBits(NaiveMatMul(a.Transposed(), c), at_c, "MatMulTransAInto");
    // a·bᵀ, MatMul's backward into its left operand, on both variants.
    const Matrix bt = b.Transposed();
    for (const GemmIsa isa : {GemmIsa::kBaseline, GemmIsa::kAvx2}) {
      if (!GemmIsaSupported(isa)) continue;
      Matrix out(a.rows(), bt.rows());
      MatMulTransBInto(a, bt, &out, isa);
      ExpectSameBits(NaiveMatMul(a, b), out,
                     "MatMulTransBInto isa " +
                         std::to_string(static_cast<int>(isa)));
    }
  }
}

TEST(Gemm, SoftmaxProbsIsTheTapedSoftmaxForward) {
  Rng rng(33);
  const Matrix logits = RandomMatrix(3, 8, rng, 4.0f);
  Matrix mask(3, 8, 1.0f);
  mask.at(0, 2) = 0.0f;
  mask.at(2, 7) = 0.0f;
  const Var taped = Softmax(Constant(logits), &mask);
  ExpectSameBits(taped->value, SoftmaxProbs(logits, &mask), "masked");
  const Var unmasked = Softmax(Constant(logits), nullptr);
  ExpectSameBits(unmasked->value, SoftmaxProbs(logits, nullptr), "unmasked");
}

// ---- Split backward (BackwardSteps) ---------------------------------------

/// A seeded multi-step tape shaped like an A2C update. Per step: a sparse
/// input through two ReLU layers (MatMul right-operand weights, broadcast
/// bias Adds), the second weight used a second time in the same step, a
/// mean-pooled critic head with a same-shape bias Add, and masked
/// LogSoftmax, value and entropy losses; the step losses are chained by Add
/// and averaged.
struct StepsTape {
  Var root;
  std::vector<Var> steps;
};

StepsTape BuildStepsTape(std::uint64_t seed, int num_steps) {
  Rng rng(seed);
  constexpr int kIn = 9;
  constexpr int kHidden = 24;
  const Var w1 = Parameter(RandomMatrix(kIn, kHidden, rng));
  const Var b1 = Parameter(RandomMatrix(1, kHidden, rng));
  const Var w2 = Parameter(RandomMatrix(kHidden, kHidden, rng, 0.5f));
  const Var b2 = Parameter(RandomMatrix(1, kHidden, rng));
  const Var wa = Parameter(RandomMatrix(kHidden, 1, rng));
  const Var wc = Parameter(RandomMatrix(kHidden, 1, rng));
  const Var bc = Parameter(RandomMatrix(1, 1, rng));
  StepsTape t;
  for (int s = 0; s < num_steps; ++s) {
    const int m = static_cast<int>(rng.UniformInt(3, 40));
    const Var x = Constant(SparseOperand(m, kIn, rng));
    const Var h1 = Relu(Add(MatMul(x, w1), b1));
    const Var h2 = Relu(Add(MatMul(h1, w2), b2));
    const Var h3 = Relu(MatMul(h2, w2));
    const Var logits = Transpose(MatMul(h3, wa));  // 1×m
    const Var pooled =
        MatMul(Constant(Matrix(1, m, 1.0f / static_cast<float>(m))), h2);
    const Var value = Add(MatMul(pooled, wc), bc);  // 1×1 + 1×1
    Matrix mask(1, m, 1.0f);
    for (int i = 1; i < m; ++i) {
      if (rng.UniformInt(0, 3) == 0) mask.at(0, i) = 0.0f;
    }
    int action = static_cast<int>(rng.UniformInt(0, m - 1));
    while (mask.at(0, action) == 0.0f) action = (action + 1) % m;
    const float advantage = static_cast<float>(rng.Uniform(-1.0, 1.0));
    const Var pg = Scale(GatherCols(LogSoftmax(logits, &mask), {action}),
                         -advantage);
    const Var diff = Sub(value, Constant(Matrix(1, 1, 0.25f)));
    const Var vloss = Scale(Mul(diff, diff), 0.5f);
    const Var ent = Scale(EntropyOfSoftmax(logits, &mask), -0.01f);
    Var loss = Add(Add(pg, vloss), ent);
    t.root = t.root ? Add(t.root, loss) : loss;
    t.steps.push_back(std::move(loss));
  }
  t.root = Scale(t.root, 1.0f / static_cast<float>(num_steps));
  return t;
}

/// Every node under `root` (parameters and step nodes alike), in DFS order.
std::vector<Var> AllNodes(const Var& root) {
  std::vector<Var> out;
  std::unordered_set<const Node*> seen;
  std::vector<Var> stack{root};
  while (!stack.empty()) {
    Var v = stack.back();
    stack.pop_back();
    if (!seen.insert(v.get()).second) continue;
    out.push_back(v);
    for (const Var& p : v->parents) stack.push_back(p);
  }
  return out;
}

/// Every gradient of tape `got` bitwise equal to tape `want`'s, including
/// which nodes have none.
void ExpectSameGrads(const Var& want, const Var& got, const std::string& what) {
  const std::vector<Var> a = AllNodes(want);
  const std::vector<Var> b = AllNodes(got);
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i]->grad.SameShape(a[i]->value),
              b[i]->grad.SameShape(b[i]->value))
        << what << " node " << i;
    ExpectSameBits(a[i]->grad, b[i]->grad,
                   what + " node " + std::to_string(i));
  }
}

TEST(BackwardSteps, MatchesBackwardBitForBitSerialAndPooled) {
  ThreadPool serial(1);
  serial.Shutdown();  // one slot: every task on the caller
  ThreadPool pool(3);
  for (const int num_steps : {1, 5, 16}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::string what = std::to_string(num_steps) + " steps seed " +
                               std::to_string(seed);
      const StepsTape oracle = BuildStepsTape(seed, num_steps);
      const StepsTape one_slot = BuildStepsTape(seed, num_steps);
      const StepsTape pooled = BuildStepsTape(seed, num_steps);
      // Twice each, without zeroing: the second pass adds onto the first
      // one's gradients, the documented accumulate contract.
      for (int pass = 0; pass < 2; ++pass) {
        Backward(oracle.root);
        BackwardSteps(one_slot.root, one_slot.steps, serial);
        BackwardSteps(pooled.root, pooled.steps, pool);
      }
      ExpectSameGrads(oracle.root, one_slot.root, what + " one slot");
      ExpectSameGrads(oracle.root, pooled.root, what + " pool");
    }
  }
}

TEST(BackwardSteps, PlansOneWalkPerStepAndTilesEveryParameter) {
  const StepsTape t = BuildStepsTape(9, 6);
  const SplitBackward split(t.root, t.steps);
  EXPECT_EQ(split.num_steps(), 6u);
  // w1 (9×24), w2 (24×24) and wa/wc (24×1) take one row band each at
  // these sizes; b1, b2 and bc one column band.
  EXPECT_EQ(split.num_tiles(), 7u);
}

// ---- Banded Mlp forward ---------------------------------------------------

/// The head's layers composed from the ops, Linear by Linear: the tape the
/// banded Mlp::Forward must reproduce node for node and bit for bit.
Var ComposedHead(const ParamStore& store, const Var& x) {
  const std::vector<Var>& p = store.params();  // w0, b0, w1, b1, ...
  Var h = x;
  for (std::size_t l = 0; l < p.size(); l += 2) {
    h = Add(MatMul(h, p[l]), p[l + 1]);
    if (l + 2 < p.size()) h = Relu(h);
  }
  return h;
}

TEST(MlpForward, PoolBandsMatchTheComposedOpsBitForBit) {
  ThreadPool shut_down(1);
  shut_down.Shutdown();
  ThreadPool two_slots(1);
  ThreadPool four_slots(3);
  const std::pair<const char*, ThreadPool*> pools[] = {
      {"no pool", nullptr},
      {"shut-down pool", &shut_down},
      {"2 slots", &two_slots},
      {"4 slots", &four_slots}};
  constexpr int kIn = 24;
  constexpr int kOut = 3;
  for (const int rows : {1, 31, 32, 33, 104, 1000}) {
    // ReLU-sparse input rows with −0.0 entries and all-zero rows, and a
    // random upstream gradient.
    Rng data(static_cast<std::uint64_t>(rows));
    const Matrix input = SparseOperand(rows, kIn, data);
    const Matrix upstream = RandomMatrix(rows, kOut, data);
    Rng want_init(77);
    ParamStore want_store;
    Mlp::PaperHead(want_store, "head", kIn, kOut, want_init);
    const Var want_x = Parameter(input);
    const std::int64_t want_before = NodeCount();
    const Var want_out = ComposedHead(want_store, want_x);
    const std::int64_t want_nodes = NodeCount() - want_before;
    const Var want_loss = Sum(Mul(want_out, Constant(upstream)));
    Backward(want_loss);
    const std::vector<Var> want_tape = AllNodes(want_loss);
    for (const auto& [name, pool] : pools) {
      const std::string what = std::to_string(rows) + " rows, " + name;
      Rng init(77);
      ParamStore store;
      const Mlp head = Mlp::PaperHead(store, "head", kIn, kOut, init);
      const Var x = Parameter(input);
      const std::int64_t before = NodeCount();
      const Var out = head.Forward(x, pool);
      EXPECT_EQ(NodeCount() - before, want_nodes) << what;
      const Var loss = Sum(Mul(out, Constant(upstream)));
      Backward(loss);
      // Every node's op and value, then every gradient (the parameters'
      // and the input's included).
      const std::vector<Var> tape = AllNodes(loss);
      ASSERT_EQ(tape.size(), want_tape.size()) << what;
      for (std::size_t i = 0; i < tape.size(); ++i) {
        ASSERT_EQ(static_cast<int>(tape[i]->op),
                  static_cast<int>(want_tape[i]->op))
            << what << " node " << i;
        ExpectSameBits(want_tape[i]->value, tape[i]->value,
                       what + " value of node " + std::to_string(i));
      }
      ExpectSameGrads(want_loss, loss, what);
    }
  }
}

TEST(BackwardStepsDeathTest, StepReachingAnotherStepsNodeFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(3);
  const Var w = Parameter(RandomMatrix(4, 4, rng));
  const Var shared = Relu(MatMul(Constant(RandomMatrix(2, 4, rng)), w));
  const Var first = Sum(shared);
  const Var second = Sum(Relu(shared));  // reaches into the first step
  const Var root = Add(first, second);
  ThreadPool pool(2);
  EXPECT_DEATH(BackwardSteps(root, {first, second}, pool),
               "reaches a node of another step");
}

TEST(BackwardStepsDeathTest, LeafBehindAnOpThatCannotDeferFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(4);
  const Var w = Parameter(RandomMatrix(3, 3, rng));
  const Var x = Constant(RandomMatrix(3, 3, rng));
  const Var first = Sum(Mul(w, x));  // Mul adds into w directly
  const Var second = Sum(MatMul(x, w));
  ThreadPool pool(2);
  EXPECT_DEATH(BackwardSteps(Add(first, second), {first, second}, pool),
               "cannot defer");
}

TEST(BackwardStepsDeathTest, LossChainAddingIntoALeafFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(5);
  const Var w = Parameter(RandomMatrix(2, 2, rng));
  const Var step = Sum(MatMul(Constant(RandomMatrix(2, 2, rng)), w));
  const Var root = Add(step, Sum(w));  // the chain's Sum reaches w
  ThreadPool pool(2);
  EXPECT_DEATH(BackwardSteps(root, {step}, pool), "loss chain adds into");
}

}  // namespace
}  // namespace tango::nn
