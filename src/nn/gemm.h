// The dense GEMM kernel every nn product runs on (DESIGN.md §14), plus the
// two tape-free helpers that sit beside it: the softmax forward and the
// tape-node counter.
//
// Exactness contract: every output element is today's naive sum, bit for
// bit. out(i,j) starts at +0.0f and adds a(i,k)·b(k,j) for k ascending,
// skipping every k with a(i,k) == 0.0f (so −0.0 is skipped too, and an inf
// or NaN in b behind a zero a never reaches the sum); each product is
// rounded to float, then added — never fused into an FMA. Register tiling
// and vector lanes only regroup work across independent output elements,
// and each output row is summed on its own, so any band of rows is bit for
// bit those rows of the whole product.
//
// The kernel packs each row of `a` into a short list of its nonzero
// (k, a(i,k)) pairs, so the zero skip costs one branch-free pass per row
// instead of an unpredictable branch per k on ReLU-sparse rows. It then
// holds a strip of the output row in registers for the whole k loop. A
// baseline build and an AVX2 build of the same body are compiled in; the
// AVX2 one is picked once, at first use, when the host supports it. No
// variant fuses because every Tango library compiles with -ffp-contract=off
// (src/CMakeLists.txt): GCC's default, -ffp-contract=fast, fuses a multiply
// and an add across statements wherever the target has FMA.
//
// These files must stay free of the autograd engine (`inference-tape` in
// tools/lint.py): the tape calls into them, so a reverse edge would be an
// include cycle.
#pragma once

#include <cstdint>

#include "common/vet.h"
#include "nn/matrix.h"

namespace tango::nn {

/// The compiled variants of the kernel.
enum class GemmIsa { kBaseline, kAvx2 };

/// True when the host can run `isa` (kBaseline always can).
bool GemmIsaSupported(GemmIsa isa);

/// The variant the products run by default: kAvx2 when supported, chosen
/// at first use.
GemmIsa ActiveGemmIsa();

/// out = a · b. `out` must already be a.rows()×b.cols(); every element is
/// overwritten and nothing is allocated. `isa` must be supported (the
/// differential tests run both variants).
TANGO_HOT void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                          GemmIsa isa = ActiveGemmIsa());

/// Rows [r0, r1) of a · b into the same rows of `out`, which must already be
/// a.rows()×b.cols(); no other row is written and nothing is allocated. The
/// rows are bit for bit the ones MatMulInto writes: the banded Mlp forward
/// runs each band's rows through it.
TANGO_HOT void MatMulRowsInto(const Matrix& a, const Matrix& b, int r0, int r1,
                              Matrix* out, GemmIsa isa = ActiveGemmIsa());

/// out = aᵀ · b without materialising aᵀ: out(i,j) = Σ_k a(k,i)·b(k,j),
/// with the same skip and order. `out` must already be a.cols()×b.cols().
TANGO_HOT void MatMulTransAInto(const Matrix& a, const Matrix& b,
                                Matrix* out, GemmIsa isa = ActiveGemmIsa());

/// Rows [r0, r1) × columns [c0, c1) of a product.
struct GemmBlock {
  int r0 = 0;
  int r1 = 0;
  int c0 = 0;
  int c1 = 0;
};

/// One block of aᵀ · b into `out`, which must already be (r1 − r0)×(c1 − c0):
/// every element bit for bit the one MatMulTransAInto computes, since each
/// output element is summed on its own. The split backward replays a weight
/// gradient tile by tile with it.
TANGO_HOT void MatMulTransABlockInto(const Matrix& a, const Matrix& b,
                                     const GemmBlock& block, Matrix* out,
                                     GemmIsa isa = ActiveGemmIsa());

/// out = a · bᵀ without materialising bᵀ: out(i,j) = Σ_k a(i,k)·b(j,k),
/// with the same skip and order as MatMulInto(a, bᵀ). `out` must already be
/// a.rows()×b.rows(). bᵀ is transposed block by block into a stack buffer,
/// so nothing is allocated — MatMul's backward into its left operand runs
/// on it.
TANGO_HOT void MatMulTransBInto(const Matrix& a, const Matrix& b,
                                Matrix* out, GemmIsa isa = ActiveGemmIsa());

/// Row-wise softmax probabilities with optional 0/1 mask; masked entries
/// get probability exactly 0 and a fully-masked row stays all-zero. The
/// autograd Softmax, LogSoftmax and entropy ops take their forward values
/// from here, and A2C's Act() samples from it.
Matrix SoftmaxProbs(const Matrix& logits, const Matrix* mask);

/// Running count of autograd tape nodes ever created (relaxed atomic);
/// CloneTape also counts the constants it shares, as the forward it copies
/// created them. Tests read it to bound how many nodes a call allocates.
/// Defined in autograd.cpp; declared here so tape-free code can read it.
std::int64_t NodeCount();

}  // namespace tango::nn
