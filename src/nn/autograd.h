// Tape-based reverse-mode automatic differentiation over dense matrices.
//
// This is the stand-in for the paper's PyTorch dependency: enough ops to
// express the GraphSAGE/GCN/GAT encoders and the A2C/SAC heads of §5.3 —
// matmul, broadcast add, activations, row-wise softmax with masking (the
// policy context filter c_t), concat, gather, and scalar reductions.
//
// Usage: build a graph of Var nodes, call Backward(loss) — gradients
// accumulate into every reachable node with requires_grad. A loss that sums
// independent per-step losses can instead run BackwardSteps, which walks
// each step's subgraph on a thread pool with bit-identical gradients.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/gemm.h"
#include "nn/matrix.h"

namespace tango {
class ThreadPool;
}  // namespace tango

namespace tango::nn {

struct Node;
using Var = std::shared_ptr<Node>;

/// The ops whose add into a leaf parameter BackwardSteps can defer and
/// replay: MatMul's right operand and either operand of Add.
enum class Op : std::uint8_t { kOther, kMatMul, kAdd };

struct Node {
  Matrix value;
  Matrix grad;  // same shape as value; lazily allocated
  bool requires_grad = false;
  Op op = Op::kOther;
  std::vector<Var> parents;
  /// Adds this node's share of the gradient into parents[p]->grad; called
  /// only for parents that require a gradient. MatMul forms its product in
  /// `scratch` before adding it; the other ops leave `scratch` alone.
  std::function<void(Node&, std::size_t p, Matrix& scratch)> backward;

  Matrix& EnsureGrad() {
    if (!grad.SameShape(value)) grad = Matrix(value.rows(), value.cols());
    return grad;
  }
};

/// Wrap a constant (no gradient).
Var Constant(Matrix m);
/// Wrap a trainable parameter.
Var Parameter(Matrix m);

/// Reverse-mode sweep from `root` (root's grad seeded with ones).
void Backward(const Var& root);
/// Zero the gradient buffers of every node reachable from `root`.
void ZeroGrad(const Var& root);

/// Backward(root) split at `step_losses` (DESIGN.md §14, "Split backward"),
/// in three phases so a bench can time each.
///
/// The steps may share nothing that carries a gradient except leaf
/// parameters. The loss chain above them (every node between the root and
/// the step losses) runs serially on the caller; each step's subgraph runs
/// as one task on the pool; every add a step's ops would make into a leaf
/// parameter is deferred, then replayed tile by tile on the pool in exactly
/// the order the serial walk makes it. Every gradient is therefore bit for
/// bit Backward(root)'s. The constructor TANGO_CHECKs, before anything runs
/// in parallel, that no step reaches another step's or the chain's nodes,
/// that the chain adds into no leaf directly, and that every op adding into
/// a leaf can defer that add. `root` must outlive the plan.
class SplitBackward {
 public:
  /// The serial prep: orders the chain and every step, runs the checks,
  /// allocates every gradient buffer the walk will touch and plans the
  /// replay tiles. Computes no gradient yet.
  SplitBackward(const Var& root, const std::vector<Var>& step_losses);

  /// Seeds the root, walks the chain on the caller, then walks each step's
  /// subgraph as one task on `pool`, leaving the leaf adds deferred.
  void RunSteps(ThreadPool& pool);

  /// Replays the deferred adds into the leaf parameters on `pool`: each
  /// tile of a parameter adds its contributions in the serial walk's order.
  void Replay(ThreadPool& pool);

  std::size_t num_steps() const { return step_begin_.size() - 1; }
  std::size_t num_tiles() const { return tiles_.size(); }

 private:
  /// A block of one parameter and the adds it replays, deferred_[begin, end).
  struct Tile {
    Node* param;
    GemmBlock block;
    std::size_t begin;
    std::size_t end;
  };

  /// One scratch matrix per worker slot, sized on the calling thread.
  void EnsureScratch(const ThreadPool& pool);

  Node* root_;
  std::vector<Node*> chain_;  // walk order
  /// Every step's walk, in the serial walk's step order; step s is
  /// steps_[step_begin_[s], step_begin_[s + 1]).
  std::vector<Node*> steps_;
  std::vector<std::size_t> step_begin_;
  /// The ops whose adds into a leaf are deferred, one entry per add,
  /// grouped by parameter, each group in the serial walk's order.
  std::vector<Node*> deferred_;
  std::vector<Tile> tiles_;
  std::size_t scratch_size_ = 0;
  std::vector<Matrix> scratch_;
};

/// SplitBackward's phases in a row: the same gradients as Backward(root).
void BackwardSteps(const Var& root, const std::vector<Var>& step_losses,
                   ThreadPool& pool);

// ---- Ops (all return fresh nodes) ----------------------------------------

Var MatMul(const Var& a, const Var& b);
/// Elementwise add; `b` may also be a 1×C row vector broadcast over rows.
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
/// Elementwise (Hadamard) product, same shapes.
Var Mul(const Var& a, const Var& b);
Var Scale(const Var& a, float s);
Var Relu(const Var& a);
Var LeakyRelu(const Var& a, float slope = 0.2f);
Var Tanh(const Var& a);
Var Exp(const Var& a);

/// Row-wise softmax. When `mask` is non-null (same shape, 0/1 constants),
/// masked entries get probability exactly 0 — the paper's context filter
/// p̂(s_t) = p(s_t) * c_t. A row that is entirely masked yields a uniform
/// distribution over nothing (all zeros).
Var Softmax(const Var& logits, const Matrix* mask = nullptr);

/// Row-wise log-softmax (numerically stable); mask handled as -inf logits.
Var LogSoftmax(const Var& logits, const Matrix* mask = nullptr);

/// Select entry (row, col) per row: out is R×1 with out[r] = a[r, idx[r]].
Var GatherCols(const Var& a, const std::vector<int>& idx);

/// Select a subset of rows: out[i] = a[rows[i]].
Var GatherRows(const Var& a, const std::vector<int>& rows);

/// Horizontal concat [a | b].
Var ConcatCols(const Var& a, const Var& b);

/// Matrix transpose.
Var Transpose(const Var& a);

/// Sum all entries to a 1×1 scalar.
Var Sum(const Var& a);
/// Mean of all entries to a 1×1 scalar.
Var MeanAll(const Var& a);

/// Scalar read of a 1×1 node.
float ScalarValue(const Var& a);

/// -Σ p log p per row, summed to 1×1 (entropy bonus for A2C).
Var EntropyOfSoftmax(const Var& logits, const Matrix* mask = nullptr);

}  // namespace tango::nn
