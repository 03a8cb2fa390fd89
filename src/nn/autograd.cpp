#include "nn/autograd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace tango::nn {

namespace {

/// Every tape node ever created; read through NodeCount() so tests can bound
/// how many nodes a call allocates.
std::atomic<std::int64_t> node_count{0};

using BackwardFn = std::function<void(Node&, std::size_t, Matrix&)>;

Var MakeNode(Matrix value, std::vector<Var> parents, BackwardFn backward,
             Op op = Op::kOther) {
  node_count.fetch_add(1, std::memory_order_relaxed);
  auto n = std::make_shared<Node>();
  n->value = std::move(value);
  n->parents = std::move(parents);
  n->op = op;
  bool needs = false;
  for (const auto& p : n->parents) needs = needs || p->requires_grad;
  n->requires_grad = needs;
  if (needs) n->backward = std::move(backward);
  return n;
}

void Topo(const Var& v, std::unordered_set<Node*>& seen,
          std::vector<Var>& order) {
  if (!v || seen.count(v.get()) != 0) return;
  seen.insert(v.get());
  for (const auto& p : v->parents) Topo(p, seen, order);
  order.push_back(v);
}

/// An op node on a gradient path: it has a backward to run.
bool Interior(const Node& n) { return n.requires_grad && !n.parents.empty(); }
/// A node that only receives adds: a parameter.
bool GradLeaf(const Node& n) { return n.requires_grad && n.parents.empty(); }

/// The one walk routine, shared by Backward and SplitBackward: each node in
/// `order` adds its gradient into every parent that needs one. With
/// `defer_leaves`, adds into leaf parameters are left to the replay.
void Walk(std::span<Node* const> order, bool defer_leaves, Matrix& scratch) {
  for (Node* n : order) {
    n->EnsureGrad();  // in case nothing seeded it (dead branch)
    for (std::size_t p = 0; p < n->parents.size(); ++p) {
      const Node& parent = *n->parents[p];
      if (!parent.requires_grad || (defer_leaves && GradLeaf(parent))) {
        continue;
      }
      n->backward(*n, p, scratch);
    }
  }
}

/// Which part of a backward owns an interior node: the loss chain above the
/// steps (kChain, and all of a plain Backward), or step s ≥ 0.
constexpr int kChain = -1;
using OwnerMap = std::unordered_map<const Node*, int>;

/// Post-order DFS over the interior nodes under `v`, claiming each for
/// `id`: the order a backward walks in reverse. Leaves and gradient-free
/// subtrees are skipped, which leaves the order of the rest as a full DFS
/// has it. A node another id already owns is not entered: for the chain it
/// is a step loss, listed in `reached` the first time; for a step it is a
/// node the step may not share.
void GradTopo(Node* v, int id, OwnerMap& owner, std::vector<int>& reached,
              std::vector<Node*>& order) {
  for (const Var& p : v->parents) {
    if (!Interior(*p)) continue;
    const auto [it, fresh] = owner.try_emplace(p.get(), id);
    if (fresh) {
      GradTopo(p.get(), id, owner, reached, order);
    } else if (it->second != id) {
      TANGO_CHECK(id == kChain,
                  "step loss %d reaches a node of %s; the steps may share "
                  "only leaf parameters",
                  id, it->second == kChain ? "the loss chain" : "another step");
      if (std::find(reached.begin(), reached.end(), it->second) ==
          reached.end()) {
        reached.push_back(it->second);
      }
    }
  }
  order.push_back(v);
}

/// Whether `n`'s add into parents[p] can be deferred and replayed by block.
bool CanDefer(const Node& n, std::size_t p) {
  return (n.op == Op::kMatMul && p == 1) || n.op == Op::kAdd;
}

/// Replay tiles cover about this many floats of a parameter: enough tiles
/// to spread the paper's heads over every slot, each still a real GEMM.
constexpr int kTileFloats = 2048;

}  // namespace

// SoftmaxProbs lives in nn/gemm.cpp, beside the GEMM kernel: the taped
// Softmax/LogSoftmax/entropy ops below and A2C's Act() share it.

std::int64_t NodeCount() {
  return node_count.load(std::memory_order_relaxed);
}

Var Constant(Matrix m) {
  node_count.fetch_add(1, std::memory_order_relaxed);
  auto n = std::make_shared<Node>();
  n->value = std::move(m);
  n->requires_grad = false;
  return n;
}

Var Parameter(Matrix m) {
  node_count.fetch_add(1, std::memory_order_relaxed);
  auto n = std::make_shared<Node>();
  n->value = std::move(m);
  n->requires_grad = true;
  return n;
}

void Backward(const Var& root) {
  TANGO_CHECK(root != nullptr, "null root");
  std::vector<Node*> order;
  if (Interior(*root)) {
    OwnerMap owner{{root.get(), kChain}};
    std::vector<int> reached;
    GradTopo(root.get(), kChain, owner, reached, order);
    std::reverse(order.begin(), order.end());
  }
  root->EnsureGrad().Fill(1.0f);
  Matrix scratch;
  Walk(order, /*defer_leaves=*/false, scratch);
}

void ZeroGrad(const Var& root) {
  std::unordered_set<Node*> seen;
  std::vector<Var> order;
  Topo(root, seen, order);
  for (auto& v : order) {
    if (v->grad.SameShape(v->value)) v->grad.Fill(0.0f);
  }
}

namespace {

/// MatMul's add into its right operand, aᵀ · grad, over one block of that
/// operand. Backward runs it on the whole operand and the split backward's
/// replay tile by tile, so every element gets the same one add either way.
void MatMulGradB(const Node& n, Matrix& grad, const GemmBlock& b,
                 Matrix& scratch) {
  scratch.Resize(b.r1 - b.r0, b.c1 - b.c0);
  MatMulTransABlockInto(n.parents[0]->value, n.grad, b, &scratch);
  for (int r = b.r0; r < b.r1; ++r) {
    for (int c = b.c0; c < b.c1; ++c) {
      grad.at(r, c) += scratch.at(r - b.r0, c - b.c0);
    }
  }
}

/// Add's add into either operand over one block of it, shared the same
/// way: elementwise, or for a broadcast row its column sums, rows
/// ascending.
void AddGrad(const Node& n, Matrix& grad, const GemmBlock& b) {
  if (grad.SameShape(n.grad)) {
    for (int r = b.r0; r < b.r1; ++r) {
      for (int c = b.c0; c < b.c1; ++c) grad.at(r, c) += n.grad.at(r, c);
    }
    return;
  }
  for (int r = 0; r < n.grad.rows(); ++r) {
    for (int c = b.c0; c < b.c1; ++c) grad.at(0, c) += n.grad.at(r, c);
  }
}

GemmBlock Whole(const Matrix& m) { return {0, m.rows(), 0, m.cols()}; }

/// Whether Add(a, b) broadcasts b as a row over a; TANGO_CHECKs that the
/// shapes fit one way or the other.
bool BroadcastsRow(const Matrix& a, const Matrix& b) {
  const bool broadcast =
      b.rows() == 1 && a.rows() != 1 && b.cols() == a.cols();
  TANGO_CHECK(broadcast || a.SameShape(b), "add shape mismatch %dx%d + %dx%d",
              a.rows(), a.cols(), b.rows(), b.cols());
  return broadcast;
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  return MatMulNode(a, b, a->value.MatMul(b->value));
}

Var MatMulNode(const Var& a, const Var& b, Matrix value) {
  TANGO_CHECK(a->value.cols() == b->value.rows() &&
                  value.rows() == a->value.rows() &&
                  value.cols() == b->value.cols(),
              "matmul node %dx%d for %dx%d * %dx%d", value.rows(),
              value.cols(), a->value.rows(), a->value.cols(), b->value.rows(),
              b->value.cols());
  return MakeNode(
      std::move(value), {a, b},
      [](Node& n, std::size_t p, Matrix& scratch) {
        Matrix& g = n.parents[p]->EnsureGrad();
        if (p == 1) {
          MatMulGradB(n, g, Whole(g), scratch);
          return;
        }
        const Matrix& bv = n.parents[1]->value;
        scratch.Resize(n.grad.rows(), bv.rows());
        MatMulTransBInto(n.grad, bv, &scratch);  // grad · bᵀ
        g.Add(scratch);
      },
      Op::kMatMul);
}

Var Add(const Var& a, const Var& b) {
  Matrix out = a->value;
  if (BroadcastsRow(a->value, b->value)) {
    for (int r = 0; r < out.rows(); ++r) {
      for (int c = 0; c < out.cols(); ++c) out.at(r, c) += b->value.at(0, c);
    }
  } else {
    out.Add(b->value);
  }
  return AddNode(a, b, std::move(out));
}

Var AddNode(const Var& a, const Var& b, Matrix value) {
  BroadcastsRow(a->value, b->value);
  TANGO_CHECK(value.SameShape(a->value), "add node %dx%d for a %dx%d sum",
              value.rows(), value.cols(), a->value.rows(), a->value.cols());
  return MakeNode(
      std::move(value), {a, b},
      [](Node& n, std::size_t p, Matrix&) {
        Matrix& g = n.parents[p]->EnsureGrad();
        AddGrad(n, g, Whole(g));
      },
      Op::kAdd);
}

Var Sub(const Var& a, const Var& b) {
  TANGO_CHECK(a->value.SameShape(b->value), "sub shape mismatch");
  Matrix out = a->value;
  out.AddScaled(b->value, -1.0f);
  return MakeNode(std::move(out), {a, b}, [](Node& n, std::size_t p, Matrix&) {
    if (p == 0) {
      n.parents[0]->EnsureGrad().Add(n.grad);
    } else {
      n.parents[1]->EnsureGrad().AddScaled(n.grad, -1.0f);
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  TANGO_CHECK(a->value.SameShape(b->value), "mul shape mismatch");
  Matrix out = a->value;
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.at(r, c) *= b->value.at(r, c);
  }
  return MakeNode(std::move(out), {a, b}, [](Node& n, std::size_t p, Matrix&) {
    // d/da = grad ∘ b, d/db = grad ∘ a.
    const Matrix& other = n.parents[1 - p]->value;
    Matrix& g = n.parents[p]->EnsureGrad();
    for (int r = 0; r < n.grad.rows(); ++r) {
      for (int c = 0; c < n.grad.cols(); ++c) {
        g.at(r, c) += n.grad.at(r, c) * other.at(r, c);
      }
    }
  });
}

Var Scale(const Var& a, float s) {
  Matrix out = a->value;
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.at(r, c) *= s;
  }
  return MakeNode(std::move(out), {a}, [s](Node& n, std::size_t, Matrix&) {
    n.parents[0]->EnsureGrad().AddScaled(n.grad, s);
  });
}

Var Relu(const Var& a) {
  Matrix out = a->value;
  float* d = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) d[i] = std::max(0.0f, d[i]);
  return ReluNode(a, std::move(out));
}

Var ReluNode(const Var& a, Matrix value) {
  TANGO_CHECK(value.SameShape(a->value), "relu node %dx%d for a %dx%d input",
              value.rows(), value.cols(), a->value.rows(), a->value.cols());
  return MakeNode(std::move(value), {a}, [](Node& n, std::size_t, Matrix&) {
    const float* x = n.parents[0]->value.data();
    const float* g = n.grad.data();
    float* ag = n.parents[0]->EnsureGrad().data();
    for (std::size_t i = 0; i < n.grad.size(); ++i) {
      if (x[i] > 0.0f) ag[i] += g[i];
    }
  });
}

Var NeighbourMean(const Var& h, const NeighbourSample& sample,
                  std::size_t layer) {
  const int n = h->value.rows();
  const int d = h->value.cols();
  const auto stride = static_cast<std::size_t>(n) + 1;
  TANGO_CHECK(sample.offsets.size() >= (layer + 1) * stride,
              "neighbour sample has no layer %zu for a %d-node graph", layer,
              n);
  // This layer's lists, rebased to start at 0: the backward outlives the
  // caller's sample.
  auto lists = std::make_shared<NeighbourSample>();
  const int* raw = sample.offsets.data() + layer * stride;
  TANGO_CHECK(0 <= raw[0] && raw[n] <= static_cast<int>(sample.nbrs.size()),
              "layer %zu's offsets [%d, %d) run outside %zu neighbours", layer,
              raw[0], raw[n], sample.nbrs.size());
  lists->offsets.reserve(stride);
  for (int i = 0; i <= n; ++i) {
    TANGO_CHECK(i == 0 || raw[i - 1] <= raw[i],
                "layer %zu's offsets decrease at node %d", layer, i);
    lists->offsets.push_back(raw[i] - raw[0]);
  }
  lists->nbrs.assign(sample.nbrs.begin() + raw[0],
                     sample.nbrs.begin() + raw[n]);
  const int* offsets = lists->offsets.data();
  const int* nbrs = lists->nbrs.data();
  Matrix out(n, d);
  for (int i = 0; i < n; ++i) {
    if (offsets[i] == offsets[i + 1]) continue;
    const float w = 1.0f / static_cast<float>(offsets[i + 1] - offsets[i]);
    float* row = out.data() + static_cast<std::size_t>(i) * d;
    for (int t = offsets[i]; t < offsets[i + 1]; ++t) {
      const int j = nbrs[t];
      TANGO_CHECK(0 <= j && j < n, "node %d samples neighbour %d of %d", i,
                  j, n);
      TANGO_CHECK(t == offsets[i] || nbrs[t - 1] < j,
                  "node %d's neighbours are not strictly ascending", i);
      const float* hj = h->value.data() + static_cast<std::size_t>(j) * d;
      for (int c = 0; c < d; ++c) {
        const float prod = w * hj[c];
        row[c] += prod;
      }
    }
  }
  return MakeNode(std::move(out), {h},
                  [lists](Node& node, std::size_t, Matrix& scratch) {
    // Mᵀ·g, as MatMulGradB forms it: each row j sums w_i·g(i,:) over the
    // rows i that sampled j, i ascending, from +0.0f, then adds once.
    const int* off = lists->offsets.data();
    const int* adj = lists->nbrs.data();
    const Matrix& g = node.grad;
    const auto width = static_cast<std::size_t>(g.cols());
    scratch.Resize(g.rows(), g.cols());
    scratch.Fill(0.0f);
    for (int i = 0; i < g.rows(); ++i) {
      if (off[i] == off[i + 1]) continue;
      const float w = 1.0f / static_cast<float>(off[i + 1] - off[i]);
      const float* gi = g.data() + static_cast<std::size_t>(i) * width;
      for (int t = off[i]; t < off[i + 1]; ++t) {
        float* sj = scratch.data() + static_cast<std::size_t>(adj[t]) * width;
        for (std::size_t c = 0; c < width; ++c) {
          const float prod = w * gi[c];
          sj[c] += prod;
        }
      }
    }
    node.parents[0]->EnsureGrad().Add(scratch);
  });
}

Var Softmax(const Var& logits, const Matrix* mask) {
  Matrix p = SoftmaxProbs(logits->value, mask);
  // Masked entries already have p = 0, so their gradient flows as 0.
  return MakeNode(std::move(p), {logits}, [](Node& n, std::size_t, Matrix&) {
    Matrix& ag = n.parents[0]->EnsureGrad();
    for (int r = 0; r < n.grad.rows(); ++r) {
      float dot = 0.0f;
      for (int c = 0; c < n.grad.cols(); ++c) {
        dot += n.grad.at(r, c) * n.value.at(r, c);
      }
      for (int c = 0; c < n.grad.cols(); ++c) {
        ag.at(r, c) += n.value.at(r, c) * (n.grad.at(r, c) - dot);
      }
    }
  });
}

Var LogSoftmax(const Var& logits, const Matrix* mask) {
  Matrix p = SoftmaxProbs(logits->value, mask);
  Matrix out(p.rows(), p.cols());
  for (int r = 0; r < p.rows(); ++r) {
    for (int c = 0; c < p.cols(); ++c) {
      out.at(r, c) = p.at(r, c) > 0.0f ? std::log(p.at(r, c)) : -1e30f;
    }
  }
  auto probs = std::make_shared<Matrix>(std::move(p));
  return MakeNode(std::move(out), {logits},
                  [probs](Node& n, std::size_t, Matrix&) {
    Matrix& ag = n.parents[0]->EnsureGrad();
    for (int r = 0; r < n.grad.rows(); ++r) {
      float gsum = 0.0f;
      for (int c = 0; c < n.grad.cols(); ++c) {
        // Fully-masked entries carry no gradient.
        if (probs->at(r, c) == 0.0f && n.value.at(r, c) <= -1e29f) continue;
        gsum += n.grad.at(r, c);
      }
      for (int c = 0; c < n.grad.cols(); ++c) {
        if (probs->at(r, c) == 0.0f && n.value.at(r, c) <= -1e29f) continue;
        ag.at(r, c) += n.grad.at(r, c) - probs->at(r, c) * gsum;
      }
    }
  });
}

Var GatherCols(const Var& a, const std::vector<int>& idx) {
  TANGO_CHECK(static_cast<int>(idx.size()) == a->value.rows(),
              "gather idx size mismatch");
  Matrix out(a->value.rows(), 1);
  for (int r = 0; r < out.rows(); ++r) {
    out.at(r, 0) = a->value.at(r, idx[static_cast<std::size_t>(r)]);
  }
  return MakeNode(std::move(out), {a}, [idx](Node& n, std::size_t, Matrix&) {
    Matrix& ag = n.parents[0]->EnsureGrad();
    for (int r = 0; r < n.grad.rows(); ++r) {
      ag.at(r, idx[static_cast<std::size_t>(r)]) += n.grad.at(r, 0);
    }
  });
}

Var ConcatCols(const Var& a, const Var& b) {
  TANGO_CHECK(a->value.rows() == b->value.rows(), "concat rows mismatch");
  Matrix out(a->value.rows(), a->value.cols() + b->value.cols());
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < a->value.cols(); ++c) out.at(r, c) = a->value.at(r, c);
    for (int c = 0; c < b->value.cols(); ++c) {
      out.at(r, a->value.cols() + c) = b->value.at(r, c);
    }
  }
  const int acols = a->value.cols();
  return MakeNode(std::move(out), {a, b},
                  [acols](Node& n, std::size_t p, Matrix&) {
    // Parent 0 takes columns [0, acols), parent 1 the rest.
    Matrix& g = n.parents[p]->EnsureGrad();
    const int offset = p == 0 ? 0 : acols;
    for (int r = 0; r < n.grad.rows(); ++r) {
      for (int c = 0; c < g.cols(); ++c) g.at(r, c) += n.grad.at(r, offset + c);
    }
  });
}

Var Transpose(const Var& a) {
  return MakeNode(a->value.Transposed(), {a}, [](Node& n, std::size_t,
                                                  Matrix&) {
    // In place: the same one add per element as adding gradᵀ.
    Matrix& ag = n.parents[0]->EnsureGrad();
    for (int r = 0; r < ag.rows(); ++r) {
      for (int c = 0; c < ag.cols(); ++c) ag.at(r, c) += n.grad.at(c, r);
    }
  });
}

Var Sum(const Var& a) {
  Matrix out(1, 1);
  for (int r = 0; r < a->value.rows(); ++r) {
    for (int c = 0; c < a->value.cols(); ++c) out.at(0, 0) += a->value.at(r, c);
  }
  return MakeNode(std::move(out), {a}, [](Node& n, std::size_t, Matrix&) {
    Matrix& ag = n.parents[0]->EnsureGrad();
    const float g = n.grad.at(0, 0);
    for (int r = 0; r < ag.rows(); ++r) {
      for (int c = 0; c < ag.cols(); ++c) ag.at(r, c) += g;
    }
  });
}

float ScalarValue(const Var& a) {
  TANGO_CHECK(a->value.rows() == 1 && a->value.cols() == 1, "not a scalar");
  return a->value.at(0, 0);
}

Var EntropyOfSoftmax(const Var& logits, const Matrix* mask) {
  Matrix p = SoftmaxProbs(logits->value, mask);
  Matrix out(1, 1);
  float total = 0.0f;
  for (int r = 0; r < p.rows(); ++r) {
    for (int c = 0; c < p.cols(); ++c) {
      const float pv = p.at(r, c);
      if (pv > 0.0f) total -= pv * std::log(pv);
    }
  }
  out.at(0, 0) = total;
  auto probs = std::make_shared<Matrix>(std::move(p));
  return MakeNode(std::move(out), {logits},
                  [probs](Node& n, std::size_t, Matrix&) {
    Matrix& ag = n.parents[0]->EnsureGrad();
    const float g = n.grad.at(0, 0);
    for (int r = 0; r < probs->rows(); ++r) {
      // Per-row entropy H_r; dH/dx_i = -p_i (log p_i + H_r).
      float hr = 0.0f;
      for (int c = 0; c < probs->cols(); ++c) {
        const float pv = probs->at(r, c);
        if (pv > 0.0f) hr -= pv * std::log(pv);
      }
      for (int c = 0; c < probs->cols(); ++c) {
        const float pv = probs->at(r, c);
        if (pv > 0.0f) {
          ag.at(r, c) += g * (-pv * (std::log(pv) + hr));
        }
      }
    }
  });
}

// ---- Split backward ----------------------------------------------------

SplitBackward::SplitBackward(const Var& root,
                             const std::vector<Var>& step_losses)
    : root_(root.get()) {
  TANGO_CHECK(root != nullptr, "null root");
  const std::size_t num = step_losses.size();
  OwnerMap owner;
  for (std::size_t s = 0; s < num; ++s) {
    TANGO_CHECK(step_losses[s] != nullptr && Interior(*step_losses[s]),
                "step loss %zu carries no gradient", s);
    TANGO_CHECK(owner.emplace(step_losses[s].get(), static_cast<int>(s))
                    .second,
                "step loss %zu is listed twice", s);
  }

  // The chain, and the order the serial walk reaches the steps in: it
  // walks step subgraphs in the reverse of the order a post-order DFS from
  // the root first meets their losses.
  std::vector<Node*> order;
  std::vector<int> reached;
  if (Interior(*root)) {
    const auto [it, fresh] = owner.try_emplace(root.get(), kChain);
    if (fresh) {
      GradTopo(root.get(), kChain, owner, reached, order);
    } else {
      reached.push_back(it->second);  // the root is itself the one step
    }
  }
  TANGO_CHECK(reached.size() == num,
              "%zu of %zu step losses are not on the root's gradient path",
              num - reached.size(), num);
  chain_.assign(order.rbegin(), order.rend());
  for (const Node* n : chain_) {
    for (const Var& p : n->parents) {
      TANGO_CHECK(!GradLeaf(*p),
                  "the loss chain adds into a leaf parameter; only step "
                  "subgraphs may reach leaves");
    }
  }

  // Every step's walk, its gradient buffers, and its deferred leaf adds
  // grouped per parameter in the serial walk's order.
  std::unordered_map<const Node*, std::size_t> group_of;
  std::vector<Node*> params;
  std::vector<std::vector<Node*>> groups;
  step_begin_.reserve(num + 1);
  step_begin_.push_back(0);
  for (auto r = reached.rbegin(); r != reached.rend(); ++r) {
    order.clear();
    GradTopo(step_losses[static_cast<std::size_t>(*r)].get(), *r, owner,
             reached, order);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      Node* n = *it;
      steps_.push_back(n);
      n->EnsureGrad();
      for (std::size_t p = 0; p < n->parents.size(); ++p) {
        Node* parent = n->parents[p].get();
        if (!parent->requires_grad) continue;
        scratch_size_ = std::max(scratch_size_, parent->value.size());
        if (!GradLeaf(*parent)) continue;
        TANGO_CHECK(CanDefer(*n, p),
                    "an op adds into a leaf parameter through an add it "
                    "cannot defer; only MatMul's right operand and Add can");
        const auto [g, fresh] = group_of.try_emplace(parent, groups.size());
        if (fresh) {
          parent->EnsureGrad();
          params.push_back(parent);
          groups.emplace_back();
        }
        groups[g->second].push_back(n);
      }
    }
    step_begin_.push_back(steps_.size());
  }

  // Tiles: row bands of a parameter, or column bands of a one-row one.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    Node* param = params[g];
    const std::size_t begin = deferred_.size();
    deferred_.insert(deferred_.end(), groups[g].begin(), groups[g].end());
    const std::size_t end = deferred_.size();
    const int rows = param->value.rows();
    const int cols = param->value.cols();
    if (rows > 1) {
      const int band = std::max(1, kTileFloats / std::max(1, cols));
      for (int r0 = 0; r0 < rows; r0 += band) {
        tiles_.push_back(
            {param, {r0, std::min(rows, r0 + band), 0, cols}, begin, end});
      }
    } else if (rows == 1) {
      for (int c0 = 0; c0 < cols; c0 += kTileFloats) {
        tiles_.push_back(
            {param, {0, 1, c0, std::min(cols, c0 + kTileFloats)}, begin, end});
      }
    }
  }
}

void SplitBackward::EnsureScratch(const ThreadPool& pool) {
  const auto slots = static_cast<std::size_t>(pool.concurrency());
  while (scratch_.size() < slots) {
    scratch_.emplace_back(1, static_cast<int>(scratch_size_));
  }
}

void SplitBackward::RunSteps(ThreadPool& pool) {
  EnsureScratch(pool);
  root_->EnsureGrad().Fill(1.0f);
  Walk(chain_, /*defer_leaves=*/false, scratch_.back());
  pool.ParallelFor(num_steps(), [this](std::size_t s, int worker) {
    const std::span<Node* const> walk(steps_.data() + step_begin_[s],
                                      step_begin_[s + 1] - step_begin_[s]);
    Walk(walk, /*defer_leaves=*/true,
         scratch_[static_cast<std::size_t>(worker)]);
  });
}

void SplitBackward::Replay(ThreadPool& pool) {
  EnsureScratch(pool);
  pool.ParallelFor(tiles_.size(), [this](std::size_t t, int worker) {
    const Tile& tile = tiles_[t];
    Matrix& scratch = scratch_[static_cast<std::size_t>(worker)];
    for (std::size_t i = tile.begin; i < tile.end; ++i) {
      const Node& n = *deferred_[i];
      if (n.op == Op::kMatMul) {
        MatMulGradB(n, tile.param->grad, tile.block, scratch);
      } else {
        AddGrad(n, tile.param->grad, tile.block);
      }
    }
  });
}

void BackwardSteps(const Var& root, const std::vector<Var>& step_losses,
                   ThreadPool& pool) {
  SplitBackward split(root, step_losses);
  split.RunSteps(pool);
  split.Replay(pool);
}

// ---- Tape copy -----------------------------------------------------------

std::vector<Var> CloneTape(const std::vector<Var>& roots) {
  // The tape parents first, each node once: the order a forward makes it.
  std::unordered_set<Node*> seen;
  std::vector<Var> order;
  for (const Var& root : roots) Topo(root, seen, order);
  // Every entry exists before the first copy, so the copies' allocations
  // follow one another as the forward's did. Leaves map to themselves.
  std::unordered_map<const Node*, Var> copy_of;
  copy_of.reserve(order.size());
  std::int64_t constants = 0;
  for (const Var& v : order) {
    copy_of.emplace(v.get(), v);
    if (v->parents.empty() && !v->requires_grad) ++constants;
  }
  for (const Var& v : order) {
    if (v->parents.empty()) continue;
    Matrix value = v->value;
    std::vector<Var> parents;
    parents.reserve(v->parents.size());
    for (const Var& p : v->parents) parents.push_back(copy_of.at(p.get()));
    copy_of[v.get()] =
        MakeNode(std::move(value), std::move(parents), v->backward, v->op);
  }
  // The forward made its constants too.
  node_count.fetch_add(constants, std::memory_order_relaxed);
  std::vector<Var> copies;
  copies.reserve(roots.size());
  for (const Var& root : roots) copies.push_back(copy_of.at(root.get()));
  return copies;
}

}  // namespace tango::nn
