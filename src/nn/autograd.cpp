#include "nn/autograd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "nn/gemm.h"

namespace tango::nn {

namespace {

/// Every tape node ever created; read through NodeCount() so tests can bound
/// how many nodes a call allocates.
std::atomic<std::int64_t> node_count{0};

Var MakeNode(Matrix value, std::vector<Var> parents,
             std::function<void(Node&)> backward) {
  node_count.fetch_add(1, std::memory_order_relaxed);
  auto n = std::make_shared<Node>();
  n->value = std::move(value);
  n->parents = std::move(parents);
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
  std::unordered_set<Node*> seen;
  std::vector<Var> order;
  Topo(root, seen, order);
  root->EnsureGrad().Fill(1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node& n = **it;
    if (n.requires_grad && n.backward) {
      n.EnsureGrad();  // in case nothing seeded it (dead branch)
      n.backward(n);
    }
  }
}

void ZeroGrad(const Var& root) {
  std::unordered_set<Node*> seen;
  std::vector<Var> order;
  Topo(root, seen, order);
  for (auto& v : order) {
    if (v->grad.SameShape(v->value)) v->grad.Fill(0.0f);
  }
}

Var MatMul(const Var& a, const Var& b) {
  Matrix out = a->value.MatMul(b->value);
  return MakeNode(std::move(out), {a, b}, [](Node& n) {
    const Var& pa = n.parents[0];
    const Var& pb = n.parents[1];
    if (pa->requires_grad) {
      pa->EnsureGrad().Add(n.grad.MatMul(pb->value.Transposed()));
    }
    if (pb->requires_grad) {
      pb->EnsureGrad().Add(pa->value.TransposedMatMul(n.grad));
    }
  });
}

Var Add(const Var& a, const Var& b) {
  const bool broadcast =
      b->value.rows() == 1 && a->value.rows() != 1 &&
      b->value.cols() == a->value.cols();
  TANGO_CHECK(broadcast || a->value.SameShape(b->value),
              "add shape mismatch %dx%d + %dx%d", a->value.rows(),
              a->value.cols(), b->value.rows(), b->value.cols());
  Matrix out = a->value;
  if (broadcast) {
    for (int r = 0; r < out.rows(); ++r) {
      for (int c = 0; c < out.cols(); ++c) out.at(r, c) += b->value.at(0, c);
    }
  } else {
    out.Add(b->value);
  }
  return MakeNode(std::move(out), {a, b}, [broadcast](Node& n) {
    const Var& pa = n.parents[0];
    const Var& pb = n.parents[1];
    if (pa->requires_grad) pa->EnsureGrad().Add(n.grad);
    if (pb->requires_grad) {
      Matrix& bg = pb->EnsureGrad();
      if (broadcast) {
        for (int r = 0; r < n.grad.rows(); ++r) {
          for (int c = 0; c < n.grad.cols(); ++c) {
            bg.at(0, c) += n.grad.at(r, c);
          }
        }
      } else {
        bg.Add(n.grad);
      }
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  TANGO_CHECK(a->value.SameShape(b->value), "sub shape mismatch");
  Matrix out = a->value;
  out.AddScaled(b->value, -1.0f);
  return MakeNode(std::move(out), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->EnsureGrad().Add(n.grad);
    if (n.parents[1]->requires_grad) {
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
  return MakeNode(std::move(out), {a, b}, [](Node& n) {
    const Var& pa = n.parents[0];
    const Var& pb = n.parents[1];
    if (pa->requires_grad) {
      Matrix& ag = pa->EnsureGrad();
      for (int r = 0; r < n.grad.rows(); ++r) {
        for (int c = 0; c < n.grad.cols(); ++c) {
          ag.at(r, c) += n.grad.at(r, c) * pb->value.at(r, c);
        }
      }
    }
    if (pb->requires_grad) {
      Matrix& bg = pb->EnsureGrad();
      for (int r = 0; r < n.grad.rows(); ++r) {
        for (int c = 0; c < n.grad.cols(); ++c) {
          bg.at(r, c) += n.grad.at(r, c) * pa->value.at(r, c);
        }
      }
    }
  });
}

Var Scale(const Var& a, float s) {
  Matrix out = a->value;
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.at(r, c) *= s;
  }
  return MakeNode(std::move(out), {a}, [s](Node& n) {
    if (n.parents[0]->requires_grad) {
      n.parents[0]->EnsureGrad().AddScaled(n.grad, s);
    }
  });
}

Var Relu(const Var& a) {
  Matrix out = a->value;
  float* d = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) d[i] = std::max(0.0f, d[i]);
  return MakeNode(std::move(out), {a}, [](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    const float* x = n.parents[0]->value.data();
    const float* g = n.grad.data();
    float* ag = n.parents[0]->EnsureGrad().data();
    for (std::size_t i = 0; i < n.grad.size(); ++i) {
      if (x[i] > 0.0f) ag[i] += g[i];
    }
  });
}

Var LeakyRelu(const Var& a, float slope) {
  Matrix out = a->value;
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      const float v = out.at(r, c);
      out.at(r, c) = v > 0.0f ? v : slope * v;
    }
  }
  return MakeNode(std::move(out), {a}, [slope](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Matrix& ag = n.parents[0]->EnsureGrad();
    for (int r = 0; r < n.grad.rows(); ++r) {
      for (int c = 0; c < n.grad.cols(); ++c) {
        const float factor =
            n.parents[0]->value.at(r, c) > 0.0f ? 1.0f : slope;
        ag.at(r, c) += factor * n.grad.at(r, c);
      }
    }
  });
}

Var Tanh(const Var& a) {
  Matrix out = a->value;
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.at(r, c) = std::tanh(out.at(r, c));
  }
  return MakeNode(std::move(out), {a}, [](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Matrix& ag = n.parents[0]->EnsureGrad();
    for (int r = 0; r < n.grad.rows(); ++r) {
      for (int c = 0; c < n.grad.cols(); ++c) {
        const float y = n.value.at(r, c);
        ag.at(r, c) += (1.0f - y * y) * n.grad.at(r, c);
      }
    }
  });
}

Var Exp(const Var& a) {
  Matrix out = a->value;
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.at(r, c) = std::exp(out.at(r, c));
  }
  return MakeNode(std::move(out), {a}, [](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Matrix& ag = n.parents[0]->EnsureGrad();
    for (int r = 0; r < n.grad.rows(); ++r) {
      for (int c = 0; c < n.grad.cols(); ++c) {
        ag.at(r, c) += n.value.at(r, c) * n.grad.at(r, c);
      }
    }
  });
}

Var Softmax(const Var& logits, const Matrix* mask) {
  Matrix mask_copy = mask != nullptr ? *mask : Matrix();
  const bool has_mask = mask != nullptr;
  Matrix p = SoftmaxProbs(logits->value, mask);
  return MakeNode(std::move(p), {logits}, [has_mask, mask_copy](Node& n) {
    (void)has_mask;
    (void)mask_copy;  // mask entries already have p = 0, grad flows as 0
    if (!n.parents[0]->requires_grad) return;
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
  return MakeNode(std::move(out), {logits}, [probs](Node& n) {
    if (!n.parents[0]->requires_grad) return;
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
  return MakeNode(std::move(out), {a}, [idx](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Matrix& ag = n.parents[0]->EnsureGrad();
    for (int r = 0; r < n.grad.rows(); ++r) {
      ag.at(r, idx[static_cast<std::size_t>(r)]) += n.grad.at(r, 0);
    }
  });
}

Var GatherRows(const Var& a, const std::vector<int>& rows) {
  Matrix out(static_cast<int>(rows.size()), a->value.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (int c = 0; c < a->value.cols(); ++c) {
      out.at(static_cast<int>(i), c) = a->value.at(rows[i], c);
    }
  }
  return MakeNode(std::move(out), {a}, [rows](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Matrix& ag = n.parents[0]->EnsureGrad();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (int c = 0; c < n.grad.cols(); ++c) {
        ag.at(rows[i], c) += n.grad.at(static_cast<int>(i), c);
      }
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
  return MakeNode(std::move(out), {a, b}, [acols](Node& n) {
    const Var& pa = n.parents[0];
    const Var& pb = n.parents[1];
    if (pa->requires_grad) {
      Matrix& ag = pa->EnsureGrad();
      for (int r = 0; r < n.grad.rows(); ++r) {
        for (int c = 0; c < acols; ++c) ag.at(r, c) += n.grad.at(r, c);
      }
    }
    if (pb->requires_grad) {
      Matrix& bg = pb->EnsureGrad();
      for (int r = 0; r < n.grad.rows(); ++r) {
        for (int c = 0; c < bg.cols(); ++c) {
          bg.at(r, c) += n.grad.at(r, acols + c);
        }
      }
    }
  });
}

Var Transpose(const Var& a) {
  return MakeNode(a->value.Transposed(), {a}, [](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    n.parents[0]->EnsureGrad().Add(n.grad.Transposed());
  });
}

Var Sum(const Var& a) {
  Matrix out(1, 1);
  for (int r = 0; r < a->value.rows(); ++r) {
    for (int c = 0; c < a->value.cols(); ++c) out.at(0, 0) += a->value.at(r, c);
  }
  return MakeNode(std::move(out), {a}, [](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Matrix& ag = n.parents[0]->EnsureGrad();
    const float g = n.grad.at(0, 0);
    for (int r = 0; r < ag.rows(); ++r) {
      for (int c = 0; c < ag.cols(); ++c) ag.at(r, c) += g;
    }
  });
}

Var MeanAll(const Var& a) {
  const float inv =
      1.0f / static_cast<float>(a->value.rows() * a->value.cols());
  return Scale(Sum(a), inv);
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
  return MakeNode(std::move(out), {logits}, [probs](Node& n) {
    if (!n.parents[0]->requires_grad) return;
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

}  // namespace tango::nn
