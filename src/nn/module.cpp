#include "nn/module.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace tango::nn {

Var ParamStore::Create(const std::string& name, int rows, int cols,
                       Rng& rng) {
  Matrix m(rows, cols);
  m.XavierInit(rng);
  Var v = Parameter(std::move(m));
  params_.push_back(v);
  names_.push_back(name);
  return v;
}

Var ParamStore::CreateZero(const std::string& name, int rows, int cols) {
  Var v = Parameter(Matrix(rows, cols));
  params_.push_back(v);
  names_.push_back(name);
  return v;
}

std::size_t ParamStore::ParamCount() const {
  std::size_t n = 0;
  for (const auto& p : params_) n += p->value.size();
  return n;
}

void ParamStore::ZeroGrads() {
  for (auto& p : params_) {
    if (p->grad.SameShape(p->value)) p->grad.Fill(0.0f);
  }
}

void CopyParams(const ParamStore& src, ParamStore& dst) {
  TANGO_CHECK(src.params().size() == dst.params().size(),
              "param store mismatch");
  for (std::size_t i = 0; i < src.params().size(); ++i) {
    dst.params()[i]->value = src.params()[i]->value;
  }
}

void SoftUpdateParams(const ParamStore& src, ParamStore& dst, float tau) {
  TANGO_CHECK(src.params().size() == dst.params().size(),
              "param store mismatch");
  for (std::size_t i = 0; i < src.params().size(); ++i) {
    Matrix& d = dst.params()[i]->value;
    const Matrix& s = src.params()[i]->value;
    for (int r = 0; r < d.rows(); ++r) {
      for (int c = 0; c < d.cols(); ++c) {
        d.at(r, c) = (1.0f - tau) * d.at(r, c) + tau * s.at(r, c);
      }
    }
  }
}

Linear::Linear(ParamStore& store, const std::string& name, int in, int out,
               Rng& rng)
    : in_(in), out_(out) {
  w_ = store.Create(name + ".w", in, out, rng);
  b_ = store.CreateZero(name + ".b", 1, out);
}

Var Linear::Forward(const Var& x) const {
  TANGO_CHECK(x->value.cols() == in_, "linear input dim %d != %d",
              x->value.cols(), in_);
  return Add(MatMul(x, w_), b_);
}

Mlp::Mlp(ParamStore& store, const std::string& name, std::vector<int> dims,
         Rng& rng) {
  TANGO_CHECK(dims.size() >= 2, "mlp needs at least in/out dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(store, name + ".l" + std::to_string(i),
                         dims[i], dims[i + 1], rng);
  }
}

namespace {

/// A row band holds at least this many rows, so each band's share of a
/// layer is still a real product; an input with fewer than two bands' worth
/// runs as one band.
constexpr int kMinBandRows = 16;

/// Rows [r0, r1) of `node` and of every node between it and `input`, the
/// layers below first, with the composed ops' arithmetic: the kernel sums
/// each output row on its own, the bias Add adds b(0,c) to every row (a
/// one-row input's same-shape add is the same sum), and the ReLU is
/// max(0, v).
void FillRows(Node& node, const Node& input, int r0, int r1) {
  const Node& below = *node.parents[0];
  if (&below != &input) FillRows(*node.parents[0], input, r0, r1);
  Matrix& out = node.value;
  switch (node.op) {
    case Op::kMatMul:
      MatMulRowsInto(below.value, node.parents[1]->value, r0, r1, &out);
      break;
    case Op::kAdd: {
      const Matrix& bias = node.parents[1]->value;
      for (int r = r0; r < r1; ++r) {
        for (int c = 0; c < out.cols(); ++c) {
          out.at(r, c) = below.value.at(r, c) + bias.at(0, c);
        }
      }
      break;
    }
    default: {  // Relu
      const auto width = static_cast<std::size_t>(out.cols());
      const float* in = below.value.data();
      for (std::size_t e = static_cast<std::size_t>(r0) * width;
           e < static_cast<std::size_t>(r1) * width; ++e) {
        out.data()[e] = std::max(0.0f, in[e]);
      }
    }
  }
}

}  // namespace

Var Mlp::Forward(const Var& x, ThreadPool* pool) const {
  TANGO_CHECK(x->value.cols() == layers_.front().in_features(),
              "linear input dim %d != %d", x->value.cols(),
              layers_.front().in_features());
  const int rows = x->value.rows();
  // Per layer: the product, the bias add and the ReLU (none after the last
  // layer), each node created right after its zero-filled value, as the
  // composed ops allocate them, and nothing else allocated. Allocating
  // every value first and the nodes after changes the heap's layout enough
  // to page-fault later set-up.
  Var h = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Linear& layer = layers_[l];
    const int cols = layer.out_features();
    h = MatMulNode(h, layer.weight(), Matrix(rows, cols));
    h = AddNode(h, layer.bias(), Matrix(rows, cols));
    if (l + 1 < layers_.size()) h = ReluNode(h, Matrix(rows, cols));
  }
  const int slots = pool == nullptr ? 1 : pool->concurrency();
  const int bands = std::max(1, std::min(slots, rows / kMinBandRows));
  if (bands == 1) {
    FillRows(*h, *x, 0, rows);
    return h;
  }
  // One reference captured, so the std::function holds the lambda in place
  // instead of allocating it.
  const struct {
    Node& out;
    const Node& in;
    int rows;
    int bands;
  } job{*h, *x, rows, bands};
  pool->ParallelFor(static_cast<std::size_t>(bands),
                    [&job](std::size_t band, int) {
                      const auto b = static_cast<int>(band);
                      FillRows(job.out, job.in, job.rows * b / job.bands,
                               job.rows * (b + 1) / job.bands);
                    });
  return h;
}

Mlp Mlp::PaperHead(ParamStore& store, const std::string& name, int in,
                   int out, Rng& rng) {
  return Mlp(store, name, {in, 256, 128, 32, out}, rng);
}

}  // namespace tango::nn
