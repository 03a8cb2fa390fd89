// Negative control for [inference-tape]: a tape-free GEMM kernel.
namespace fx {
void MatMulInto(const float* a, const float* b, float* out, int k) {
  float acc = 0.0f;
  for (int i = 0; i < k; ++i) {
    if (a[i] == 0.0f) continue;
    const float prod = a[i] * b[i];
    acc += prod;
  }
  *out = acc;
}
}  // namespace fx
