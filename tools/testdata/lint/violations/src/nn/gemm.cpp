// Seeded [inference-tape] violation: autograd include in the GEMM kernel.
//
#include "nn/autograd.h"

namespace fx {
void MatMulInto() {}
}  // namespace fx
