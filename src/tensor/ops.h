// Differentiable operations on Tensor.
//
// Shapes: "matrix" ops require 2-D operands; elementwise ops require equal
// shapes except Add, which also broadcasts a 1-D bias across matrix rows.
// Integer index arguments (embedding lookups, per-row picks) are plain
// int64 vectors — indices never need gradients.
#ifndef SRC_TENSOR_OPS_H_
#define SRC_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace hybridflow {

// C[m,n] = A[m,k] * B[k,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

// Block-diagonal attention over stacked contexts. q, k [R, d] and v
// [R, dv] hold R / block contexts of `block` rows each; block b's output
// rows are Softmax(Scale(MatMul(q_b, Transpose(k_b)), scale)) * v_b, where
// x_b is rows [b * block, (b + 1) * block) of x. One node for every block:
// values, and gradients from zeroed grads, are bitwise identical to that
// composed chain run per block through SliceRows and joined by
// ConcatRows. PolicyNet's transformer runs all its contexts through this.
Tensor BlockAttention(const Tensor& q, const Tensor& k, const Tensor& v, int64_t block,
                      float scale);

// Elementwise a + b; if b is 1-D with b.size() == a.dim(1), broadcasts b
// across the rows of a.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

Tensor Scale(const Tensor& a, float s);
Tensor AddScalar(const Tensor& a, float s);
Tensor Neg(const Tensor& a);

Tensor Exp(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
// Numerically stable log(1 + exp(x)).
Tensor Softplus(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Tanh(const Tensor& a);
// Tanh-approximation GELU, 0.5·x·(1 + tanh(u)) with
// u = sqrt(2/pi)·(x + 0.044715·x³), evaluated as x / (1 + HfExpf(-2u)):
// no libm, bitwise identical at every SIMD level.
Tensor Gelu(const Tensor& a);

Tensor Minimum(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);
Tensor Clamp(const Tensor& a, float lo, float hi);

Tensor Sum(const Tensor& a);
Tensor Mean(const Tensor& a);

// Row-wise sum of a 2-D tensor: a[m,n] -> [m].
Tensor RowSum(const Tensor& a);

// Matrix transpose: a[m,n] -> [n,m].
Tensor Transpose(const Tensor& a);

// Rows [begin, end) of a 2-D tensor (copying view with pass-through grad).
Tensor SliceRows(const Tensor& a, int64_t begin, int64_t end);

// Row-wise layer normalization with learned affine parameters:
// out[i,:] = gamma * (a[i,:] - mean_i) / sqrt(var_i + eps) + beta.
Tensor LayerNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

// Fused LayerNorm + MatMul: MatMul(LayerNorm(a, gamma, beta, eps), w),
// computed in one pass per row chunk (the normalized row feeds the GEMM
// while still cache-hot, and no intermediate autograd node is built).
// Values and gradients are bitwise identical to the composed form.
// PolicyNet's MLP path (ln2 -> ff1) uses this.
Tensor LayerNormMatMul(const Tensor& a, const Tensor& gamma,
                       const Tensor& beta, const Tensor& w,
                       float eps = 1e-5f);

// Row-wise log-softmax / softmax over the last dimension of a 2-D tensor.
Tensor LogSoftmax(const Tensor& a);
Tensor Softmax(const Tensor& a);

// Embedding lookup: rows of table[v,e] selected by indices -> [n,e].
Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices);

// Per-row element pick: a[m,n], indices[m] -> [m] with out[i] = a[i, idx[i]].
Tensor PickPerRow(const Tensor& a, const std::vector<int64_t>& indices);

// Reinterprets the same elements under a new shape (copies data,
// pass-through gradient).
Tensor Reshape(const Tensor& a, std::vector<int64_t> shape);

// Stops gradient flow: result has the same values, requires_grad = false.
Tensor Detach(const Tensor& a);

// Concatenates 2-D tensors with equal column counts along rows.
Tensor ConcatRows(const std::vector<Tensor>& parts);

}  // namespace hybridflow

#endif  // SRC_TENSOR_OPS_H_
