// SIMD micro-kernel tier for the tensor ops (docs/KERNELS.md §SIMD).
//
// Two implementations of one canonical op sequence:
//
//   * the scalar tier — portable C++, no intrinsics — *defines* the
//     sequence: every multiply-accumulate is a fused multiply-add
//     (std::fmaf, correctly rounded per IEEE-754), and every horizontal
//     reduction (Dot / Sum / Max) accumulates element j into lane
//     partial j % 8, then folds the 8 partials left-to-right
//     ((p0+p1)+p2)+...; and
//   * the AVX2/FMA tier implements exactly that sequence with
//     _mm256_fmadd_ps and friends — one vector accumulator register IS
//     the 8 lane partials. Register tiles may group many output
//     elements (rows x columns of a GEMM, 8 dots at once) but never
//     reorder one element's ops.
//
// Because both tiers execute the same floating-point ops in the same
// order, results are bitwise identical with SIMD on or off, which is
// what lets the kernel determinism contract (values + grads invariant
// to tensor.threads and tile sizes) extend to the SIMD level.
//
// Granularity: the GEMM kernels take a whole row range, so a chunk of a
// GEMM is one call and one SIMD-level read; the row kernels take one
// row; the elementwise maps take any span.
//
// Dispatch: the AVX2 tier is compiled unconditionally on x86-64 (the
// kernels sit in a per-function target("avx2,fma") region so the TU
// itself builds with baseline flags) and selected at runtime when the
// CPU reports AVX2+FMA. `HF_SIMD=off` (or `scalar` / `0`) in the
// environment forces the scalar tier; SetSimdOverride() does the same
// in-process for tests.
//
// Raw intrinsics are confined to src/tensor/simd.* by the hflint
// `simd-intrinsics` rule — everything else calls through this header.
#ifndef SRC_TENSOR_SIMD_H_
#define SRC_TENSOR_SIMD_H_

#include <cstdint>

namespace hybridflow {

enum class SimdLevel {
  kScalar = 0,   // Portable fallback (still fma-canonical).
  kAvx2Fma = 1,  // 8-wide AVX2 + FMA.
};

// The tier the micro-kernels below will actually run: the compiled-in
// ceiling ∧ the CPU's capabilities ∧ the HF_SIMD / SetSimdOverride
// override. Cheap (relaxed atomic read after first call).
SimdLevel ActiveSimdLevel();

// Test hook: force a tier at most as high as the hardware supports.
// Passing kAvx2Fma on a non-AVX2 box silently stays scalar.
void SetSimdOverride(SimdLevel level);
// Drop back to the HF_SIMD-environment / auto-detect default.
void ClearSimdOverride();

// "scalar" / "avx2". Stable strings for BENCH_*.json rows.
const char* SimdLevelName(SimdLevel level);

// True when this binary + CPU can run the AVX2/FMA tier at all
// (ignores overrides).
bool Avx2Available();

namespace simd {

// ---- row-range GEMM kernels ------------------------------------------
// Each call covers a whole row range and reads the SIMD level once. Per
// output element the op sequence is the scalar tier's, so register
// tiling across rows and columns never changes a result.
//
// One k-block of a row-major GEMM over `rows` output rows:
//   y[i * y_stride + j] = fma(x[i * x_stride + p], w[p * w_stride + j], ·)
// for p in [0, kb) ascending, each i in [0, rows), j in [0, n).
void GemmRows(int64_t rows, int64_t kb, int64_t n, const float* x,
              int64_t x_stride, const float* w, int64_t w_stride, float* y,
              int64_t y_stride);
// Row-times-row dots: da[i * k + p] += Dot(n, g + i * n, w + p * n) for
// i in [0, rows), p in [0, k) — each dot is the lane-partial Dot below.
void DotRows(int64_t rows, int64_t k, int64_t n, const float* g,
             const float* w, float* da);
// A GEMM whose x is read down its columns (the dB walk):
//   y[r * n + j] = fma(x[i * x_stride + r], w[i * w_stride + j], ·)
// for i in [0, m) ascending, each r in [r0, r1), j in [0, n).
void ColumnGemm(int64_t r0, int64_t r1, int64_t m, int64_t n, const float* x,
                int64_t x_stride, const float* w, int64_t w_stride, float* y);

// ---- lane-partial horizontal reductions ------------------------------
// sum_j a[j] * b[j], fma into lane partial j % 8, L2R fold.
float Dot(int64_t n, const float* a, const float* b);
// sum_j a[j], add into lane partial j % 8, L2R fold.
float Sum(int64_t n, const float* a);
// sum_j (a[j] - mu)^2 via fma(d, d, partial[j % 8]), L2R fold.
float SumSqDiff(int64_t n, const float* a, float mu);
// max_j a[j]: lane partial update p = (p > v) ? p : v (VMAXPS semantics:
// NaN/equal pick v), partials start at -inf, L2R fold with the same op.
float Max(int64_t n, const float* a);
// sum_j HfExpf(x[j] + shift), add into lane partial j % 8, L2R fold —
// the softmax denominator (shift = -rowmax).
float SumExpShifted(int64_t n, const float* x, float shift);

// ---- elementwise maps (exactly rounded, so trivially tier-equal) -----
void Add(int64_t n, const float* a, const float* b, float* y);
void Sub(int64_t n, const float* a, const float* b, float* y);
void Mul(int64_t n, const float* a, const float* b, float* y);
void Scale(int64_t n, const float* a, float s, float* y);
void AddScalar(int64_t n, const float* a, float s, float* y);
// y[j] = fma(a[j], b[j], y[j]) — gradient accumulate.
void MulAcc(int64_t n, const float* a, const float* b, float* y);
// y[j] = fma(a[j], s, y[j]).
void ScaleAcc(int64_t n, const float* a, float s, float* y);
// y[j] += a[j].
void AddAcc(int64_t n, const float* a, float* y);

// ---- row kernels -----------------------------------------------------
// LayerNorm affine row: norm_out[j] = (a[j] - mu) * inv and
// y[j] = fma(gamma[j], norm_out[j], beta[j]), one pass.
void LayerNormRow(int64_t n, const float* a, float mu, float inv,
                  const float* gamma, const float* beta, float* norm_out,
                  float* y);
// exp(x[j]) via the shared HfExpf polynomial (below) in both tiers.
void Exp(int64_t n, const float* x, float* y);
// Tanh-form GELU as x / (1 + HfExpf(-2u)), u = sqrt(2/pi)·(x + 0.044715·x³)
// (= 0.5·x·(1 + tanh(u)) exactly; no libm call, so both tiers agree).
void Gelu(int64_t n, const float* x, float* y);
// dx[j] = fma(g[j], gelu'(x[j]), dx[j]) with gelu' = s + x·s·(1 - s)·2u',
// s = 1 / (1 + HfExpf(-2u)) and 1 - s = 1 / (1 + HfExpf(2u)).
void GeluBackward(int64_t n, const float* x, const float* g, float* dx);
// dx[j] += fma(-exp(y[j]), gsum, g[j]) — LogSoftmax backward row.
void LogSoftmaxBackwardRow(int64_t n, const float* y, const float* g,
                           float gsum, float* dx);
// LayerNorm backward dx row (derivation in ops.cc):
//   dx[j] = fma(fma(-norm[j], sum_dxhat_norm,
//                   fma(n, dxhat[j], -sum_dxhat)), inv / n, dx[j]).
void LayerNormBackwardRow(int64_t n, const float* norm, const float* dxhat,
                          float inv, float sum_dxhat, float sum_dxhat_norm,
                          float* dx);

// ---- optimizer -------------------------------------------------------
// One Adam step over [0, n): exactly the seed's per-element sequence
// (clip via min/max, two EMAs as separate mul/mul/add, sqrtf, divide —
// all exactly rounded, so the vector tier changes nothing numerically).
void AdamUpdate(int64_t n, float* w, const float* g, float* m, float* v,
                float lr, float beta1, float beta2, float eps, float clip,
                float bias1, float bias2);

}  // namespace simd

// The one transcendental the kernels vectorize: a float-only expf
// implemented identically in both tiers (Cody-Waite reduction + degree-6
// fma-Horner polynomial + exponent-bit scaling). Bitwise equal to the
// vector tier by construction; NOT bitwise equal to std::expf (≤ ~1 ulp
// apart). Overflow to +inf above 88.722839f; flush to 0 below
// -87.336544f; NaN in → NaN out.
float HfExpf(float x);

}  // namespace hybridflow

#endif  // SRC_TENSOR_SIMD_H_
