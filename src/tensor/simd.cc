// Both tiers of the SIMD micro-kernel layer (see simd.h for the
// canonical-order contract). The scalar tier is the specification; the
// AVX2 tier must execute the same floating-point ops in the same order.
//
// The whole TU builds with the project's baseline flags. On x86-64 the
// AVX2 kernels carry a per-function target("avx2,fma") attribute, so the
// binary stays runnable on non-AVX2 machines: the dispatcher only enters
// those functions after __builtin_cpu_supports() says the instructions
// exist. src/tensor/CMakeLists.txt compiles this TU (and the rest of the
// kernel layer) with -ffp-contract=off so the compiler can never fuse a
// scalar mul+add that the contract says must round twice.
#include "src/tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#define HF_SIMD_X86 1
#include <immintrin.h>
// GCC and Clang both honor the function-level target attribute; the
// intrinsics are usable inside such functions without -mavx2 on the
// command line.
#define HF_AVX2_TARGET __attribute__((target("avx2,fma")))
#else
#define HF_SIMD_X86 0
#endif

namespace hybridflow {

namespace {

// ---- HfExpf constants (Cephes expf: Cody-Waite 2-constant range
// reduction, degree-6 polynomial). Shared verbatim by both tiers.
constexpr float kExpMaxInput = 88.722839f;   // Above: +inf.
constexpr float kExpMinInput = -87.336544f;  // Below: 0 (denormals flushed).
constexpr float kLog2e = 1.442695040f;
constexpr float kExpC1 = 0.693359375f;       // ln2 high part (exact in fp32).
constexpr float kExpC2 = -2.12194440e-4f;    // ln2 low part.
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

// ---- GELU constants. The tanh form 0.5·x·(1 + tanh(u)) with
// u = sqrt(2/pi)·(x + 0.044715·x³) is evaluated as x·sigmoid(2u) =
// x / (1 + HfExpf(-2u)), so it needs no libm tanhf. 2·sqrt(2/pi) is the
// float sqrt(2/pi) doubled exactly.
constexpr float kGeluCubic = 0.044715f;
constexpr float kGeluThreeCubic = 3.0f * kGeluCubic;
constexpr float kGeluTwoSqrt2OverPi = 2.0f * 0.7978845608f;

// Core on an already-range-checked x in [kExpMinInput, kExpMaxInput].
// (Callers handle NaN / overflow / underflow; the int cast below would
// be UB on unbounded input.)
inline float HfExpfCore(float x) {
  const float n_f = std::nearbyintf(x * kLog2e);  // Nearest-even.
  float r = std::fmaf(-n_f, kExpC1, x);
  r = std::fmaf(-n_f, kExpC2, r);
  float z = kExpP0;
  z = std::fmaf(z, r, kExpP1);
  z = std::fmaf(z, r, kExpP2);
  z = std::fmaf(z, r, kExpP3);
  z = std::fmaf(z, r, kExpP4);
  z = std::fmaf(z, r, kExpP5);
  const float r2 = r * r;
  z = std::fmaf(z, r2, r);
  z += 1.0f;
  // 2^n via exponent bits; n in [-126, 128], so (n + 127) << 23 is a
  // valid biased exponent (255 == inf, the documented near-kExpMaxInput
  // overflow-to-inf band).
  const int n_i = static_cast<int>(n_f);
  const uint32_t scale_bits = static_cast<uint32_t>(n_i + 127) << 23;
  return z * std::bit_cast<float>(scale_bits);
}

// ---- dispatch state --------------------------------------------------
std::atomic<int> g_simd_override{-1};  // -1: none; else a SimdLevel.

bool CpuSupportsAvx2Fma() {
#if HF_SIMD_X86
#if defined(__AVX2__) && defined(__FMA__)
  return true;  // Whole build targets AVX2+FMA already.
#else
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
#else
  return false;
#endif
}

SimdLevel EnvDefaultLevel() {
  const char* env = std::getenv("HF_SIMD");
  if (env != nullptr &&
      (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
       std::strcmp(env, "0") == 0)) {
    return SimdLevel::kScalar;
  }
  return Avx2Available() ? SimdLevel::kAvx2Fma : SimdLevel::kScalar;
}

// Left-to-right fold of the 8 lane partials: ((p0+p1)+p2)+...
inline float Fold8Add(const float* p) {
  float s = p[0];
  for (int i = 1; i < 8; ++i) {
    s += p[i];
  }
  return s;
}

inline float Fold8Max(const float* p) {
  float r = p[0];
  for (int i = 1; i < 8; ++i) {
    r = (r > p[i]) ? r : p[i];
  }
  return r;
}

}  // namespace

bool Avx2Available() {
  static const bool available = CpuSupportsAvx2Fma();
  return available;
}

SimdLevel ActiveSimdLevel() {
  const int ov = g_simd_override.load(std::memory_order_relaxed);
  if (ov >= 0) {
    const SimdLevel level = static_cast<SimdLevel>(ov);
    if (level == SimdLevel::kAvx2Fma && !Avx2Available()) {
      return SimdLevel::kScalar;
    }
    return level;
  }
  static const SimdLevel env_level = EnvDefaultLevel();  // HF_SIMD read once.
  return env_level;
}

void SetSimdOverride(SimdLevel level) {
  g_simd_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ClearSimdOverride() {
  g_simd_override.store(-1, std::memory_order_relaxed);
}

const char* SimdLevelName(SimdLevel level) {
  return level == SimdLevel::kAvx2Fma ? "avx2" : "scalar";
}

float HfExpf(float x) {
  if (x != x) {
    return x;  // NaN in, NaN out.
  }
  if (x > kExpMaxInput) {
    return std::numeric_limits<float>::infinity();
  }
  if (x < kExpMinInput) {
    return 0.0f;
  }
  return HfExpfCore(x);
}

// ====================================================================
// Scalar tier: the canonical-order specification.
// ====================================================================
namespace scalar_impl {
namespace {

// One output row of one k-block: y[j] = fma(x[p * x_stride], w[p *
// w_stride + j], y[j]), p outer / j inner (the cache-friendly nest); per
// output element the accumulation order is p-ascending, which is all the
// contract pins down.
void GemmKBlock(int64_t kb, int64_t n, const float* x, int64_t x_stride,
                const float* w, int64_t w_stride, float* y) {
  for (int64_t p = 0; p < kb; ++p) {
    const float xp = x[p * x_stride];
    const float* wp = w + p * w_stride;
    for (int64_t j = 0; j < n; ++j) {
      y[j] = std::fmaf(xp, wp[j], y[j]);
    }
  }
}

float Dot(int64_t n, const float* a, const float* b) {
  float p8[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (int64_t j = 0; j < n; ++j) {
    p8[j & 7] = std::fmaf(a[j], b[j], p8[j & 7]);
  }
  return Fold8Add(p8);
}

void GemmRows(int64_t rows, int64_t kb, int64_t n, const float* x,
              int64_t x_stride, const float* w, int64_t w_stride, float* y,
              int64_t y_stride) {
  for (int64_t i = 0; i < rows; ++i) {
    GemmKBlock(kb, n, x + i * x_stride, 1, w, w_stride, y + i * y_stride);
  }
}

void DotRows(int64_t rows, int64_t k, int64_t n, const float* g,
             const float* w, float* da) {
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      da[i * k + p] += Dot(n, g + i * n, w + p * n);
    }
  }
}

void ColumnGemm(int64_t r0, int64_t r1, int64_t m, int64_t n, const float* x,
                int64_t x_stride, const float* w, int64_t w_stride, float* y) {
  for (int64_t r = r0; r < r1; ++r) {
    GemmKBlock(m, n, x + r, x_stride, w, w_stride, y + r * n);
  }
}

float Sum(int64_t n, const float* a) {
  float p8[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (int64_t j = 0; j < n; ++j) {
    p8[j & 7] += a[j];
  }
  return Fold8Add(p8);
}

float SumSqDiff(int64_t n, const float* a, float mu) {
  float p8[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (int64_t j = 0; j < n; ++j) {
    const float d = a[j] - mu;
    p8[j & 7] = std::fmaf(d, d, p8[j & 7]);
  }
  return Fold8Add(p8);
}

float Max(int64_t n, const float* a) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  float p8[8] = {kNegInf, kNegInf, kNegInf, kNegInf,
                 kNegInf, kNegInf, kNegInf, kNegInf};
  for (int64_t j = 0; j < n; ++j) {
    const float v = a[j];
    p8[j & 7] = (p8[j & 7] > v) ? p8[j & 7] : v;  // VMAXPS semantics.
  }
  return Fold8Max(p8);
}

float SumExpShifted(int64_t n, const float* x, float shift) {
  float p8[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (int64_t j = 0; j < n; ++j) {
    p8[j & 7] += HfExpf(x[j] + shift);
  }
  return Fold8Add(p8);
}

void Add(int64_t n, const float* a, const float* b, float* y) {
  for (int64_t j = 0; j < n; ++j) {
    y[j] = a[j] + b[j];
  }
}

void Sub(int64_t n, const float* a, const float* b, float* y) {
  for (int64_t j = 0; j < n; ++j) {
    y[j] = a[j] - b[j];
  }
}

void Mul(int64_t n, const float* a, const float* b, float* y) {
  for (int64_t j = 0; j < n; ++j) {
    y[j] = a[j] * b[j];
  }
}

void Scale(int64_t n, const float* a, float s, float* y) {
  for (int64_t j = 0; j < n; ++j) {
    y[j] = a[j] * s;
  }
}

void AddScalar(int64_t n, const float* a, float s, float* y) {
  for (int64_t j = 0; j < n; ++j) {
    y[j] = a[j] + s;
  }
}

void MulAcc(int64_t n, const float* a, const float* b, float* y) {
  for (int64_t j = 0; j < n; ++j) {
    y[j] = std::fmaf(a[j], b[j], y[j]);
  }
}

void ScaleAcc(int64_t n, const float* a, float s, float* y) {
  for (int64_t j = 0; j < n; ++j) {
    y[j] = std::fmaf(a[j], s, y[j]);
  }
}

void AddAcc(int64_t n, const float* a, float* y) {
  for (int64_t j = 0; j < n; ++j) {
    y[j] += a[j];
  }
}

void LayerNormRow(int64_t n, const float* a, float mu, float inv,
                  const float* gamma, const float* beta, float* norm_out,
                  float* y) {
  for (int64_t j = 0; j < n; ++j) {
    const float norm = (a[j] - mu) * inv;
    norm_out[j] = norm;
    y[j] = std::fmaf(gamma[j], norm, beta[j]);
  }
}

void Exp(int64_t n, const float* x, float* y) {
  for (int64_t j = 0; j < n; ++j) {
    y[j] = HfExpf(x[j]);
  }
}

// 2u = 2·sqrt(2/pi)·(x + ((c·x)·x)·x) of the GELU input x.
inline float GeluTwoU(float x) {
  return kGeluTwoSqrt2OverPi * (x + kGeluCubic * x * x * x);
}

void Gelu(int64_t n, const float* x, float* y) {
  for (int64_t j = 0; j < n; ++j) {
    y[j] = x[j] / (1.0f + HfExpf(-GeluTwoU(x[j])));
  }
}

// gelu' = s + x·s·(1 - s)·2u' with s = sigmoid(2u). 1 - s is computed as
// sigmoid(-2u) from its own exponential: 1 - s would cancel for large x.
void GeluBackward(int64_t n, const float* x, const float* g, float* dx) {
  for (int64_t j = 0; j < n; ++j) {
    const float two_u = GeluTwoU(x[j]);
    const float s = 1.0f / (1.0f + HfExpf(-two_u));
    const float one_minus_s = 1.0f / (1.0f + HfExpf(two_u));
    const float du = kGeluTwoSqrt2OverPi * (1.0f + kGeluThreeCubic * x[j] * x[j]);
    const float d = s + x[j] * s * one_minus_s * du;
    dx[j] = std::fmaf(g[j], d, dx[j]);
  }
}

void LogSoftmaxBackwardRow(int64_t n, const float* y, const float* g,
                           float gsum, float* dx) {
  for (int64_t j = 0; j < n; ++j) {
    const float e = HfExpf(y[j]);
    dx[j] += std::fmaf(-e, gsum, g[j]);
  }
}

void LayerNormBackwardRow(int64_t n, const float* norm, const float* dxhat,
                          float inv, float sum_dxhat, float sum_dxhat_norm,
                          float* dx) {
  const float nf = static_cast<float>(n);
  const float scale = inv / nf;
  for (int64_t j = 0; j < n; ++j) {
    float t = std::fmaf(nf, dxhat[j], -sum_dxhat);
    t = std::fmaf(-norm[j], sum_dxhat_norm, t);
    dx[j] = std::fmaf(t, scale, dx[j]);
  }
}

void AdamUpdate(int64_t n, float* w, const float* g, float* m, float* v,
                float lr, float beta1, float beta2, float eps, float clip,
                float bias1, float bias2) {
  const float one_m_beta1 = 1.0f - beta1;
  const float one_m_beta2 = 1.0f - beta2;
  const bool do_clip = clip > 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    float gi = g[i];
    if (do_clip) {
      // MAXPS-then-MINPS semantics, matching the vector tier exactly.
      const float t = (gi > -clip) ? gi : -clip;
      gi = (t < clip) ? t : clip;
    }
    m[i] = beta1 * m[i] + one_m_beta1 * gi;
    v[i] = beta2 * v[i] + one_m_beta2 * gi * gi;
    const float m_hat = m[i] / bias1;
    const float v_hat = v[i] / bias2;
    w[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace
}  // namespace scalar_impl

// ====================================================================
// AVX2/FMA tier: the same op sequence, 8 lanes at a time. Tails run the
// scalar lane-partial code, or the vector ops on masked loads whose
// results land in the tail's lanes only, so every element lands in lane
// j % 8 exactly as the scalar tier's loop does.
// ====================================================================
#if HF_SIMD_X86
namespace avx2_impl {
namespace {

void GemmRows(int64_t rows, int64_t kb, int64_t n, const float* x,
              int64_t x_stride, const float* w, int64_t w_stride, float* y,
              int64_t y_stride) HF_AVX2_TARGET;
void DotRows(int64_t rows, int64_t k, int64_t n, const float* g,
             const float* w, float* da) HF_AVX2_TARGET;
void ColumnGemm(int64_t r0, int64_t r1, int64_t m, int64_t n, const float* x,
                int64_t x_stride, const float* w, int64_t w_stride, float* y)
    HF_AVX2_TARGET;
float Dot(int64_t n, const float* a, const float* b) HF_AVX2_TARGET;
float Sum(int64_t n, const float* a) HF_AVX2_TARGET;
float SumSqDiff(int64_t n, const float* a, float mu) HF_AVX2_TARGET;
float Max(int64_t n, const float* a) HF_AVX2_TARGET;
float SumExpShifted(int64_t n, const float* x, float shift) HF_AVX2_TARGET;
void Add(int64_t n, const float* a, const float* b, float* y)
    HF_AVX2_TARGET;
void Sub(int64_t n, const float* a, const float* b, float* y)
    HF_AVX2_TARGET;
void Mul(int64_t n, const float* a, const float* b, float* y)
    HF_AVX2_TARGET;
void Scale(int64_t n, const float* a, float s, float* y) HF_AVX2_TARGET;
void AddScalar(int64_t n, const float* a, float s, float* y)
    HF_AVX2_TARGET;
void MulAcc(int64_t n, const float* a, const float* b, float* y)
    HF_AVX2_TARGET;
void ScaleAcc(int64_t n, const float* a, float s, float* y) HF_AVX2_TARGET;
void AddAcc(int64_t n, const float* a, float* y) HF_AVX2_TARGET;
void LayerNormRow(int64_t n, const float* a, float mu, float inv,
                  const float* gamma, const float* beta, float* norm_out,
                  float* y) HF_AVX2_TARGET;
void Exp(int64_t n, const float* x, float* y) HF_AVX2_TARGET;
void Gelu(int64_t n, const float* x, float* y) HF_AVX2_TARGET;
void GeluBackward(int64_t n, const float* x, const float* g, float* dx)
    HF_AVX2_TARGET;
void LogSoftmaxBackwardRow(int64_t n, const float* y, const float* g,
                           float gsum, float* dx) HF_AVX2_TARGET;
void LayerNormBackwardRow(int64_t n, const float* norm, const float* dxhat,
                          float inv, float sum_dxhat, float sum_dxhat_norm,
                          float* dx) HF_AVX2_TARGET;
void AdamUpdate(int64_t n, float* w, const float* g, float* m, float* v,
                float lr, float beta1, float beta2, float eps, float clip,
                float bias1, float bias2) HF_AVX2_TARGET;

// Lanes [0, count) of an n % 8 tail, count in [1, 7]. Masked loads
// read only those elements, so a tail can run the vector op sequence
// without touching memory past the row.
HF_AVX2_TARGET inline __m256i TailMask(int64_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// The GEMM tiles read x through two strides, x(row, p) = x[row * rs +
// p * ps]: GemmRows' row-major x is (x_stride, 1) and ColumnGemm's
// column walk is (1, x_stride). Each tile holds R rows x (8 * T) columns
// of y in registers across the whole k-block, loading each w row once
// per tile; per output element the walk is still p-ascending.
template <int R, int T>
HF_AVX2_TARGET inline void GemmTile(int64_t kb, const float* x, int64_t rs,
                                    int64_t ps, const float* w,
                                    int64_t w_stride, float* y, int64_t ys) {
  __m256 acc[R][T];
  for (int r = 0; r < R; ++r) {
    for (int t = 0; t < T; ++t) {
      acc[r][t] = _mm256_loadu_ps(y + r * ys + 8 * t);
    }
  }
  const float* xp = x;
  const float* wp = w;
  for (int64_t p = 0; p < kb; ++p, xp += ps, wp += w_stride) {
    __m256 wv[T];
    for (int t = 0; t < T; ++t) {
      wv[t] = _mm256_loadu_ps(wp + 8 * t);
    }
    for (int r = 0; r < R; ++r) {
      const __m256 xv = _mm256_set1_ps(xp[r * rs]);
      for (int t = 0; t < T; ++t) {
        acc[r][t] = _mm256_fmadd_ps(xv, wv[t], acc[r][t]);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int t = 0; t < T; ++t) {
      _mm256_storeu_ps(y + r * ys + 8 * t, acc[r][t]);
    }
  }
}

// R rows x 4 columns in 128-bit registers (BlockAttention's K x K scores).
template <int R>
HF_AVX2_TARGET inline void GemmTile4(int64_t kb, const float* x, int64_t rs,
                                     int64_t ps, const float* w,
                                     int64_t w_stride, float* y, int64_t ys) {
  __m128 acc[R];
  for (int r = 0; r < R; ++r) {
    acc[r] = _mm_loadu_ps(y + r * ys);
  }
  const float* xp = x;
  const float* wp = w;
  for (int64_t p = 0; p < kb; ++p, xp += ps, wp += w_stride) {
    const __m128 wv = _mm_loadu_ps(wp);
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm_fmadd_ps(_mm_set1_ps(xp[r * rs]), wv, acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm_storeu_ps(y + r * ys, acc[r]);
  }
}

// R rows of one column: the scalar fma chain.
template <int R>
HF_AVX2_TARGET inline void GemmColumn(int64_t kb, const float* x, int64_t rs,
                                      int64_t ps, const float* w,
                                      int64_t w_stride, float* y, int64_t ys) {
  for (int r = 0; r < R; ++r) {
    float acc = y[r * ys];
    const float* xp = x + r * rs;
    const float* wp = w;
    for (int64_t p = 0; p < kb; ++p, xp += ps, wp += w_stride) {
      acc = std::fmaf(*xp, *wp, acc);
    }
    y[r * ys] = acc;
  }
}

// R rows across all n columns: the widest tiles that fit, then the
// 4-wide tile, then single columns.
template <int R>
HF_AVX2_TARGET inline void GemmStrip(int64_t kb, int64_t n, const float* x,
                                     int64_t rs, int64_t ps, const float* w,
                                     int64_t w_stride, float* y, int64_t ys) {
  int64_t j = 0;
  if constexpr (R == 1) {
    for (; j + 64 <= n; j += 64) {
      GemmTile<1, 8>(kb, x, rs, ps, w + j, w_stride, y + j, ys);
    }
  }
  if constexpr (R <= 2) {
    for (; j + 32 <= n; j += 32) {
      GemmTile<R, 4>(kb, x, rs, ps, w + j, w_stride, y + j, ys);
    }
  }
  for (; j + 16 <= n; j += 16) {
    GemmTile<R, 2>(kb, x, rs, ps, w + j, w_stride, y + j, ys);
  }
  for (; j + 8 <= n; j += 8) {
    GemmTile<R, 1>(kb, x, rs, ps, w + j, w_stride, y + j, ys);
  }
  for (; j + 4 <= n; j += 4) {
    GemmTile4<R>(kb, x, rs, ps, w + j, w_stride, y + j, ys);
  }
  for (; j < n; ++j) {
    GemmColumn<R>(kb, x, rs, ps, w + j, w_stride, y + j, ys);
  }
}

// Rows in 2-row strips when n >= 32 (2 x 32 tiles), else 4-row strips
// (4 x 16, 4 x 8, 4 x 4); leftover rows run the one-row strip.
HF_AVX2_TARGET void GemmPanel(int64_t rows, int64_t kb, int64_t n,
                              const float* x, int64_t rs, int64_t ps,
                              const float* w, int64_t w_stride, float* y,
                              int64_t ys) {
  int64_t i = 0;
  if (n >= 32) {
    for (; i + 2 <= rows; i += 2) {
      GemmStrip<2>(kb, n, x + i * rs, rs, ps, w, w_stride, y + i * ys, ys);
    }
  } else {
    for (; i + 4 <= rows; i += 4) {
      GemmStrip<4>(kb, n, x + i * rs, rs, ps, w, w_stride, y + i * ys, ys);
    }
  }
  for (; i < rows; ++i) {
    GemmStrip<1>(kb, n, x + i * rs, rs, ps, w, w_stride, y + i * ys, ys);
  }
}

void GemmRows(int64_t rows, int64_t kb, int64_t n, const float* x,
              int64_t x_stride, const float* w, int64_t w_stride, float* y,
              int64_t y_stride) {
  GemmPanel(rows, kb, n, x, x_stride, 1, w, w_stride, y, y_stride);
}

void ColumnGemm(int64_t r0, int64_t r1, int64_t m, int64_t n, const float* x,
                int64_t x_stride, const float* w, int64_t w_stride, float* y) {
  GemmPanel(r1 - r0, m, n, x + r0, 1, x_stride, w, w_stride, y + r0 * n, n);
}

// In-place 8x8 transpose: afterwards v[l] lane q holds what v[q] lane l
// held.
HF_AVX2_TARGET inline void Transpose8(__m256 v[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  v[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  v[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  v[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  v[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  v[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  v[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  v[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  v[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// Eight Dots at once. The rows * k dots are numbered f = i * k + p,
// which is also da's index, and run in groups of 8 consecutive f (a
// group may span rows when k is not a multiple of 8). Accumulator q
// holds dot q's 8 lane partials; the n % 8 tail applies the same
// lane-partial fmas to masked loads and blends them into the tail's
// lanes only. One transpose turns lane partial l of every dot into
// vector l, so 7 vertical adds fold all eight as Fold8Add does, lane for
// lane. In a last group of fewer than 8 dots, the unused accumulators
// rerun the group's first dot and their lanes are never stored.
void DotRows(int64_t rows, int64_t k, int64_t n, const float* g,
             const float* w, float* da) {
  const int64_t n8 = n & ~int64_t{7};
  const int64_t dots = rows * k;
  int64_t i = 0;  // Dot f0 is (i, p).
  int64_t p = 0;
  for (int64_t f0 = 0; f0 < dots; f0 += 8) {
    const int64_t count = std::min<int64_t>(8, dots - f0);
    const float* gq[8];
    const float* wq[8];
    __m256 acc[8];
    for (int q = 0; q < 8; ++q) {
      if (q < count) {
        gq[q] = g + i * n;
        wq[q] = w + p * n;
        if (++p == k) {
          p = 0;
          ++i;
        }
      } else {
        gq[q] = gq[0];
        wq[q] = wq[0];
      }
      acc[q] = _mm256_setzero_ps();
    }
    for (int64_t j = 0; j < n8; j += 8) {
      for (int q = 0; q < 8; ++q) {
        acc[q] = _mm256_fmadd_ps(_mm256_loadu_ps(gq[q] + j),
                                 _mm256_loadu_ps(wq[q] + j), acc[q]);
      }
    }
    if (n8 < n) {
      const __m256i tail_mask = TailMask(n - n8);
      const __m256 lanes = _mm256_castsi256_ps(tail_mask);
      for (int q = 0; q < 8; ++q) {
        const __m256 fma = _mm256_fmadd_ps(
            _mm256_maskload_ps(gq[q] + n8, tail_mask),
            _mm256_maskload_ps(wq[q] + n8, tail_mask), acc[q]);
        acc[q] = _mm256_blendv_ps(acc[q], fma, lanes);
      }
    }
    Transpose8(acc);
    __m256 sum = acc[0];
    for (int l = 1; l < 8; ++l) {
      sum = _mm256_add_ps(sum, acc[l]);
    }
    if (count == 8) {
      _mm256_storeu_ps(da + f0, _mm256_add_ps(_mm256_loadu_ps(da + f0), sum));
    } else {
      alignas(32) float folded[8];
      _mm256_store_ps(folded, sum);
      for (int64_t q = 0; q < count; ++q) {
        da[f0 + q] += folded[q];
      }
    }
  }
}

float Dot(int64_t n, const float* a, const float* b) {
  __m256 acc = _mm256_setzero_ps();
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                          acc);
  }
  alignas(32) float p8[8];
  _mm256_store_ps(p8, acc);
  for (int64_t j = n8; j < n; ++j) {
    p8[j & 7] = std::fmaf(a[j], b[j], p8[j & 7]);
  }
  return Fold8Add(p8);
}

float Sum(int64_t n, const float* a) {
  __m256 acc = _mm256_setzero_ps();
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(a + j));
  }
  alignas(32) float p8[8];
  _mm256_store_ps(p8, acc);
  for (int64_t j = n8; j < n; ++j) {
    p8[j & 7] += a[j];
  }
  return Fold8Add(p8);
}

float SumSqDiff(int64_t n, const float* a, float mu) {
  const __m256 muv = _mm256_set1_ps(mu);
  __m256 acc = _mm256_setzero_ps();
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + j), muv);
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  alignas(32) float p8[8];
  _mm256_store_ps(p8, acc);
  for (int64_t j = n8; j < n; ++j) {
    const float d = a[j] - mu;
    p8[j & 7] = std::fmaf(d, d, p8[j & 7]);
  }
  return Fold8Add(p8);
}

float Max(int64_t n, const float* a) {
  __m256 acc = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    acc = _mm256_max_ps(acc, _mm256_loadu_ps(a + j));
  }
  alignas(32) float p8[8];
  _mm256_store_ps(p8, acc);
  for (int64_t j = n8; j < n; ++j) {
    const float v = a[j];
    p8[j & 7] = (p8[j & 7] > v) ? p8[j & 7] : v;
  }
  return Fold8Max(p8);
}

// 8-lane HfExpf: clamp so the int conversion in the core is safe, then
// blend the special cases back in. Bitwise equal to the scalar HfExpf
// in every lane.
HF_AVX2_TARGET inline __m256 Exp8(__m256 x) {
  const __m256 lo = _mm256_set1_ps(kExpMinInput);
  const __m256 hi = _mm256_set1_ps(kExpMaxInput);
  // max(x, lo) returns lo for NaN lanes, so the core never sees NaN.
  const __m256 xc = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
  const __m256 n_f = _mm256_round_ps(
      _mm256_mul_ps(xc, _mm256_set1_ps(kLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n_f, _mm256_set1_ps(kExpC1), xc);
  r = _mm256_fnmadd_ps(n_f, _mm256_set1_ps(kExpC2), r);
  __m256 z = _mm256_set1_ps(kExpP0);
  z = _mm256_fmadd_ps(z, r, _mm256_set1_ps(kExpP1));
  z = _mm256_fmadd_ps(z, r, _mm256_set1_ps(kExpP2));
  z = _mm256_fmadd_ps(z, r, _mm256_set1_ps(kExpP3));
  z = _mm256_fmadd_ps(z, r, _mm256_set1_ps(kExpP4));
  z = _mm256_fmadd_ps(z, r, _mm256_set1_ps(kExpP5));
  const __m256 r2 = _mm256_mul_ps(r, r);
  z = _mm256_fmadd_ps(z, r2, r);
  z = _mm256_add_ps(z, _mm256_set1_ps(1.0f));
  const __m256i n_i = _mm256_cvtps_epi32(n_f);
  const __m256i scale_bits = _mm256_slli_epi32(
      _mm256_add_epi32(n_i, _mm256_set1_epi32(127)), 23);
  __m256 result = _mm256_mul_ps(z, _mm256_castsi256_ps(scale_bits));
  // Specials, in the same precedence as the scalar early returns:
  // underflow -> 0, overflow -> +inf, NaN -> x.
  result = _mm256_blendv_ps(result, _mm256_setzero_ps(),
                            _mm256_cmp_ps(x, lo, _CMP_LT_OQ));
  result = _mm256_blendv_ps(
      result, _mm256_set1_ps(std::numeric_limits<float>::infinity()),
      _mm256_cmp_ps(x, hi, _CMP_GT_OQ));
  result = _mm256_blendv_ps(result, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
  return result;
}

float SumExpShifted(int64_t n, const float* x, float shift) {
  const __m256 shiftv = _mm256_set1_ps(shift);
  __m256 acc = _mm256_setzero_ps();
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    acc = _mm256_add_ps(
        acc, Exp8(_mm256_add_ps(_mm256_loadu_ps(x + j), shiftv)));
  }
  if (n8 < n) {
    // The tail's exponentials in one Exp8, added into its lanes only
    // (K-wide attention rows are all tail).
    const __m256i mask = TailMask(n - n8);
    const __m256 e = Exp8(_mm256_add_ps(_mm256_maskload_ps(x + n8, mask), shiftv));
    acc = _mm256_blendv_ps(acc, _mm256_add_ps(acc, e), _mm256_castsi256_ps(mask));
  }
  alignas(32) float p8[8];
  _mm256_store_ps(p8, acc);
  return Fold8Add(p8);
}

void Add(int64_t n, const float* a, const float* b, float* y) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    _mm256_storeu_ps(
        y + j, _mm256_add_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j)));
  }
  for (int64_t j = n8; j < n; ++j) {
    y[j] = a[j] + b[j];
  }
}

void Sub(int64_t n, const float* a, const float* b, float* y) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    _mm256_storeu_ps(
        y + j, _mm256_sub_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j)));
  }
  for (int64_t j = n8; j < n; ++j) {
    y[j] = a[j] - b[j];
  }
}

void Mul(int64_t n, const float* a, const float* b, float* y) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    _mm256_storeu_ps(
        y + j, _mm256_mul_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j)));
  }
  for (int64_t j = n8; j < n; ++j) {
    y[j] = a[j] * b[j];
  }
}

void Scale(int64_t n, const float* a, float s, float* y) {
  const __m256 sv = _mm256_set1_ps(s);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    _mm256_storeu_ps(y + j, _mm256_mul_ps(_mm256_loadu_ps(a + j), sv));
  }
  for (int64_t j = n8; j < n; ++j) {
    y[j] = a[j] * s;
  }
}

void AddScalar(int64_t n, const float* a, float s, float* y) {
  const __m256 sv = _mm256_set1_ps(s);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    _mm256_storeu_ps(y + j, _mm256_add_ps(_mm256_loadu_ps(a + j), sv));
  }
  for (int64_t j = n8; j < n; ++j) {
    y[j] = a[j] + s;
  }
}

void MulAcc(int64_t n, const float* a, const float* b, float* y) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    _mm256_storeu_ps(
        y + j, _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                               _mm256_loadu_ps(y + j)));
  }
  for (int64_t j = n8; j < n; ++j) {
    y[j] = std::fmaf(a[j], b[j], y[j]);
  }
}

void ScaleAcc(int64_t n, const float* a, float s, float* y) {
  const __m256 sv = _mm256_set1_ps(s);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    _mm256_storeu_ps(
        y + j,
        _mm256_fmadd_ps(_mm256_loadu_ps(a + j), sv, _mm256_loadu_ps(y + j)));
  }
  for (int64_t j = n8; j < n; ++j) {
    y[j] = std::fmaf(a[j], s, y[j]);
  }
}

void AddAcc(int64_t n, const float* a, float* y) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    _mm256_storeu_ps(
        y + j, _mm256_add_ps(_mm256_loadu_ps(y + j), _mm256_loadu_ps(a + j)));
  }
  for (int64_t j = n8; j < n; ++j) {
    y[j] += a[j];
  }
}

void LayerNormRow(int64_t n, const float* a, float mu, float inv,
                  const float* gamma, const float* beta, float* norm_out,
                  float* y) {
  const __m256 muv = _mm256_set1_ps(mu);
  const __m256 invv = _mm256_set1_ps(inv);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    const __m256 norm =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(a + j), muv), invv);
    _mm256_storeu_ps(norm_out + j, norm);
    _mm256_storeu_ps(y + j, _mm256_fmadd_ps(_mm256_loadu_ps(gamma + j), norm,
                                            _mm256_loadu_ps(beta + j)));
  }
  for (int64_t j = n8; j < n; ++j) {
    const float norm = (a[j] - mu) * inv;
    norm_out[j] = norm;
    y[j] = std::fmaf(gamma[j], norm, beta[j]);
  }
}

void Exp(int64_t n, const float* x, float* y) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    _mm256_storeu_ps(y + j, Exp8(_mm256_loadu_ps(x + j)));
  }
  if (n8 < n) {
    const __m256i mask = TailMask(n - n8);
    _mm256_maskstore_ps(y + n8, mask, Exp8(_mm256_maskload_ps(x + n8, mask)));
  }
}

// 8-lane scalar_impl::GeluTwoU: the same mul/mul/mul/add/mul sequence.
HF_AVX2_TARGET inline __m256 GeluTwoU8(__m256 x) {
  const __m256 cubic = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluCubic), x), x), x);
  return _mm256_mul_ps(_mm256_set1_ps(kGeluTwoSqrt2OverPi), _mm256_add_ps(x, cubic));
}

HF_AVX2_TARGET inline __m256 Neg8(__m256 x) {
  return _mm256_xor_ps(x, _mm256_set1_ps(-0.0f));
}

void Gelu(int64_t n, const float* x, float* y) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    const __m256 xv = _mm256_loadu_ps(x + j);
    const __m256 e = Exp8(Neg8(GeluTwoU8(xv)));
    _mm256_storeu_ps(y + j, _mm256_div_ps(xv, _mm256_add_ps(one, e)));
  }
  scalar_impl::Gelu(n - n8, x + n8, y + n8);
}

void GeluBackward(int64_t n, const float* x, const float* g, float* dx) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    const __m256 xv = _mm256_loadu_ps(x + j);
    const __m256 two_u = GeluTwoU8(xv);
    const __m256 s = _mm256_div_ps(one, _mm256_add_ps(one, Exp8(Neg8(two_u))));
    const __m256 one_minus_s = _mm256_div_ps(one, _mm256_add_ps(one, Exp8(two_u)));
    const __m256 du = _mm256_mul_ps(
        _mm256_set1_ps(kGeluTwoSqrt2OverPi),
        _mm256_add_ps(one, _mm256_mul_ps(
                               _mm256_mul_ps(_mm256_set1_ps(kGeluThreeCubic), xv), xv)));
    const __m256 d = _mm256_add_ps(
        s, _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(xv, s), one_minus_s), du));
    _mm256_storeu_ps(dx + j, _mm256_fmadd_ps(_mm256_loadu_ps(g + j), d,
                                             _mm256_loadu_ps(dx + j)));
  }
  scalar_impl::GeluBackward(n - n8, x + n8, g + n8, dx + n8);
}

void LogSoftmaxBackwardRow(int64_t n, const float* y, const float* g,
                           float gsum, float* dx) {
  const __m256 gsumv = _mm256_set1_ps(gsum);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    const __m256 e = Exp8(_mm256_loadu_ps(y + j));
    const __m256 t = _mm256_fnmadd_ps(e, gsumv, _mm256_loadu_ps(g + j));
    _mm256_storeu_ps(dx + j, _mm256_add_ps(_mm256_loadu_ps(dx + j), t));
  }
  if (n8 < n) {
    const __m256i mask = TailMask(n - n8);
    const __m256 e = Exp8(_mm256_maskload_ps(y + n8, mask));
    const __m256 t = _mm256_fnmadd_ps(e, gsumv, _mm256_maskload_ps(g + n8, mask));
    _mm256_maskstore_ps(dx + n8, mask, _mm256_add_ps(_mm256_maskload_ps(dx + n8, mask), t));
  }
}

void LayerNormBackwardRow(int64_t n, const float* norm, const float* dxhat,
                          float inv, float sum_dxhat, float sum_dxhat_norm,
                          float* dx) {
  const float nf = static_cast<float>(n);
  const float scale = inv / nf;
  const __m256 nfv = _mm256_set1_ps(nf);
  const __m256 neg_sum = _mm256_set1_ps(-sum_dxhat);
  const __m256 ssnv = _mm256_set1_ps(sum_dxhat_norm);
  const __m256 scalev = _mm256_set1_ps(scale);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t j = 0; j < n8; j += 8) {
    __m256 t = _mm256_fmadd_ps(nfv, _mm256_loadu_ps(dxhat + j), neg_sum);
    t = _mm256_fnmadd_ps(_mm256_loadu_ps(norm + j), ssnv, t);
    _mm256_storeu_ps(dx + j,
                     _mm256_fmadd_ps(t, scalev, _mm256_loadu_ps(dx + j)));
  }
  for (int64_t j = n8; j < n; ++j) {
    float t = std::fmaf(nf, dxhat[j], -sum_dxhat);
    t = std::fmaf(-norm[j], sum_dxhat_norm, t);
    dx[j] = std::fmaf(t, scale, dx[j]);
  }
}

void AdamUpdate(int64_t n, float* w, const float* g, float* m, float* v,
                float lr, float beta1, float beta2, float eps, float clip,
                float bias1, float bias2) {
  const float one_m_beta1 = 1.0f - beta1;
  const float one_m_beta2 = 1.0f - beta2;
  const bool do_clip = clip > 0.0f;
  const __m256 clip_lo = _mm256_set1_ps(-clip);
  const __m256 clip_hi = _mm256_set1_ps(clip);
  const __m256 b1v = _mm256_set1_ps(beta1);
  const __m256 b2v = _mm256_set1_ps(beta2);
  const __m256 ob1v = _mm256_set1_ps(one_m_beta1);
  const __m256 ob2v = _mm256_set1_ps(one_m_beta2);
  const __m256 bias1v = _mm256_set1_ps(bias1);
  const __m256 bias2v = _mm256_set1_ps(bias2);
  const __m256 lrv = _mm256_set1_ps(lr);
  const __m256 epsv = _mm256_set1_ps(eps);
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    __m256 gv = _mm256_loadu_ps(g + i);
    if (do_clip) {
      gv = _mm256_min_ps(_mm256_max_ps(gv, clip_lo), clip_hi);
    }
    const __m256 mv = _mm256_add_ps(
        _mm256_mul_ps(b1v, _mm256_loadu_ps(m + i)), _mm256_mul_ps(ob1v, gv));
    const __m256 vv = _mm256_add_ps(
        _mm256_mul_ps(b2v, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(_mm256_mul_ps(ob2v, gv), gv));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m256 m_hat = _mm256_div_ps(mv, bias1v);
    const __m256 v_hat = _mm256_div_ps(vv, bias2v);
    const __m256 den = _mm256_add_ps(_mm256_sqrt_ps(v_hat), epsv);
    const __m256 step = _mm256_div_ps(_mm256_mul_ps(lrv, m_hat), den);
    _mm256_storeu_ps(w + i, _mm256_sub_ps(_mm256_loadu_ps(w + i), step));
  }
  for (int64_t i = n8; i < n; ++i) {
    float gi = g[i];
    if (do_clip) {
      const float t = (gi > -clip) ? gi : -clip;
      gi = (t < clip) ? t : clip;
    }
    m[i] = beta1 * m[i] + one_m_beta1 * gi;
    v[i] = beta2 * v[i] + one_m_beta2 * gi * gi;
    const float m_hat = m[i] / bias1;
    const float v_hat = v[i] / bias2;
    w[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace
}  // namespace avx2_impl
#endif  // HF_SIMD_X86

// ====================================================================
// Public dispatchers.
// ====================================================================
namespace simd {

namespace {
inline bool UseAvx2() {
#if HF_SIMD_X86
  return ActiveSimdLevel() == SimdLevel::kAvx2Fma;
#else
  return false;
#endif
}
}  // namespace

void GemmRows(int64_t rows, int64_t kb, int64_t n, const float* x,
              int64_t x_stride, const float* w, int64_t w_stride, float* y,
              int64_t y_stride) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::GemmRows(rows, kb, n, x, x_stride, w, w_stride, y, y_stride);
    return;
  }
#endif
  scalar_impl::GemmRows(rows, kb, n, x, x_stride, w, w_stride, y, y_stride);
}

void DotRows(int64_t rows, int64_t k, int64_t n, const float* g,
             const float* w, float* da) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::DotRows(rows, k, n, g, w, da);
    return;
  }
#endif
  scalar_impl::DotRows(rows, k, n, g, w, da);
}

void ColumnGemm(int64_t r0, int64_t r1, int64_t m, int64_t n, const float* x,
                int64_t x_stride, const float* w, int64_t w_stride, float* y) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::ColumnGemm(r0, r1, m, n, x, x_stride, w, w_stride, y);
    return;
  }
#endif
  scalar_impl::ColumnGemm(r0, r1, m, n, x, x_stride, w, w_stride, y);
}

float Dot(int64_t n, const float* a, const float* b) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    return avx2_impl::Dot(n, a, b);
  }
#endif
  return scalar_impl::Dot(n, a, b);
}

float Sum(int64_t n, const float* a) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    return avx2_impl::Sum(n, a);
  }
#endif
  return scalar_impl::Sum(n, a);
}

float SumSqDiff(int64_t n, const float* a, float mu) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    return avx2_impl::SumSqDiff(n, a, mu);
  }
#endif
  return scalar_impl::SumSqDiff(n, a, mu);
}

float Max(int64_t n, const float* a) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    return avx2_impl::Max(n, a);
  }
#endif
  return scalar_impl::Max(n, a);
}

float SumExpShifted(int64_t n, const float* x, float shift) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    return avx2_impl::SumExpShifted(n, x, shift);
  }
#endif
  return scalar_impl::SumExpShifted(n, x, shift);
}

void Add(int64_t n, const float* a, const float* b, float* y) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::Add(n, a, b, y);
    return;
  }
#endif
  scalar_impl::Add(n, a, b, y);
}

void Sub(int64_t n, const float* a, const float* b, float* y) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::Sub(n, a, b, y);
    return;
  }
#endif
  scalar_impl::Sub(n, a, b, y);
}

void Mul(int64_t n, const float* a, const float* b, float* y) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::Mul(n, a, b, y);
    return;
  }
#endif
  scalar_impl::Mul(n, a, b, y);
}

void Scale(int64_t n, const float* a, float s, float* y) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::Scale(n, a, s, y);
    return;
  }
#endif
  scalar_impl::Scale(n, a, s, y);
}

void AddScalar(int64_t n, const float* a, float s, float* y) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::AddScalar(n, a, s, y);
    return;
  }
#endif
  scalar_impl::AddScalar(n, a, s, y);
}

void MulAcc(int64_t n, const float* a, const float* b, float* y) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::MulAcc(n, a, b, y);
    return;
  }
#endif
  scalar_impl::MulAcc(n, a, b, y);
}

void ScaleAcc(int64_t n, const float* a, float s, float* y) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::ScaleAcc(n, a, s, y);
    return;
  }
#endif
  scalar_impl::ScaleAcc(n, a, s, y);
}

void AddAcc(int64_t n, const float* a, float* y) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::AddAcc(n, a, y);
    return;
  }
#endif
  scalar_impl::AddAcc(n, a, y);
}

void LayerNormRow(int64_t n, const float* a, float mu, float inv,
                  const float* gamma, const float* beta, float* norm_out,
                  float* y) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::LayerNormRow(n, a, mu, inv, gamma, beta, norm_out, y);
    return;
  }
#endif
  scalar_impl::LayerNormRow(n, a, mu, inv, gamma, beta, norm_out, y);
}

void Exp(int64_t n, const float* x, float* y) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::Exp(n, x, y);
    return;
  }
#endif
  scalar_impl::Exp(n, x, y);
}

void Gelu(int64_t n, const float* x, float* y) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::Gelu(n, x, y);
    return;
  }
#endif
  scalar_impl::Gelu(n, x, y);
}

void GeluBackward(int64_t n, const float* x, const float* g, float* dx) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::GeluBackward(n, x, g, dx);
    return;
  }
#endif
  scalar_impl::GeluBackward(n, x, g, dx);
}

void LogSoftmaxBackwardRow(int64_t n, const float* y, const float* g,
                           float gsum, float* dx) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::LogSoftmaxBackwardRow(n, y, g, gsum, dx);
    return;
  }
#endif
  scalar_impl::LogSoftmaxBackwardRow(n, y, g, gsum, dx);
}

void LayerNormBackwardRow(int64_t n, const float* norm, const float* dxhat,
                          float inv, float sum_dxhat, float sum_dxhat_norm,
                          float* dx) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::LayerNormBackwardRow(n, norm, dxhat, inv, sum_dxhat,
                                    sum_dxhat_norm, dx);
    return;
  }
#endif
  scalar_impl::LayerNormBackwardRow(n, norm, dxhat, inv, sum_dxhat,
                                    sum_dxhat_norm, dx);
}

void AdamUpdate(int64_t n, float* w, const float* g, float* m, float* v,
                float lr, float beta1, float beta2, float eps, float clip,
                float bias1, float bias2) {
#if HF_SIMD_X86
  if (UseAvx2()) {
    avx2_impl::AdamUpdate(n, w, g, m, v, lr, beta1, beta2, eps, clip, bias1,
                          bias2);
    return;
  }
#endif
  scalar_impl::AdamUpdate(n, w, g, m, v, lr, beta1, beta2, eps, clip, bias1,
                          bias2);
}

}  // namespace simd

}  // namespace hybridflow
