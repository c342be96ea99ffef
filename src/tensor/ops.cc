#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/parallel.h"
#include "src/tensor/simd.h"

namespace hybridflow {

namespace {

// --- Kernel instrumentation ------------------------------------------------
// One wall-time histogram plus a flops-equivalent counter per op label.
// Registry handles are pointer-stable for the process lifetime, so each
// kernel (including the backward lambdas) caches its series in a
// function-local static.
struct KernelSeries {
  Histogram& time_us;
  Counter& flops;
};

KernelSeries MakeKernelSeries(const char* op) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  return KernelSeries{
      registry.GetHistogram("tensor.kernel_us", ExponentialBuckets(1.0, 4.0, 10), {{"op", op}}),
      registry.GetCounter("tensor.flops_total", {{"op", op}})};
}

// RAII: records one kernel invocation's wall time and flops estimate.
class KernelTimer {
 public:
  KernelTimer(const KernelSeries& series, int64_t flops)
      : series_(series), flops_(flops), start_us_(WallclockTracer::NowMicros()) {}
  ~KernelTimer() {
    series_.time_us.Observe(WallclockTracer::NowMicros() - start_us_);
    series_.flops.Increment(static_cast<double>(flops_));
  }
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  const KernelSeries& series_;
  int64_t flops_;
  double start_us_;
};

// Flops-equivalent per-element costs for the generic elementwise templates
// and the row-wise kernels. Fixed estimates (a transcendental counts the
// same as an add) so the counters stay input-independent.
constexpr int64_t kUnaryFlopsPerElem = 4;
constexpr int64_t kBinaryFlopsPerElem = 6;
constexpr int64_t kLayerNormFwdFlopsPerElem = 8;
constexpr int64_t kLayerNormBwdFlopsPerElem = 14;
constexpr int64_t kSoftmaxFwdFlopsPerElem = 5;
constexpr int64_t kSoftmaxBwdFlopsPerElem = 4;

// Fixed (NON-tunable) row grain for cross-row reductions (LayerNorm
// dgamma/dbeta, broadcast-Add dbias). The tunable KernelTuning grains may
// change chunk shapes freely because chunks own disjoint outputs; a
// cross-row reduction's partial-sum association instead depends on its
// chunking, so it uses this constant — keeping results bitwise invariant
// under tuning sweeps too.
constexpr int64_t kReduceRowGrain = 32;
// Same idea for flat element reductions (Sum / Mean): chunk partials are
// keyed by this fixed grain and folded serially in chunk order.
constexpr int64_t kReduceElemGrain = 4096;

// Blocked out-of-place transpose of source rows [i0, i1):
// yt[j * m + i] = x[i * n + j]. Pure data movement (no float arithmetic);
// square tiles keep both access streams cache-resident.
constexpr int64_t kTransposeTile = 32;
void TransposeRows(int64_t i0, int64_t i1, int64_t m, int64_t n, const float* x,
                   float* yt) {
  for (int64_t ib = i0; ib < i1; ib += kTransposeTile) {
    const int64_t ie = std::min(i1, ib + kTransposeTile);
    for (int64_t j0 = 0; j0 < n; j0 += kTransposeTile) {
      const int64_t je = std::min(n, j0 + kTransposeTile);
      for (int64_t i = ib; i < ie; ++i) {
        for (int64_t j = j0; j < je; ++j) {
          yt[j * m + i] = x[i * n + j];
        }
      }
    }
  }
}

// The GEMM forward over output rows [i0, i1): y[i,:] += x[i,:] * w for
// x with k columns and w [k, n], one simd::GemmRows call per k-block.
// k-blocks advance in order and the kernel walks p ascending per output
// element, so every y[i,j] accumulates over p in ascending fma order
// regardless of the row range, the k block, the thread count, or the
// SIMD level.
void GemmRowRange(int64_t i0, int64_t i1, int64_t k, int64_t n, const float* x,
                  const float* w, int64_t k_block, float* y) {
  for (int64_t p0 = 0; p0 < k; p0 += k_block) {
    const int64_t p1 = std::min(k, p0 + k_block);
    simd::GemmRows(i1 - i0, p1 - p0, n, x + i0 * k + p0, k, w + p0 * n, n,
                   y + i0 * n, n);
  }
}

// MatMul's backward for y = x * w with x [m, k] and w [k, n], from the
// output grad dy. dx = dy * w^T: a chunk owns rows of x. dw = x^T * dy: a
// chunk owns rows of w (the k dimension) and each dw[p,j] accumulates
// over i ascending.
void MatMulBackward(int64_t m, int64_t k, int64_t n, const float* dy, const float* x,
                    const float* w, float* dx, float* dw) {
  const KernelTuning tuning = GetKernelTuning();
  const int64_t work = 2 * m * k * n;
  ParallelChunks(m, tuning.gemm_row_grain, work, [&](int64_t i0, int64_t i1) {
    simd::DotRows(i1 - i0, k, n, dy + i0 * n, w, dx + i0 * k);
  });
  ParallelChunks(k, tuning.gemm_row_grain, work, [&](int64_t p0, int64_t p1) {
    simd::ColumnGemm(p0, p1, m, n, x, k, dy, n, dw);
  });
}

// LayerNorm's forward over rows [i0, i1) of x [·, n]: the canonical simd
// row sequence (lane-partial mean and variance, then the fused
// normalize+affine row kernel). Keeps each row's 1/std and normalized
// row for the backward.
void LayerNormRows(int64_t i0, int64_t i1, int64_t n, const float* x, const float* gamma,
                   const float* beta, float eps, float* inv_std, float* normalized,
                   float* y) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* x_row = x + i * n;
    const float mean = simd::Sum(n, x_row) / static_cast<float>(n);
    const float var = simd::SumSqDiff(n, x_row, mean) / static_cast<float>(n);
    const float inv = 1.0f / std::sqrt(var + eps);
    inv_std[i] = inv;
    simd::LayerNormRow(n, x_row, mean, inv, gamma, beta, normalized + i * n, y + i * n);
  }
}

// LayerNorm's backward over all m rows from the output grad dy.
// dgamma/dbeta reduce ACROSS rows, so they go through per-chunk partial
// buffers keyed by the fixed kReduceRowGrain (not the tunable row grain)
// and are folded serially in chunk order — no atomics, bitwise invariant
// to threads and tuning. dx is row-exclusive and computed in the same
// pass.
void LayerNormBackward(int64_t m, int64_t n, const float* dy, const float* normalized,
                       const float* inv_std, const float* gamma, float* dx, float* dgamma,
                       float* dbeta) {
  const int64_t chunks = tensor_internal::NumChunks(m, kReduceRowGrain);
  std::vector<float> dgamma_partial(static_cast<size_t>(chunks * n), 0.0f);
  std::vector<float> dbeta_partial(static_cast<size_t>(chunks * n), 0.0f);
  const int64_t work = m * n * kLayerNormBwdFlopsPerElem;
  ParallelChunks(m, kReduceRowGrain, work, [&](int64_t i0, int64_t i1) {
    const int64_t chunk = i0 / kReduceRowGrain;
    float* dgamma_chunk = dgamma_partial.data() + chunk * n;
    float* dbeta_chunk = dbeta_partial.data() + chunk * n;
    std::vector<float> dxhat(static_cast<size_t>(n));
    for (int64_t i = i0; i < i1; ++i) {
      const float* g_row = dy + i * n;
      const float* norm_row = normalized + i * n;
      simd::MulAcc(n, g_row, norm_row, dgamma_chunk);
      simd::AddAcc(n, g_row, dbeta_chunk);
      // dx = inv_std/n * (n*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
      // with dxhat = dy * gamma materialized once per row so the two row
      // sums are plain lane-partial reductions.
      simd::Mul(n, g_row, gamma, dxhat.data());
      const float sum_dxhat = simd::Sum(n, dxhat.data());
      const float sum_dxhat_xhat = simd::Dot(n, dxhat.data(), norm_row);
      simd::LayerNormBackwardRow(n, norm_row, dxhat.data(), inv_std[i], sum_dxhat,
                                 sum_dxhat_xhat, dx + i * n);
    }
  });
  for (int64_t chunk = 0; chunk < chunks; ++chunk) {
    simd::AddAcc(n, dgamma_partial.data() + chunk * n, dgamma);
    simd::AddAcc(n, dbeta_partial.data() + chunk * n, dbeta);
  }
}

// One LogSoftmax row: lane-partial max, lane-partial sum of
// HfExpf(x - max) (so the shifted exponentials never overflow), one
// scalar log, then a vector shift. y may alias x.
void LogSoftmaxRow(int64_t n, const float* x, float* y) {
  const float max_val = simd::Max(n, x);
  const float denom = simd::SumExpShifted(n, x, -max_val);
  const float log_denom = std::log(denom) + max_val;
  simd::AddScalar(n, x, -log_denom, y);
}

// LogSoftmax backward row: dx = dy - softmax(x) * sum(dy).
void LogSoftmaxBackward(int64_t n, const float* y, const float* g, float* dx) {
  simd::LogSoftmaxBackwardRow(n, y, g, simd::Sum(n, g), dx);
}

// Wires a simple elementwise unary op: out[i] = fwd(a[i]); da[i] += dOut[i] * dfn(a[i], out[i]).
// Chunks of elem_grain elements run in parallel; each element is owned by
// exactly one chunk, so results are thread-count invariant.
template <typename Fwd, typename Dfn>
Tensor Unary(const Tensor& a, Fwd fwd, Dfn dfn) {
  static const KernelSeries series = MakeKernelSeries("elementwise");
  const std::vector<float>& x = a.data();
  const int64_t size = static_cast<int64_t>(x.size());
  const int64_t flops = size * kUnaryFlopsPerElem;
  std::vector<float> y(x.size());
  {
    KernelTimer timer(series, flops);
    ParallelChunks(size, GetKernelTuning().elem_grain, flops, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        y[static_cast<size_t>(i)] = fwd(x[static_cast<size_t>(i)]);
      }
    });
  }
  TensorNodePtr an = a.node();
  return MakeResult(a.shape(), std::move(y), {an}, [an, dfn](TensorNode& out) {
    static const KernelSeries series_bwd = MakeKernelSeries("elementwise_bwd");
    an->EnsureGrad();
    const int64_t size = static_cast<int64_t>(out.data.size());
    const int64_t flops = size * kUnaryFlopsPerElem;
    KernelTimer timer(series_bwd, flops);
    ParallelChunks(size, GetKernelTuning().elem_grain, flops, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        const size_t s = static_cast<size_t>(i);
        an->grad[s] += out.grad[s] * dfn(an->data[s], out.data[s]);
      }
    });
  });
}

// Wires an elementwise binary op with equal shapes. Same chunk-ownership
// scheme as Unary; a chunk writes both parents' grads for its elements.
template <typename Fwd, typename DA, typename DB>
Tensor Binary(const Tensor& a, const Tensor& b, Fwd fwd, DA da_fn, DB db_fn) {
  static const KernelSeries series = MakeKernelSeries("elementwise");
  HF_CHECK(a.shape() == b.shape());
  const std::vector<float>& x = a.data();
  const std::vector<float>& z = b.data();
  const int64_t size = static_cast<int64_t>(x.size());
  const int64_t flops = size * kBinaryFlopsPerElem;
  std::vector<float> y(x.size());
  {
    KernelTimer timer(series, flops);
    ParallelChunks(size, GetKernelTuning().elem_grain, flops, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        const size_t s = static_cast<size_t>(i);
        y[s] = fwd(x[s], z[s]);
      }
    });
  }
  TensorNodePtr an = a.node();
  TensorNodePtr bn = b.node();
  return MakeResult(a.shape(), std::move(y), {an, bn}, [an, bn, da_fn, db_fn](TensorNode& out) {
    static const KernelSeries series_bwd = MakeKernelSeries("elementwise_bwd");
    an->EnsureGrad();
    bn->EnsureGrad();
    const int64_t size = static_cast<int64_t>(out.data.size());
    const int64_t flops = size * kBinaryFlopsPerElem;
    KernelTimer timer(series_bwd, flops);
    ParallelChunks(size, GetKernelTuning().elem_grain, flops, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        const size_t s = static_cast<size_t>(i);
        an->grad[s] += out.grad[s] * da_fn(an->data[s], bn->data[s]);
        bn->grad[s] += out.grad[s] * db_fn(an->data[s], bn->data[s]);
      }
    });
  });
}

// Shared wiring for the vectorized unary ops: fwd fills y from x over
// elem_grain chunks; bwd accumulates into the parent's grad.
template <typename FwdKernel, typename BwdKernel>
Tensor SimdUnary(const Tensor& a, FwdKernel fwd, BwdKernel bwd) {
  static const KernelSeries series = MakeKernelSeries("elementwise");
  const int64_t size = static_cast<int64_t>(a.data().size());
  const int64_t flops = size * kUnaryFlopsPerElem;
  std::vector<float> y(a.data().size());
  {
    KernelTimer timer(series, flops);
    ParallelChunks(size, GetKernelTuning().elem_grain, flops,
                   [&](int64_t begin, int64_t end) {
                     fwd(end - begin, a.data().data() + begin,
                         y.data() + begin);
                   });
  }
  TensorNodePtr an = a.node();
  return MakeResult(a.shape(), std::move(y), {an}, [an, bwd](TensorNode& out) {
    static const KernelSeries series_bwd = MakeKernelSeries("elementwise_bwd");
    an->EnsureGrad();
    const int64_t size = static_cast<int64_t>(out.data.size());
    const int64_t flops = size * kUnaryFlopsPerElem;
    KernelTimer timer(series_bwd, flops);
    ParallelChunks(size, GetKernelTuning().elem_grain, flops,
                   [&](int64_t begin, int64_t end) {
                     bwd(end - begin, begin, *an, out);
                   });
  });
}

// The same wiring for the vectorized equal-shape binary ops: fwd fills y
// from a and b; bwd accumulates into both parents' grads.
template <typename FwdKernel, typename BwdKernel>
Tensor SimdBinary(const Tensor& a, const Tensor& b, FwdKernel fwd, BwdKernel bwd) {
  static const KernelSeries series = MakeKernelSeries("elementwise");
  HF_CHECK(a.shape() == b.shape());
  const int64_t size = static_cast<int64_t>(a.data().size());
  const int64_t flops = size * kBinaryFlopsPerElem;
  std::vector<float> y(a.data().size());
  {
    KernelTimer timer(series, flops);
    ParallelChunks(size, GetKernelTuning().elem_grain, flops,
                   [&](int64_t begin, int64_t end) {
                     fwd(end - begin, a.data().data() + begin, b.data().data() + begin,
                         y.data() + begin);
                   });
  }
  TensorNodePtr an = a.node();
  TensorNodePtr bn = b.node();
  return MakeResult(a.shape(), std::move(y), {an, bn}, [an, bn, bwd](TensorNode& out) {
    static const KernelSeries series_bwd = MakeKernelSeries("elementwise_bwd");
    an->EnsureGrad();
    bn->EnsureGrad();
    const int64_t size = static_cast<int64_t>(out.data.size());
    const int64_t flops = size * kBinaryFlopsPerElem;
    KernelTimer timer(series_bwd, flops);
    ParallelChunks(size, GetKernelTuning().elem_grain, flops,
                   [&](int64_t begin, int64_t end) {
                     bwd(end - begin, begin, *an, *bn, out);
                   });
  });
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  HF_TRACE_SCOPE("tensor.matmul", "tensor");
  static const KernelSeries series = MakeKernelSeries("matmul");
  HF_CHECK_EQ(a.ndim(), 2);
  HF_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  HF_CHECK_EQ(b.dim(0), k);
  const int64_t n = b.dim(1);
  std::vector<float> y(static_cast<size_t>(m * n), 0.0f);
  const std::vector<float>& x = a.data();
  const std::vector<float>& w = b.data();
  const KernelTuning tuning = GetKernelTuning();
  const int64_t fwd_flops = 2 * m * k * n;
  {
    KernelTimer timer(series, fwd_flops);
    // Row-partitioned, k-blocked: a chunk owns output rows [i0, i1).
    ParallelChunks(m, tuning.gemm_row_grain, fwd_flops, [&](int64_t i0, int64_t i1) {
      GemmRowRange(i0, i1, k, n, x.data(), w.data(), tuning.gemm_k_block, y.data());
    });
  }
  TensorNodePtr an = a.node();
  TensorNodePtr bn = b.node();
  return MakeResult({m, n}, std::move(y), {an, bn}, [an, bn, m, k, n](TensorNode& out) {
    static const KernelSeries series_bwd = MakeKernelSeries("matmul_bwd");
    an->EnsureGrad();
    bn->EnsureGrad();
    KernelTimer timer(series_bwd, 4 * m * k * n);
    MatMulBackward(m, k, n, out.grad.data(), an->data.data(), bn->data.data(),
                   an->grad.data(), bn->grad.data());
  });
}

Tensor BlockAttention(const Tensor& q, const Tensor& k, const Tensor& v, int64_t block,
                      float scale) {
  HF_TRACE_SCOPE("tensor.block_attention", "tensor");
  static const KernelSeries series = MakeKernelSeries("block_attention");
  HF_CHECK_EQ(q.ndim(), 2);
  HF_CHECK(k.shape() == q.shape());
  HF_CHECK_EQ(v.ndim(), 2);
  HF_CHECK_EQ(v.dim(0), q.dim(0));
  HF_CHECK_GE(block, 1);
  const int64_t rows = q.dim(0);
  HF_CHECK_EQ(rows % block, 0);
  const int64_t blocks = rows / block;
  const int64_t dk = q.dim(1);
  const int64_t dv = v.dim(1);
  const int64_t kk = block * block;
  // Flop-equivalents of the composed per-block ops it replays.
  const int64_t fwd_flops =
      blocks * (2 * kk * dk + kk * (2 * kUnaryFlopsPerElem + kSoftmaxFwdFlopsPerElem) +
                2 * kk * dv);
  // Whole blocks per chunk, about gemm_row_grain rows each.
  const int64_t block_grain = std::max<int64_t>(1, GetKernelTuning().gemm_row_grain / block);
  std::vector<float> y(static_cast<size_t>(rows * dv), 0.0f);
  // Per-row log-softmax and softmax of the block's scores ([rows, block]):
  // block b's block x block matrix is the contiguous rows of block b.
  std::vector<float> log_probs(static_cast<size_t>(rows * block), 0.0f);
  std::vector<float> probs(static_cast<size_t>(rows * block));
  const float* qd = q.data().data();
  const float* kd = k.data().data();
  const float* vd = v.data().data();
  {
    KernelTimer timer(series, fwd_flops);
    // Per block, the composed sequence verbatim: MatMul(q_b, Transpose(k_b))
    // (transpose the block's k rows, then the GEMM) into a zeroed buffer,
    // Scale, LogSoftmax rows and Exp (= Softmax), then MatMul's GEMM
    // against the block's v rows. The k-blocking the composed ops run
    // does not change any element's fma chain, so each GEMM is one
    // simd::GemmRows call.
    ParallelChunks(blocks, block_grain, fwd_flops, [&](int64_t b0, int64_t b1) {
      std::vector<float> kt(static_cast<size_t>(dk * block));
      for (int64_t b = b0; b < b1; ++b) {
        const int64_t r0 = b * block;
        float* scores = log_probs.data() + r0 * block;
        TransposeRows(0, block, block, dk, kd + r0 * dk, kt.data());
        simd::GemmRows(block, dk, block, qd + r0 * dk, dk, kt.data(), block, scores, block);
        simd::Scale(kk, scores, scale, scores);
        for (int64_t i = 0; i < block; ++i) {
          LogSoftmaxRow(block, scores + i * block, scores + i * block);
        }
        float* p = probs.data() + r0 * block;
        simd::Exp(kk, scores, p);
        simd::GemmRows(block, block, dv, p, block, vd + r0 * dv, dv, y.data() + r0 * dv, dv);
      }
    });
  }
  TensorNodePtr qn = q.node();
  TensorNodePtr kn = k.node();
  TensorNodePtr vn = v.node();
  return MakeResult(
      {rows, dv}, std::move(y), {qn, kn, vn},
      [qn, kn, vn, block, blocks, dk, dv, kk, scale, block_grain,
       log_probs = std::move(log_probs), probs = std::move(probs)](TensorNode& out) {
        static const KernelSeries series_bwd = MakeKernelSeries("block_attention_bwd");
        qn->EnsureGrad();
        kn->EnsureGrad();
        vn->EnsureGrad();
        const int64_t flops =
            blocks * (4 * kk * dk + kk * (2 * kUnaryFlopsPerElem + kSoftmaxBwdFlopsPerElem) +
                      4 * kk * dv);
        KernelTimer timer(series_bwd, flops);
        // Per block, the composed backward verbatim: each intermediate's
        // gradient lands in a zeroed scratch (the composed nodes' fresh
        // grad buffers) and the q/k/v slices are added into the inputs'
        // grads as SliceRows' backward does, so gradients from zeroed
        // grads are bitwise identical to the composed chain.
        ParallelChunks(blocks, block_grain, flops, [&](int64_t b0, int64_t b1) {
          std::vector<float> kt(static_cast<size_t>(dk * block));
          std::vector<float> scratch(static_cast<size_t>(4 * kk + block * (2 * dk + dv)));
          float* d_probs = scratch.data();
          float* d_log_probs = d_probs + kk;
          float* d_scaled = d_log_probs + kk;
          float* d_scores = d_scaled + kk;
          float* dq = d_scores + kk;
          float* dkey = dq + block * dk;
          float* dval = dkey + block * dk;
          for (int64_t b = b0; b < b1; ++b) {
            const int64_t r0 = b * block;
            const float* g = out.grad.data() + r0 * dv;
            const float* p = probs.data() + r0 * block;
            const float* lp = log_probs.data() + r0 * block;
            const float* qb = qn->data.data() + r0 * dk;
            std::fill(scratch.begin(), scratch.end(), 0.0f);
            // MatMul(P, v) backward.
            simd::DotRows(block, block, dv, g, vn->data.data() + r0 * dv, d_probs);
            simd::ColumnGemm(0, block, block, dv, p, block, g, dv, dval);
            // Exp, LogSoftmax and Scale backward.
            simd::MulAcc(kk, d_probs, p, d_log_probs);
            for (int64_t i = 0; i < block; ++i) {
              LogSoftmaxBackward(block, lp + i * block, d_log_probs + i * block,
                                 d_scaled + i * block);
            }
            simd::ScaleAcc(kk, d_scaled, scale, d_scores);
            // MatMul(q, Transpose(k)) backward: dq from the transposed k
            // rows; dk is MatMul's dB written straight in k's layout.
            TransposeRows(0, block, block, dk, kn->data.data() + r0 * dk, kt.data());
            simd::DotRows(block, dk, block, d_scores, kt.data(), dq);
            simd::ColumnGemm(0, block, block, dk, d_scores, block, qb, dk, dkey);
            simd::AddAcc(block * dk, dq, qn->grad.data() + r0 * dk);
            simd::AddAcc(block * dk, dkey, kn->grad.data() + r0 * dk);
            simd::AddAcc(block * dv, dval, vn->grad.data() + r0 * dv);
          }
        });
      });
}

Tensor Add(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    return SimdBinary(
        a, b,
        [](int64_t c, const float* x, const float* z, float* y) { simd::Add(c, x, z, y); },
        [](int64_t c, int64_t begin, TensorNode& an, TensorNode& bn, TensorNode& out) {
          simd::AddAcc(c, out.grad.data() + begin, an.grad.data() + begin);
          simd::AddAcc(c, out.grad.data() + begin, bn.grad.data() + begin);
        });
  }
  // Bias broadcast: a[m,n] + b[n]. Rows are independent in the forward;
  // the bias gradient reduces ACROSS rows, so it goes through per-chunk
  // partials keyed by the fixed kReduceRowGrain, folded in chunk order.
  HF_CHECK_EQ(a.ndim(), 2);
  HF_CHECK_EQ(b.ndim(), 1);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  HF_CHECK_EQ(b.dim(0), n);
  static const KernelSeries series = MakeKernelSeries("elementwise");
  const int64_t flops = m * n * kBinaryFlopsPerElem;
  std::vector<float> y(static_cast<size_t>(m * n));
  {
    KernelTimer timer(series, flops);
    ParallelChunks(m, GetKernelTuning().row_grain, flops,
                   [&](int64_t i0, int64_t i1) {
                     for (int64_t i = i0; i < i1; ++i) {
                       simd::Add(n, a.data().data() + i * n, b.data().data(),
                                 y.data() + i * n);
                     }
                   });
  }
  TensorNodePtr an = a.node();
  TensorNodePtr bn = b.node();
  return MakeResult({m, n}, std::move(y), {an, bn}, [an, bn, m, n](TensorNode& out) {
    static const KernelSeries series_bwd = MakeKernelSeries("elementwise_bwd");
    an->EnsureGrad();
    bn->EnsureGrad();
    const int64_t flops = m * n * kBinaryFlopsPerElem;
    KernelTimer timer(series_bwd, flops);
    const int64_t size = m * n;
    ParallelChunks(size, GetKernelTuning().elem_grain, flops / 2,
                   [&](int64_t begin, int64_t end) {
                     simd::AddAcc(end - begin, out.grad.data() + begin,
                                  an->grad.data() + begin);
                   });
    const int64_t chunks = tensor_internal::NumChunks(m, kReduceRowGrain);
    std::vector<float> dbias_partial(static_cast<size_t>(chunks * n), 0.0f);
    ParallelChunks(m, kReduceRowGrain, flops / 2, [&](int64_t i0, int64_t i1) {
      float* dbias = dbias_partial.data() + (i0 / kReduceRowGrain) * n;
      for (int64_t i = i0; i < i1; ++i) {
        simd::AddAcc(n, out.grad.data() + i * n, dbias);
      }
    });
    for (int64_t chunk = 0; chunk < chunks; ++chunk) {
      simd::AddAcc(n, dbias_partial.data() + chunk * n, bn->grad.data());
    }
  });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return SimdBinary(
      a, b,
      [](int64_t c, const float* x, const float* z, float* y) { simd::Sub(c, x, z, y); },
      [](int64_t c, int64_t begin, TensorNode& an, TensorNode& bn, TensorNode& out) {
        simd::AddAcc(c, out.grad.data() + begin, an.grad.data() + begin);
        simd::ScaleAcc(c, out.grad.data() + begin, -1.0f, bn.grad.data() + begin);
      });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return SimdBinary(
      a, b,
      [](int64_t c, const float* x, const float* z, float* y) { simd::Mul(c, x, z, y); },
      [](int64_t c, int64_t begin, TensorNode& an, TensorNode& bn, TensorNode& out) {
        simd::MulAcc(c, out.grad.data() + begin, bn.data.data() + begin,
                     an.grad.data() + begin);
        simd::MulAcc(c, out.grad.data() + begin, an.data.data() + begin,
                     bn.grad.data() + begin);
      });
}

Tensor Scale(const Tensor& a, float s) {
  return SimdUnary(
      a,
      [s](int64_t c, const float* x, float* y) { simd::Scale(c, x, s, y); },
      [s](int64_t c, int64_t begin, TensorNode& an, TensorNode& out) {
        simd::ScaleAcc(c, out.grad.data() + begin, s, an.grad.data() + begin);
      });
}

Tensor AddScalar(const Tensor& a, float s) {
  return SimdUnary(
      a,
      [s](int64_t c, const float* x, float* y) { simd::AddScalar(c, x, s, y); },
      [](int64_t c, int64_t begin, TensorNode& an, TensorNode& out) {
        simd::AddAcc(c, out.grad.data() + begin, an.grad.data() + begin);
      });
}

Tensor Neg(const Tensor& a) { return Scale(a, -1.0f); }

// exp via HfExpf (simd.h): bitwise identical at every SIMD level, about
// 1 ulp off std::expf. Inputs in [~88.38, 88.72] round up to +inf (the
// documented scale-overflow band) — softmax paths always shift by the
// row max first, so they never enter it.
Tensor Exp(const Tensor& a) {
  return SimdUnary(
      a, [](int64_t c, const float* x, float* y) { simd::Exp(c, x, y); },
      [](int64_t c, int64_t begin, TensorNode& an, TensorNode& out) {
        // d/dx exp = exp(x) = out.data.
        simd::MulAcc(c, out.grad.data() + begin, out.data.data() + begin,
                     an.grad.data() + begin);
      });
}

Tensor Sigmoid(const Tensor& a) {
  return Unary(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Softplus(const Tensor& a) {
  return Unary(
      a,
      [](float x) {
        // Stable: max(x, 0) + log1p(exp(-|x|)).
        return std::max(x, 0.0f) + std::log1p(std::exp(-std::abs(x)));
      },
      [](float x, float) { return 1.0f / (1.0f + std::exp(-x)); });
}

Tensor Square(const Tensor& a) {
  return SimdUnary(
      a, [](int64_t c, const float* x, float* y) { simd::Mul(c, x, x, y); },
      [](int64_t c, int64_t begin, TensorNode& an, TensorNode& out) {
        // d/dx x^2 = 2x, accumulated as two identical fma(g, x, ·) steps
        // so both tiers run the same exactly-rounded sequence.
        simd::MulAcc(c, out.grad.data() + begin, an.data.data() + begin,
                     an.grad.data() + begin);
        simd::MulAcc(c, out.grad.data() + begin, an.data.data() + begin,
                     an.grad.data() + begin);
      });
}

Tensor Tanh(const Tensor& a) {
  return Unary(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

// Tanh-form GELU on HfExpf (simd::Gelu): bitwise identical at every SIMD
// level and free of libm's platform-varying tanhf.
Tensor Gelu(const Tensor& a) {
  return SimdUnary(
      a, [](int64_t c, const float* x, float* y) { simd::Gelu(c, x, y); },
      [](int64_t c, int64_t begin, TensorNode& an, TensorNode& out) {
        simd::GeluBackward(c, an.data.data() + begin, out.grad.data() + begin,
                           an.grad.data() + begin);
      });
}

Tensor Minimum(const Tensor& a, const Tensor& b) {
  return Binary(
      a, b, [](float x, float z) { return std::min(x, z); },
      [](float x, float z) { return x <= z ? 1.0f : 0.0f; },
      [](float x, float z) { return z < x ? 1.0f : 0.0f; });
}

Tensor Maximum(const Tensor& a, const Tensor& b) {
  return Binary(
      a, b, [](float x, float z) { return std::max(x, z); },
      [](float x, float z) { return x >= z ? 1.0f : 0.0f; },
      [](float x, float z) { return z > x ? 1.0f : 0.0f; });
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  HF_CHECK_LE(lo, hi);
  return Unary(
      a, [lo, hi](float x) { return std::clamp(x, lo, hi); },
      [lo, hi](float x, float) { return (x >= lo && x <= hi) ? 1.0f : 0.0f; });
}

namespace {

// Shared reduction core for Sum/Mean: per-chunk lane-partial sums keyed
// by the fixed kReduceElemGrain, folded serially in chunk order. The
// chunk grain AND the per-chunk lane-partial order are both fixed, so
// the total is bitwise invariant to threads, tuning, and SIMD level.
float ChunkedTotal(const std::vector<float>& x, int64_t flops) {
  const int64_t size = static_cast<int64_t>(x.size());
  const int64_t chunks = tensor_internal::NumChunks(size, kReduceElemGrain);
  std::vector<float> partial(static_cast<size_t>(chunks), 0.0f);
  ParallelChunks(size, kReduceElemGrain, flops, [&](int64_t begin, int64_t end) {
    partial[static_cast<size_t>(begin / kReduceElemGrain)] =
        simd::Sum(end - begin, x.data() + begin);
  });
  float total = 0.0f;
  for (float p : partial) {
    total += p;
  }
  return total;
}

}  // namespace

Tensor Sum(const Tensor& a) {
  static const KernelSeries series = MakeKernelSeries("reduce");
  const int64_t size = static_cast<int64_t>(a.data().size());
  float total;
  {
    KernelTimer timer(series, size);
    total = ChunkedTotal(a.data(), size);
  }
  TensorNodePtr an = a.node();
  return MakeResult({1}, {total}, {an}, [an](TensorNode& out) {
    static const KernelSeries series_bwd = MakeKernelSeries("reduce_bwd");
    an->EnsureGrad();
    const int64_t size = static_cast<int64_t>(an->grad.size());
    KernelTimer timer(series_bwd, size);
    const float g0 = out.grad[0];
    ParallelChunks(size, GetKernelTuning().elem_grain, size,
                   [&](int64_t begin, int64_t end) {
                     float* dx = an->grad.data();
                     for (int64_t i = begin; i < end; ++i) {
                       dx[i] += g0;
                     }
                   });
  });
}

Tensor Mean(const Tensor& a) {
  HF_CHECK_GT(a.size(), 0);
  static const KernelSeries series = MakeKernelSeries("reduce");
  const float inv = 1.0f / static_cast<float>(a.size());
  const int64_t size = static_cast<int64_t>(a.data().size());
  float total;
  {
    KernelTimer timer(series, size);
    total = ChunkedTotal(a.data(), size);
  }
  TensorNodePtr an = a.node();
  return MakeResult({1}, {total * inv}, {an}, [an, inv](TensorNode& out) {
    static const KernelSeries series_bwd = MakeKernelSeries("reduce_bwd");
    an->EnsureGrad();
    const int64_t size = static_cast<int64_t>(an->grad.size());
    KernelTimer timer(series_bwd, size);
    const float g0 = out.grad[0] * inv;
    ParallelChunks(size, GetKernelTuning().elem_grain, size,
                   [&](int64_t begin, int64_t end) {
                     float* dx = an->grad.data();
                     for (int64_t i = begin; i < end; ++i) {
                       dx[i] += g0;
                     }
                   });
  });
}

Tensor RowSum(const Tensor& a) {
  HF_CHECK_EQ(a.ndim(), 2);
  static const KernelSeries series = MakeKernelSeries("reduce");
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  std::vector<float> y(static_cast<size_t>(m));
  {
    KernelTimer timer(series, m * n);
    // Each output element is one row's lane-partial sum; rows partition
    // across chunks.
    ParallelChunks(m, GetKernelTuning().row_grain, m * n,
                   [&](int64_t i0, int64_t i1) {
                     for (int64_t i = i0; i < i1; ++i) {
                       y[static_cast<size_t>(i)] =
                           simd::Sum(n, a.data().data() + i * n);
                     }
                   });
  }
  TensorNodePtr an = a.node();
  return MakeResult({m}, std::move(y), {an}, [an, m, n](TensorNode& out) {
    static const KernelSeries series_bwd = MakeKernelSeries("reduce_bwd");
    an->EnsureGrad();
    KernelTimer timer(series_bwd, m * n);
    ParallelChunks(m, GetKernelTuning().row_grain, m * n,
                   [&](int64_t i0, int64_t i1) {
                     for (int64_t i = i0; i < i1; ++i) {
                       const float g = out.grad[static_cast<size_t>(i)];
                       float* dx_row = an->grad.data() + i * n;
                       for (int64_t j = 0; j < n; ++j) {
                         dx_row[j] += g;
                       }
                     }
                   });
  });
}

Tensor Transpose(const Tensor& a) {
  HF_CHECK_EQ(a.ndim(), 2);
  static const KernelSeries series = MakeKernelSeries("transpose");
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  std::vector<float> y(static_cast<size_t>(m * n));
  {
    KernelTimer timer(series, m * n);
    ParallelChunks(m, GetKernelTuning().row_grain, m * n, [&](int64_t i0, int64_t i1) {
      TransposeRows(i0, i1, m, n, a.data().data(), y.data());
    });
  }
  TensorNodePtr an = a.node();
  return MakeResult({n, m}, std::move(y), {an}, [an, m, n](TensorNode& out) {
    static const KernelSeries series_bwd = MakeKernelSeries("transpose_bwd");
    an->EnsureGrad();
    KernelTimer timer(series_bwd, m * n);
    // Chunks own row blocks of dA (exclusive writes); the same square
    // tiling as TransposeRows keeps the strided read stream resident.
    ParallelChunks(m, GetKernelTuning().row_grain, m * n,
                   [&](int64_t i0, int64_t i1) {
                     for (int64_t ib = i0; ib < i1; ib += kTransposeTile) {
                       const int64_t ie = std::min(i1, ib + kTransposeTile);
                       for (int64_t j0 = 0; j0 < n; j0 += kTransposeTile) {
                         const int64_t je = std::min(n, j0 + kTransposeTile);
                         for (int64_t i = ib; i < ie; ++i) {
                           for (int64_t j = j0; j < je; ++j) {
                             an->grad[static_cast<size_t>(i * n + j)] +=
                                 out.grad[static_cast<size_t>(j * m + i)];
                           }
                         }
                       }
                     }
                   });
  });
}

Tensor SliceRows(const Tensor& a, int64_t begin, int64_t end) {
  HF_CHECK_EQ(a.ndim(), 2);
  HF_CHECK_GE(begin, 0);
  HF_CHECK_LT(begin, end);
  HF_CHECK_LE(end, a.dim(0));
  const int64_t n = a.dim(1);
  const int64_t rows = end - begin;
  std::vector<float> y(a.data().begin() + begin * n, a.data().begin() + end * n);
  TensorNodePtr an = a.node();
  return MakeResult({rows, n}, std::move(y), {an}, [an, begin, n](TensorNode& out) {
    an->EnsureGrad();
    const int64_t offset = begin * n;
    const int64_t size = static_cast<int64_t>(out.grad.size());
    ParallelChunks(size, GetKernelTuning().elem_grain, size,
                   [&](int64_t b, int64_t e) {
                     simd::AddAcc(e - b, out.grad.data() + b,
                                  an->grad.data() + offset + b);
                   });
  });
}

Tensor LayerNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta, float eps) {
  HF_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  HF_CHECK_EQ(gamma.ndim(), 1);
  HF_CHECK_EQ(gamma.dim(0), n);
  HF_CHECK_EQ(beta.dim(0), n);
  static const KernelSeries series = MakeKernelSeries("layernorm");
  std::vector<float> y(static_cast<size_t>(m * n));
  std::vector<float> inv_std(static_cast<size_t>(m));
  std::vector<float> normalized(static_cast<size_t>(m * n));
  {
    KernelTimer timer(series, m * n * kLayerNormFwdFlopsPerElem);
    // Rows are independent: a chunk owns rows [i0, i1).
    ParallelChunks(m, GetKernelTuning().row_grain, m * n * kLayerNormFwdFlopsPerElem,
                   [&](int64_t i0, int64_t i1) {
                     LayerNormRows(i0, i1, n, a.data().data(), gamma.data().data(),
                                   beta.data().data(), eps, inv_std.data(),
                                   normalized.data(), y.data());
                   });
  }
  TensorNodePtr an = a.node();
  TensorNodePtr gn = gamma.node();
  TensorNodePtr bn = beta.node();
  return MakeResult(
      {m, n}, std::move(y), {an, gn, bn},
      [an, gn, bn, m, n, inv_std, normalized](TensorNode& out) {
        static const KernelSeries series_bwd = MakeKernelSeries("layernorm_bwd");
        an->EnsureGrad();
        gn->EnsureGrad();
        bn->EnsureGrad();
        KernelTimer timer(series_bwd, m * n * kLayerNormBwdFlopsPerElem);
        LayerNormBackward(m, n, out.grad.data(), normalized.data(), inv_std.data(),
                          gn->data.data(), an->grad.data(), gn->grad.data(), bn->grad.data());
      });
}

Tensor LayerNormMatMul(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                       const Tensor& w, float eps) {
  HF_TRACE_SCOPE("tensor.layernorm_matmul", "tensor");
  static const KernelSeries series = MakeKernelSeries("layernorm_matmul");
  HF_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  HF_CHECK_EQ(gamma.ndim(), 1);
  HF_CHECK_EQ(gamma.dim(0), k);
  HF_CHECK_EQ(beta.dim(0), k);
  HF_CHECK_EQ(w.ndim(), 2);
  HF_CHECK_EQ(w.dim(0), k);
  const int64_t n = w.dim(1);
  std::vector<float> y(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> inv_std(static_cast<size_t>(m));
  std::vector<float> normalized(static_cast<size_t>(m * k));
  std::vector<float> ln_out(static_cast<size_t>(m * k));
  const KernelTuning tuning = GetKernelTuning();
  const int64_t fwd_flops = m * k * kLayerNormFwdFlopsPerElem + 2 * m * k * n;
  {
    KernelTimer timer(series, fwd_flops);
    // One pass per row chunk: LayerNorm's row sequence, then MatMul's
    // k-blocked GEMM over the same rows, so values are bitwise identical
    // to MatMul(LayerNorm(a, gamma, beta, eps), w). The fusion only
    // changes WHEN the normalized rows feed the GEMM — right after the
    // chunk is normalized, while it is still cache-hot — and skips the
    // intermediate autograd node.
    ParallelChunks(m, tuning.gemm_row_grain, fwd_flops, [&](int64_t i0, int64_t i1) {
      LayerNormRows(i0, i1, k, a.data().data(), gamma.data().data(), beta.data().data(),
                    eps, inv_std.data(), normalized.data(), ln_out.data());
      GemmRowRange(i0, i1, k, n, ln_out.data(), w.data().data(), tuning.gemm_k_block,
                   y.data());
    });
  }
  TensorNodePtr an = a.node();
  TensorNodePtr gn = gamma.node();
  TensorNodePtr bn = beta.node();
  TensorNodePtr wn = w.node();
  return MakeResult(
      {m, n}, std::move(y), {an, gn, bn, wn},
      [an, gn, bn, wn, m, k, n, inv_std, normalized, ln_out](TensorNode& out) {
        static const KernelSeries series_bwd =
            MakeKernelSeries("layernorm_matmul_bwd");
        an->EnsureGrad();
        gn->EnsureGrad();
        bn->EnsureGrad();
        wn->EnsureGrad();
        KernelTimer timer(series_bwd, 4 * m * k * n + m * k * kLayerNormBwdFlopsPerElem);
        // MatMul's backward, with d(ln_out) landing in a zero-initialized
        // scratch: the `+=` onto zero runs the exact sequence the composed
        // form runs against the LN node's fresh grad buffer (including the
        // 0 + x edge cases). Then LayerNorm's backward, fed by d_ln.
        std::vector<float> d_ln(static_cast<size_t>(m * k), 0.0f);
        MatMulBackward(m, k, n, out.grad.data(), ln_out.data(), wn->data.data(), d_ln.data(),
                       wn->grad.data());
        LayerNormBackward(m, k, d_ln.data(), normalized.data(), inv_std.data(),
                          gn->data.data(), an->grad.data(), gn->grad.data(), bn->grad.data());
      });
}

Tensor LogSoftmax(const Tensor& a) {
  HF_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  static const KernelSeries series = MakeKernelSeries("log_softmax");
  std::vector<float> y(a.data().size());
  const std::vector<float>& x = a.data();
  {
    KernelTimer timer(series, m * n * kSoftmaxFwdFlopsPerElem);
    // Rows are independent: a chunk owns rows [i0, i1).
    ParallelChunks(m, GetKernelTuning().row_grain, m * n * kSoftmaxFwdFlopsPerElem,
                   [&](int64_t i0, int64_t i1) {
                     for (int64_t i = i0; i < i1; ++i) {
                       LogSoftmaxRow(n, x.data() + i * n, y.data() + i * n);
                     }
                   });
  }
  TensorNodePtr an = a.node();
  return MakeResult({m, n}, std::move(y), {an}, [an, m, n](TensorNode& out) {
    static const KernelSeries series_bwd = MakeKernelSeries("log_softmax_bwd");
    an->EnsureGrad();
    const int64_t flops = m * n * kSoftmaxBwdFlopsPerElem;
    KernelTimer timer(series_bwd, flops);
    // The sum is within one row, so chunks of rows stay independent.
    ParallelChunks(m, GetKernelTuning().row_grain, flops, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        LogSoftmaxBackward(n, out.data.data() + i * n, out.grad.data() + i * n,
                           an->grad.data() + i * n);
      }
    });
  });
}

Tensor Softmax(const Tensor& a) {
  Tensor log_probs = LogSoftmax(a);
  return Exp(log_probs);
}

Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices) {
  HF_CHECK_EQ(table.ndim(), 2);
  const int64_t v = table.dim(0);
  const int64_t e = table.dim(1);
  const int64_t n = static_cast<int64_t>(indices.size());
  // Bounds-check serially (HF_CHECK must not fire on a pool thread), then
  // copy rows in parallel — each output row is owned by one chunk.
  for (int64_t i = 0; i < n; ++i) {
    HF_CHECK_GE(indices[static_cast<size_t>(i)], 0);
    HF_CHECK_LT(indices[static_cast<size_t>(i)], v);
  }
  std::vector<float> y(static_cast<size_t>(n * e));
  ParallelChunks(n, GetKernelTuning().row_grain, n * e,
                 [&](int64_t i0, int64_t i1) {
                   for (int64_t i = i0; i < i1; ++i) {
                     std::memcpy(y.data() + i * e,
                                 table.data().data() +
                                     indices[static_cast<size_t>(i)] * e,
                                 static_cast<size_t>(e) * sizeof(float));
                   }
                 });
  TensorNodePtr tn = table.node();
  std::vector<int64_t> idx = indices;
  return MakeResult({n, e}, std::move(y), {tn}, [tn, idx, e](TensorNode& out) {
    tn->EnsureGrad();
    // The scatter stays serial: duplicate indices make table rows shared
    // between output rows, so a row partition would race (and any
    // reordering would change the accumulation order).
    for (size_t i = 0; i < idx.size(); ++i) {
      simd::AddAcc(e, out.grad.data() + i * static_cast<size_t>(e),
                   tn->grad.data() + static_cast<size_t>(idx[i]) *
                                         static_cast<size_t>(e));
    }
  });
}

Tensor PickPerRow(const Tensor& a, const std::vector<int64_t>& indices) {
  HF_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  HF_CHECK_EQ(static_cast<int64_t>(indices.size()), m);
  for (int64_t i = 0; i < m; ++i) {
    HF_CHECK_GE(indices[static_cast<size_t>(i)], 0);
    HF_CHECK_LT(indices[static_cast<size_t>(i)], n);
  }
  std::vector<float> y(static_cast<size_t>(m));
  ParallelChunks(m, GetKernelTuning().elem_grain, m,
                 [&](int64_t i0, int64_t i1) {
                   for (int64_t i = i0; i < i1; ++i) {
                     y[static_cast<size_t>(i)] = a.data()[static_cast<size_t>(
                         i * n + indices[static_cast<size_t>(i)])];
                   }
                 });
  TensorNodePtr an = a.node();
  std::vector<int64_t> idx = indices;
  return MakeResult({m}, std::move(y), {an}, [an, idx, n](TensorNode& out) {
    an->EnsureGrad();
    // Row i's pick is the only write into grad row i, so chunks of rows
    // are write-disjoint.
    const int64_t m = static_cast<int64_t>(idx.size());
    ParallelChunks(m, GetKernelTuning().elem_grain, m,
                   [&](int64_t i0, int64_t i1) {
                     for (int64_t i = i0; i < i1; ++i) {
                       an->grad[static_cast<size_t>(
                           i * n + idx[static_cast<size_t>(i)])] +=
                           out.grad[static_cast<size_t>(i)];
                     }
                   });
  });
}

Tensor Reshape(const Tensor& a, std::vector<int64_t> shape) {
  int64_t n = 1;
  for (int64_t dim : shape) {
    n *= dim;
  }
  HF_CHECK_EQ(n, a.size());
  TensorNodePtr an = a.node();
  return MakeResult(std::move(shape), a.data(), {an}, [an](TensorNode& out) {
    an->EnsureGrad();
    const int64_t size = static_cast<int64_t>(out.grad.size());
    ParallelChunks(size, GetKernelTuning().elem_grain, size,
                   [&](int64_t b, int64_t e) {
                     simd::AddAcc(e - b, out.grad.data() + b,
                                  an->grad.data() + b);
                   });
  });
}

Tensor Detach(const Tensor& a) {
  return Tensor::FromData(a.shape(), a.data(), /*requires_grad=*/false);
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  HF_CHECK(!parts.empty());
  const int64_t n = parts[0].dim(1);
  int64_t rows = 0;
  for (const Tensor& part : parts) {
    HF_CHECK_EQ(part.ndim(), 2);
    HF_CHECK_EQ(part.dim(1), n);
    rows += part.dim(0);
  }
  std::vector<float> y(static_cast<size_t>(rows * n));
  std::vector<TensorNodePtr> parents;
  std::vector<int64_t> row_counts;
  int64_t offset = 0;
  for (const Tensor& part : parts) {
    const int64_t count = static_cast<int64_t>(part.data().size());
    const float* src = part.data().data();
    float* dst = y.data() + offset;
    ParallelChunks(count, GetKernelTuning().elem_grain, count,
                   [&](int64_t b, int64_t e) {
                     std::memcpy(dst + b, src + b,
                                 static_cast<size_t>(e - b) * sizeof(float));
                   });
    offset += count;
    parents.push_back(part.node());
    row_counts.push_back(part.dim(0));
  }
  return MakeResult({rows, n}, std::move(y), parents, [row_counts, n](TensorNode& out) {
    int64_t offset = 0;
    for (size_t k = 0; k < out.parents.size(); ++k) {
      TensorNode& parent = *out.parents[k];
      parent.EnsureGrad();
      const int64_t count = row_counts[k] * n;
      ParallelChunks(count, GetKernelTuning().elem_grain, count,
                     [&](int64_t b, int64_t e) {
                       simd::AddAcc(e - b, out.grad.data() + offset + b,
                                    parent.grad.data() + b);
                     });
      offset += count;
    }
  });
}

}  // namespace hybridflow
