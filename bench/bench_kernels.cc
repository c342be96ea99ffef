// Kernel-layer benchmark: times the deterministic parallel GEMM
// forward+backward path across tensor.threads settings and verifies the
// bitwise-determinism contract (docs/KERNELS.md) on every configuration.
// A naive_serial reference row (a textbook triple-loop GEMM fwd+bwd, the
// shape of the pre-refactor kernels, timed on one thread) keeps the
// numbers honest, and per-op rows time the active SIMD tier against the
// forced-scalar fallback.
//
// Target: >= 3x gemm_fwd_bwd speedup at 8 threads vs 1 on hardware with
// >= 8 cores. Single-core containers will report ~1x (the runtime falls
// back to serial chunk execution); the determinism column must hold
// everywhere, and the bench exits nonzero if it does not.
//
// Emits BENCH_kernels.json with one row per (op, threads) configuration.
#include <chrono>
#include <cstring>
#include <iostream>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/obs/telemetry.h"
#include "src/tensor/ops.h"
#include "src/tensor/parallel.h"
#include "src/tensor/simd.h"

namespace hybridflow {
namespace {

// Non-square so row/column indexing bugs cannot cancel out.
constexpr int64_t kM = 256;
constexpr int64_t kK = 192;
constexpr int64_t kN = 224;
constexpr int kReps = 8;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct GemmRun {
  double ms_per_iter = 0.0;
  std::vector<float> out;
  std::vector<float> da;
  std::vector<float> db;
};

bool BitwiseEq(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// One full training-style GEMM: C = A*B forward, then dA/dB via Backward.
// Gradients accumulate across reps; that accumulation is itself part of
// the determinism surface being checked.
GemmRun RunGemmFwdBwd(int threads) {
  SetTensorThreads(threads);
  Rng rng(123);
  Tensor a = Tensor::Randn({kM, kK}, rng, 0.5f);
  Tensor b = Tensor::Randn({kK, kN}, rng, 0.5f);
  GemmRun run;
  const double start = NowMs();
  for (int rep = 0; rep < kReps; ++rep) {
    Tensor c = MatMul(a, b);
    Sum(c).Backward();
    if (rep == kReps - 1) {
      run.out = c.data();
    }
  }
  run.ms_per_iter = (NowMs() - start) / kReps;
  run.da = a.grad();
  run.db = b.grad();
  SetTensorThreads(0);
  return run;
}

// The pre-refactor kernel shape: serial triple loops, no tiling, no pool.
// dC is all-ones (matches Sum(c).Backward()), so dA = rowsum-free dC*B^T
// and dB = A^T*dC reduce to plain accumulations — still O(mkn) each.
GemmRun RunNaiveSerial() {
  Rng rng(123);
  Tensor a = Tensor::Randn({kM, kK}, rng, 0.5f);
  Tensor b = Tensor::Randn({kK, kN}, rng, 0.5f);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  std::vector<float> c(static_cast<size_t>(kM * kN), 0.0f);
  std::vector<float> da(static_cast<size_t>(kM * kK), 0.0f);
  std::vector<float> db(static_cast<size_t>(kK * kN), 0.0f);
  GemmRun run;
  const double start = NowMs();
  for (int rep = 0; rep < kReps; ++rep) {
    for (int64_t i = 0; i < kM; ++i) {
      for (int64_t j = 0; j < kN; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < kK; ++p) {
          acc += pa[i * kK + p] * pb[p * kN + j];
        }
        c[static_cast<size_t>(i * kN + j)] = acc;
      }
    }
    for (int64_t i = 0; i < kM; ++i) {
      for (int64_t p = 0; p < kK; ++p) {
        float acc = 0.0f;
        for (int64_t j = 0; j < kN; ++j) {
          acc += pb[p * kN + j];  // dC == 1 everywhere.
        }
        da[static_cast<size_t>(i * kK + p)] += acc;
      }
    }
    for (int64_t p = 0; p < kK; ++p) {
      for (int64_t j = 0; j < kN; ++j) {
        float acc = 0.0f;
        for (int64_t i = 0; i < kM; ++i) {
          acc += pa[i * kK + p];
        }
        db[static_cast<size_t>(p * kN + j)] += acc;
      }
    }
  }
  run.ms_per_iter = (NowMs() - start) / kReps;
  run.out = std::move(c);
  run.da = std::move(da);
  run.db = std::move(db);
  return run;
}

// One op fwd+bwd timed under the currently active SIMD tier. A case
// builds its own fresh inputs (untimed), times kReps fwd+bwd iterations,
// and returns every value the determinism contract covers (outputs ++
// accumulated grads) concatenated, for bitwise comparison across tiers.
struct SimdRun {
  double ms_per_iter = 0.0;
  std::vector<float> values;
};

int Main() {
  BenchReport report("kernels");
  const char* simd = SimdLevelName(ActiveSimdLevel());
  bool deterministic = true;

  // --- GEMM fwd+bwd across thread counts ----------------------------------
  std::cout << StrFormat("gemm fwd+bwd, A[%d,%d] * B[%d,%d], %d reps\n",
                         static_cast<int>(kM), static_cast<int>(kK), static_cast<int>(kK),
                         static_cast<int>(kN), kReps);
  std::cout << "op              | threads | ms/iter | speedup | bitwise==1t\n";
  const GemmRun baseline = RunGemmFwdBwd(1);
  for (int threads : {1, 2, 4, 8}) {
    const GemmRun run = threads == 1 ? baseline : RunGemmFwdBwd(threads);
    const bool bitwise = BitwiseEq(run.out, baseline.out) && BitwiseEq(run.da, baseline.da) &&
                         BitwiseEq(run.db, baseline.db);
    deterministic = deterministic && bitwise;
    const double speedup = run.ms_per_iter > 0.0 ? baseline.ms_per_iter / run.ms_per_iter : 0.0;
    std::cout << StrFormat("%-15s | %7d | %7.2f | %6.2fx | %s\n", "gemm_fwd_bwd", threads,
                           run.ms_per_iter, speedup, bitwise ? "yes" : "NO");
    report.AddRow()
        .Text("op", "gemm_fwd_bwd")
        .Text("simd", simd)
        .Number("threads", threads)
        .Number("m", static_cast<double>(kM))
        .Number("k", static_cast<double>(kK))
        .Number("n", static_cast<double>(kN))
        .Number("ms_per_iter", run.ms_per_iter)
        .Number("speedup_vs_1t", speedup)
        .Number("bitwise_matches_1t", bitwise ? 1.0 : 0.0);
  }

  // --- Naive serial reference ---------------------------------------------
  const GemmRun naive = RunNaiveSerial();
  std::cout << StrFormat("%-15s | %7d | %7.2f | %6.2fx | %s\n", "naive_serial", 1,
                         naive.ms_per_iter,
                         naive.ms_per_iter > 0.0 ? baseline.ms_per_iter / naive.ms_per_iter : 0.0,
                         "n/a");
  report.AddRow()
      .Text("op", "naive_serial")
      .Text("simd", simd)
      .Number("threads", 1)
      .Number("ms_per_iter", naive.ms_per_iter)
      .Number("tiled_1t_speedup_vs_naive",
              baseline.ms_per_iter > 0.0 ? naive.ms_per_iter / baseline.ms_per_iter : 0.0);

  // --- SIMD tier vs forced-scalar fallback at 1 thread --------------------
  // The same op fwd+bwd under the active tier and under
  // SetSimdOverride(kScalar); values and grads must be bitwise identical
  // (the canonical-order contract), and on AVX2 hardware the active tier
  // should be well clear of 1x.
  {
    SetTensorThreads(1);
    const auto matmul_case = [] {
      Rng rng(77);
      Tensor a = Tensor::Randn({kM, kK}, rng, 0.5f);
      Tensor b = Tensor::Randn({kK, kN}, rng, 0.5f);
      SimdRun run;
      const double start = NowMs();
      for (int rep = 0; rep < kReps; ++rep) {
        Tensor c = MatMul(a, b);
        Sum(c).Backward();
        if (rep == kReps - 1) {
          run.values = c.data();
        }
      }
      run.ms_per_iter = (NowMs() - start) / kReps;
      run.values.insert(run.values.end(), a.grad().begin(), a.grad().end());
      run.values.insert(run.values.end(), b.grad().begin(), b.grad().end());
      return run;
    };
    const auto layernorm_case = [] {
      Rng rng(78);
      Tensor x = Tensor::Randn({kM, kN}, rng, 0.5f);
      Tensor gamma = Tensor::Randn({kN}, rng, 0.5f);
      Tensor beta = Tensor::Randn({kN}, rng, 0.5f);
      SimdRun run;
      const double start = NowMs();
      for (int rep = 0; rep < kReps; ++rep) {
        Tensor y = LayerNorm(x, gamma, beta);
        Sum(Square(y)).Backward();
        if (rep == kReps - 1) {
          run.values = y.data();
        }
      }
      run.ms_per_iter = (NowMs() - start) / kReps;
      run.values.insert(run.values.end(), x.grad().begin(), x.grad().end());
      run.values.insert(run.values.end(), gamma.grad().begin(), gamma.grad().end());
      run.values.insert(run.values.end(), beta.grad().begin(), beta.grad().end());
      return run;
    };
    const auto softmax_case = [] {
      Rng rng(79);
      Tensor x = Tensor::Randn({kM, kN}, rng, 0.5f);
      SimdRun run;
      const double start = NowMs();
      for (int rep = 0; rep < kReps; ++rep) {
        Tensor y = LogSoftmax(x);
        Sum(Square(y)).Backward();
        if (rep == kReps - 1) {
          run.values = y.data();
        }
      }
      run.ms_per_iter = (NowMs() - start) / kReps;
      run.values.insert(run.values.end(), x.grad().begin(), x.grad().end());
      return run;
    };
    // The data plane's shapes (docs/KERNELS.md §1a): E = 16, H = 32 and
    // K = 4 over [batch * K] rows, where the row-range kernels' register
    // tiles matter most.
    constexpr int64_t kRows = 4096;
    const auto dataplane_matmul_case = [](int64_t k, int64_t n) {
      return [k, n] {
        Rng rng(80);
        Tensor a = Tensor::Randn({kRows, k}, rng, 0.5f);
        Tensor b = Tensor::Randn({k, n}, rng, 0.5f);
        SimdRun run;
        const double start = NowMs();
        for (int rep = 0; rep < kReps; ++rep) {
          Tensor c = MatMul(a, b);
          Sum(Square(c)).Backward();
          if (rep == kReps - 1) {
            run.values = c.data();
          }
        }
        run.ms_per_iter = (NowMs() - start) / kReps;
        run.values.insert(run.values.end(), a.grad().begin(), a.grad().end());
        run.values.insert(run.values.end(), b.grad().begin(), b.grad().end());
        return run;
      };
    };
    const auto layernorm_matmul_case = [] {
      Rng rng(81);
      Tensor x = Tensor::Randn({kRows, 16}, rng, 0.5f);
      Tensor gamma = Tensor::Randn({16}, rng, 0.5f);
      Tensor beta = Tensor::Randn({16}, rng, 0.5f);
      Tensor w = Tensor::Randn({16, 32}, rng, 0.5f);
      SimdRun run;
      const double start = NowMs();
      for (int rep = 0; rep < kReps; ++rep) {
        Tensor y = LayerNormMatMul(x, gamma, beta, w);
        Sum(Square(y)).Backward();
        if (rep == kReps - 1) {
          run.values = y.data();
        }
      }
      run.ms_per_iter = (NowMs() - start) / kReps;
      for (const Tensor* t : {&x, &gamma, &beta, &w}) {
        run.values.insert(run.values.end(), t->grad().begin(), t->grad().end());
      }
      return run;
    };
    const auto block_attention_case = [] {
      Rng rng(82);
      Tensor q = Tensor::Randn({kRows, 16}, rng, 0.5f);
      Tensor k = Tensor::Randn({kRows, 16}, rng, 0.5f);
      Tensor v = Tensor::Randn({kRows, 16}, rng, 0.5f);
      SimdRun run;
      const double start = NowMs();
      for (int rep = 0; rep < kReps; ++rep) {
        Tensor y = BlockAttention(q, k, v, 4, 0.25f);
        Sum(Square(y)).Backward();
        if (rep == kReps - 1) {
          run.values = y.data();
        }
      }
      run.ms_per_iter = (NowMs() - start) / kReps;
      for (const Tensor* t : {&q, &k, &v}) {
        run.values.insert(run.values.end(), t->grad().begin(), t->grad().end());
      }
      return run;
    };
    const auto compare = [&](const char* op, const auto& fn) {
      ClearSimdOverride();
      const SimdRun active = fn();
      SetSimdOverride(SimdLevel::kScalar);
      const SimdRun scalar = fn();
      ClearSimdOverride();
      const bool bitwise = BitwiseEq(active.values, scalar.values);
      deterministic = deterministic && bitwise;
      const double speedup =
          active.ms_per_iter > 0.0 ? scalar.ms_per_iter / active.ms_per_iter : 0.0;
      std::cout << StrFormat("%-15s | %7d | %7.2f | %6.2fx | %s  (scalar %.2f ms)\n", op, 1,
                             active.ms_per_iter, speedup, bitwise ? "yes" : "NO",
                             scalar.ms_per_iter);
      report.AddRow()
          .Text("op", op)
          .Text("simd", simd)
          .Number("threads", 1)
          .Number("ms_per_iter", active.ms_per_iter)
          .Number("scalar_ms_per_iter", scalar.ms_per_iter)
          .Number("speedup_vs_scalar", speedup)
          .Number("bitwise_matches_scalar", bitwise ? 1.0 : 0.0);
    };
    std::cout << "simd tier (" << simd << ") vs forced-scalar fallback, 1 thread, fwd+bwd\n";
    compare("matmul", matmul_case);
    compare("layernorm", layernorm_case);
    compare("log_softmax", softmax_case);
    compare("matmul_4096x16x16", dataplane_matmul_case(16, 16));
    compare("matmul_4096x32x16", dataplane_matmul_case(32, 16));
    compare("layernorm_matmul_4096x16x32", layernorm_matmul_case);
    compare("block_attention_b4_dk16", block_attention_case);
    SetTensorThreads(0);
  }

  if (!report.WriteJson()) {
    std::cerr << "failed to write " << report.FilePath() << "\n";
    return 1;
  }
  std::cout << "wrote " << report.FilePath() << " (" << report.size() << " rows)\n";
  if (!deterministic) {
    std::cerr << "bitwise determinism violated across thread counts / SIMD tiers\n";
    return 1;
  }
  std::cout << "determinism: all configurations bitwise-identical\n"
               "target: >= 3x gemm_fwd_bwd at 8 threads vs 1 (requires >= 8 cores)\n";
  return 0;
}

}  // namespace
}  // namespace hybridflow

int main() { return hybridflow::Main(); }
