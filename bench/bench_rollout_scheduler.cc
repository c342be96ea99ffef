// Continuous batching vs the static wave model for the generation stage.
//
// Sweeps KV-cache budget (as a fraction of the full-batch demand) against
// response-length distributions on one 7B replica (p_g=1, t_g=2). The
// static path pads every sequence to the longest response and batches in
// capacity-sized waves (PerfModel::GenerateTime); the continuous engine
// (SimulateContinuousGeneration) runs the shipping RLHF rollout: the
// prefix-sharing cache on and projected-peak admission, which retires
// short sequences early and backfills from the waiting queue whenever the
// running set's projected peak leaves room. Expected shape:
//   * uniform lengths — continuous must not lose (gate: speedup >= 1.0 in
//     every cell, where uniform lengths are the closest call);
//   * skewed lengths (80% short / 20% long) — continuous wins big, the
//     static path burns whole waves on padded short sequences;
//   * group sampling (n=4 per prompt) — the prefix cache shares prompt
//     blocks across a group, skipping n-1 of every n prompt prefills;
//   * tight budgets — continuous degrades into smaller batches, never into
//     preemption (gate: 0 preemptions in every cell).
//
// Emits BENCH_rollout.json with one row per (workload, budget) cell and
// exits non-zero if a gate fails — registered as a ctest
// (bench_rollout_gate) so the regression trips CI, not just the report.

#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench/rollout_workloads.h"
#include "src/common/strings.h"
#include "src/obs/telemetry.h"
#include "src/rollout/timing.h"
#include "src/sim/topology.h"

namespace hybridflow {
namespace {

int Main() {
  const ClusterSpec cluster = ClusterSpec::WithGpus(16);
  const PerfModel perf(ModelSpec::Llama7B(), cluster);
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  const int64_t batch = 128;
  const int64_t prompt = 1024;

  const std::vector<Workload> workloads = GridWorkloads(batch, prompt);

  // Full demand: every sequence resident at its final length.
  const double token_bytes = perf.KvBytesPerTokenPerGpu(gen);
  const double full_demand = static_cast<double>(batch) * (prompt + 512) * token_bytes;

  BenchReport report("rollout");
  int gate_failures = 0;
  std::cout << StrFormat("%-14s | %6s | %10s | %10s | %7s | %6s | %7s | %9s | %9s\n",
                         "workload", "budget", "static", "continuous", "speedup", "steps",
                         "preempt", "pfx skip", "ttft p99");
  for (const Workload& workload : workloads) {
    for (const double fraction : {1.0, 0.5, 0.25, 0.125}) {
      const double budget = fraction * full_demand;
      const GenTimeBreakdown fixed =
          perf.GenerateTime(gen, devices, batch, prompt, workload.max_response, budget,
                            /*use_kv_cache=*/true);
      // The shipping RLHF rollout configuration the gates below hold to
      // "never lose to static, never preempt": the prefix-sharing cache on
      // (shares group prompts) and RolloutOptions' projected-peak admission
      // (targets are the simulated lengths, so admission never
      // over-commits: on lockstep-uniform workloads the scheduler degrades
      // into exact capacity waves instead of thrashing below them).
      RolloutOptions options;
      options.mode = RolloutMode::kContinuous;
      options.prefix_cache = true;
      const RolloutSimResult continuous =
          SimulateContinuousGeneration(perf, gen, devices, workload.sequences, budget, options);
      const double speedup = continuous.time.total() > 0.0
                                 ? fixed.total() / continuous.time.total()
                                 : 0.0;
      const SeqLatencySummary& latency = continuous.latency;
      std::cout << StrFormat(
          "%-14s | %5.0f%% | %10s | %10s | %6.2fx | %6lld | %7lld | %9lld | %9s\n",
          workload.name, 100.0 * fraction, HumanSeconds(fixed.total()).c_str(),
          HumanSeconds(continuous.time.total()).c_str(), speedup,
          static_cast<long long>(continuous.stats.steps),
          static_cast<long long>(continuous.stats.preemptions),
          static_cast<long long>(continuous.stats.prefix_skipped_tokens),
          HumanSeconds(latency.ttft.p99).c_str());
      // Bench-enforced regression gates: the continuous engine must never
      // lose to the static wave model (on the uniform workload the work is
      // identical and there is no early exit to win from) ...
      if (speedup < 1.0) {
        std::cerr << StrFormat(
            "GATE FAILURE: %s continuous lost to static at budget %.1f%% "
            "(speedup %.3fx < 1.0)\n",
            workload.name, 100.0 * fraction, speedup);
        ++gate_failures;
      }
      // ... and, with exact targets, projected-peak admission never
      // over-commits, so no cell may preempt.
      if (continuous.stats.preemptions != 0) {
        std::cerr << StrFormat("GATE FAILURE: %s preempted %lld time(s) at budget %.1f%%\n",
                               workload.name,
                               static_cast<long long>(continuous.stats.preemptions),
                               100.0 * fraction);
        ++gate_failures;
      }
      report.AddRow()
          .Text("workload", workload.name)
          .Number("kv_budget_fraction", fraction)
          .Number("batch", static_cast<double>(batch))
          .Number("prompt_len", static_cast<double>(prompt))
          .Number("max_response_len", static_cast<double>(workload.max_response))
          .Number("static_seconds", fixed.total())
          .Number("static_waves", static_cast<double>(fixed.waves))
          .Number("continuous_seconds", continuous.time.total())
          .Number("continuous_prefill_seconds", continuous.time.prefill_seconds)
          .Number("continuous_decode_seconds", continuous.time.decode_seconds)
          .Number("continuous_comm_seconds", continuous.time.comm_seconds)
          .Number("speedup", speedup)
          .Number("steps", static_cast<double>(continuous.stats.steps))
          .Number("admissions", static_cast<double>(continuous.stats.admissions))
          .Number("preemptions", static_cast<double>(continuous.stats.preemptions))
          .Number("max_running_batch", static_cast<double>(continuous.stats.max_running_batch))
          .Number("queue_wait_steps_max",
                  static_cast<double>(continuous.stats.queue_wait_steps_max))
          .Number("kv_high_water_blocks",
                  static_cast<double>(continuous.stats.kv_high_water_blocks))
          .Number("kv_peak_utilization", continuous.stats.kv_peak_utilization)
          .Number("resumes", static_cast<double>(continuous.stats.resumes))
          .Number("recomputed_tokens", static_cast<double>(continuous.stats.recomputed_tokens))
          .Number("prefix_skipped_tokens",
                  static_cast<double>(continuous.stats.prefix_skipped_tokens))
          .Number("shared_blocks_high_water",
                  static_cast<double>(continuous.stats.shared_blocks_high_water))
          .Number("ttft_p50_s", latency.ttft.p50)
          .Number("ttft_p90_s", latency.ttft.p90)
          .Number("ttft_p99_s", latency.ttft.p99)
          .Number("tpot_p50_s", latency.tpot.p50)
          .Number("tpot_p90_s", latency.tpot.p90)
          .Number("tpot_p99_s", latency.tpot.p99)
          .Number("queue_delay_p99_s", latency.queue_delay.p99)
          .Number("preemption_stall_p99_s", latency.preemption_stall.p99);
    }
  }
  // Shared-prefill speedup: the same group-sampled workload (n=4 per
  // prompt) with and without the prefix cache, at full budget. Isolates
  // the win from skipping n-1 of every n prompt prefills.
  {
    const Workload group = GroupSampledWorkload(/*groups=*/32, /*n=*/4, prompt, /*response=*/512);
    RolloutOptions cached;
    cached.mode = RolloutMode::kContinuous;
    cached.prefix_cache = true;
    RolloutOptions uncached = cached;
    uncached.prefix_cache = false;
    const RolloutSimResult with_cache =
        SimulateContinuousGeneration(perf, gen, devices, group.sequences, full_demand, cached);
    const RolloutSimResult without_cache =
        SimulateContinuousGeneration(perf, gen, devices, group.sequences, full_demand, uncached);
    const double shared_prefill_speedup =
        with_cache.time.total() > 0.0 ? without_cache.time.total() / with_cache.time.total() : 0.0;
    std::cout << StrFormat(
        "group_n4 shared-prefill speedup (prefix cache on vs off, 100%% budget): %.2fx "
        "(prefill %s -> %s, %lld prompt tokens skipped)\n",
        shared_prefill_speedup, HumanSeconds(without_cache.time.prefill_seconds).c_str(),
        HumanSeconds(with_cache.time.prefill_seconds).c_str(),
        static_cast<long long>(with_cache.stats.prefix_skipped_tokens));
    report.AddRow()
        .Text("workload", "group_n4_shared_prefill")
        .Number("kv_budget_fraction", 1.0)
        .Number("batch", static_cast<double>(batch))
        .Number("prompt_len", static_cast<double>(prompt))
        .Number("max_response_len", static_cast<double>(group.max_response))
        .Number("uncached_seconds", without_cache.time.total())
        .Number("uncached_prefill_seconds", without_cache.time.prefill_seconds)
        .Number("cached_seconds", with_cache.time.total())
        .Number("cached_prefill_seconds", with_cache.time.prefill_seconds)
        .Number("shared_prefill_speedup", shared_prefill_speedup)
        .Number("prefix_skipped_tokens",
                static_cast<double>(with_cache.stats.prefix_skipped_tokens))
        .Number("shared_blocks_high_water",
                static_cast<double>(with_cache.stats.shared_blocks_high_water));
  }
  if (!report.WriteJson()) {
    std::cerr << "failed to write " << report.FilePath() << "\n";
    return 1;
  }
  std::cout << "wrote " << report.FilePath() << " (" << report.size() << " rows)\n";
  if (gate_failures > 0) {
    std::cerr << gate_failures << " gate failure(s)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hybridflow

int main() { return hybridflow::Main(); }
