// Performance-plane hook of the rollout engine: runs the shared step loop
// (src/rollout/step_loop.h) over *nominal* (full-scale) sequence lengths
// with a SimStepExecutor charging each step's prefill/decode/comm cost
// through PerfModel, replacing the closed-form wave approximation of
// PerfModel::GenerateTime when continuous batching is enabled. KV-pressure
// effects (waves, preemption, tail stragglers) emerge from actual
// block-granular scheduling.
#ifndef SRC_ROLLOUT_TIMING_H_
#define SRC_ROLLOUT_TIMING_H_

#include <cstdint>
#include <vector>

#include "src/perf/perf_model.h"
#include "src/rollout/engine.h"

namespace hybridflow {

// One full-scale sequence of the simulated workload.
struct NominalSequence {
  int64_t prompt_tokens = 0;
  int64_t response_tokens = 0;
  // Content identity for the prefix cache (count-based plane): sequences
  // with the same non-negative group are declared to share an identical
  // prompt (group sampling: n responses per prompt), so their full prompt
  // blocks hash equal and share. -1 = unique prompt, never shared.
  int64_t prompt_group = -1;
};

struct RolloutSimResult {
  GenTimeBreakdown time;
  RolloutStats stats;
  // Largest single engine-step latency (prefill + decode + comm). Chunked
  // prefill bounds this: without it a long prompt's one-shot prefill spikes
  // the step every decode row must wait behind.
  double max_step_seconds = 0.0;
  // Sim-plane per-sequence latency digests (TTFT / TPOT / queue delay /
  // preemption stall, all in sim-seconds), summarized from the lifecycle
  // clocks the scheduler stamps on each sequence. Always populated, with
  // no event log; RolloutOptions::sim_event_log only exports the raw
  // events, which DeriveSeqLatencies turns into the same digests.
  SeqLatencySummary latency;
};

// Simulates continuous-batching generation of `sequences` on one model
// replica (sharded per `gen` over `replica_devices`) with a per-GPU KV
// budget of `kv_budget_bytes`. Block geometry follows GenerateTime's
// convention (16-token blocks, KvBytesPerTokenPerGpu), raised if needed so
// the longest sequence fits alone. Preempted sequences recompute their
// context on resume, charged as prefill.
RolloutSimResult SimulateContinuousGeneration(const PerfModel& perf,
                                              const GenParallelConfig& gen,
                                              const std::vector<DeviceId>& replica_devices,
                                              const std::vector<NominalSequence>& sequences,
                                              double kv_budget_bytes,
                                              const RolloutOptions& options);

}  // namespace hybridflow

#endif  // SRC_ROLLOUT_TIMING_H_
