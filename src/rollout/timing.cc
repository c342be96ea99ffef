#include "src/rollout/timing.h"

#include <utility>

#include "src/common/check.h"
#include "src/rollout/step_loop.h"

namespace hybridflow {

RolloutSimResult SimulateContinuousGeneration(const PerfModel& perf,
                                              const GenParallelConfig& gen,
                                              const std::vector<DeviceId>& replica_devices,
                                              const std::vector<NominalSequence>& sequences,
                                              double kv_budget_bytes,
                                              const RolloutOptions& options) {
  RolloutSimResult result;
  result.stats.sequences = static_cast<int64_t>(sequences.size());
  if (sequences.empty()) {
    return result;
  }

  SimStepExecutor executor(perf, gen, replica_devices);
  StepLoopConfig loop;
  loop.scheduler = ToSchedulerConfig(options);
  loop.kv = executor.KvGeometry(options.enable_prefix_cache, kv_budget_bytes);
  // Lifecycle events always feed the latency digests; they only outlive
  // this call when the caller provides a sink.
  SeqEventLog local_events;
  loop.event_log = options.sim_event_log != nullptr ? options.sim_event_log : &local_events;
  std::vector<RolloutSequence> states(sequences.size());
  for (size_t i = 0; i < sequences.size(); ++i) {
    HF_CHECK_GT(sequences[i].prompt_tokens, 0);
    HF_CHECK_GE(sequences[i].response_tokens, 0);
    RolloutSequence& state = states[i];
    state.id = static_cast<int64_t>(i);
    state.prompt_tokens = sequences[i].prompt_tokens;
    state.target_new_tokens = sequences[i].response_tokens;
    if (options.enable_prefix_cache) {
      // Count-based content identity: equal groups hash equal, so the sim
      // plane shares (and skips prefill over) the same prompt blocks the
      // data plane would. Unique prompts (group < 0) still get hashes — in
      // their own per-sequence namespace, disjoint from the non-negative
      // group ids — because the data plane hashes every prompt's actual
      // tokens: a preempted victim's retained prompt blocks are prefix
      // hits on resume, so recompute covers only the response tail.
      const int64_t group = sequences[i].prompt_group >= 0
                                ? sequences[i].prompt_group
                                : -static_cast<int64_t>(i) - 1;
      state.block_hashes =
          GroupBlockHashes(group, sequences[i].prompt_tokens / loop.kv.block_tokens);
    }
  }
  const StepLoopResult run = RunStepLoop(loop, std::move(states), executor);
  result.stats = run.stats;
  result.time = executor.time;
  result.max_step_seconds = executor.max_step_seconds;
  result.latency = SummarizeSeqLatencies(
      DeriveSeqLatencies(loop.event_log == &local_events
                             ? local_events.Snapshot()
                             : loop.event_log->SnapshotRun(run.event_run),
                         /*wall=*/false));
  return result;
}

}  // namespace hybridflow
