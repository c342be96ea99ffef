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
  loop.scheduler = options;
  loop.kv = executor.KvGeometry(options.prefix_cache, kv_budget_bytes);
  loop.event_log = options.sim_event_log;  // Export only.
  std::vector<RolloutSequence> states(sequences.size());
  for (size_t i = 0; i < sequences.size(); ++i) {
    HF_CHECK_GT(sequences[i].prompt_tokens, 0);
    HF_CHECK_GE(sequences[i].response_tokens, 0);
    RolloutSequence& state = states[i];
    state.id = static_cast<int64_t>(i);
    state.prompt_tokens = sequences[i].prompt_tokens;
    state.target_new_tokens = sequences[i].response_tokens;
    if (options.prefix_cache) {
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
  // The scheduler's per-sequence stamps, shaped as DeriveSeqLatencies
  // would derive them from the run's events (never-enqueued zero-target
  // sequences have none and are left out).
  std::vector<SeqLatency> rows;
  rows.reserve(run.sequences.size());
  for (const RolloutSequence& state : run.sequences) {
    if (state.enqueue_step < 0) {
      continue;
    }
    SeqLatency& row = rows.emplace_back();
    row.seq = state.id;
    row.tokens = state.generated;
    row.preemptions = state.preemptions;
    row.recomputed_tokens = state.recomputed_tokens;
    row.finished = state.state == SequenceState::kFinished;
    row.preemption_stall = state.preemption_stall_seconds;
    if (state.generated >= 1) {
      row.queue_delay = state.first_admit_seconds - state.enqueue_seconds;
      row.ttft = state.first_token_seconds - state.enqueue_seconds;
    }
    if (state.generated >= 2) {
      row.tpot = (state.last_token_seconds - state.first_token_seconds) /
                 static_cast<double>(state.generated - 1);
    }
  }
  result.latency = SummarizeSeqLatencies(rows);
  return result;
}

}  // namespace hybridflow
