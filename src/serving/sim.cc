#include "src/serving/sim.h"

#include <utility>

#include "src/common/check.h"
#include "src/rollout/step_loop.h"

namespace hybridflow {

ServingSimResult SimulateServing(const PerfModel& perf, const GenParallelConfig& gen,
                                 const std::vector<DeviceId>& replica_devices,
                                 const std::vector<ArrivalRecord>& trace,
                                 double kv_budget_bytes, const RolloutSchedulerConfig& config) {
  ServingSimResult result;
  result.records.resize(trace.size());
  if (trace.empty()) {
    return result;
  }

  SimStepExecutor executor(perf, gen, replica_devices);
  StepLoopConfig loop;
  loop.scheduler = config;
  loop.kv = executor.KvGeometry(config.prefix_cache, kv_budget_bytes);
  std::vector<RolloutSequence> states(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const ArrivalRecord& record = trace[i];
    HF_CHECK_EQ(record.index, static_cast<int64_t>(i));
    HF_CHECK_GT(record.prompt_tokens, 0);
    HF_CHECK_GT(record.target_new_tokens, 0);
    RolloutSequence& state = states[i];
    state.id = record.index;
    state.prompt_tokens = record.prompt_tokens;
    state.target_new_tokens = record.target_new_tokens;
    state.tenant = record.tenant;
    state.priority = record.priority;
    state.ttft_deadline = record.ttft_deadline;
    state.arrival = record.arrival;
    if (config.prefix_cache && record.prompt_group >= 0) {
      state.block_hashes =
          GroupBlockHashes(record.prompt_group, record.prompt_tokens / loop.kv.block_tokens);
    }
    result.records[i].tpot_slo = record.tpot_slo;
  }
  const StepLoopResult run = RunStepLoop(loop, std::move(states), executor);
  FinishServingResult(run, &result);
  result.sim_seconds = run.end_seconds;
  return result;
}

}  // namespace hybridflow
