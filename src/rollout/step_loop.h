// The one scheduler step loop behind every generation path
// (docs/ROLLOUT.md): RolloutEngine::Run, SimulateContinuousGeneration,
// ServingFrontend::Serve and SimulateServing only map their inputs onto
// RolloutSequences and publish the StepLoopResult.
//
// RunStepLoop sizes and builds the replica's KvBlockManager, owns the
// RolloutScheduler, replays arrivals (a batch rollout is a trace with every
// arrival at t=0), calls the between-steps hook, and runs the cycle
//   BeginStep -> execute -> advance clock (SetSimNow) -> CommitStep
// until every sequence is terminal. The scheduler is the one producer of
// rollout accounting: its counters become StepLoopResult::stats, and it
// stamps each sequence's lifecycle clocks, which the callers read back from
// StepLoopResult::sequences. What a step computes is the executor's
// only job (the engine/worker split of vLLM-style engines):
//   * DataStepExecutor: PolicyNet::Forward over the emitting rows, then
//     SampleLogitsRow on each sequence's forked RNG stream;
//   * SimStepExecutor: PerfModel prefill, decode and comm step costs.
#ifndef SRC_ROLLOUT_STEP_LOOP_H_
#define SRC_ROLLOUT_STEP_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/policy_net.h"
#include "src/obs/metrics.h"
#include "src/perf/perf_model.h"
#include "src/rollout/engine.h"
#include "src/rollout/scheduler.h"

namespace hybridflow {

class StepExecutor {
 public:
  virtual ~StepExecutor() = default;
  // Runs one planned step (empty when TTFT expiry drained it) starting at
  // clock `start`; returns the seconds the step advances the clock by.
  // Emitting rows that produced EOS go to `eos_finished`. Decode rows'
  // counters in `sequences` may lag; the plan carries their kv_tokens sum.
  virtual double Execute(const StepPlan& plan, const std::vector<RolloutSequence>& sequences,
                         double start, std::vector<int64_t>* eos_finished) = 0;
};

// Real numerics. Per-row compute is independent of batch composition and
// each sequence samples from its own stream, so outputs do not depend on
// the schedule.
class DataStepExecutor : public StepExecutor {
 public:
  // One emitted token, stamped with the step-end clock.
  using TokenSink = std::function<void(int64_t id, int64_t token, float log_prob, double time)>;

  // Each step advances the clock by `seconds_per_step` (0 for RLHF
  // rollout). `eos_token` < 0 disables EOS. Sequence id samples from
  // rng.Fork(id); greedy decoding never draws.
  DataStepExecutor(const PolicyNet& net, bool do_sample, double temperature, const Rng& rng,
                   double seconds_per_step = 0.0, int64_t eos_token = -1,
                   TokenSink on_token = nullptr);

  // Registers the next sequence id (dense from 0).
  void AddSequence(const std::vector<int64_t>& prompt, int64_t max_new_tokens);
  double Execute(const StepPlan& plan, const std::vector<RolloutSequence>& sequences,
                 double start, std::vector<int64_t>* eos_finished) override;

  // Per id: generated tokens and their log-probs.
  std::vector<std::vector<int64_t>> responses;
  std::vector<std::vector<float>> log_probs;

 private:
  const PolicyNet& net_;
  bool do_sample_;
  double temperature_;
  Rng rng_;
  double seconds_per_step_;
  int64_t eos_token_;
  TokenSink on_token_;
  std::vector<IncrementalContext> contexts_;
  std::vector<Rng> rngs_;
};

// Performance plane: prices each step on one replica. Preempted sequences
// recompute their context on resume, charged as prefill.
class SimStepExecutor : public StepExecutor {
 public:
  SimStepExecutor(const PerfModel& perf, const GenParallelConfig& gen,
                  const std::vector<DeviceId>& replica_devices);

  // PerfModel::GenerateTime's geometry: 16-token blocks of sharded KV
  // bytes, as many as `kv_budget_bytes` holds.
  KvBlockConfig KvGeometry(bool prefix_cache, double kv_budget_bytes) const;
  double Execute(const StepPlan& plan, const std::vector<RolloutSequence>& sequences,
                 double start, std::vector<int64_t>* eos_finished) override;

  GenTimeBreakdown time;          // Summed step costs.
  double max_step_seconds = 0.0;  // Largest single step.

 private:
  const PerfModel& perf_;
  GenParallelConfig gen_;
  std::vector<DeviceId> devices_;
  // Fixed per replica, so built once rather than per step.
  std::vector<DeviceId> tp_group_;
  // One step's prefill chunk sizes; the buffer is reused across steps.
  std::vector<int64_t> prefill_tokens_;
};

struct StepLoopConfig {
  RolloutSchedulerConfig scheduler;
  // Geometry and capacity: kv.num_blocks is raised to fit the longest
  // sequence alone; 0 fits every sequence at full length.
  KvBlockConfig kv;
  SeqEventLog* event_log = nullptr;  // Optional; the loop opens one run.
  // Optional instruments: rows and KV utilization per step,
  // enqueue-to-admission wait per sequence.
  Histogram* running_batch = nullptr;
  Histogram* kv_utilization = nullptr;
  Histogram* queue_wait_steps = nullptr;
};

// Called after every arrival injection; appends the ids of arrived, live
// sequences to cancel, in ascending id order.
using BetweenStepsHook = std::function<void(
    double now, const std::vector<RolloutSequence>& sequences, std::vector<int64_t>* cancel)>;

struct StepLoopResult {
  // Terminal states and lifecycle stamps, by id.
  std::vector<RolloutSequence> sequences;
  RolloutStats stats;
  int64_t prefix_hit_tokens = 0;
  int64_t kv_leaked_blocks = 0;  // Used blocks at drain; must be 0.
  double end_seconds = 0.0;       // Clock at drain.
  int64_t event_run = 0;
};

// Sequence ids must equal their index. Each sequence is enqueued once the
// clock reaches its `arrival`, if it is still kWaiting then (one with a
// zero target counts as finished at once).
StepLoopResult RunStepLoop(const StepLoopConfig& config, std::vector<RolloutSequence> sequences,
                           StepExecutor& executor, const BetweenStepsHook& between_steps = nullptr);

}  // namespace hybridflow

#endif  // SRC_ROLLOUT_STEP_LOOP_H_
