// RolloutEngine: the data-plane RLHF rollout entry point.
//
// Maps one prompt shard onto the shared step loop (src/rollout/step_loop.h)
// with a DataStepExecutor: the real PolicyNet runs over dynamically
// composed batches (mixed prefill + decode rows chosen by RolloutScheduler
// against a real KvBlockManager). The per-row forward is independent
// of batch composition and token selection goes through the shared
// SampleLogitsRow, so greedy decoding produces bitwise-identical responses
// and log-probs regardless of schedule, admission order, or preemption.
//
// Sampling mode draws from per-sequence forked RNG streams, so sampled
// outputs are schedule-independent too.
#ifndef SRC_ROLLOUT_ENGINE_H_
#define SRC_ROLLOUT_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/rng.h"
#include "src/nn/policy_net.h"
#include "src/obs/metrics.h"
#include "src/rollout/scheduler.h"

namespace hybridflow {

// Sim-plane timing model of generation. The data plane always runs the
// step loop; the mode only picks how the performance plane prices it.
// Kept while perfbench (which only a benchmark change may edit) names it.
enum class RolloutMode {
  kStatic,      // Closed-form wave model (PerfModel::GenerateTime).
  kContinuous,  // Per-step replay (SimulateContinuousGeneration).
};

// Engine knobs, shared between ActorOptions and the timing simulator: the
// scheduler's settings (inherited; they apply to both planes alike) plus
// the timing model, the data-plane KV geometry and the event sinks.
struct RolloutOptions : RolloutSchedulerConfig {
  RolloutMode mode = RolloutMode::kStatic;
  // Data-plane KV geometry (toy scale). num_blocks == 0 auto-sizes the
  // cache to fit the whole shard at full length (no preemption).
  int64_t block_tokens = 4;
  int64_t num_blocks = 0;
  // Optional per-sequence lifecycle event sink (src/obs/seq_events.h),
  // borrowed, shared safely by concurrent per-rank engines. Null (the
  // default) disables data-plane recording entirely: the scheduler hooks
  // no-op and no latency derivation runs. When set, the engine also
  // observes per-sequence wall-clock TTFT/TPOT into the
  // `rollout.ttft_wall_us`/`rollout.tpot_wall_us` quantile instruments.
  SeqEventLog* event_log = nullptr;
  // Same, for the timing simulator's sim-plane events. Kept separate from
  // `event_log` because sim-plane volume scales with the *simulated*
  // workload (full-scale batches), not the toy data plane. Export-only:
  // RolloutSimResult::latency comes from the scheduler's per-sequence
  // stamps whether or not a sink is attached.
  SeqEventLog* sim_event_log = nullptr;
};

// Termination rules for one generation call (mirrors AlignmentTask's
// response_len / use_eos without depending on hf_data).
struct RolloutLimits {
  int64_t max_new_tokens = 0;
  bool use_eos = false;
  int64_t eos_token = -1;
};

// Aggregate counters of one engine run (or many, via the collector): the
// scheduler's own counters plus the step loop's KV and queueing figures.
struct RolloutStats : RolloutSchedulerStats {
  int64_t sequences = 0;
  int64_t queue_wait_steps_total = 0;  // Enqueue -> first admission.
  int64_t queue_wait_steps_max = 0;
  int64_t kv_high_water_blocks = 0;
  double kv_peak_utilization = 0.0;  // used/num_blocks peak.
  // Prefix-sharing KV cache: the peak number of physically shared blocks.
  int64_t shared_blocks_high_water = 0;
  // Always 0: nothing forks a sequence, so no copy-on-write split can
  // happen. Kept while perfbench (which only a benchmark change may edit)
  // reads it.
  int64_t cow_splits = 0;
  // KV work: append operations and blocks allocated.
  int64_t kv_appends = 0;
  int64_t kv_allocations = 0;

  void Merge(const RolloutStats& other);
};

// Thread-safe accumulator: per-rank engines run concurrently inside
// Dispatch's ParallelFor, each merging its shard's stats here.
class RolloutStatsCollector {
 public:
  void Add(const RolloutStats& stats) HF_EXCLUDES(mutex_);
  RolloutStats Snapshot() const HF_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  RolloutStats total_ HF_GUARDED_BY(mutex_);
};

struct RolloutShardResult {
  std::vector<std::vector<int64_t>> responses;
  std::vector<std::vector<float>> log_probs;
  RolloutStats stats;
};

class RolloutEngine {
 public:
  // `net` is borrowed (read-only). One KV manager serves the replica: its
  // TP ranks hold identical block tables, so their count changes nothing.
  RolloutEngine(const PolicyNet& net, const RolloutLimits& limits,
                const RolloutOptions& options);

  // Generates one response per prompt. `rng` seeds per-sequence streams
  // for sampling mode; greedy decoding never draws from it.
  RolloutShardResult Run(const std::vector<std::vector<int64_t>>& prompts, bool do_sample,
                         double temperature, Rng& rng) const;

 private:
  const PolicyNet& net_;
  RolloutLimits limits_;
  RolloutOptions options_;
  // Cached registry handles (hot loop; see src/obs/metrics.h).
  Counter& steps_total_;
  Counter& admissions_total_;
  Counter& preemptions_total_;
  Histogram& queue_wait_steps_;
  Histogram& running_batch_;
  Histogram& kv_utilization_;
  QuantileHistogram& ttft_wall_us_;
  QuantileHistogram& tpot_wall_us_;
  Counter& prefix_hits_total_;
  Gauge& shared_blocks_;
};

}  // namespace hybridflow

#endif  // SRC_ROLLOUT_ENGINE_H_
