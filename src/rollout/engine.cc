#include "src/rollout/engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/rollout/step_loop.h"

namespace hybridflow {

void RolloutStats::Merge(const RolloutStats& other) {
  steps += other.steps;
  sequences += other.sequences;
  admissions += other.admissions;
  preemptions += other.preemptions;
  max_running_batch = std::max(max_running_batch, other.max_running_batch);
  queue_wait_steps_total += other.queue_wait_steps_total;
  queue_wait_steps_max = std::max(queue_wait_steps_max, other.queue_wait_steps_max);
  kv_high_water_blocks = std::max(kv_high_water_blocks, other.kv_high_water_blocks);
  kv_peak_utilization = std::max(kv_peak_utilization, other.kv_peak_utilization);
  prefill_chunks += other.prefill_chunks;
  max_prefill_tokens_step = std::max(max_prefill_tokens_step, other.max_prefill_tokens_step);
  resumes += other.resumes;
  recomputed_tokens += other.recomputed_tokens;
  cancelled += other.cancelled;
  expired += other.expired;
  prefix_skipped_tokens += other.prefix_skipped_tokens;
  shared_blocks_high_water = std::max(shared_blocks_high_water, other.shared_blocks_high_water);
  kv_appends += other.kv_appends;
  kv_allocations += other.kv_allocations;
}

void RolloutStatsCollector::Add(const RolloutStats& stats) {
  MutexLock lock(mutex_);
  total_.Merge(stats);
}

RolloutStats RolloutStatsCollector::Snapshot() const {
  MutexLock lock(mutex_);
  return total_;
}

RolloutEngine::RolloutEngine(const PolicyNet& net, const RolloutLimits& limits,
                             const RolloutOptions& options)
    : net_(net),
      limits_(limits),
      options_(options),
      steps_total_(MetricsRegistry::Global().GetCounter("rollout.steps_total",
                                                        {{"plane", "data"}})),
      admissions_total_(MetricsRegistry::Global().GetCounter("rollout.admissions_total",
                                                             {{"plane", "data"}})),
      preemptions_total_(MetricsRegistry::Global().GetCounter("rollout.preemptions_total",
                                                              {{"plane", "data"}})),
      queue_wait_steps_(MetricsRegistry::Global().GetHistogram(
          "rollout.queue_wait_steps", ExponentialBuckets(1, 2, 10), {{"plane", "data"}})),
      running_batch_(MetricsRegistry::Global().GetHistogram(
          "rollout.running_batch", ExponentialBuckets(1, 2, 10), {{"plane", "data"}})),
      kv_utilization_(MetricsRegistry::Global().GetHistogram(
          "rollout.kv_utilization", LinearBuckets(0.1, 0.1, 10), {{"plane", "data"}})),
      ttft_wall_us_(MetricsRegistry::Global().GetQuantileHistogram(
          "rollout.ttft_wall_us", QuantileHistogram::kDefaultRelativeError, {{"plane", "data"}})),
      tpot_wall_us_(MetricsRegistry::Global().GetQuantileHistogram(
          "rollout.tpot_wall_us", QuantileHistogram::kDefaultRelativeError, {{"plane", "data"}})),
      prefix_hits_total_(MetricsRegistry::Global().GetCounter("kvcache.prefix_hits_total",
                                                              {{"plane", "data"}})),
      shared_blocks_(MetricsRegistry::Global().GetGauge("kvcache.shared_blocks",
                                                        {{"plane", "data"}})) {
  HF_CHECK_GT(options_.block_tokens, 0);
  HF_CHECK_GE(limits_.max_new_tokens, 0);
}

RolloutShardResult RolloutEngine::Run(const std::vector<std::vector<int64_t>>& prompts,
                                      bool do_sample, double temperature, Rng& rng) const {
  const size_t batch = prompts.size();
  RolloutShardResult result;
  result.responses.resize(batch);
  result.log_probs.resize(batch);
  result.stats.sequences = static_cast<int64_t>(batch);
  if (batch == 0 || limits_.max_new_tokens == 0) {
    return result;
  }

  StepLoopConfig loop;
  loop.scheduler = options_;
  loop.kv.block_tokens = options_.block_tokens;
  loop.kv.num_blocks = options_.num_blocks;
  loop.kv.enable_prefix_cache = options_.prefix_cache;
  // Opt-in lifecycle recording: the loop opens a distinct run per engine
  // call, keeping concurrent per-rank shards apart in the shared log.
  loop.event_log = options_.event_log;
  loop.running_batch = &running_batch_;
  loop.kv_utilization = &kv_utilization_;
  loop.queue_wait_steps = &queue_wait_steps_;
  DataStepExecutor executor(net_, do_sample, temperature, rng, /*seconds_per_step=*/0.0,
                            limits_.use_eos ? limits_.eos_token : -1);
  std::vector<RolloutSequence> sequences(batch);
  for (size_t i = 0; i < batch; ++i) {
    RolloutSequence& sequence = sequences[i];
    sequence.id = static_cast<int64_t>(i);
    sequence.prompt_tokens = static_cast<int64_t>(prompts[i].size());
    sequence.target_new_tokens = limits_.max_new_tokens;
    if (options_.prefix_cache) {
      // Content identity for the prefix cache: identical prompt prefixes
      // (e.g. group sampling's n copies of one prompt) share blocks.
      sequence.block_hashes = PromptBlockHashes(prompts[i], options_.block_tokens);
    }
    executor.AddSequence(prompts[i], limits_.max_new_tokens);
  }
  const StepLoopResult run = RunStepLoop(loop, std::move(sequences), executor);
  result.responses = std::move(executor.responses);
  result.log_probs = std::move(executor.log_probs);
  result.stats = run.stats;

  prefix_hits_total_.Increment(static_cast<double>(run.prefix_hit_tokens));
  shared_blocks_.Set(static_cast<double>(result.stats.shared_blocks_high_water));
  if (options_.event_log != nullptr) {
    // Wall-clock per-sequence latency distributions for this shard's run.
    for (const SeqLatency& latency :
         DeriveSeqLatencies(options_.event_log->SnapshotRun(run.event_run), /*wall=*/true)) {
      if (latency.tokens >= 1) {
        ttft_wall_us_.Observe(latency.ttft);
      }
      if (latency.tokens >= 2) {
        tpot_wall_us_.Observe(latency.tpot);
      }
    }
  }
  steps_total_.Increment(static_cast<double>(result.stats.steps));
  admissions_total_.Increment(static_cast<double>(result.stats.admissions));
  preemptions_total_.Increment(static_cast<double>(result.stats.preemptions));
  return result;
}

}  // namespace hybridflow
