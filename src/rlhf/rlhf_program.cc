#include "src/rlhf/rlhf_program.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"

namespace hybridflow {
namespace {

// Sorted union of [start, end) intervals.
std::vector<std::pair<double, double>> MergeIntervals(
    std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& interval : intervals) {
    if (!merged.empty() && interval.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, interval.second);
    } else {
      merged.push_back(interval);
    }
  }
  return merged;
}

double IntersectionSeconds(const std::vector<std::pair<double, double>>& a,
                           const std::vector<std::pair<double, double>>& b) {
  double total = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) {
      total += hi - lo;
    }
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

}  // namespace

RlhfProgram::RlhfProgram(RlhfProgramConfig config, RlhfModels models, Controller* controller,
                         PromptDataset* dataset)
    : config_(std::move(config)),
      dataflow_(DataflowOf(config_.algorithm)),
      models_(models),
      controller_(controller),
      dataset_(dataset),
      kl_controller_(config_.adaptive_kl) {
  HF_CHECK(controller_ != nullptr);
  HF_CHECK_GE(config_.async_staleness, 0);
  ValidateModels();
  if (config_.use_adaptive_kl) {
    config_.advantage.kl_coef = static_cast<float>(kl_controller_.coef());
  }
  // The dataflow fixes the estimator and the policy loss, and fills in
  // Safe-RLHF's Lagrange multiplier and pretraining mix-in when unset.
  config_.advantage.estimator = dataflow_.estimator;
  config_.policy_loss.kind = dataflow_.policy_loss;
  if (models_.cost == nullptr || config_.advantage.cost_lambda <= 0.0f) {
    config_.advantage.cost_lambda = dataflow_.default_cost_lambda;
  }
  if (config_.ptx_coef <= 0.0f) {
    config_.ptx_coef = dataflow_.default_ptx_coef;
  }
}

void RlhfProgram::ValidateModels() const {
  const std::pair<RlhfRole, const void*> given[] = {
      {RlhfRole::kActor, models_.actor},         {RlhfRole::kCritic, models_.critic},
      {RlhfRole::kReference, models_.reference}, {RlhfRole::kReward, models_.reward},
      {RlhfRole::kCost, models_.cost},
  };
  for (const auto& [role, group] : given) {
    HF_CHECK_MSG(dataflow_.Has(role) == (group != nullptr),
                 dataflow_.name << (group == nullptr ? " requires a " : " has no ")
                                << RlhfRoleName(role) << " model");
  }
}

RlhfProgram::StagedExperience RlhfProgram::GenerateExperience() {
  const RlhfWorkloadSpec& w = config_.workload;
  ActorWorkerGroup& actor = *models_.actor;
  const bool real = actor.real_enabled();

  // --- Stage 0: load prompts -------------------------------------------------
  DataBatch prompts_data;
  if (real && dataset_ != nullptr) {
    int64_t rows = config_.real_batch;
    if (dataflow_.estimator == AdvantageEstimator::kGrpo) {
      // GRPO samples group_size responses per prompt: replicate prompts.
      const int group = config_.advantage.group_size;
      DataBatch unique = dataset_->NextBatch(std::max<int64_t>(1, rows / group));
      DataBatch::TokenColumn repeated;
      for (const std::vector<int64_t>& prompt : unique.Tokens("prompts")) {
        for (int j = 0; j < group; ++j) {
          repeated.push_back(prompt);
        }
      }
      prompts_data.SetTokens("prompts", std::move(repeated));
    } else {
      prompts_data = dataset_->NextBatch(rows);
    }
  }
  BatchFuture prompts = BatchFuture::Immediate(std::move(prompts_data));

  // --- Stage 1: generation ----------------------------------------------------
  StagedExperience experience;
  experience.policy_version = updates_applied_;
  {
    HF_TRACE_SCOPE("rlhf.stage.generation", "rlhf");
    experience.batch = actor.GenerateSequences(prompts, w, /*do_sample=*/true);

    // A second pass is greedy (Figure 6: do_sample=false), and its reward
    // is ReMax's variance-reduction baseline.
    if (dataflow_.generation_passes > 1) {
      BatchFuture greedy = actor.GenerateSequences(prompts, w, /*do_sample=*/false);
      experience.greedy_rewards = models_.reward->ComputeReward(greedy, w);
    }

    // Behavior-policy log-prob snapshot: when log-probs are recomputed, the
    // pass must run *here*, under the weights that generated the batch — in
    // async mode the actor advances before this batch reaches training, and
    // a late recompute would collapse the PPO importance ratio to 1.
    if (config_.recompute_log_probs) {
      experience.batch = actor.ComputeLogProb(experience.batch, w, "log_probs");
    }
  }
  return experience;
}

IterationMetrics RlhfProgram::RunIteration() {
  HF_TRACE_SCOPE("rlhf.iteration", "rlhf");
  const double wall_start_us = WallclockTracer::NowMicros();
  controller_->BeginIteration();
  const size_t trace_begin = controller_->cluster().trace().size();

  if (!config_.async_pipeline || config_.async_staleness == 0) {
    // Synchronous order (async_staleness == 0 degenerates to it exactly:
    // same op sequence, bitwise-identical data plane).
    StagedExperience experience = GenerateExperience();
    return TrainOnExperience(std::move(experience), trace_begin, wall_start_us);
  }

  // One-step-off pipeline: keep `async_staleness` rollouts staged. The next
  // iteration's generation is issued *before* training on the oldest staged
  // batch, so its spans land on the rollout/generation devices while the
  // experience-prep and training spans land on theirs — disjoint pools
  // genuinely overlap on the DES, colocated pools serialize as they must.
  while (static_cast<int64_t>(staged_.size()) < config_.async_staleness) {
    staged_.push_back(GenerateExperience());  // Prime the queue (first call).
  }
  StagedExperience current = std::move(staged_.front());
  staged_.pop_front();
  staged_.push_back(GenerateExperience());
  return TrainOnExperience(std::move(current), trace_begin, wall_start_us);
}

IterationMetrics RlhfProgram::DrainIteration() {
  HF_CHECK_MSG(config_.async_pipeline, "DrainIteration requires async_pipeline mode");
  HF_CHECK_MSG(!staged_.empty(), "DrainIteration called with no staged experience");
  HF_TRACE_SCOPE("rlhf.iteration.drain", "rlhf");
  const double wall_start_us = WallclockTracer::NowMicros();
  controller_->BeginIteration();
  const size_t trace_begin = controller_->cluster().trace().size();
  StagedExperience current = std::move(staged_.front());
  staged_.pop_front();
  MetricsRegistry::Global().GetCounter("rlhf.async_drains_total").Increment();
  return TrainOnExperience(std::move(current), trace_begin, wall_start_us);
}

IterationMetrics RlhfProgram::TrainOnExperience(StagedExperience experience, size_t trace_begin,
                                                double wall_start_us) {
  const RlhfWorkloadSpec& w = config_.workload;
  ActorWorkerGroup& actor = *models_.actor;
  const bool real = actor.real_enabled();
  BatchFuture batch = std::move(experience.batch);
  const int64_t staleness = updates_applied_ - experience.policy_version;

  // --- Stage 2: experience preparation ---------------------------------------
  // Every preparation op depends only on the generation output (Figure 1);
  // feeding each the same future lets models on disjoint pools run
  // concurrently (Table 1's OpenRLHF/NeMo patterns) while colocated models
  // still serialize on their shared devices. The controller merges the
  // output columns and joins on the latest future.
  IterationMetrics metrics;
  {
  HF_TRACE_SCOPE("rlhf.stage.experience", "rlhf");
  const BatchFuture generated = batch;
  std::vector<BatchFuture> prepared;
  if (models_.critic != nullptr) {
    prepared.push_back(models_.critic->ComputeValues(generated, w));
  }
  prepared.push_back(models_.reference->ComputeRefLogProb(generated, w));
  prepared.push_back(models_.reward->ComputeReward(generated, w));
  if (models_.cost != nullptr) {
    prepared.push_back(models_.cost->ComputeReward(generated, w));
  }
  for (const BatchFuture& part : prepared) {
    batch.data.MergeColumns(part.data);
    batch.ready_time = std::max(batch.ready_time, part.ready_time);
    batch.nominal_bytes = std::max(batch.nominal_bytes, part.nominal_bytes);
  }

  // compute_advantage: controller-side numerics (Table 4).
  if (real && !batch.data.empty()) {
    DataBatch data = batch.data;
    if (dataflow_.generation_passes > 1) {
      DataBatch::FloatColumn baselines = experience.greedy_rewards.data.Float("rewards");
      data.SetFloat("baseline_rewards", std::move(baselines));
      batch.ready_time = std::max(batch.ready_time, experience.greedy_rewards.ready_time);
    }
    if (models_.cost != nullptr) {
      // Cost value baseline: zeros (cost critic folded into the advantage).
      const DataBatch::FloatColumn& log_probs = data.Float("log_probs");
      DataBatch::FloatColumn zeros(log_probs.size());
      for (size_t i = 0; i < log_probs.size(); ++i) {
        zeros[i].assign(log_probs[i].size(), 0.0f);
      }
      data.SetFloat("cost_values", std::move(zeros));
    }
    batch.data = ComputeAdvantages(data, config_.advantage);
  }
  }

  // --- Stage 3: learning --------------------------------------------------------
  double actor_loss_sum = 0.0;
  double critic_loss_sum = 0.0;
  double grad_norm_sum = 0.0;
  double clip_fraction_sum = 0.0;
  int loss_count = 0;
  {
  HF_TRACE_SCOPE("rlhf.stage.learning", "rlhf");
  // Pretraining corpus for PPO-ptx / Safe-RLHF.
  DataBatch pretrain_data;
  if (real && config_.ptx_coef > 0.0f && dataset_ != nullptr) {
    pretrain_data = dataset_->NextBatch(std::max<int64_t>(4, config_.real_batch / 4));
  }

  for (int epoch = 0; epoch < w.ppo_epochs; ++epoch) {
    std::vector<DataBatch> minibatches;
    if (real && !batch.data.empty()) {
      minibatches = batch.data.SplitChunks(w.updates_per_iteration);
    }
    for (int update = 0; update < w.updates_per_iteration; ++update) {
      BatchFuture minibatch;
      minibatch.ready_time = batch.ready_time;
      minibatch.nominal_bytes = 0.0;  // Experience already resides on-device.
      if (!minibatches.empty()) {
        minibatch.data = minibatches[static_cast<size_t>(update)];
      }
      if (models_.critic != nullptr) {
        BatchFuture critic_out =
            models_.critic->UpdateCritic(minibatch, w, config_.value_loss);
        if (!critic_out.data.empty()) {
          critic_loss_sum += critic_out.data.Float("critic_loss")[0][0];
        }
      }
      ActorUpdateConfig update_config;
      update_config.loss = config_.policy_loss;
      update_config.ptx_coef = config_.ptx_coef;
      update_config.pretrain = pretrain_data.empty() ? nullptr : &pretrain_data;
      BatchFuture actor_out = actor.UpdateActor(minibatch, w, update_config);
      if (!actor_out.data.empty()) {
        actor_loss_sum += actor_out.data.Float("actor_loss")[0][0];
        if (actor_out.data.HasFloat("clip_fraction")) {
          clip_fraction_sum += actor_out.data.Float("clip_fraction")[0][0];
        }
        grad_norm_sum += actor.last_grad_norm();
      }
      loss_count += 1;
    }
  }
  }
  updates_applied_ += 1;

  // --- Metrics ---------------------------------------------------------------
  metrics.iteration_seconds = controller_->EndIteration();
  if (metrics.iteration_seconds > 0.0) {
    metrics.throughput_tokens_per_sec = w.TokensPerIteration() / metrics.iteration_seconds;
  }
  metrics.transition_seconds = actor.last_transition_seconds();
  metrics.generation_seconds = actor.last_gen_breakdown().total();
  metrics.async_staleness = staleness;
  metrics.async_queue_depth = static_cast<int64_t>(staged_.size());
  const std::vector<TraceSpan>& trace = controller_->cluster().trace();
  std::vector<std::pair<double, double>> generate_spans;
  std::vector<std::pair<double, double>> learn_spans;
  for (size_t i = trace_begin; i < trace.size(); ++i) {
    metrics.busy_by_category[trace[i].category] +=
        trace[i].duration() * static_cast<double>(trace[i].devices.size());
    if (trace[i].category == "generate") {
      generate_spans.emplace_back(trace[i].start, trace[i].end);
    } else if (trace[i].category == "train" || trace[i].category == "infer") {
      learn_spans.emplace_back(trace[i].start, trace[i].end);
    }
  }
  // Overlap fraction: iteration time during which generation ran
  // concurrently with experience-prep inference or training. Nonzero only
  // when the pipeline genuinely overlaps (async mode, disjoint pools).
  if (metrics.iteration_seconds > 0.0) {
    const double overlap_seconds = IntersectionSeconds(MergeIntervals(std::move(generate_spans)),
                                                       MergeIntervals(std::move(learn_spans)));
    metrics.overlap_fraction =
        std::min(1.0, overlap_seconds / metrics.iteration_seconds);
  }
  if (config_.async_pipeline) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetGauge("rlhf.async_queue_depth")
        .Set(static_cast<double>(metrics.async_queue_depth));
    registry.GetGauge("rlhf.async_staleness").Set(static_cast<double>(staleness));
    registry.GetGauge("rlhf.async_overlap_fraction").Set(metrics.overlap_fraction);
  }
  if (real && !batch.data.empty()) {
    const DataBatch& data = batch.data;
    double reward_sum = 0.0;
    for (const std::vector<float>& row : data.Float("rewards")) {
      reward_sum += row[0];
    }
    metrics.mean_reward = reward_sum / static_cast<double>(data.batch_size());
    const AlignmentTask& task = actor.real().task;
    metrics.toxicity_rate =
        AlignmentTask::ToxicityRate(data.Tokens("responses"), task.toxic_token());
    metrics.coherence_rate =
        task.CoherenceRate(data.Tokens("prompts"), data.Tokens("responses"));
    double kl_sum = 0.0;
    int64_t kl_count = 0;
    const DataBatch::FloatColumn& log_probs = data.Float("log_probs");
    const DataBatch::FloatColumn& ref_log_probs = data.Float("ref_log_probs");
    for (size_t i = 0; i < log_probs.size(); ++i) {
      for (size_t k = 0; k < log_probs[i].size(); ++k) {
        kl_sum += log_probs[i][k] - ref_log_probs[i][k];
        kl_count += 1;
      }
    }
    metrics.mean_kl = kl_count > 0 ? kl_sum / static_cast<double>(kl_count) : 0.0;
    if (loss_count > 0) {
      metrics.actor_loss = actor_loss_sum / loss_count;
      metrics.critic_loss = critic_loss_sum / loss_count;
      metrics.grad_norm = grad_norm_sum / loss_count;
      metrics.clip_fraction = clip_fraction_sum / loss_count;
    }
  }
  // Adaptive KL: track the observed divergence for the next iteration.
  if (config_.use_adaptive_kl && real) {
    config_.advantage.kl_coef = static_cast<float>(kl_controller_.Update(metrics.mean_kl));
  }
  metrics.kl_coef = config_.advantage.kl_coef;
  metrics.wall_clock_seconds = (WallclockTracer::NowMicros() - wall_start_us) / 1e6;
  iterations_run_ += 1;
  if (telemetry_ != nullptr) {
    TelemetryFields record;
    record.Number("iteration", static_cast<double>(iterations_run_))
        .Text("algorithm", dataflow_.name)
        .Number("actor_loss", metrics.actor_loss)
        .Number("critic_loss", metrics.critic_loss)
        .Number("mean_kl", metrics.mean_kl)
        .Number("kl_coef", metrics.kl_coef)
        .Number("mean_reward", metrics.mean_reward)
        .Number("grad_norm", metrics.grad_norm)
        .Number("clip_fraction", metrics.clip_fraction)
        .Number("sim_makespan_seconds", metrics.iteration_seconds)
        .Number("wall_clock_ms", metrics.wall_clock_seconds * 1e3)
        .Number("tokens_per_sec", metrics.throughput_tokens_per_sec);
    if (config_.async_pipeline) {
      record.Number("async_staleness", static_cast<double>(staleness))
          .Number("async_queue_depth", static_cast<double>(metrics.async_queue_depth))
          .Number("overlap_fraction", metrics.overlap_fraction);
    }
    // Continuous rollout: scheduler counters and latency percentiles of the
    // most recent generation (in async mode that is the batch issued this
    // iteration, one step ahead of the one consumed).
    if (actor.actor_options().rollout.mode == RolloutMode::kContinuous) {
      const RolloutStats& sim = actor.last_rollout_sim_stats();
      const SeqLatencySummary& latency = actor.last_rollout_sim_latency();
      record.Number("rollout_preemptions", static_cast<double>(sim.preemptions))
          .Number("rollout_resumes", static_cast<double>(sim.resumes))
          .Number("rollout_recomputed_tokens", static_cast<double>(sim.recomputed_tokens))
          .Number("kvcache_prefix_skipped_tokens", static_cast<double>(sim.prefix_skipped_tokens))
          .Number("kvcache_shared_blocks", static_cast<double>(sim.shared_blocks_high_water))
          .Number("rollout_ttft_p50_s", latency.ttft.p50)
          .Number("rollout_ttft_p90_s", latency.ttft.p90)
          .Number("rollout_ttft_p99_s", latency.ttft.p99)
          .Number("rollout_tpot_p50_s", latency.tpot.p50)
          .Number("rollout_tpot_p90_s", latency.tpot.p90)
          .Number("rollout_tpot_p99_s", latency.tpot.p99);
    }
    telemetry_->Append(record);
  }
  HF_LOG(kInfo) << dataflow_.name << " iteration: "
                << metrics.iteration_seconds << "s, throughput "
                << metrics.throughput_tokens_per_sec << " tok/s, reward "
                << metrics.mean_reward;
  return metrics;
}

}  // namespace hybridflow
