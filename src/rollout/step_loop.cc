#include "src/rollout/step_loop.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "src/common/check.h"

namespace hybridflow {

DataStepExecutor::DataStepExecutor(const PolicyNet& net, bool do_sample, double temperature,
                                   const Rng& rng, double seconds_per_step, int64_t eos_token,
                                   TokenSink on_token)
    : net_(net),
      do_sample_(do_sample),
      temperature_(temperature),
      rng_(rng),
      seconds_per_step_(seconds_per_step),
      eos_token_(eos_token),
      on_token_(std::move(on_token)) {}

void DataStepExecutor::AddSequence(const std::vector<int64_t>& prompt, int64_t max_new_tokens) {
  rngs_.emplace_back();
  contexts_.emplace_back(prompt, net_.config().context_window);
  responses.emplace_back().reserve(static_cast<size_t>(max_new_tokens));
  log_probs.emplace_back().reserve(static_cast<size_t>(max_new_tokens));
}

double DataStepExecutor::Execute(const StepPlan& plan,
                                 const std::vector<RolloutSequence>& /*sequences*/, double start,
                                 std::vector<int64_t>* eos_finished) {
  // Partial prefill chunks (chunked prefill) do compute but emit nothing:
  // only rows that caught up with their full context run the LM head.
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(plan.rows()));
  plan.ForEachEmitting([&rows](int64_t id) { rows.push_back(id); });
  if (rows.empty()) {
    return seconds_per_step_;
  }
  // Generation only reads the logits: no autograd graph.
  NoGradScope no_grad;
  std::vector<std::vector<int64_t>> step_contexts;
  step_contexts.reserve(rows.size());
  for (int64_t id : rows) {
    step_contexts.push_back(contexts_[static_cast<size_t>(id)].tokens());
  }
  const Tensor logits = net_.Forward(step_contexts);
  for (size_t a = 0; a < rows.size(); ++a) {
    const size_t id = static_cast<size_t>(rows[a]);
    // A sequence's stream is forked at its first sampled draw; greedy
    // decoding never draws, so it passes the parent stream untouched.
    std::unique_ptr<Rng>& stream = rngs_[id];
    if (do_sample_ && stream == nullptr) {
      stream = std::make_unique<Rng>(rng_.Fork(id));
    }
    float log_prob = 0.0f;
    const int64_t token = SampleLogitsRow(logits, static_cast<int64_t>(a), temperature_,
                                          do_sample_, do_sample_ ? *stream : rng_, &log_prob);
    responses[id].push_back(token);
    log_probs[id].push_back(log_prob);
    contexts_[id].Push(token);
    if (eos_token_ >= 0 && token == eos_token_) {
      eos_finished->push_back(rows[a]);
    }
    if (on_token_ != nullptr) {
      on_token_(rows[a], token, log_prob, start + seconds_per_step_);
    }
  }
  return seconds_per_step_;
}

SimStepExecutor::SimStepExecutor(const PerfModel& perf, const GenParallelConfig& gen,
                                 const std::vector<DeviceId>& replica_devices)
    : perf_(perf),
      gen_(gen),
      devices_(replica_devices),
      tp_group_(PerfModel::ReplicaTpGroup(gen, replica_devices)) {}

KvBlockConfig SimStepExecutor::KvGeometry(bool prefix_cache, double kv_budget_bytes) const {
  KvBlockConfig kv;
  kv.block_tokens = 16;
  kv.enable_prefix_cache = prefix_cache;
  // A budget below one block still fits the longest sequence alone.
  const double block_bytes =
      static_cast<double>(kv.block_tokens) * perf_.KvBytesPerTokenPerGpu(gen_);
  kv.num_blocks =
      block_bytes > 0.0 ? std::max<int64_t>(static_cast<int64_t>(kv_budget_bytes / block_bytes), 1)
                        : 1;
  return kv;
}

double SimStepExecutor::Execute(const StepPlan& plan,
                                const std::vector<RolloutSequence>& sequences, double /*start*/,
                                std::vector<int64_t>* /*eos_finished*/) {
  // Prefill: (re)admitted contexts are computed from scratch — recompute-
  // on-resume charges prompt + kept response tokens again. Under chunked
  // prefill each chunk charges only its own tokens.
  double step_seconds = 0.0;
  if (!plan.prefill.empty()) {
    prefill_tokens_.clear();
    for (const PrefillChunk& chunk : plan.prefill) {
      prefill_tokens_.push_back(chunk.tokens);
    }
    const double prefill_seconds = perf_.PrefillStepTime(gen_, devices_, prefill_tokens_);
    time.prefill_seconds += prefill_seconds;
    step_seconds += prefill_seconds;
  }
  // Decode: rows that caught up with their context emit one token against
  // its live KV; partial chunks do not run the decode step yet. The decode
  // rows come priced as one sum, so a step costs O(prefill chunks).
  int64_t rows = static_cast<int64_t>(plan.decode.size());
  int64_t context_tokens = plan.decode_kv_tokens;
  for (const PrefillChunk& chunk : plan.prefill) {
    if (chunk.completes) {
      rows += 1;
      context_tokens += sequences[static_cast<size_t>(chunk.id)].kv_tokens;
    }
  }
  if (rows > 0) {
    const double decode_seconds = perf_.DecodeStepTime(gen_, devices_, rows, context_tokens);
    const double comm_seconds = perf_.DecodeCommStepTime(gen_, tp_group_, rows);
    time.decode_seconds += decode_seconds;
    time.comm_seconds += comm_seconds;
    step_seconds += decode_seconds + comm_seconds;
  }
  max_step_seconds = std::max(max_step_seconds, step_seconds);
  return step_seconds;
}

void SimStepExecutor::ExecuteDecodeRun(int64_t rows, int64_t kv_tokens, int64_t steps,
                                       double* now) {
  const double comm_seconds = perf_.DecodeCommStepTime(gen_, tp_group_, rows);
  for (int64_t step = 0; step < steps; ++step, kv_tokens += rows) {
    const double decode_seconds = perf_.DecodeStepTime(gen_, devices_, rows, kv_tokens);
    time.decode_seconds += decode_seconds;
    time.comm_seconds += comm_seconds;
    const double step_seconds = decode_seconds + comm_seconds;
    max_step_seconds = std::max(max_step_seconds, step_seconds);
    *now += step_seconds;
  }
}

StepLoopResult RunStepLoop(const StepLoopConfig& config, std::vector<RolloutSequence> sequences,
                           StepExecutor& executor, const BetweenStepsHook& between_steps) {
  StepLoopResult result;
  const size_t count = sequences.size();
  result.stats.sequences = static_cast<int64_t>(count);
  result.sequences = std::move(sequences);
  std::vector<RolloutSequence>& seqs = result.sequences;
  if (count == 0) {
    return result;
  }

  // KV capacity: the stated budget raised to fit the longest sequence
  // alone (the scheduler's progress contract); with no budget, every
  // sequence at full length.
  KvBlockConfig kv_config = config.kv;
  int64_t fit_all = 0;
  int64_t fit_largest = 0;
  for (RolloutSequence& sequence : seqs) {
    HF_CHECK_EQ(sequence.id, static_cast<int64_t>(&sequence - seqs.data()));
    const int64_t full = sequence.prompt_tokens + sequence.target_new_tokens;
    const int64_t blocks = (full + kv_config.block_tokens - 1) / kv_config.block_tokens;
    fit_all += blocks;
    fit_largest = std::max(fit_largest, blocks);
    if (sequence.state == SequenceState::kWaiting && sequence.target_new_tokens == 0) {
      sequence.state = SequenceState::kFinished;
    }
  }
  kv_config.num_blocks =
      config.kv.num_blocks > 0 ? std::max(config.kv.num_blocks, fit_largest) : fit_all;
  KvBlockManager kv(kv_config);
  RolloutScheduler scheduler(config.scheduler, &kv, &seqs);
  result.event_run = config.event_log != nullptr ? config.event_log->BeginRun() : 0;
  scheduler.SetEventLog(config.event_log, result.event_run);

  // Arrival replay order (stable: equal arrivals keep id order).
  std::vector<int64_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&seqs](int64_t a, int64_t b) {
    return seqs[static_cast<size_t>(a)].arrival < seqs[static_cast<size_t>(b)].arrival;
  });
  double now = 0.0;
  size_t next = 0;  // Position in `order` of the next arrival.
  std::vector<int64_t> to_cancel;
  // Enqueues everything that has arrived by `now`, then applies the hook's
  // cancellations — legal only between CommitStep and the next BeginStep.
  // Their stamps and events carry `now`, also after an idle gap.
  const auto step_boundary = [&]() {
    scheduler.SetSimNow(now);
    for (; next < count && seqs[static_cast<size_t>(order[next])].arrival <= now; ++next) {
      if (seqs[static_cast<size_t>(order[next])].state == SequenceState::kWaiting) {
        scheduler.Enqueue(order[next]);
      }
    }
    if (between_steps != nullptr) {
      to_cancel.clear();
      between_steps(now, seqs, &to_cancel);
      for (int64_t id : to_cancel) {
        scheduler.Cancel(id, /*expired=*/false);
      }
    }
  };

  const auto observe_step = [&](int64_t rows, int64_t used_blocks) {
    const double utilization = kv_config.num_blocks > 0
                                   ? static_cast<double>(used_blocks) /
                                         static_cast<double>(kv_config.num_blocks)
                                   : 0.0;
    result.stats.kv_peak_utilization = std::max(result.stats.kv_peak_utilization, utilization);
    if (config.running_batch != nullptr) {
      config.running_batch->Observe(static_cast<double>(rows));
    }
    if (config.kv_utilization != nullptr) {
      config.kv_utilization->Observe(utilization);
    }
  };

  step_boundary();
  // A quiet run never spans a between-steps hook, or an arrival (below).
  const bool quiet_runs = executor.PricesDecodeRuns() && between_steps == nullptr;
  std::vector<int64_t> eos_finished;
  while (scheduler.HasWork() || next < count) {
    if (!scheduler.HasWork()) {
      // Idle gap: jump the clock to the next arrival.
      now = std::max(now, seqs[static_cast<size_t>(order[next])].arrival);
      step_boundary();
      continue;
    }
    const int64_t quiet = quiet_runs && next == count ? scheduler.QuietSteps() : 0;
    if (quiet > 0) {
      const int64_t rows = scheduler.decode_rows();
      executor.ExecuteDecodeRun(rows, scheduler.decode_kv_tokens(), quiet, &now);
      // Each step's figures, as BeginStep would leave them: the same rows,
      // and the blocks used so far, which grow by each step's crossings.
      int64_t used_blocks = kv.used_blocks();
      for (int64_t step = 0; step < quiet; ++step) {
        observe_step(rows, used_blocks);
        used_blocks += scheduler.CrossingsAt(step);
      }
      scheduler.CommitQuietRun(quiet, now);
      step_boundary();
      continue;
    }
    // Admission, preemption and expiry carry the step-start clock (set at
    // the last boundary); the commit's tokens carry the step-end clock.
    const StepPlan plan = scheduler.BeginStep();
    // KV pressure right after admission is the step's peak residency.
    observe_step(plan.rows(), kv.used_blocks());

    eos_finished.clear();
    now += executor.Execute(plan, seqs, now, &eos_finished);
    scheduler.SetSimNow(now);
    scheduler.CommitStep(plan, eos_finished);
    step_boundary();
  }
  result.end_seconds = now;

  RolloutStats& stats = result.stats;
  static_cast<RolloutSchedulerStats&>(stats) = scheduler.stats();
  stats.kv_high_water_blocks = kv.high_water_blocks();
  stats.shared_blocks_high_water = kv.shared_blocks_high_water();
  stats.kv_appends = kv.appends_total();
  stats.kv_allocations = kv.allocations_total();
  result.prefix_hit_tokens = kv.prefix_hit_tokens_total();
  result.kv_leaked_blocks = kv.used_blocks();
  for (const RolloutSequence& sequence : seqs) {
    HF_CHECK_MSG(IsTerminal(sequence.state), "sequence " << sequence.id << " did not terminate");
    if (sequence.target_new_tokens == 0) {
      continue;
    }
    const int64_t wait = std::max<int64_t>(sequence.first_admit_step - sequence.enqueue_step, 0);
    stats.queue_wait_steps_total += wait;
    stats.queue_wait_steps_max = std::max(stats.queue_wait_steps_max, wait);
    if (config.queue_wait_steps != nullptr) {
      config.queue_wait_steps->Observe(static_cast<double>(wait));
    }
  }
  return result;
}

}  // namespace hybridflow
