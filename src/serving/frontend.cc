#include "src/serving/frontend.h"

#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/rollout/step_loop.h"

namespace hybridflow {

ServingFrontend::ServingFrontend(const PolicyNet& net, const ServingFrontendConfig& config,
                                 int kv_ranks)
    : net_(net),
      config_(config),
      kv_ranks_(kv_ranks),
      requests_total_(MetricsRegistry::Global().GetCounter("serving.requests_total",
                                                           {{"plane", "data"}})),
      finished_total_(MetricsRegistry::Global().GetCounter("serving.finished_total",
                                                           {{"plane", "data"}})),
      cancelled_total_(MetricsRegistry::Global().GetCounter("serving.cancelled_total",
                                                            {{"plane", "data"}})),
      expired_total_(MetricsRegistry::Global().GetCounter("serving.expired_total",
                                                          {{"plane", "data"}})) {
  HF_CHECK_GT(kv_ranks_, 0);
  HF_CHECK_GT(config_.block_tokens, 0);
  HF_CHECK_GT(config_.seconds_per_step, 0.0);
  HF_CHECK_MSG(config_.prefix_cache == config_.scheduler.prefix_cache,
               "ServingFrontendConfig::prefix_cache and ServingPolicyConfig::prefix_cache "
               "disagree; set both");
}

ServingResult ServingFrontend::Serve(const std::vector<ServingRequest>& requests, bool do_sample,
                                     double temperature, Rng& rng,
                                     const StreamCallback& on_token) {
  const size_t count = requests.size();
  ServingResult result;
  result.records.resize(count);
  requests_total_.Increment(static_cast<double>(count));
  if (count == 0) {
    return result;
  }

  StepLoopConfig loop;
  loop.scheduler = ToSchedulerConfig(config_.scheduler);
  loop.kv.block_tokens = config_.block_tokens;
  loop.kv.num_blocks = config_.num_blocks;
  loop.kv.enable_prefix_cache = config_.prefix_cache;
  loop.kv_ranks = kv_ranks_;
  loop.event_log = config_.event_log;
  // Client cancellation signals, applied at step boundaries. Only requests
  // that carry a cancel schedule are watched, or all of them under a stream
  // callback (which may refuse any token); terminal ones drop out.
  std::vector<int64_t> watched;
  std::vector<bool> refused(count, false);
  DataStepExecutor::TokenSink sink;
  if (on_token != nullptr) {
    sink = [&](int64_t id, int64_t token, float log_prob, double time) {
      const int64_t index = result.records[static_cast<size_t>(id)].tokens++;
      if (!on_token(StreamDelta{id, token, log_prob, index, time})) {
        refused[static_cast<size_t>(id)] = true;
      }
    };
  }
  DataStepExecutor executor(net_, do_sample, temperature, rng, config_.seconds_per_step,
                            /*eos_token=*/-1, sink);
  std::vector<RolloutSequence> sequences(count);
  for (size_t i = 0; i < count; ++i) {
    const ServingRequest& request = requests[i];
    HF_CHECK_EQ(request.id, static_cast<int64_t>(i));
    HF_CHECK_GT(request.max_new_tokens, 0);
    HF_CHECK(!request.prompt.empty());
    RolloutSequence& sequence = sequences[i];
    sequence.id = request.id;
    sequence.prompt_tokens = static_cast<int64_t>(request.prompt.size());
    sequence.target_new_tokens = request.max_new_tokens;
    sequence.tenant = request.tenant;
    sequence.priority = request.priority;
    sequence.ttft_deadline = request.ttft_deadline;
    sequence.arrival = request.arrival;
    if (config_.prefix_cache) {
      sequence.block_hashes = PromptBlockHashes(request.prompt, config_.block_tokens);
    }
    // A cancellation scheduled at-or-before arrival never reaches the
    // scheduler: the client hung up before the request was accepted.
    if (request.cancel_at > 0.0 && request.cancel_at <= request.arrival) {
      sequence.state = SequenceState::kCancelled;
    } else if (on_token != nullptr || request.cancel_at > 0.0 ||
               request.cancel_after_tokens > 0) {
      watched.push_back(request.id);
    }
    executor.AddSequence(request.prompt, request.max_new_tokens);
    result.records[i].tpot_slo = request.tpot_slo;
  }
  const auto cancellations = [&](double now, const std::vector<RolloutSequence>& states,
                                 std::vector<int64_t>* cancel) {
    size_t kept = 0;
    for (int64_t id : watched) {
      const RolloutSequence& sequence = states[static_cast<size_t>(id)];
      if (IsTerminal(sequence.state)) {
        continue;
      }
      watched[kept++] = id;
      const ServingRequest& request = requests[static_cast<size_t>(id)];
      const bool timed_out = request.cancel_at > 0.0 && request.cancel_at <= now;
      const bool streamed_enough = request.cancel_after_tokens > 0 &&
                                   sequence.generated >= request.cancel_after_tokens;
      const bool hung_up = refused[static_cast<size_t>(id)];
      if (request.arrival <= now && (timed_out || streamed_enough || hung_up)) {
        cancel->push_back(id);
      }
    }
    watched.resize(kept);
  };
  const StepLoopResult run =
      RunStepLoop(loop, std::move(sequences), executor, cancellations);

  for (size_t i = 0; i < count; ++i) {
    RequestRecord& record = result.records[i];
    record.response = std::move(executor.responses[i]);
    record.log_probs = std::move(executor.log_probs[i]);
  }
  FinishServingResult(run, &result);

  finished_total_.Increment(static_cast<double>(result.report.finished));
  cancelled_total_.Increment(static_cast<double>(result.report.cancelled));
  expired_total_.Increment(static_cast<double>(result.report.expired));
  for (const TenantServingStats& tenant : result.report.tenants) {
    const MetricLabels labels = {{"plane", "serving"},
                                 {"tenant", std::to_string(tenant.tenant)}};
    MetricsRegistry::Global()
        .GetCounter("serving.slo_attained_total", labels)
        .Increment(static_cast<double>(tenant.slo_attained));
    MetricsRegistry::Global()
        .GetCounter("serving.goodput_tokens_total", labels)
        .Increment(static_cast<double>(tenant.goodput_tokens));
    QuantileHistogram& ttft_us = MetricsRegistry::Global().GetQuantileHistogram(
        "rollout.ttft_us", QuantileHistogram::kDefaultRelativeError, labels);
    QuantileHistogram& tpot_us = MetricsRegistry::Global().GetQuantileHistogram(
        "rollout.tpot_us", QuantileHistogram::kDefaultRelativeError, labels);
    for (const RequestRecord& record : result.records) {
      if (record.tenant != tenant.tenant) {
        continue;
      }
      if (record.tokens >= 1) {
        ttft_us.Observe(record.ttft * 1e6);  // Virtual seconds -> micros.
      }
      if (record.tokens >= 2) {
        tpot_us.Observe(record.tpot * 1e6);
      }
    }
  }
  return result;
}

}  // namespace hybridflow
