#include "src/serving/frontend.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/rollout/step_loop.h"

namespace hybridflow {

ServingFrontend::ServingFrontend(const PolicyNet& net, const ServingFrontendConfig& config,
                                 int kv_ranks)
    : net_(net),
      config_(config),
      requests_total_(MetricsRegistry::Global().GetCounter("serving.requests_total",
                                                           {{"plane", "data"}})),
      finished_total_(MetricsRegistry::Global().GetCounter("serving.finished_total",
                                                           {{"plane", "data"}})),
      cancelled_total_(MetricsRegistry::Global().GetCounter("serving.cancelled_total",
                                                            {{"plane", "data"}})),
      expired_total_(MetricsRegistry::Global().GetCounter("serving.expired_total",
                                                          {{"plane", "data"}})) {
  HF_CHECK_GT(kv_ranks, 0);
  HF_CHECK_GT(config_.block_tokens, 0);
  HF_CHECK_GT(config_.seconds_per_step, 0.0);
  HF_CHECK_MSG(config_.prefix_cache == config_.scheduler.prefix_cache,
               "ServingFrontendConfig::prefix_cache and RolloutSchedulerConfig::prefix_cache "
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
  loop.scheduler = config_.scheduler;
  loop.kv.block_tokens = config_.block_tokens;
  loop.kv.num_blocks = config_.num_blocks;
  loop.kv.enable_prefix_cache = config_.prefix_cache;
  loop.event_log = config_.event_log;
  // Client cancellations, applied at step boundaries at O(events) cost:
  // hang-ups and cancel_after_tokens hits are signalled as tokens stream
  // (the sink runs for every token, with or without a client callback),
  // and cancel_at instants are taken from a cursor over their ascending
  // times.
  std::vector<int64_t> signalled;
  const DataStepExecutor::TokenSink sink = [&](int64_t id, int64_t token, float log_prob,
                                               double time) {
    const size_t i = static_cast<size_t>(id);
    const int64_t index = result.records[i].tokens++;
    const bool hung_up =
        on_token != nullptr && !on_token(StreamDelta{id, token, log_prob, index, time});
    if (hung_up || requests[i].cancel_after_tokens == index + 1) {
      signalled.push_back(id);
    }
  };
  DataStepExecutor executor(net_, do_sample, temperature, rng, config_.seconds_per_step,
                            /*eos_token=*/-1, sink);
  std::vector<RolloutSequence> sequences(count);
  std::vector<int64_t> by_cancel_at;  // Requests cancelled at an instant after arrival.
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
    } else if (request.cancel_at > 0.0) {
      by_cancel_at.push_back(request.id);
    }
    executor.AddSequence(request.prompt, request.max_new_tokens);
    result.records[i].tpot_slo = request.tpot_slo;
  }
  std::stable_sort(by_cancel_at.begin(), by_cancel_at.end(), [&requests](int64_t a, int64_t b) {
    return requests[static_cast<size_t>(a)].cancel_at < requests[static_cast<size_t>(b)].cancel_at;
  });
  size_t next_cancel_at = 0;
  // Each signal cancels its request at the first boundary after it, in
  // ascending id order, unless the request is terminal by then (it
  // finished in the step that signalled, or was cancelled or expired).
  const auto cancellations = [&](double now, const std::vector<RolloutSequence>& states,
                                 std::vector<int64_t>* cancel) {
    for (; next_cancel_at < by_cancel_at.size() &&
           requests[static_cast<size_t>(by_cancel_at[next_cancel_at])].cancel_at <= now;
         ++next_cancel_at) {
      signalled.push_back(by_cancel_at[next_cancel_at]);
    }
    std::sort(signalled.begin(), signalled.end());
    signalled.erase(std::unique(signalled.begin(), signalled.end()), signalled.end());
    for (int64_t id : signalled) {
      if (!IsTerminal(states[static_cast<size_t>(id)].state)) {
        cancel->push_back(id);
      }
    }
    signalled.clear();
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
    QuantileHistogram& ttft_virtual_us = MetricsRegistry::Global().GetQuantileHistogram(
        "serving.ttft_virtual_us", QuantileHistogram::kDefaultRelativeError, labels);
    QuantileHistogram& tpot_virtual_us = MetricsRegistry::Global().GetQuantileHistogram(
        "serving.tpot_virtual_us", QuantileHistogram::kDefaultRelativeError, labels);
    for (const RequestRecord& record : result.records) {
      if (record.tenant != tenant.tenant) {
        continue;
      }
      if (record.tokens >= 1) {
        ttft_virtual_us.Observe(record.ttft * 1e6);  // Virtual seconds -> micros.
      }
      if (record.tokens >= 2) {
        tpot_virtual_us.Observe(record.tpot * 1e6);
      }
    }
  }
  return result;
}

}  // namespace hybridflow
