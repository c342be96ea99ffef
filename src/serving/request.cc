#include "src/serving/request.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/obs/json_util.h"
#include "src/rollout/step_loop.h"

namespace hybridflow {

RolloutSchedulerConfig ToSchedulerConfig(const ServingPolicyConfig& config) {
  RolloutSchedulerConfig scheduler;
  scheduler.policy = config.policy;
  scheduler.admission = config.admission;
  scheduler.reserve_tokens = config.reserve_tokens;
  scheduler.max_running = config.max_running;
  scheduler.prefill_chunk_tokens = config.prefill_chunk_tokens;
  scheduler.fair_quantum_tokens = config.fair_quantum_tokens;
  scheduler.tenant_weights = config.tenant_weights;
  scheduler.expire_overdue = config.expire_overdue;
  return scheduler;
}

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kFinished:
      return "finished";
    case RequestOutcome::kCancelled:
      return "cancelled";
    case RequestOutcome::kExpired:
      return "expired";
  }
  return "unknown";
}

void FinishServingResult(const StepLoopResult& run, ServingResult* result) {
  for (size_t i = 0; i < result->records.size(); ++i) {
    const RolloutSequence& sequence = run.sequences[i];
    RequestRecord& record = result->records[i];
    record.id = sequence.id;
    record.tenant = sequence.tenant;
    record.priority = sequence.priority;
    record.arrival = sequence.arrival;
    record.ttft_deadline = sequence.ttft_deadline;
    record.tokens = sequence.generated;
    record.preemptions = sequence.preemptions;
    record.first_token_time = sequence.first_token_seconds;
    const double last_token_time = sequence.last_token_seconds;
    // The step loop guarantees a terminal state.
    const bool finished = sequence.state == SequenceState::kFinished;
    record.outcome = finished ? RequestOutcome::kFinished
                     : sequence.state == SequenceState::kCancelled ? RequestOutcome::kCancelled
                                                                   : RequestOutcome::kExpired;
    record.end_time = finished ? last_token_time : std::max(run.end_seconds, record.arrival);
    if (record.tokens >= 1) {
      record.ttft = record.first_token_time - record.arrival;
    }
    if (record.tokens >= 2) {
      record.tpot = (last_token_time - record.first_token_time) /
                    static_cast<double>(record.tokens - 1);
    }
    record.slo_ok =
        record.outcome == RequestOutcome::kFinished &&
        (record.ttft_deadline <= 0.0 || record.first_token_time <= record.ttft_deadline) &&
        (record.tpot_slo <= 0.0 || record.tokens < 2 || record.tpot <= record.tpot_slo);
  }
  result->report = BuildServingReport(result->records);
  result->scheduler_stats = run.stats;
  result->kv_high_water_blocks = run.stats.kv_high_water_blocks;
  result->kv_leaked_blocks = run.kv_leaked_blocks;
}

ServingReport BuildServingReport(const std::vector<RequestRecord>& records) {
  ServingReport report;
  std::map<int64_t, TenantServingStats> tenants;
  std::map<int64_t, std::vector<double>> ttfts;
  std::map<int64_t, std::vector<double>> tpots;
  for (const RequestRecord& record : records) {
    report.makespan = std::max(report.makespan, record.end_time);
    TenantServingStats& tenant = tenants[record.tenant];
    tenant.tenant = record.tenant;
    tenant.requests += 1;
    switch (record.outcome) {
      case RequestOutcome::kFinished:
        tenant.finished += 1;
        break;
      case RequestOutcome::kCancelled:
        tenant.cancelled += 1;
        break;
      case RequestOutcome::kExpired:
        tenant.expired += 1;
        break;
    }
    if (record.slo_ok) {
      tenant.slo_attained += 1;
      tenant.goodput_tokens += record.tokens;
    }
    if (record.tokens >= 1) {
      ttfts[record.tenant].push_back(record.ttft);
    }
    if (record.tokens >= 2) {
      tpots[record.tenant].push_back(record.tpot);
    }
  }
  for (auto& [id, tenant] : tenants) {
    tenant.ttft = DigestValues(std::move(ttfts[id]));
    tenant.tpot = DigestValues(std::move(tpots[id]));
    if (report.makespan > 0.0) {
      tenant.goodput = static_cast<double>(tenant.goodput_tokens) / report.makespan;
    }
    report.requests += tenant.requests;
    report.finished += tenant.finished;
    report.cancelled += tenant.cancelled;
    report.expired += tenant.expired;
    report.slo_attained += tenant.slo_attained;
    report.goodput += tenant.goodput;
    report.tenants.push_back(tenant);
  }
  return report;
}

std::string RequestRecordsToJsonl(const std::vector<RequestRecord>& records) {
  std::ostringstream out;
  for (const RequestRecord& record : records) {
    out << "{\"req\":" << record.id << ",\"tenant\":" << record.tenant
        << ",\"priority\":" << record.priority << ",\"outcome\":\""
        << RequestOutcomeName(record.outcome) << "\",\"arrival\":" << JsonNumber(record.arrival)
        << ",\"ttft\":" << JsonNumber(record.ttft) << ",\"tpot\":" << JsonNumber(record.tpot)
        << ",\"tokens\":" << record.tokens << ",\"preemptions\":" << record.preemptions
        << ",\"slo_ok\":" << (record.slo_ok ? "true" : "false")
        << ",\"ttft_deadline\":" << JsonNumber(record.ttft_deadline)
        << ",\"tpot_slo\":" << JsonNumber(record.tpot_slo) << "}\n";
  }
  return out.str();
}

bool WriteRequestRecordsJsonl(const std::string& path,
                              const std::vector<RequestRecord>& records) {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  file << RequestRecordsToJsonl(records);
  return static_cast<bool>(file);
}

std::vector<ServingRequest> RequestsFromTrace(const std::vector<ArrivalRecord>& trace,
                                              int64_t vocab_size, uint64_t seed) {
  HF_CHECK_GT(vocab_size, 0);
  Rng root(seed);
  std::vector<ServingRequest> requests;
  requests.reserve(trace.size());
  for (const ArrivalRecord& record : trace) {
    ServingRequest request;
    request.id = record.index;
    request.tenant = record.tenant;
    request.priority = record.priority;
    request.arrival = record.arrival;
    request.max_new_tokens = record.target_new_tokens;
    request.ttft_deadline = record.ttft_deadline;
    request.tpot_slo = record.tpot_slo;
    Rng prompt_rng = root.Fork(static_cast<uint64_t>(record.index));
    request.prompt.reserve(static_cast<size_t>(record.prompt_tokens));
    for (int64_t i = 0; i < record.prompt_tokens; ++i) {
      request.prompt.push_back(prompt_rng.UniformInt(0, vocab_size - 1));
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace hybridflow
