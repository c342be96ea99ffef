// Request-level types for the serving front end (docs/SERVING.md).
//
// A ServingRequest is one client call: a prompt plus serving metadata
// (tenant, priority, SLOs, optional cancellation schedule). Its lifecycle is
//   queued -> admitted -> prefilling -> streaming
//         -> finished | cancelled | expired
// mapped onto RolloutSequence states by ServingFrontend / SimulateServing;
// every terminal exit releases the request's KV blocks immediately.
//
// A RequestRecord is the per-request outcome row both planes emit: outcome,
// streamed tokens, TTFT/TPOT against the serving clock, and SLO attainment.
// BuildServingReport folds records into per-tenant digests and goodput
// (tokens of SLO-attaining finished requests per second of makespan);
// WriteRequestRecordsJsonl writes the JSONL artifact tools/hfstat.cc reads.
#ifndef SRC_SERVING_REQUEST_H_
#define SRC_SERVING_REQUEST_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/data/arrival_trace.h"
#include "src/obs/seq_events.h"
#include "src/rollout/scheduler.h"

namespace hybridflow {

// Scheduler-facing serving knobs shared by the data plane
// (ServingFrontend) and the sim plane (SimulateServing).
struct ServingPolicyConfig {
  RolloutPolicy policy = RolloutPolicy::kFcfs;
  AdmissionPolicy admission = AdmissionPolicy::kQueueOrder;
  int64_t reserve_tokens = 1;
  int64_t max_running = 0;
  int64_t prefill_chunk_tokens = 0;
  int64_t fair_quantum_tokens = 256;
  std::map<int64_t, double> tenant_weights;
  // Serving default: reject TTFT-overdue requests instead of serving them
  // late. Turn off to measure how late a policy would have served them.
  bool expire_overdue = true;
  // Prefix-sharing KV cache across requests (docs/KVCACHE.md). Data plane:
  // prompts hash by content. Sim plane: ArrivalRecord::prompt_group
  // supplies count-based content identity.
  bool prefix_cache = false;
};

RolloutSchedulerConfig ToSchedulerConfig(const ServingPolicyConfig& config);

// One client request. `arrival`, `ttft_deadline`, and `cancel_at` are
// absolute instants on the serving clock (virtual seconds on the data
// plane, DES seconds on the sim plane).
struct ServingRequest {
  int64_t id = 0;
  int64_t tenant = 0;
  int64_t priority = 0;
  double arrival = 0.0;
  std::vector<int64_t> prompt;
  int64_t max_new_tokens = 0;
  double ttft_deadline = 0.0;       // <= 0 = no TTFT SLO.
  double tpot_slo = 0.0;            // Seconds per output token; <= 0 = none.
  // Client-side cancellation schedule (deterministic trace replay): cancel
  // after streaming this many tokens (0 = never) and/or at this absolute
  // time (<= 0 = never), whichever trips first. Checked at step boundaries.
  int64_t cancel_after_tokens = 0;
  double cancel_at = 0.0;
};

enum class RequestOutcome {
  kFinished,   // Reached max_new_tokens / EOS.
  kCancelled,  // Client cancelled (schedule or streaming callback).
  kExpired,    // TTFT deadline passed before the first token.
};

// Stable lowercase name used in the per-request JSONL ("finished", ...).
const char* RequestOutcomeName(RequestOutcome outcome);

// One streamed token, delivered to the client callback as it is committed.
struct StreamDelta {
  int64_t request = 0;
  int64_t token = 0;
  float log_prob = 0.0f;
  int64_t index = 0;  // 0-based position in the response.
  double time = 0.0;  // Serving-clock commit instant.
};

// Return false to cancel the request (takes effect at the step boundary;
// the delivered token is kept). The data plane invokes this inline on the
// engine thread, so callbacks must be fast and must not re-enter the
// frontend.
using StreamCallback = std::function<bool(const StreamDelta&)>;

// Per-request outcome row. Times are absolute serving-clock instants;
// ttft/tpot are derived durations (0 when undefined).
struct RequestRecord {
  int64_t id = 0;
  int64_t tenant = 0;
  int64_t priority = 0;
  RequestOutcome outcome = RequestOutcome::kFinished;
  double arrival = 0.0;
  double first_token_time = 0.0;  // 0 when no token was streamed.
  double end_time = 0.0;          // Terminal-transition instant.
  int64_t tokens = 0;             // Tokens streamed before the terminal exit.
  int64_t preemptions = 0;
  double ttft = 0.0;              // first_token_time - arrival.
  double tpot = 0.0;              // Defined for tokens >= 2.
  double ttft_deadline = 0.0;     // Echoed SLO inputs (0 = none).
  double tpot_slo = 0.0;
  bool slo_ok = false;            // Finished with every stated SLO met.
  // Data plane only: the streamed response (empty on the sim plane).
  std::vector<int64_t> response;
  std::vector<float> log_probs;
};

struct TenantServingStats {
  int64_t tenant = 0;
  int64_t requests = 0;
  int64_t finished = 0;
  int64_t cancelled = 0;
  int64_t expired = 0;
  int64_t slo_attained = 0;      // Finished requests with slo_ok.
  int64_t goodput_tokens = 0;    // Tokens of SLO-attaining finished requests.
  double goodput = 0.0;          // goodput_tokens / report makespan.
  LatencyDigest ttft;            // Over requests that streamed >= 1 token.
  LatencyDigest tpot;            // Over requests that streamed >= 2 tokens.
};

struct ServingReport {
  double makespan = 0.0;  // Latest end_time across all requests.
  int64_t requests = 0;
  int64_t finished = 0;
  int64_t cancelled = 0;
  int64_t expired = 0;
  int64_t slo_attained = 0;
  double goodput = 0.0;   // Total SLO-attaining finished tokens / makespan.
  std::vector<TenantServingStats> tenants;  // Ascending tenant id.
};

ServingReport BuildServingReport(const std::vector<RequestRecord>& records);

// One serving run's outcome, on either plane.
struct ServingResult {
  std::vector<RequestRecord> records;  // One per request, by request id.
  ServingReport report;
  RolloutSchedulerStats scheduler_stats;
  int64_t kv_high_water_blocks = 0;
  // Every terminal exit returned its blocks: end-of-run used_blocks == 0.
  int64_t kv_leaked_blocks = 0;
};

struct StepLoopResult;  // src/rollout/step_loop.h

// Fills `result` from the step loop's terminal sequences: every record but
// its tpot_slo and the data plane's response (record i = sequence i;
// cancelled and expired requests end at the drain clock), the report, and
// the scheduler and KV stats.
void FinishServingResult(const StepLoopResult& run, ServingResult* result);

// One JSON object per request (JsonValidate-clean), e.g.
//   {"req":3,"tenant":1,"priority":0,"outcome":"finished","arrival":0.42,
//    "ttft":0.8,"tpot":0.12,"tokens":16,"preemptions":0,"slo_ok":true,
//    "ttft_deadline":1.22,"tpot_slo":0.25}
std::string RequestRecordsToJsonl(const std::vector<RequestRecord>& records);
bool WriteRequestRecordsJsonl(const std::string& path,
                              const std::vector<RequestRecord>& records);

// Expands a generated arrival trace into serving requests with synthetic
// prompt token ids (deterministic given the trace): request i's prompt is
// filled from a per-request forked stream of `seed`.
std::vector<ServingRequest> RequestsFromTrace(const std::vector<ArrivalRecord>& trace,
                                              int64_t vocab_size, uint64_t seed);

}  // namespace hybridflow

#endif  // SRC_SERVING_REQUEST_H_
