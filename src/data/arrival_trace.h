// Seeded arrival-trace generators for the serving front end
// (src/serving/): open-loop request streams with Poisson, bursty ON-OFF,
// or diurnal rate shapes over a multi-tenant mix.
//
// Traces are fully deterministic given (config, seed): arrival instants
// come from one dedicated Rng stream via Lewis-Shedler thinning against the
// shape's peak rate, the tenant of each arrival from a second stream, and
// each tenant's request shapes (prompt/response lengths) from a per-tenant
// forked stream — so changing one tenant's mix or weights never perturbs
// another tenant's request sizes. The serving simulator and bench replay
// the same trace across admission policies to compare like with like.
#ifndef SRC_DATA_ARRIVAL_TRACE_H_
#define SRC_DATA_ARRIVAL_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hybridflow {

enum class TraceShape {
  kPoisson,  // Homogeneous Poisson process at `rate`.
  kBursty,   // ON-OFF square wave: rate*burst_factor for burst_on seconds,
             // then `rate` for burst_off seconds, repeating.
  kDiurnal,  // Sinusoidal: rate * (1 + diurnal_depth * sin(2*pi*t/period)).
};

// Stable lowercase name used in configs and bench rows ("poisson", ...).
const char* TraceShapeName(TraceShape shape);
// Inverse of TraceShapeName; false if `name` is not a known shape.
bool ParseTraceShape(const std::string& name, TraceShape* shape);

// One tenant of the serving mix. `share` weights how often arrivals belong
// to this tenant (normalized over the mix); the SLOs are *relative* budgets
// stamped onto each request as absolute deadlines at generation time.
struct TenantSpec {
  int64_t tenant = 0;
  double share = 1.0;      // Arrival-mix weight (any positive scale).
  int64_t priority = 0;    // AdmissionPolicy::kPriority rank (higher first).
  double ttft_slo = 0.0;   // Seconds from arrival to first token; <= 0 = none.
  double tpot_slo = 0.0;   // Seconds per output token; <= 0 = none.
  int64_t prompt_min = 8;
  int64_t prompt_max = 24;
  int64_t new_tokens_min = 4;
  int64_t new_tokens_max = 16;
};

struct ArrivalTraceConfig {
  TraceShape shape = TraceShape::kPoisson;
  double rate = 8.0;          // Mean (baseline) arrivals per second.
  double duration = 10.0;     // Trace horizon in seconds.
  int64_t max_requests = 0;   // Hard cap on emitted requests; 0 = horizon only.
  // kBursty knobs: ON window length, OFF window length, ON rate multiplier.
  double burst_on = 0.5;
  double burst_off = 1.5;
  double burst_factor = 4.0;
  // kDiurnal knobs: sinusoid period (seconds) and modulation depth in
  // [0, 1] (depth 1 swings between 0 and 2x the baseline rate).
  double diurnal_period = 10.0;
  double diurnal_depth = 0.8;
  // The tenant mix; empty = one default tenant 0.
  std::vector<TenantSpec> tenants;
};

// One generated request, sorted by arrival time.
struct ArrivalRecord {
  int64_t index = 0;     // 0-based position in the trace.
  double arrival = 0.0;  // Seconds from trace start.
  int64_t tenant = 0;
  int64_t priority = 0;
  int64_t prompt_tokens = 0;
  int64_t target_new_tokens = 0;
  double ttft_deadline = 0.0;  // Absolute (arrival + ttft_slo); 0 = none.
  double tpot_slo = 0.0;       // Relative per-token budget; 0 = none.
  // Count-based prompt identity for the prefix-sharing KV cache: records
  // with the same non-negative group carry an identical prompt (shared
  // when RolloutSchedulerConfig::prefix_cache is on); -1 = unique prompt.
  int64_t prompt_group = -1;
};

// Instantaneous arrival rate lambda(t) of `config`'s shape (exposed for
// tests pinning the thinning envelope).
double TraceRateAt(const ArrivalTraceConfig& config, double t);

// Generates the trace. Deterministic given (config, seed); records are in
// nondecreasing arrival order with dense indices 0..n-1.
std::vector<ArrivalRecord> GenerateArrivalTrace(const ArrivalTraceConfig& config, uint64_t seed);

}  // namespace hybridflow

#endif  // SRC_DATA_ARRIVAL_TRACE_H_
