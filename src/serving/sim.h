// SimulateServing: the sim-plane serving loop (docs/SERVING.md).
//
// Replays an arrival trace (src/data/arrival_trace.h) through the same
// step loop the data plane uses, but with a SimStepExecutor charging every
// step PerfModel prefill/decode/comm costs instead of running a network —
// the serving analogue of SimulateContinuousGeneration. Arrivals are
// injected as the DES clock passes them, TTFT-overdue requests are expired
// at step boundaries, and each request yields the same RequestRecord row
// the data plane emits (with an empty response — the sim plane never
// materializes tokens). This is what bench/bench_serving.cc sweeps across
// admission policies and trace shapes: identical trace, identical KV
// budget, only the policy differs.
#ifndef SRC_SERVING_SIM_H_
#define SRC_SERVING_SIM_H_

#include <vector>

#include "src/data/arrival_trace.h"
#include "src/perf/perf_model.h"
#include "src/serving/request.h"

namespace hybridflow {

// Records are by trace index.
struct ServingSimResult : ServingResult {
  double sim_seconds = 0.0;  // DES clock at drain.
};

// Serves `trace` on one generation replica of `replica_devices` GPUs under
// `config`. `kv_budget_bytes` bounds the per-GPU KV pool exactly as in
// SimulateContinuousGeneration (raised to fit the largest request alone).
// Deterministic given identical inputs.
ServingSimResult SimulateServing(const PerfModel& perf, const GenParallelConfig& gen,
                                 const std::vector<DeviceId>& replica_devices,
                                 const std::vector<ArrivalRecord>& trace,
                                 double kv_budget_bytes, const ServingPolicyConfig& config);

}  // namespace hybridflow

#endif  // SRC_SERVING_SIM_H_
