// SLO-aware serving admission vs plain FCFS across arrival-trace shapes.
//
// Replays the same seeded two-tenant trace (interactive: high priority,
// tight TTFT SLO, 4x fair-share weight; batch: best-effort) through
// SimulateServing on one 7B replica (p_g=1, t_g=2) under each admission
// policy, for each trace shape (Poisson / bursty ON-OFF / diurnal). The
// trace, KV budget, and PerfModel costs are identical across policies, so
// differences are pure scheduling. Expected shape:
//   * fcfs        — interactive requests queue behind batch bursts: worst
//                   interactive p99 TTFT, best batch fairness;
//   * priority    — interactive jumps the queue: best interactive TTFT,
//                   batch TTFT degrades under load;
//   * deadline    — EDF orders by TTFT deadline: close to priority for the
//                   SLO'd class without starving deadline-free requests;
//   * weighted_fair — DRR tracks the 4:1 weights: interactive protected,
//                   batch keeps a guaranteed share.
//
// Emits BENCH_serving.json with one row per (policy, shape, tenant).

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/data/arrival_trace.h"
#include "src/obs/telemetry.h"
#include "src/serving/sim.h"
#include "src/sim/topology.h"

namespace hybridflow {
namespace {

ArrivalTraceConfig TraceConfig(TraceShape shape) {
  ArrivalTraceConfig config;
  config.shape = shape;
  config.rate = 6.0;
  config.duration = 30.0;
  config.max_requests = 256;
  config.burst_on = 2.0;
  config.burst_off = 4.0;
  config.burst_factor = 4.0;
  config.diurnal_period = 15.0;
  config.diurnal_depth = 0.9;

  TenantSpec interactive;
  interactive.tenant = 0;
  interactive.share = 0.3;
  interactive.priority = 10;
  interactive.ttft_slo = 2.0;
  interactive.tpot_slo = 0.5;
  interactive.prompt_min = 64;
  interactive.prompt_max = 256;
  interactive.new_tokens_min = 16;
  interactive.new_tokens_max = 64;

  TenantSpec batch;
  batch.tenant = 1;
  batch.share = 0.7;
  batch.priority = 0;
  batch.prompt_min = 256;
  batch.prompt_max = 1024;
  batch.new_tokens_min = 64;
  batch.new_tokens_max = 256;

  config.tenants = {interactive, batch};
  return config;
}

struct Policy {
  const char* name;
  RolloutSchedulerConfig config;
};

std::vector<Policy> Policies() {
  // The FCFS baseline is the plain rollout path: queue-order admission,
  // overdue requests served late rather than rejected.
  Policy fcfs{"fcfs", {}};
  fcfs.config.expire_overdue = false;

  Policy priority{"priority", {}};
  priority.config.admission = AdmissionPolicy::kPriority;

  Policy deadline{"deadline", {}};
  deadline.config.admission = AdmissionPolicy::kDeadline;

  Policy fair{"weighted_fair", {}};
  fair.config.admission = AdmissionPolicy::kWeightedFair;
  fair.config.tenant_weights = {{0, 4.0}, {1, 1.0}};

  return {fcfs, priority, deadline, fair};
}

int Main() {
  const ClusterSpec cluster = ClusterSpec::WithGpus(16);
  const PerfModel perf(ModelSpec::Llama7B(), cluster);
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  // Tight enough that bursts queue: ~256 blocks of 16 tokens.
  const double kv_budget = 256.0 * 16.0 * perf.KvBytesPerTokenPerGpu(gen);

  BenchReport report("serving");
  std::cout << StrFormat("%-13s | %-7s | %-11s | %4s | %4s | %4s | %5s | %8s | %9s | %9s\n",
                         "policy", "shape", "tenant", "reqs", "fin", "exp", "slo%", "goodput",
                         "ttft p99", "tpot p99");
  for (const TraceShape shape : {TraceShape::kPoisson, TraceShape::kBursty, TraceShape::kDiurnal}) {
    const std::vector<ArrivalRecord> trace = GenerateArrivalTrace(TraceConfig(shape), /*seed=*/7);
    for (const Policy& policy : Policies()) {
      const ServingSimResult result =
          SimulateServing(perf, gen, devices, trace, kv_budget, policy.config);
      if (result.kv_leaked_blocks != 0) {
        std::cerr << "KV leak: " << result.kv_leaked_blocks << " blocks still resident\n";
        return 1;
      }
      for (const TenantServingStats& tenant : result.report.tenants) {
        const char* tenant_name = tenant.tenant == 0 ? "interactive" : "batch";
        const double slo_rate =
            tenant.requests > 0
                ? 100.0 * static_cast<double>(tenant.slo_attained) / tenant.requests
                : 0.0;
        std::cout << StrFormat(
            "%-13s | %-7s | %-11s | %4lld | %4lld | %4lld | %4.0f%% | %7.1f/s | %9s | %9s\n",
            policy.name, TraceShapeName(shape), tenant_name,
            static_cast<long long>(tenant.requests), static_cast<long long>(tenant.finished),
            static_cast<long long>(tenant.expired), slo_rate, tenant.goodput,
            HumanSeconds(tenant.ttft.p99).c_str(), HumanSeconds(tenant.tpot.p99).c_str());
        report.AddRow()
            .Text("policy", policy.name)
            .Text("trace_shape", TraceShapeName(shape))
            .Text("tenant", tenant_name)
            .Number("tenant_id", static_cast<double>(tenant.tenant))
            .Number("requests", static_cast<double>(tenant.requests))
            .Number("finished", static_cast<double>(tenant.finished))
            .Number("cancelled", static_cast<double>(tenant.cancelled))
            .Number("expired", static_cast<double>(tenant.expired))
            .Number("slo_attained", static_cast<double>(tenant.slo_attained))
            .Number("slo_attainment_rate", slo_rate / 100.0)
            .Number("goodput_tokens", static_cast<double>(tenant.goodput_tokens))
            .Number("goodput_tokens_per_s", tenant.goodput)
            .Number("ttft_p50_s", tenant.ttft.p50)
            .Number("ttft_p99_s", tenant.ttft.p99)
            .Number("tpot_p50_s", tenant.tpot.p50)
            .Number("tpot_p99_s", tenant.tpot.p99)
            .Number("makespan_s", result.report.makespan)
            .Number("steps", static_cast<double>(result.scheduler_stats.steps))
            .Number("preemptions", static_cast<double>(result.scheduler_stats.preemptions))
            .Number("kv_high_water_blocks", static_cast<double>(result.kv_high_water_blocks));
      }
    }
  }
  if (!report.WriteJson()) {
    std::cerr << "failed to write " << report.FilePath() << "\n";
    return 1;
  }
  std::cout << "wrote " << report.FilePath() << " (" << report.size() << " rows)\n";
  return 0;
}

}  // namespace
}  // namespace hybridflow

int main() { return hybridflow::Main(); }
