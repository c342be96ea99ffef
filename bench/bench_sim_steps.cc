// Full-precision golden of the sim-plane step loop.
//
// The other goldens print 9 significant digits, too coarse to catch a
// reordered floating-point sum. This bench writes every sim-plane output
// of a continuous-rollout generation with doubles as C99 hex floats (%a),
// so any change to a simulated second shows up as a diff:
//   * two RLHF systems after one iteration — configs/ppo_7b_async.cfg
//     (sim plane only) and perfbench's ppo_dataplane system (70B PPO on
//     128 GPUs, Algorithm 1 placement) with real compute off: the actor's
//     last_gen_breakdown(), last_rollout_sim_stats() and
//     last_rollout_sim_latency();
//   * SimulateContinuousGeneration over bench_rollout_scheduler's grid
//     (prefix cache on, RolloutOptions' projected-peak admission), plus two
//     cells under optimistic admission, which preempts: group sampling
//     with the prefix cache and chunked prefill, and skewed lengths with
//     neither.
// Each case also carries the work counters: the KV cache's (kv_appends,
// kv_allocations) and the steps the scheduler visited (visited_steps,
// the only line a faster step loop may change).
//
// Emits BENCH_sim_steps.json, one key per line; byte-checked by the
// bench_golden ctest.

#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/rollout_workloads.h"
#include "src/baselines/system_builder.h"
#include "src/rlhf/rlhf_program.h"
#include "src/rollout/timing.h"
#include "src/sim/topology.h"
#include "src/workers/model_workers.h"

namespace hybridflow {
namespace {

class GoldenWriter {
 public:
  explicit GoldenWriter(FILE* out) : out_(out) {}

  void BeginCase(const std::string& name) {
    std::fprintf(out_, "%s{\"case\":\"%s\"", cases_ == 0 ? "" : ",\n", name.c_str());
    ++cases_;
  }
  void EndCase() { std::fprintf(out_, "\n}"); }
  void Int(const char* key, int64_t value) {
    std::fprintf(out_, ",\n\"%s\":%" PRId64, key, value);
  }
  void Double(const char* key, double value) {
    std::fprintf(out_, ",\n\"%s\":\"%a\"", key, value);
  }

  void Breakdown(const GenTimeBreakdown& time) {
    Double("prefill_seconds", time.prefill_seconds);
    Double("decode_seconds", time.decode_seconds);
    Double("comm_seconds", time.comm_seconds);
    Int("waves", time.waves);
  }
  void Stats(const RolloutStats& stats) {
    Int("sequences", stats.sequences);
    Int("steps", stats.steps);
    Int("admissions", stats.admissions);
    Int("preemptions", stats.preemptions);
    Int("max_running_batch", stats.max_running_batch);
    Int("prefill_chunks", stats.prefill_chunks);
    Int("max_prefill_tokens_step", stats.max_prefill_tokens_step);
    Int("resumes", stats.resumes);
    Int("recomputed_tokens", stats.recomputed_tokens);
    Int("cancelled", stats.cancelled);
    Int("expired", stats.expired);
    Int("prefix_skipped_tokens", stats.prefix_skipped_tokens);
    Int("queue_wait_steps_total", stats.queue_wait_steps_total);
    Int("queue_wait_steps_max", stats.queue_wait_steps_max);
    Int("kv_high_water_blocks", stats.kv_high_water_blocks);
    Double("kv_peak_utilization", stats.kv_peak_utilization);
    Int("shared_blocks_high_water", stats.shared_blocks_high_water);
    Int("kv_appends", stats.kv_appends);
    Int("kv_allocations", stats.kv_allocations);
    Int("visited_steps", stats.visited_steps);
  }
  void Latency(const SeqLatencySummary& latency) {
    Int("latency_sequences", latency.sequences);
    Int("latency_finished", latency.finished);
    Int("latency_preemptions", latency.preemptions);
    Int("latency_recomputed_tokens", latency.recomputed_tokens);
    Digest("ttft", latency.ttft);
    Digest("tpot", latency.tpot);
    Digest("queue_delay", latency.queue_delay);
    Digest("preemption_stall", latency.preemption_stall);
  }

 private:
  void Digest(const std::string& name, const LatencyDigest& digest) {
    Int((name + "_count").c_str(), static_cast<int64_t>(digest.count));
    Double((name + "_mean").c_str(), digest.mean);
    Double((name + "_p50").c_str(), digest.p50);
    Double((name + "_p90").c_str(), digest.p90);
    Double((name + "_p99").c_str(), digest.p99);
    Double((name + "_max").c_str(), digest.max);
  }

  FILE* out_;
  int cases_ = 0;
};

// configs/ppo_7b_async.cfg.
SystemBuildConfig SimAsync7b() {
  SystemBuildConfig c;
  c.system = RlhfSystem::kOpenRlhf;
  c.algorithm = RlhfAlgorithm::kPpo;
  c.num_gpus = 16;
  c.actor_model = ModelSpec::Llama7B();
  c.critic_model = ModelSpec::Llama7B();
  c.rollout.mode = RolloutMode::kContinuous;
  c.rollout.policy = RolloutPolicy::kFcfs;
  c.rollout.prefill_chunk_tokens = 512;
  c.async_pipeline = true;
  c.async_staleness = 1;
  return c;
}

// perfbench's ppo_dataplane system without the data plane.
SystemBuildConfig Ppo70b128() {
  SystemBuildConfig c;
  c.system = RlhfSystem::kHybridFlow;
  c.algorithm = RlhfAlgorithm::kPpo;
  c.num_gpus = 128;
  c.actor_model = ModelSpec::Llama70B();
  c.critic_model = ModelSpec::Llama70B();
  c.placement = PlacementKind::kAuto;
  c.real_compute = false;
  c.rollout.mode = RolloutMode::kContinuous;
  c.tensor_threads = 1;
  return c;
}

void WriteSystem(const std::string& name, const SystemBuildConfig& config, GoldenWriter* out) {
  RlhfSystemInstance instance = BuildSystem(config);
  instance.RunIteration();
  const ActorWorkerGroup& actor = *instance.actor;
  out->BeginCase(name);
  out->Breakdown(actor.last_gen_breakdown());
  out->Stats(actor.last_rollout_sim_stats());
  out->Latency(actor.last_rollout_sim_latency());
  out->EndCase();
}

int Main() {
  const std::string path = "BENCH_sim_steps.json";
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::fprintf(file, "{\"bench\":\"sim_steps\",\"cases\":[\n");
  GoldenWriter out(file);
  WriteSystem("ppo_7b_async", SimAsync7b(), &out);
  WriteSystem("ppo_70b_128gpu", Ppo70b128(), &out);

  // bench_rollout_scheduler's replica and grid.
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(16));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  const int64_t batch = 128;
  const int64_t prompt = 1024;
  const double full_demand =
      static_cast<double>(batch) * (prompt + 512) * perf.KvBytesPerTokenPerGpu(gen);
  const auto write_cell = [&](const std::string& name, const Workload& workload,
                              double fraction, const RolloutOptions& options) {
    const RolloutSimResult result = SimulateContinuousGeneration(
        perf, gen, devices, workload.sequences, fraction * full_demand, options);
    out.BeginCase(name);
    out.Breakdown(result.time);
    out.Double("max_step_seconds", result.max_step_seconds);
    out.Stats(result.stats);
    out.Latency(result.latency);
    out.EndCase();
  };
  RolloutOptions shipping;
  shipping.mode = RolloutMode::kContinuous;
  shipping.prefix_cache = true;
  const std::vector<Workload> workloads = GridWorkloads(batch, prompt);
  for (const Workload& workload : workloads) {
    for (const double fraction : {1.0, 0.5, 0.25, 0.125}) {
      char name[64];
      std::snprintf(name, sizeof(name), "%s_%g", workload.name, fraction);
      write_cell(name, workload, fraction, shipping);
    }
  }
  RolloutOptions uncached = shipping;
  uncached.prefix_cache = false;
  write_cell("group_n4_uncached_1", workloads[2], 1.0, uncached);
  RolloutOptions optimistic;
  optimistic.mode = RolloutMode::kContinuous;
  optimistic.projected_peak_admission = false;
  optimistic.prefix_cache = true;
  optimistic.prefill_chunk_tokens = 256;
  write_cell("group_n4_optimistic_chunked_0.125", workloads[2], 0.125, optimistic);
  RolloutOptions plain_optimistic;
  plain_optimistic.projected_peak_admission = false;
  write_cell("skewed_80_20_optimistic_0.125", workloads[1], 0.125, plain_optimistic);
  std::fprintf(file, "\n]}\n");
  if (std::fclose(file) != 0) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace
}  // namespace hybridflow

int main() { return hybridflow::Main(); }
