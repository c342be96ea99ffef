// The two RLHF-program workloads, driven through BuildSystem /
// RlhfProgram::RunIteration / DrainIteration:
//
//   ppo_dataplane  HybridFlow PPO, §8.1 nominal workload at 70B on 128
//                  simulated GPUs, Algorithm 1 placement, real toy
//                  transformer numerics on 256 prompts per iteration.
//   sim_async_7b   configs/ppo_7b_async.cfg: OpenRLHF placement, 16 GPUs,
//                  7B, continuous FCFS rollout with 512-token prefill
//                  chunks, one-step-off async; sim plane only.
//
// One operation is one iteration (closed loop: the next starts when the
// previous returns); the async workload ends with a drain.
#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/analysis/timeline_checker.h"
#include "src/baselines/system_builder.h"
#include "src/obs/seq_events.h"

namespace perfbench {

using namespace hybridflow;

namespace {

struct RlhfSpec {
  SystemBuildConfig config;
  bool data_plane = false;
  bool async_drain = false;
};

RlhfSpec PpoDataplaneSpec(uint64_t seed) {
  RlhfSpec spec;
  SystemBuildConfig& c = spec.config;
  c.system = RlhfSystem::kHybridFlow;
  c.algorithm = RlhfAlgorithm::kPpo;
  c.num_gpus = 128;
  c.actor_model = ModelSpec::Llama70B();
  c.critic_model = ModelSpec::Llama70B();
  c.placement = PlacementKind::kAuto;
  c.real_compute = true;
  c.real_batch = 256;
  c.real_arch = PolicyArch::kTransformer;
  c.seed = seed;  // Network init, sampling streams and the prompt dataset.
  c.rollout.mode = RolloutMode::kContinuous;
  c.tensor_threads = 1;
  spec.data_plane = true;
  return spec;
}

RlhfSpec SimAsyncSpec(uint64_t seed) {
  RlhfSpec spec;
  SystemBuildConfig& c = spec.config;
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
  c.seed = seed;  // The sim plane replays nominal lengths: no seeded input.
  spec.async_drain = true;
  return spec;
}

// One system under measurement plus its per-operation bookkeeping.
struct System {
  // Data-plane lifecycle events: the full-length response check.
  std::unique_ptr<SeqEventLog> events;
  // Sim-plane lifecycle events (traced runs only).
  std::unique_ptr<SeqEventLog> sim_events;
  // Declared after the logs it borrows, so it is destroyed first.
  std::unique_ptr<RlhfSystemInstance> instance;
  // Per operation: the cluster-trace index where its spans begin, whether
  // a check failed it, and the data-plane mean reward.
  std::vector<size_t> op_trace_begin;
  std::vector<bool> op_failed;
  std::vector<double> op_reward;
};

void Build(const RlhfSpec& spec, bool traced, System* system) {
  system->instance.reset();
  system->events = std::make_unique<SeqEventLog>();
  system->sim_events = traced ? std::make_unique<SeqEventLog>() : nullptr;
  SystemBuildConfig config = spec.config;
  if (spec.data_plane) {
    config.rollout.event_log = system->events.get();
  }
  config.rollout.sim_event_log = system->sim_events.get();
  system->instance = std::make_unique<RlhfSystemInstance>(BuildSystem(config));
  system->op_trace_begin.clear();
  system->op_failed.clear();
  system->op_reward.clear();
}

// Output checks of one iteration; returns "" when it is correct.
std::string CheckIteration(const RlhfSpec& spec, const System& system,
                           const IterationMetrics& m) {
  if (!std::isfinite(m.throughput_tokens_per_sec) || m.throughput_tokens_per_sec <= 0.0) {
    return "non-positive modeled throughput";
  }
  if (!spec.data_plane) {
    return "";
  }
  for (double v : {m.actor_loss, m.critic_loss, m.mean_reward, m.mean_kl}) {
    if (!std::isfinite(v)) {
      return "non-finite loss, reward or KL";
    }
  }
  const int64_t response_len = system.instance->dataset->task().response_len;
  const std::vector<SeqLatency> rows = DeriveSeqLatencies(system.events->Snapshot(), false);
  if (static_cast<int64_t>(rows.size()) != spec.config.real_batch) {
    return Fmt("%zu responses for %lld prompts", rows.size(),
               static_cast<long long>(spec.config.real_batch));
  }
  for (const SeqLatency& row : rows) {
    if (!row.finished || row.tokens != response_len) {
      return Fmt("response of %lld tokens, expected %lld", static_cast<long long>(row.tokens),
                 static_cast<long long>(response_len));
    }
  }
  return "";
}

struct Op {
  double wall_s = 0.0;
  IterationMetrics metrics;
  int64_t sim_events = 0;
};

// One operation: the library call (an iteration, or the drain), timed
// plain or through `traced`, then its checks.
Op RunOp(const RlhfSpec& spec, System* system, bool drain, TracedOps* traced,
         BenchResult* result) {
  RlhfSystemInstance& instance = *system->instance;
  system->events->Clear();
  system->op_trace_begin.push_back(instance.controller->cluster().trace().size());
  Op op;
  const auto call = [&] {
    op.metrics = drain ? instance.program->DrainIteration() : instance.RunIteration();
  };
  if (traced != nullptr) {
    op.wall_s = traced->Run(call);
  } else {
    const double start = NowSeconds();
    call();
    op.wall_s = NowSeconds() - start;
  }
  if (system->sim_events != nullptr) {
    op.sim_events = static_cast<int64_t>(system->sim_events->size());
    system->sim_events->Clear();
  }
  const std::string error = CheckIteration(spec, *system, op.metrics);
  system->op_failed.push_back(!error.empty());
  system->op_reward.push_back(op.metrics.mean_reward);
  if (!error.empty()) {
    result->Fail(Fmt("operation %zu: %s", system->op_failed.size(), error.c_str()));
  }
  return op;
}

// TimelineChecker over the whole recorded trace; each violation fails the
// operation whose spans contain it. Then counts attempted/failed.
void CheckTimeline(System* system, BenchResult* result) {
  const RlhfSystemInstance& instance = *system->instance;
  TimelineChecker checker(instance.controller->spec());
  for (const auto& pool : instance.controller->pools()) {
    checker.RegisterGroup(pool->name(), pool->devices());
  }
  // A dedicated rollout copy of the actor (OpenRLHF) receives its weights
  // by a broadcast over the training and rollout pools together.
  const std::shared_ptr<ResourcePool>& gen_pool = instance.actor->actor_options().gen_pool;
  if (gen_pool != nullptr) {
    std::vector<DeviceId> sync = instance.actor->pool().devices();
    sync.insert(sync.end(), gen_pool->devices().begin(), gen_pool->devices().end());
    checker.RegisterGroup("actor_weight_sync", sync);
  }
  const std::vector<TimelineViolation> violations =
      checker.Check(instance.controller->cluster());
  const std::vector<size_t>& begins = system->op_trace_begin;
  for (const TimelineViolation& v : violations) {
    const size_t span = static_cast<size_t>(std::max(0, v.span_index));
    const auto next = std::upper_bound(begins.begin(), begins.end(), span);
    const size_t op = next == begins.begin() ? 0 : static_cast<size_t>(next - begins.begin()) - 1;
    system->op_failed[op] = true;
  }
  if (!violations.empty()) {
    result->Fail(Fmt("%zu timeline violation(s), first: %s", violations.size(),
                     violations.front().message.c_str()));
  }
  result->attempted += static_cast<int64_t>(system->op_failed.size());
  result->failed += std::count(system->op_failed.begin(), system->op_failed.end(), true);
}

// Sim-plane rollout counters of the most recent generation.
void ReportSimRollout(const RlhfSpec& spec, const System& system, BenchResult* result) {
  const RolloutStats& sim = system.instance->actor->last_rollout_sim_stats();
  const double response_tokens =
      static_cast<double>(sim.sequences) * static_cast<double>(spec.config.workload.response_len);
  const double recomputed = static_cast<double>(sim.recomputed_tokens);
  result->metrics["rollout.sim_steps"] = static_cast<double>(sim.steps);
  result->metrics["rollout.sim_admissions"] = static_cast<double>(sim.admissions);
  result->metrics["rollout.sim_preemptions"] = static_cast<double>(sim.preemptions);
  result->metrics["rollout.sim_recomputed_tokens"] = recomputed;
  result->metrics["rollout.sim_useful_ratio"] =
      response_tokens > 0.0 ? response_tokens / (response_tokens + recomputed) : 0.0;
  result->metrics["rollout.sim_kv_peak_util"] = sim.kv_peak_utilization;
  result->metrics["kvcache.prefix_hits"] = static_cast<double>(sim.prefix_skipped_tokens);
  result->metrics["kvcache.cow_splits"] = static_cast<double>(sim.cow_splits);
  result->metrics["kvcache.shared_blocks_peak"] = static_cast<double>(sim.shared_blocks_high_water);
  result->Note(Fmt("sim rollout per generation: %lld sequences, %lld steps, %lld admissions, "
                   "%lld preemptions, %lld recomputed tokens, KV peak %.0f%%",
                   static_cast<long long>(sim.sequences), static_cast<long long>(sim.steps),
                   static_cast<long long>(sim.admissions),
                   static_cast<long long>(sim.preemptions),
                   static_cast<long long>(sim.recomputed_tokens),
                   100.0 * sim.kv_peak_utilization));
}

// Wall throughput samples of the untraced operations, and the workload
// figures (on the clock their names state) for the report and traced runs.
void ReportWorkloadFigures(const RlhfSpec& spec, const System& system,
                           const std::vector<double>& walls, const std::vector<double>& modeled,
                           BenchResult* result) {
  // Data plane: real prompt + response tokens; sim plane: the nominal
  // workload's tokens, which is what one iteration prices.
  double tokens_per_op = spec.config.workload.TokensPerIteration();
  if (spec.data_plane) {
    const AlignmentTask& task = system.instance->dataset->task();
    tokens_per_op =
        static_cast<double>(spec.config.real_batch * (task.prompt_len + task.response_len));
  }
  for (double wall : walls) {
    result->samples["wall_tokens_per_s"].push_back(tokens_per_op / wall);
  }
  const double median_s = Median(walls);
  result->Note(Fmt("%zu timed iterations: wall median %.4f s (p10 %.4f, p90 %.4f); "
                   "wall_tokens_per_s %.1f tok/s",
                   walls.size(), median_s, Percentile(walls, 0.1), Percentile(walls, 0.9),
                   tokens_per_op / median_s));
  result->metrics["modeled_tokens_per_s"] = Median(modeled);
  if (spec.data_plane) {
    result->metrics["ppo_samples_per_s"] = static_cast<double>(spec.config.real_batch) / median_s;
    result->Note(Fmt("ppo_samples_per_s %.2f samples/s (wall clock)",
                     result->metrics["ppo_samples_per_s"]));
  } else {
    result->metrics["sim_wall_s_per_iter"] = median_s;
    result->Note(Fmt("sim_wall_s_per_iter %.4f s (wall clock)", median_s));
  }
  result->Note(Fmt("modeled_tokens_per_s %.1f tok/s (modeled A100 clock)",
                   result->metrics["modeled_tokens_per_s"]));
}

BenchResult RunRlhf(const RlhfSpec& spec, const BenchArgs& args) {
  BenchResult result;
  const double run_start = NowSeconds();
  System system;
  System scratch;
  std::unique_ptr<SetupTimer> setup;
  if (args.trace) {
    Build(spec, /*traced=*/true, &system);
  } else {
    // With the async pipeline, set-up runs until the first iteration has
    // filled the staleness queue (two generations): that is where steady
    // state begins. BuildSystem alone takes about 10 us there, and a span
    // that short swung by a third between runs on a shared host.
    setup = std::make_unique<SetupTimer>([&] { scratch.instance.reset(); }, [&] {
      Build(spec, /*traced=*/false, &scratch);
      if (spec.config.async_pipeline && scratch.instance->feasible) {
        scratch.instance->RunIteration();
      }
    });
    setup->Sample(0.0);
    system = std::move(scratch);  // The last up-front build is the one measured.
  }
  if (!system.instance->feasible) {
    result.Fail("system infeasible");
    return result;
  }
  RunOp(spec, &system, false, nullptr, &result);  // Warm-up, excluded from timing.

  // Closed loop. A traced run alternates untraced and traced iterations on
  // the same system, so both halves see the same state.
  std::unique_ptr<TracedOps> traced = args.trace ? std::make_unique<TracedOps>() : nullptr;
  std::vector<double> walls;
  std::vector<double> modeled;
  double timed = 0.0;
  double sim_spans = 0.0;
  double sim_events = 0.0;
  while (timed < args.seconds || walls.size() < 3) {
    const Op op = RunOp(spec, &system, false, nullptr, &result);
    walls.push_back(op.wall_s);
    modeled.push_back(op.metrics.throughput_tokens_per_sec);
    timed += op.wall_s;
    if (setup != nullptr) {
      setup->Sample(NowSeconds() - run_start);
    }
    if (traced != nullptr) {
      const size_t spans_before = system.instance->controller->cluster().trace().size();
      const Op traced_op = RunOp(spec, &system, false, traced.get(), &result);
      timed += traced_op.wall_s;
      sim_spans += static_cast<double>(system.instance->controller->cluster().trace().size() -
                                       spans_before);
      sim_events += static_cast<double>(traced_op.sim_events);
    }
  }
  ReportSimRollout(spec, system, &result);
  while (spec.async_drain && system.instance->program->pending_experience() > 0) {
    RunOp(spec, &system, true, nullptr, &result);
  }
  CheckTimeline(&system, &result);
  ReportWorkloadFigures(spec, system, walls, modeled, &result);
  if (setup != nullptr) {
    result.samples["setup_s"] = setup->seconds();
    result.Note(Fmt("setup_s %.6f s (median of %zu builds spread over the run)",
                    Median(setup->seconds()), setup->seconds().size()));
  }
  if (traced == nullptr) {
    return result;
  }

  traced->Report(walls, &result);
  const RegistryTotals& delta = traced->totals();
  const double ops = traced->operations();
  const MappingResult& mapping = system.instance->mapping;
  result.metrics["mapping.map_ms"] = 1000.0 * mapping.wall_seconds;
  result.metrics["mapping.simulations"] = static_cast<double>(mapping.simulations);
  result.metrics["mapping.cache_hits"] = static_cast<double>(mapping.cache_hits);
  result.metrics["mapping.placements"] = static_cast<double>(mapping.placements_examined);
  // Reward after a fixed six iterations (the warm-up and at least three
  // untraced/traced pairs ran): deterministic for a seed, since tracing
  // does not touch numerics, so it shows an arithmetic change.
  result.metrics["rlhf.reward_final"] = system.op_reward[5];
  result.metrics["transfer.calls"] = (SumCounter(delta, "protocol.distribute_calls") +
                                      SumCounter(delta, "protocol.collect_calls")) /
                                     ops;
  result.metrics["rollout.steps"] = SumCounter(delta, "rollout.steps_total") / ops;
  result.metrics["rollout.admissions"] = SumCounter(delta, "rollout.admissions_total") / ops;
  result.metrics["rollout.preemptions"] = SumCounter(delta, "rollout.preemptions_total") / ops;
  // Generation-stage self time: the sim-plane rollout (the reshard and the
  // data-plane generate are child spans).
  result.metrics["rollout.sim_ms"] = result.metrics["rlhf.generation_ms"];
  result.metrics["obs.sim_seq_events"] = sim_events / ops;
  result.metrics["sim.spans_per_iter"] = sim_spans / ops;
  return result;
}

}  // namespace

BenchResult RunPpoDataplane(const BenchArgs& args) {
  return RunRlhf(PpoDataplaneSpec(args.seed), args);
}

BenchResult RunSimAsync7b(const BenchArgs& args) {
  return RunRlhf(SimAsyncSpec(args.seed), args);
}

}  // namespace perfbench
