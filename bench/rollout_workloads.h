// The response-length workloads of the continuous-rollout benches
// (bench_rollout_scheduler's grid, replayed by bench_sim_steps).
#ifndef BENCH_ROLLOUT_WORKLOADS_H_
#define BENCH_ROLLOUT_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/rollout/timing.h"

namespace hybridflow {

struct Workload {
  const char* name;
  std::vector<NominalSequence> sequences;
  int64_t max_response = 0;
};

inline Workload UniformWorkload(int64_t batch, int64_t prompt, int64_t response) {
  Workload workload;
  workload.name = "uniform";
  workload.sequences.assign(static_cast<size_t>(batch), NominalSequence{prompt, response});
  workload.max_response = response;
  return workload;
}

// 80% short / 20% long responses — the realistic RLHF rollout profile
// (most completions stop early, a tail runs to the cap).
inline Workload SkewedWorkload(int64_t batch, int64_t prompt, int64_t short_len,
                               int64_t long_len, Rng& rng) {
  Workload workload;
  workload.name = "skewed_80_20";
  for (int64_t i = 0; i < batch; ++i) {
    const int64_t response = rng.Uniform(0.0, 1.0) < 0.8 ? short_len : long_len;
    workload.sequences.push_back(NominalSequence{prompt, response});
    workload.max_response = std::max(workload.max_response, response);
  }
  return workload;
}

// Group sampling: n responses per prompt (PPO-style candidate sets). All n
// members of a group carry the same prompt_group, so the prefix cache
// shares their full prompt blocks and skips n-1 of every n prompt
// prefills; the static baseline pays all of them.
inline Workload GroupSampledWorkload(int64_t groups, int64_t n, int64_t prompt, int64_t response) {
  Workload workload;
  workload.name = "group_n4";
  for (int64_t g = 0; g < groups; ++g) {
    for (int64_t i = 0; i < n; ++i) {
      workload.sequences.push_back(NominalSequence{prompt, response, /*prompt_group=*/g});
    }
  }
  workload.max_response = response;
  return workload;
}

// The grid's rows: `batch` sequences of `prompt` tokens, responses up to
// 512 tokens.
inline std::vector<Workload> GridWorkloads(int64_t batch, int64_t prompt) {
  Rng rng(2024);
  std::vector<Workload> workloads;
  workloads.push_back(UniformWorkload(batch, prompt, /*response=*/512));
  workloads.push_back(SkewedWorkload(batch, prompt, /*short_len=*/64, /*long_len=*/512, rng));
  workloads.push_back(GroupSampledWorkload(batch / 4, /*n=*/4, prompt, /*response=*/512));
  return workloads;
}

}  // namespace hybridflow

#endif  // BENCH_ROLLOUT_WORKLOADS_H_
