// Tests for the continuous-batching rollout engine (src/rollout/).
//
// The load-bearing property is exact equivalence: under greedy decoding the
// engine must produce bitwise-identical responses AND log-probs to the
// static whole-batch loop for every schedule the KV budget induces —
// including schedules with preemption and recompute-on-resume. The
// scheduler tests pin admission-order and preemption semantics; the timing
// tests pin the performance-plane hook; the trace test pins determinism of
// the scheduled DES timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/analysis/timeline_checker.h"
#include "src/baselines/system_builder.h"
#include "src/common/rng.h"
#include "src/nn/policy_net.h"
#include "src/obs/metrics.h"
#include "src/rollout/engine.h"
#include "src/rollout/scheduler.h"
#include "src/rollout/sequence.h"
#include "src/rollout/timing.h"
#include "src/workers/model_workers.h"
#include "src/workers/token_context.h"

namespace hybridflow {
namespace {

KvBlockConfig KvConfig(int64_t blocks, int64_t block_tokens = 4) {
  KvBlockConfig config;
  config.block_tokens = block_tokens;
  config.num_blocks = blocks;
  return config;
}

std::vector<RolloutSequence> MakeSequences(const std::vector<int64_t>& prompts,
                                           int64_t target_new) {
  std::vector<RolloutSequence> sequences(prompts.size());
  for (size_t i = 0; i < prompts.size(); ++i) {
    sequences[i].id = static_cast<int64_t>(i);
    sequences[i].prompt_tokens = prompts[i];
    sequences[i].target_new_tokens = target_new;
  }
  return sequences;
}

std::vector<int64_t> PrefillIds(const StepPlan& plan) {
  std::vector<int64_t> ids;
  ids.reserve(plan.prefill.size());
  for (const PrefillChunk& chunk : plan.prefill) {
    ids.push_back(chunk.id);
  }
  return ids;
}

// --- Scheduler ----------------------------------------------------------------

TEST(RolloutSchedulerTest, FcfsAdmitsInArrivalOrder) {
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({2, 6, 4}, /*target_new=*/4);
  RolloutScheduler scheduler({}, &kv, &sequences);
  for (int64_t id = 0; id < 3; ++id) {
    scheduler.Enqueue(id);
  }
  const StepPlan plan = scheduler.BeginStep();
  EXPECT_EQ(PrefillIds(plan), (std::vector<int64_t>{0, 1, 2}));
  EXPECT_TRUE(plan.decode.empty());
  EXPECT_TRUE(kv.RefcountsConsistent());
}

TEST(RolloutSchedulerTest, LongestPrefixFirstAdmitsLongestContext) {
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({2, 6, 4, 6}, /*target_new=*/4);
  RolloutSchedulerConfig config;
  config.policy = RolloutPolicy::kLongestPrefixFirst;
  RolloutScheduler scheduler(config, &kv, &sequences);
  for (int64_t id = 0; id < 4; ++id) {
    scheduler.Enqueue(id);
  }
  // Longest first; equal lengths keep arrival order (stable sort).
  const StepPlan plan = scheduler.BeginStep();
  EXPECT_EQ(PrefillIds(plan), (std::vector<int64_t>{1, 3, 2, 0}));
}

TEST(RolloutSchedulerTest, LongestPrefixFirstBreaksTiesInArrivalOrder) {
  // All-equal contexts: the LPF comparator is indifferent for every pair,
  // so admission must be *exactly* the enqueue order — the stable-sort
  // tie-break contract the serving surface relies on for determinism.
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({4, 4, 4, 4, 4}, /*target_new=*/4);
  RolloutSchedulerConfig config;
  config.policy = RolloutPolicy::kLongestPrefixFirst;
  RolloutScheduler scheduler(config, &kv, &sequences);
  // Enqueue in a scrambled id order; arrival order is what must stick.
  for (int64_t id : {3, 0, 4, 1, 2}) {
    scheduler.Enqueue(id);
  }
  const StepPlan plan = scheduler.BeginStep();
  EXPECT_EQ(PrefillIds(plan), (std::vector<int64_t>{3, 0, 4, 1, 2}));
}

TEST(RolloutSchedulerTest, AdmissionGatedByKvCapacityWithoutBypass) {
  // 4 blocks of 4 tokens. Seq 0 (4 prompt + 1 reserve -> 2 blocks) fits;
  // seq 1 (12 prompt + 1 reserve -> 4 blocks > 3 free) does not. Seq 2
  // would fit, but strict priority must not let it bypass the queue head.
  KvBlockManager kv(KvConfig(/*blocks=*/4));
  std::vector<RolloutSequence> sequences = MakeSequences({4, 12, 2}, /*target_new=*/4);
  RolloutScheduler scheduler({}, &kv, &sequences);
  for (int64_t id = 0; id < 3; ++id) {
    scheduler.Enqueue(id);
  }
  const StepPlan plan = scheduler.BeginStep();
  EXPECT_EQ(PrefillIds(plan), (std::vector<int64_t>{0}));
  EXPECT_EQ(scheduler.waiting().size(), 2u);
  EXPECT_EQ(sequences[1].state, SequenceState::kWaiting);
  EXPECT_EQ(sequences[2].state, SequenceState::kWaiting);
}

TEST(RolloutSchedulerTest, MaxRunningCapsTheBatch) {
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({2, 2, 2, 2}, /*target_new=*/2);
  RolloutSchedulerConfig config;
  config.max_running = 2;
  RolloutScheduler scheduler(config, &kv, &sequences);
  for (int64_t id = 0; id < 4; ++id) {
    scheduler.Enqueue(id);
  }
  EXPECT_EQ(scheduler.BeginStep().rows(), 2);
}

TEST(RolloutSchedulerTest, PreemptsYoungestAndDrainsEverything) {
  // 6 blocks of 2 tokens: one full sequence (2 prompt + 6 new = 4 blocks)
  // fits alone, two cannot both finish -> growth must force preemption,
  // and recompute-on-resume must still complete every sequence.
  KvBlockManager kv(KvConfig(/*blocks=*/6, /*block_tokens=*/2));
  std::vector<RolloutSequence> sequences = MakeSequences({2, 2, 2, 2}, /*target_new=*/6);
  RolloutScheduler scheduler({}, &kv, &sequences);
  for (int64_t id = 0; id < 4; ++id) {
    scheduler.Enqueue(id);
  }
  int64_t guard = 0;
  while (scheduler.HasWork()) {
    ASSERT_LT(guard++, 1000) << "scheduler failed to drain";
    const StepPlan plan = scheduler.BeginStep();
    ASSERT_FALSE(plan.empty());
    scheduler.CommitStep(plan, /*eos_finished=*/{});
  }
  for (const RolloutSequence& sequence : sequences) {
    EXPECT_EQ(sequence.state, SequenceState::kFinished);
    EXPECT_EQ(sequence.generated, 6);
  }
  EXPECT_GT(scheduler.stats().preemptions, 0);
  EXPECT_GT(scheduler.stats().admissions, 4);  // Re-admissions happened.
  EXPECT_EQ(kv.used_blocks(), 0);  // Nothing leaked.
  EXPECT_TRUE(kv.RefcountsConsistent());
}

TEST(RolloutSchedulerTest, EosFinishReleasesBlocksImmediately) {
  // Seq 1 holds 3 of a 4-token block, so its append allocates nothing this
  // step and the freed block of the EOS-finished seq 0 is visible.
  KvBlockManager kv(KvConfig(/*blocks=*/8));
  std::vector<RolloutSequence> sequences = MakeSequences({4, 3}, /*target_new=*/4);
  RolloutScheduler scheduler({}, &kv, &sequences);
  scheduler.Enqueue(0);
  scheduler.Enqueue(1);
  const StepPlan plan = scheduler.BeginStep();
  ASSERT_EQ(plan.rows(), 2);
  const int64_t used_before = kv.used_blocks();
  scheduler.CommitStep(plan, /*eos_finished=*/{0});
  EXPECT_EQ(sequences[0].state, SequenceState::kFinished);
  EXPECT_EQ(sequences[0].generated, 1);  // The EOS token itself.
  EXPECT_EQ(sequences[1].state, SequenceState::kDecode);
  EXPECT_LT(kv.used_blocks(), used_before);
}

// --- Engine: greedy equivalence ----------------------------------------------

// The static path's semantics, restated locally: every live row advances one
// token per step from its ContextWindow; EOS is appended, then finishes the
// row. Tokens/log-probs go through the same SampleLogitsRow as the engine.
struct ReferenceOutput {
  std::vector<std::vector<int64_t>> responses;
  std::vector<std::vector<float>> log_probs;
};

ReferenceOutput StaticGreedyReference(const PolicyNet& net,
                                      const std::vector<std::vector<int64_t>>& prompts,
                                      const RolloutLimits& limits) {
  const size_t batch = prompts.size();
  ReferenceOutput out;
  out.responses.resize(batch);
  out.log_probs.resize(batch);
  std::vector<bool> finished(batch, false);
  Rng unused(1);
  for (int64_t step = 0; step < limits.max_new_tokens; ++step) {
    std::vector<size_t> live;
    std::vector<std::vector<int64_t>> contexts;
    for (size_t i = 0; i < batch; ++i) {
      if (finished[i]) {
        continue;
      }
      live.push_back(i);
      contexts.push_back(ContextWindow(prompts[i], out.responses[i], out.responses[i].size(),
                                       net.config().context_window));
    }
    if (live.empty()) {
      break;
    }
    const Tensor logits = net.Forward(contexts);
    for (size_t a = 0; a < live.size(); ++a) {
      const size_t i = live[a];
      float log_prob = 0.0f;
      const int64_t token = SampleLogitsRow(logits, static_cast<int64_t>(a), /*temperature=*/1.0,
                                            /*do_sample=*/false, unused, &log_prob);
      out.responses[i].push_back(token);
      out.log_probs[i].push_back(log_prob);
      if (limits.use_eos && token == limits.eos_token) {
        finished[i] = true;
      }
    }
  }
  return out;
}

// Property: for randomized EOS-truncated workloads, KV budgets tight
// enough to force preemption, and any prefill chunk size — including
// chunks smaller than the shortest prompt (1) and at least the longest
// context (1000) — continuous batching is invisible in the output:
// responses and log-probs match the static reference exactly.
TEST(RolloutEngineTest, GreedyMatchesStaticReferenceUnderPreemption) {
  int64_t total_preemptions = 0;
  int64_t total_partial_chunks = 0;
  const int64_t chunk_sizes[] = {0, 1, 2, 3, 5, 1000};
  for (int64_t chunk : chunk_sizes) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 977);
      PolicyNetConfig net_config;
      net_config.vocab_size = 16;
      net_config.context_window = 3;
      net_config.embed_dim = 8;
      net_config.hidden_dim = 16;
      Rng net_rng = rng.Fork(1);
      const PolicyNet net(net_config, net_rng);

      const int64_t batch = rng.UniformInt(3, 9);
      std::vector<std::vector<int64_t>> prompts(static_cast<size_t>(batch));
      for (std::vector<int64_t>& prompt : prompts) {
        prompt.resize(static_cast<size_t>(rng.UniformInt(2, 6)));
        for (int64_t& token : prompt) {
          token = rng.UniformInt(0, net_config.vocab_size - 1);
        }
      }

      RolloutLimits limits;
      limits.max_new_tokens = 6;
      limits.use_eos = true;
      limits.eos_token = net_config.vocab_size - 2;

      RolloutOptions options;
      options.policy = seed % 2 == 0 ? RolloutPolicy::kFcfs : RolloutPolicy::kLongestPrefixFirst;
      options.block_tokens = 2;
      options.num_blocks = 7;  // One full sequence (<= 12 tokens) barely fits.
      options.prefill_chunk_tokens = chunk;

      const RolloutEngine engine(net, limits, options);
      Rng engine_rng = rng.Fork(2);
      const RolloutShardResult got =
          engine.Run(prompts, /*do_sample=*/false, /*temperature=*/1.0, engine_rng);
      const ReferenceOutput want = StaticGreedyReference(net, prompts, limits);

      ASSERT_EQ(got.responses.size(), want.responses.size())
          << "seed " << seed << " chunk " << chunk;
      for (size_t i = 0; i < prompts.size(); ++i) {
        EXPECT_EQ(got.responses[i], want.responses[i])
            << "seed " << seed << " chunk " << chunk << " row " << i;
        ASSERT_EQ(got.log_probs[i].size(), want.log_probs[i].size())
            << "seed " << seed << " chunk " << chunk << " row " << i;
        for (size_t k = 0; k < want.log_probs[i].size(); ++k) {
          EXPECT_EQ(got.log_probs[i][k], want.log_probs[i][k])
              << "seed " << seed << " chunk " << chunk << " row " << i << " token " << k;
        }
      }
      total_preemptions += got.stats.preemptions;
      if (chunk > 0 && chunk < 6) {
        total_partial_chunks += got.stats.prefill_chunks;
        EXPECT_LE(got.stats.max_prefill_tokens_step, chunk)
            << "seed " << seed << " chunk " << chunk;
      }
      EXPECT_EQ(got.stats.sequences, batch);
      EXPECT_GT(got.stats.steps, 0);
      EXPECT_GE(got.stats.admissions, batch);
    }
  }
  // The tight budgets must actually have exercised preempt/resume, and the
  // small chunk sizes must actually have split prefills across steps.
  EXPECT_GT(total_preemptions, 0);
  EXPECT_GT(total_partial_chunks, 0);
}

// Property: the prefix-sharing cache (docs/KVCACHE.md) is invisible in the
// output. Prompts drawn from a small pool force sharing between live
// sequences and hits on retained blocks of finished/preempted ones; tight
// KV budgets force preemption on top. Greedy responses and log-probs must
// still match the static reference bitwise — with and without full-length
// admission reservations.
TEST(RolloutEngineTest, GreedyMatchesStaticReferenceWithPrefixSharing) {
  int64_t total_preemptions = 0;
  int64_t total_skipped = 0;
  const int64_t chunk_sizes[] = {0, 1, 3, 1000};
  for (int64_t chunk : chunk_sizes) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 1409);
      PolicyNetConfig net_config;
      net_config.vocab_size = 16;
      net_config.context_window = 3;
      net_config.embed_dim = 8;
      net_config.hidden_dim = 16;
      Rng net_rng = rng.Fork(1);
      const PolicyNet net(net_config, net_rng);

      // Two recurring prompts plus unique ones: recurrences share prompt
      // blocks (group-sampling shape), unique prompts exercise retention
      // hits only on their own resumes.
      const std::vector<std::vector<int64_t>> pool = {{1, 2, 3, 4}, {5, 6, 7, 8, 9}};
      const int64_t batch = rng.UniformInt(4, 9);
      std::vector<std::vector<int64_t>> prompts(static_cast<size_t>(batch));
      for (std::vector<int64_t>& prompt : prompts) {
        const int64_t pick = rng.UniformInt(0, 3);
        if (pick < 2) {
          prompt = pool[static_cast<size_t>(pick)];
        } else {
          prompt.resize(static_cast<size_t>(rng.UniformInt(2, 6)));
          for (int64_t& token : prompt) {
            token = rng.UniformInt(0, net_config.vocab_size - 1);
          }
        }
      }

      RolloutLimits limits;
      limits.max_new_tokens = 6;
      limits.use_eos = true;
      limits.eos_token = net_config.vocab_size - 2;

      RolloutOptions options;
      options.policy = seed % 2 == 0 ? RolloutPolicy::kFcfs : RolloutPolicy::kLongestPrefixFirst;
      options.block_tokens = 2;
      options.num_blocks = 7;  // One full sequence (<= 12 tokens) barely fits.
      options.prefill_chunk_tokens = chunk;
      options.prefix_cache = true;
      options.reserve_full_length = seed % 3 == 0;

      const RolloutEngine engine(net, limits, options);
      Rng engine_rng = rng.Fork(2);
      const RolloutShardResult got =
          engine.Run(prompts, /*do_sample=*/false, /*temperature=*/1.0, engine_rng);
      const ReferenceOutput want = StaticGreedyReference(net, prompts, limits);

      for (size_t i = 0; i < prompts.size(); ++i) {
        EXPECT_EQ(got.responses[i], want.responses[i])
            << "seed " << seed << " chunk " << chunk << " row " << i;
        ASSERT_EQ(got.log_probs[i].size(), want.log_probs[i].size())
            << "seed " << seed << " chunk " << chunk << " row " << i;
        for (size_t k = 0; k < want.log_probs[i].size(); ++k) {
          EXPECT_EQ(got.log_probs[i][k], want.log_probs[i][k])
              << "seed " << seed << " chunk " << chunk << " row " << i << " token " << k;
        }
      }
      total_preemptions += got.stats.preemptions;
      total_skipped += got.stats.prefix_skipped_tokens;
    }
  }
  // The sweep must actually have exercised both mechanisms whose
  // interaction the property protects.
  EXPECT_GT(total_preemptions, 0);
  EXPECT_GT(total_skipped, 0);
}

// Group sampling (n responses per prompt): the leader's prompt blocks are
// indexed at admission, so every follower shares them and skips all but
// the last prompt token's prefill — n-1 of n prompt prefills disappear.
TEST(RolloutEngineTest, GroupSamplingSkipsFollowerPromptPrefills) {
  Rng rng(53);
  PolicyNetConfig net_config;
  net_config.vocab_size = 16;
  net_config.context_window = 3;
  net_config.embed_dim = 8;
  net_config.hidden_dim = 16;
  const PolicyNet net(net_config, rng);
  RolloutLimits limits;
  limits.max_new_tokens = 4;
  RolloutOptions options;
  options.block_tokens = 2;
  options.prefix_cache = true;  // Auto-sized KV: no preemption noise.
  const RolloutEngine engine(net, limits, options);
  const int64_t n = 4;
  const std::vector<int64_t> prompt = {3, 1, 4, 1};
  const std::vector<std::vector<int64_t>> prompts(static_cast<size_t>(n), prompt);
  Rng engine_rng(54);
  const RolloutShardResult result =
      engine.Run(prompts, /*do_sample=*/false, /*temperature=*/1.0, engine_rng);
  // Each of the n-1 followers skips its full prompt except the final token
  // (whose logits emit the first response token).
  const int64_t prompt_len = static_cast<int64_t>(prompt.size());
  EXPECT_EQ(result.stats.prefix_skipped_tokens, (n - 1) * (prompt_len - 1));
  EXPECT_EQ(result.stats.preemptions, 0);
  EXPECT_EQ(result.stats.shared_blocks_high_water, prompt_len / options.block_tokens);
  // Sharing is invisible: all group members decode greedily to the same
  // response, and it matches the static reference.
  const ReferenceOutput want = StaticGreedyReference(net, prompts, limits);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(result.responses[static_cast<size_t>(i)], want.responses[static_cast<size_t>(i)]);
    EXPECT_EQ(result.responses[static_cast<size_t>(i)], result.responses[0]);
  }
}

TEST(RolloutSchedulerTest, PrefixSharingSurvivesPreemptionWithoutLeaks) {
  // Group-sampled sequences under a KV budget tight enough to preempt:
  // the drain must complete, retained prompt blocks must serve resumes,
  // and the refcount audit must hold with zero physical usage at the end.
  KvBlockConfig config = KvConfig(/*blocks=*/7, /*block_tokens=*/2);
  config.enable_prefix_cache = true;
  KvBlockManager kv(config);
  std::vector<RolloutSequence> sequences = MakeSequences({4, 4, 4, 4}, /*target_new=*/4);
  for (RolloutSequence& sequence : sequences) {
    sequence.block_hashes = GroupBlockHashes(/*group=*/7, /*full_blocks=*/2);
  }
  RolloutScheduler scheduler({}, &kv, &sequences);
  for (int64_t id = 0; id < 4; ++id) {
    scheduler.Enqueue(id);
  }
  int64_t guard = 0;
  while (scheduler.HasWork()) {
    ASSERT_LT(guard++, 1000) << "scheduler failed to drain";
    const StepPlan plan = scheduler.BeginStep();
    ASSERT_FALSE(plan.empty());
    scheduler.CommitStep(plan, /*eos_finished=*/{});
  }
  for (const RolloutSequence& sequence : sequences) {
    EXPECT_EQ(sequence.state, SequenceState::kFinished);
    EXPECT_EQ(sequence.generated, 4);
  }
  EXPECT_GT(scheduler.stats().prefix_skipped_tokens, 0);
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_TRUE(kv.RefcountsConsistent());
}

TEST(RolloutSchedulerTest, ReserveFullLengthEliminatesDecodePreemption) {
  // Same tight-cache setup whose optimistic admission preempts (see
  // PreemptsYoungestAndDrainsEverything): full-length reservations instead
  // admit only what can finish, so the drain completes with zero
  // preemptions and zero recompute.
  KvBlockManager kv(KvConfig(/*blocks=*/6, /*block_tokens=*/2));
  std::vector<RolloutSequence> sequences = MakeSequences({2, 2, 2, 2}, /*target_new=*/6);
  RolloutSchedulerConfig config;
  config.reserve_full_length = true;
  RolloutScheduler scheduler(config, &kv, &sequences);
  for (int64_t id = 0; id < 4; ++id) {
    scheduler.Enqueue(id);
  }
  int64_t guard = 0;
  while (scheduler.HasWork()) {
    ASSERT_LT(guard++, 1000) << "scheduler failed to drain";
    const StepPlan plan = scheduler.BeginStep();
    ASSERT_FALSE(plan.empty());
    scheduler.CommitStep(plan, /*eos_finished=*/{});
  }
  for (const RolloutSequence& sequence : sequences) {
    EXPECT_EQ(sequence.state, SequenceState::kFinished);
    EXPECT_EQ(sequence.generated, 6);
    EXPECT_EQ(sequence.reserved_blocks, 0);  // Returned on finish.
  }
  EXPECT_EQ(scheduler.stats().preemptions, 0);
  EXPECT_EQ(scheduler.stats().resumes, 0);
  EXPECT_EQ(scheduler.stats().admissions, 4);  // First admissions only.
  EXPECT_EQ(kv.used_blocks(), 0);
}

TEST(RolloutSchedulerTest, CancelReleasesReservationAndRetainsPrompt) {
  KvBlockConfig kv_config = KvConfig(/*blocks=*/10, /*block_tokens=*/2);
  kv_config.enable_prefix_cache = true;
  KvBlockManager kv(kv_config);
  std::vector<RolloutSequence> sequences = MakeSequences({4, 4}, /*target_new=*/8);
  for (RolloutSequence& sequence : sequences) {
    sequence.block_hashes = GroupBlockHashes(/*group=*/11, /*full_blocks=*/2);
  }
  RolloutSchedulerConfig config;
  config.reserve_full_length = true;
  RolloutScheduler scheduler(config, &kv, &sequences);
  scheduler.Enqueue(0);
  scheduler.Enqueue(1);
  // Full length = 12 tokens = 6 blocks each: seq 1's reservation (6 - 2
  // referenced prefix blocks = 4) fits next to seq 0's, both run.
  StepPlan plan = scheduler.BeginStep();
  scheduler.CommitStep(plan, /*eos_finished=*/{});
  ASSERT_EQ(sequences[0].state, SequenceState::kDecode);
  // Mid-decode cancel: residency and the reservation must both return.
  scheduler.Cancel(0);
  EXPECT_EQ(sequences[0].state, SequenceState::kCancelled);
  EXPECT_EQ(sequences[0].reserved_blocks, 0);
  EXPECT_EQ(scheduler.stats().cancelled, 1);
  // Seq 0's private tail freed; the shared prompt blocks stay referenced
  // by seq 1 (nothing evictable yet, nothing leaked).
  EXPECT_TRUE(kv.RefcountsConsistent());
  int64_t guard = 0;
  while (scheduler.HasWork()) {
    ASSERT_LT(guard++, 1000);
    const StepPlan next = scheduler.BeginStep();
    ASSERT_FALSE(next.empty());
    scheduler.CommitStep(next, /*eos_finished=*/{});
  }
  EXPECT_EQ(sequences[1].state, SequenceState::kFinished);
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_GT(kv.cached_blocks(), 0);  // Prompt retained for hits.
  EXPECT_TRUE(kv.RefcountsConsistent());
}

TEST(RolloutSchedulerTest, ExpiryMidPrefillReleasesResidencyWithoutLeaks) {
  // A TTFT-overdue sequence expiring mid-chunked-prefill must release its
  // partial residency; its already-hashed full blocks are retained.
  KvBlockConfig kv_config = KvConfig(/*blocks=*/16, /*block_tokens=*/2);
  kv_config.enable_prefix_cache = true;
  KvBlockManager kv(kv_config);
  std::vector<RolloutSequence> sequences = MakeSequences({6, 2}, /*target_new=*/2);
  sequences[0].block_hashes = GroupBlockHashes(/*group=*/3, /*full_blocks=*/3);
  sequences[0].ttft_deadline = 0.5;
  RolloutSchedulerConfig config;
  config.prefill_chunk_tokens = 2;
  config.expire_overdue = true;
  RolloutScheduler scheduler(config, &kv, &sequences);
  scheduler.Enqueue(0);
  scheduler.Enqueue(1);
  // Step 1: seq 0 takes the whole chunk budget (2 of 6 tokens resident).
  StepPlan plan = scheduler.BeginStep();
  ASSERT_EQ(plan.prefill.size(), 1u);
  ASSERT_FALSE(plan.prefill[0].completes);
  scheduler.CommitStep(plan, /*eos_finished=*/{});
  ASSERT_EQ(sequences[0].state, SequenceState::kPrefill);
  ASSERT_GT(kv.used_blocks(), 0);
  // The clock passes the deadline before its first token: expired.
  scheduler.SetSimNow(1.0);
  plan = scheduler.BeginStep();
  EXPECT_EQ(sequences[0].state, SequenceState::kExpired);
  EXPECT_EQ(scheduler.stats().expired, 1);
  scheduler.CommitStep(plan, /*eos_finished=*/{});
  int64_t guard = 0;
  while (scheduler.HasWork()) {
    ASSERT_LT(guard++, 1000);
    const StepPlan next = scheduler.BeginStep();
    scheduler.CommitStep(next, /*eos_finished=*/{});
  }
  EXPECT_EQ(sequences[1].state, SequenceState::kFinished);
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_GT(kv.cached_blocks(), 0);  // The expired row's full block.
  EXPECT_TRUE(kv.RefcountsConsistent());
}

TEST(RolloutSchedulerTest, ChunkedPrefillRespectsBudgetAndDefersEmission) {
  // Budget 4 tokens/step over a 10-token prompt: three chunks (4+4+2); the
  // sequence must not emit a token until the last chunk completes.
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({10}, /*target_new=*/3);
  RolloutSchedulerConfig config;
  config.prefill_chunk_tokens = 4;
  RolloutScheduler scheduler(config, &kv, &sequences);
  scheduler.Enqueue(0);

  StepPlan plan = scheduler.BeginStep();
  ASSERT_EQ(plan.prefill.size(), 1u);
  EXPECT_EQ(plan.prefill[0].tokens, 4);
  EXPECT_FALSE(plan.prefill[0].completes);
  EXPECT_EQ(plan.EmittingRows(), 0);
  scheduler.CommitStep(plan, /*eos_finished=*/{});
  EXPECT_EQ(sequences[0].generated, 0);
  EXPECT_EQ(sequences[0].state, SequenceState::kPrefill);

  plan = scheduler.BeginStep();
  ASSERT_EQ(plan.prefill.size(), 1u);
  EXPECT_EQ(plan.prefill[0].tokens, 4);
  EXPECT_FALSE(plan.prefill[0].completes);
  scheduler.CommitStep(plan, /*eos_finished=*/{});
  EXPECT_EQ(sequences[0].generated, 0);

  plan = scheduler.BeginStep();
  ASSERT_EQ(plan.prefill.size(), 1u);
  EXPECT_EQ(plan.prefill[0].tokens, 2);
  EXPECT_TRUE(plan.prefill[0].completes);
  EXPECT_EQ(plan.EmittingRows(), 1);
  scheduler.CommitStep(plan, /*eos_finished=*/{});
  EXPECT_EQ(sequences[0].generated, 1);
  EXPECT_EQ(sequences[0].state, SequenceState::kDecode);
  EXPECT_EQ(scheduler.stats().prefill_chunks, 2);
  EXPECT_EQ(scheduler.stats().max_prefill_tokens_step, 4);
}

TEST(RolloutSchedulerTest, ChunkedPrefillSharesBudgetAcrossAdmissions) {
  // Budget 6: the first prompt (4 tokens) completes within the step, the
  // second (5 tokens) gets the remaining 2 and catches up next step while
  // the first decodes alongside it.
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({4, 5}, /*target_new=*/4);
  RolloutSchedulerConfig config;
  config.prefill_chunk_tokens = 6;
  RolloutScheduler scheduler(config, &kv, &sequences);
  scheduler.Enqueue(0);
  scheduler.Enqueue(1);

  StepPlan plan = scheduler.BeginStep();
  ASSERT_EQ(plan.prefill.size(), 2u);
  EXPECT_TRUE(plan.prefill[0].completes);
  EXPECT_EQ(plan.prefill[1].tokens, 2);
  EXPECT_FALSE(plan.prefill[1].completes);
  scheduler.CommitStep(plan, /*eos_finished=*/{});

  plan = scheduler.BeginStep();
  ASSERT_EQ(plan.prefill.size(), 1u);
  EXPECT_EQ(plan.prefill[0].id, 1);
  EXPECT_EQ(plan.prefill[0].tokens, 3);
  EXPECT_TRUE(plan.prefill[0].completes);
  EXPECT_EQ(plan.decode, (std::vector<int64_t>{0}));
  scheduler.CommitStep(plan, /*eos_finished=*/{});
  // Decode rows' counters advance lazily between events.
  scheduler.SyncSequences();
  EXPECT_EQ(sequences[0].generated, 2);
  EXPECT_EQ(sequences[1].generated, 1);
}

TEST(RolloutSchedulerTest, SyncStampsTheLastCommitNotTheCurrentClock) {
  // Decode rows between events lag; bringing them up to date after the
  // clock moved on must stamp their last token at the step that emitted
  // it, as a per-row commit would have.
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({6, 6}, /*target_new=*/8);
  RolloutScheduler scheduler({}, &kv, &sequences);
  scheduler.Enqueue(0);
  scheduler.Enqueue(1);
  // Step 1 prefills (6 resident + 1 = 7 tokens); step 2's append stays
  // inside the second 4-token block, so no event touches either row.
  for (int step = 1; step <= 2; ++step) {
    const StepPlan plan = scheduler.BeginStep();
    scheduler.SetSimNow(static_cast<double>(step));
    scheduler.CommitStep(plan, /*eos_finished=*/{});
  }
  scheduler.SetSimNow(10.0);
  scheduler.SyncSequences();
  for (const RolloutSequence& sequence : sequences) {
    EXPECT_EQ(sequence.generated, 2);
    EXPECT_EQ(sequence.kv_tokens, 8);
    EXPECT_DOUBLE_EQ(sequence.first_token_seconds, 1.0);
    EXPECT_DOUBLE_EQ(sequence.last_token_seconds, 2.0);
  }
}

TEST(RolloutEngineTest, AutoSizedCacheRunsWithoutPreemption) {
  Rng rng(7);
  PolicyNetConfig net_config;
  net_config.vocab_size = 16;
  net_config.context_window = 3;
  net_config.embed_dim = 8;
  net_config.hidden_dim = 16;
  const PolicyNet net(net_config, rng);
  RolloutLimits limits;
  limits.max_new_tokens = 4;
  const RolloutEngine engine(net, limits, RolloutOptions{});
  Rng engine_rng(8);
  const std::vector<std::vector<int64_t>> prompts(8, std::vector<int64_t>{1, 2, 3});
  const RolloutShardResult result =
      engine.Run(prompts, /*do_sample=*/false, /*temperature=*/1.0, engine_rng);
  EXPECT_EQ(result.stats.preemptions, 0);
  EXPECT_EQ(result.stats.max_running_batch, 8);
  EXPECT_EQ(result.stats.steps, 4);  // Pure continuous: one step per token.
  for (const std::vector<int64_t>& response : result.responses) {
    EXPECT_EQ(response.size(), 4u);
  }
}

TEST(RolloutEngineTest, SamplingModeProducesValidPerSequenceOutput) {
  Rng rng(21);
  PolicyNetConfig net_config;
  net_config.vocab_size = 16;
  net_config.context_window = 3;
  net_config.embed_dim = 8;
  net_config.hidden_dim = 16;
  const PolicyNet net(net_config, rng);
  RolloutLimits limits;
  limits.max_new_tokens = 5;
  RolloutOptions options;
  options.block_tokens = 2;
  options.num_blocks = 6;  // Tight: schedules differ step to step.
  const RolloutEngine engine(net, limits, options);
  const std::vector<std::vector<int64_t>> prompts(6, std::vector<int64_t>{4, 5});
  // Per-sequence forked streams: the same seed must reproduce the same
  // samples even though the schedule interleaves rows differently.
  Rng rng_a(99);
  Rng rng_b(99);
  const RolloutShardResult a = engine.Run(prompts, /*do_sample=*/true, /*temperature=*/1.0, rng_a);
  const RolloutShardResult b = engine.Run(prompts, /*do_sample=*/true, /*temperature=*/1.0, rng_b);
  for (size_t i = 0; i < prompts.size(); ++i) {
    EXPECT_EQ(a.responses[i].size(), 5u);
    EXPECT_EQ(a.responses[i], b.responses[i]);
    for (float lp : a.log_probs[i]) {
      EXPECT_LE(lp, 1e-5f);
    }
  }
}

TEST(RolloutEngineTest, MetricsCountersAdvance) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const double steps_before =
      registry.GetCounter("rollout.steps_total", {{"plane", "data"}}).Value();
  const double preemptions_before =
      registry.GetCounter("rollout.preemptions_total", {{"plane", "data"}}).Value();
  Rng rng(31);
  PolicyNetConfig net_config;
  net_config.vocab_size = 16;
  net_config.context_window = 3;
  net_config.embed_dim = 8;
  net_config.hidden_dim = 16;
  const PolicyNet net(net_config, rng);
  RolloutLimits limits;
  limits.max_new_tokens = 6;
  RolloutOptions options;
  options.block_tokens = 2;
  options.num_blocks = 5;
  const RolloutEngine engine(net, limits, options);
  Rng engine_rng(32);
  const std::vector<std::vector<int64_t>> prompts(5, std::vector<int64_t>{1, 2, 3, 4});
  const RolloutShardResult result =
      engine.Run(prompts, /*do_sample=*/false, /*temperature=*/1.0, engine_rng);
  EXPECT_GT(result.stats.preemptions, 0);
  EXPECT_GT(registry.GetCounter("rollout.steps_total", {{"plane", "data"}}).Value(),
            steps_before);
  EXPECT_GT(registry.GetCounter("rollout.preemptions_total", {{"plane", "data"}}).Value(),
            preemptions_before);
}

// --- Actor integration --------------------------------------------------------

RealComputeOptions SmallRolloutReal(uint64_t seed = 11) {
  RealComputeOptions real;
  real.enabled = true;
  real.seed = seed;
  real.task = AlignmentTask{};
  real.task.prompt_len = 4;
  real.task.response_len = 4;
  real.net.vocab_size = real.task.vocab_size;
  real.net.context_window = 3;
  real.net.embed_dim = 8;
  real.net.hidden_dim = 16;
  return real;
}

WorkerGroupOptions RolloutActorGroupOptions() {
  WorkerGroupOptions options;
  options.name = "actor";
  options.model = ModelSpec::Llama7B();
  options.trainable = true;
  options.train_cfg = ParallelConfig{1, 4, 2};
  return options;
}

TEST(RolloutWorkersTest, ContinuousActorMatchesStaticActorGreedy) {
  RlhfWorkloadSpec workload;
  workload.global_batch = 64;
  workload.prompt_len = 256;
  workload.response_len = 256;
  DataBatch static_out;
  DataBatch continuous_out;
  RolloutStats continuous_stats;
  for (int variant = 0; variant < 2; ++variant) {
    Controller controller(ClusterSpec::WithGpus(8));
    std::shared_ptr<ResourcePool> pool = controller.CreatePoolRange("pool", 0, 8);
    ActorOptions actor_options;
    actor_options.gen = GenParallelConfig{1, 2};
    actor_options.engine_mode = ActorEngineMode::kHybridFlow;
    if (variant == 1) {
      actor_options.rollout.mode = RolloutMode::kContinuous;
      actor_options.rollout.block_tokens = 2;
      actor_options.rollout.num_blocks = 8;  // Tight enough to preempt.
    }
    ActorWorkerGroup actor(RolloutActorGroupOptions(), pool, &controller, SmallRolloutReal(),
                           actor_options);
    PromptDataset dataset(actor.real().task, /*seed=*/5);
    BatchFuture prompts = BatchFuture::Immediate(dataset.NextBatch(16));
    BatchFuture out = actor.GenerateSequences(prompts, workload, /*do_sample=*/false);
    if (variant == 0) {
      static_out = out.data;
    } else {
      continuous_out = out.data;
      continuous_stats = actor.rollout_stats();
    }
  }
  ASSERT_EQ(continuous_out.batch_size(), static_out.batch_size());
  EXPECT_EQ(continuous_out.Tokens("responses"), static_out.Tokens("responses"));
  EXPECT_EQ(continuous_out.Float("log_probs"), static_out.Float("log_probs"));
  EXPECT_GT(continuous_stats.sequences, 0);
  EXPECT_GT(continuous_stats.preemptions, 0);  // The tight cache was felt.
}

TEST(RolloutWorkersTest, StaticModeRunsTheSameStepLoopSampled) {
  // rollout.mode picks only the sim timing model: both modes generate
  // through RolloutEngine, so even sampled tokens match.
  RlhfWorkloadSpec workload;
  workload.global_batch = 64;
  workload.prompt_len = 256;
  workload.response_len = 256;
  std::vector<DataBatch> outs;
  for (const RolloutMode mode : {RolloutMode::kStatic, RolloutMode::kContinuous}) {
    Controller controller(ClusterSpec::WithGpus(8));
    std::shared_ptr<ResourcePool> pool = controller.CreatePoolRange("pool", 0, 8);
    ActorOptions actor_options;
    actor_options.gen = GenParallelConfig{1, 2};
    actor_options.rollout.mode = mode;
    ActorWorkerGroup actor(RolloutActorGroupOptions(), pool, &controller, SmallRolloutReal(),
                           actor_options);
    PromptDataset dataset(actor.real().task, /*seed=*/5);
    BatchFuture prompts = BatchFuture::Immediate(dataset.NextBatch(16));
    outs.push_back(actor.GenerateSequences(prompts, workload, /*do_sample=*/true).data);
    EXPECT_EQ(actor.rollout_stats().sequences, 16);
  }
  EXPECT_EQ(outs[0].Tokens("responses"), outs[1].Tokens("responses"));
  EXPECT_EQ(outs[0].Float("log_probs"), outs[1].Float("log_probs"));
}

// --- Performance-plane timing -------------------------------------------------

TEST(RolloutTimingTest, ConstrainedBudgetPreemptsAndIsDeterministic) {
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(8));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  const std::vector<NominalSequence> sequences(64, NominalSequence{256, 256});
  // Budget for ~40 blocks of 16 tokens: far less than 64 full sequences.
  const double budget = 40.0 * 16.0 * perf.KvBytesPerTokenPerGpu(gen);
  RolloutOptions options;
  options.mode = RolloutMode::kContinuous;
  const RolloutSimResult first =
      SimulateContinuousGeneration(perf, gen, devices, sequences, budget, options);
  const RolloutSimResult second =
      SimulateContinuousGeneration(perf, gen, devices, sequences, budget, options);
  EXPECT_GT(first.stats.preemptions, 0);
  EXPECT_GT(first.stats.steps, 256);  // Waves: more steps than one pass.
  EXPECT_GT(first.time.prefill_seconds, 0.0);
  EXPECT_GT(first.time.decode_seconds, 0.0);
  EXPECT_EQ(first.time.total(), second.time.total());
  EXPECT_EQ(first.stats.steps, second.stats.steps);
  EXPECT_EQ(first.stats.preemptions, second.stats.preemptions);
  EXPECT_EQ(first.stats.kv_high_water_blocks, second.stats.kv_high_water_blocks);
}

TEST(RolloutTimingTest, SkewedResponseLengthsBeatStaticWaveModel) {
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(8));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  // 80% short / 20% long responses. The static path pads everyone to the
  // longest response; continuous batching retires short sequences early and
  // backfills, so it must win on makespan.
  std::vector<NominalSequence> sequences;
  Rng rng(17);
  for (int i = 0; i < 64; ++i) {
    const int64_t response = rng.Uniform(0.0, 1.0) < 0.8 ? 64 : 512;
    sequences.push_back(NominalSequence{256, response});
  }
  const double budget = 200.0 * 16.0 * perf.KvBytesPerTokenPerGpu(gen);
  RolloutOptions options;
  options.mode = RolloutMode::kContinuous;
  const RolloutSimResult continuous =
      SimulateContinuousGeneration(perf, gen, devices, sequences, budget, options);
  const GenTimeBreakdown fixed =
      perf.GenerateTime(gen, devices, /*batch=*/64, /*prompt_len=*/256,
                        /*response_len=*/512, budget, /*use_kv_cache=*/true);
  EXPECT_LT(continuous.time.total(), fixed.total());
}

TEST(RolloutTimingTest, ChunkedPrefillFlattensDecodeStepLatency) {
  // One 4096-token prompt landing mid-run spikes the unchunked step every
  // decode row waits behind; a 256-token chunk budget must flatten it.
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(8));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  std::vector<NominalSequence> sequences(32, NominalSequence{128, 256});
  sequences.push_back(NominalSequence{4096, 256});
  const double budget = 1e12;  // Ample KV: isolate the prefill effect.

  RolloutOptions unchunked;
  unchunked.mode = RolloutMode::kContinuous;
  RolloutOptions chunked = unchunked;
  chunked.prefill_chunk_tokens = 256;

  const RolloutSimResult spiky =
      SimulateContinuousGeneration(perf, gen, devices, sequences, budget, unchunked);
  const RolloutSimResult flat =
      SimulateContinuousGeneration(perf, gen, devices, sequences, budget, chunked);

  EXPECT_EQ(spiky.stats.prefill_chunks, 0);
  EXPECT_GT(flat.stats.prefill_chunks, 0);
  EXPECT_LE(flat.stats.max_prefill_tokens_step, 256);
  // Per-step latency stays flat: the worst chunked step is a small multiple
  // of a typical decode step, far below the unchunked prefill spike.
  EXPECT_LT(flat.max_step_seconds, 0.5 * spiky.max_step_seconds);
  // Every response still completes: same total tokens both ways.
  EXPECT_EQ(flat.stats.sequences, spiky.stats.sequences);
}

TEST(RolloutTimingTest, PrefixCacheSkipsGroupPromptPrefillsInSimPlane) {
  // Perf-plane mirror of the data-plane group-sampling test: equal
  // prompt_group ids hash equal, so the simulator skips n-1 of every n
  // prompt prefills and charges less prefill time for the same schedule.
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(8));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  const int64_t groups = 8;
  const int64_t n = 4;
  const int64_t prompt = 64;  // 4 full 16-token blocks in the sim geometry.
  std::vector<NominalSequence> sequences;
  for (int64_t g = 0; g < groups; ++g) {
    for (int64_t i = 0; i < n; ++i) {
      sequences.push_back(NominalSequence{prompt, /*response_tokens=*/32, /*prompt_group=*/g});
    }
  }
  RolloutOptions cached;
  cached.mode = RolloutMode::kContinuous;
  cached.prefix_cache = true;
  RolloutOptions uncached = cached;
  uncached.prefix_cache = false;
  const double budget = 1e12;  // Ample KV: isolate the sharing effect.
  const RolloutSimResult with_cache =
      SimulateContinuousGeneration(perf, gen, devices, sequences, budget, cached);
  const RolloutSimResult without_cache =
      SimulateContinuousGeneration(perf, gen, devices, sequences, budget, uncached);
  EXPECT_EQ(with_cache.stats.prefix_skipped_tokens, groups * (n - 1) * (prompt - 1));
  EXPECT_EQ(without_cache.stats.prefix_skipped_tokens, 0);
  EXPECT_LT(with_cache.time.prefill_seconds, without_cache.time.prefill_seconds);
  EXPECT_GT(with_cache.stats.shared_blocks_high_water, 0);
}

TEST(RolloutTimingTest, ZeroLengthResponsesFinishInstantly) {
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(8));
  const GenParallelConfig gen{1, 1};
  const std::vector<DeviceId> devices{0};
  const std::vector<NominalSequence> sequences(4, NominalSequence{128, 0});
  const RolloutSimResult result = SimulateContinuousGeneration(
      perf, gen, devices, sequences, /*kv_budget_bytes=*/1e12, RolloutOptions{});
  EXPECT_EQ(result.stats.steps, 0);
  EXPECT_EQ(result.time.total(), 0.0);
}

// --- End-to-end trace determinism --------------------------------------------

SystemBuildConfig ContinuousPpoConfig() {
  SystemBuildConfig config;
  config.system = RlhfSystem::kHybridFlow;
  config.algorithm = RlhfAlgorithm::kPpo;
  config.num_gpus = 8;
  config.real_compute = true;
  config.real_batch = 16;
  config.seed = 91;
  config.workload.global_batch = 128;
  config.workload.prompt_len = 256;
  config.workload.response_len = 256;
  config.rollout.mode = RolloutMode::kContinuous;
  return config;
}

TEST(RolloutTraceTest, ContinuousTimelineIsDeterministicAndClean) {
  std::vector<TraceSpan> first_trace;
  std::vector<TraceSpan> second_trace;
  for (int run = 0; run < 2; ++run) {
    RlhfSystemInstance system = BuildSystem(ContinuousPpoConfig());
    ASSERT_TRUE(system.feasible);
    for (int i = 0; i < 2; ++i) {
      system.RunIteration();
    }
    EXPECT_GT(system.actor->last_rollout_sim_stats().steps, 0);
    const ClusterState& cluster = system.controller->cluster();
    (run == 0 ? first_trace : second_trace) = cluster.trace();
    if (run == 0) {
      TimelineChecker checker(system.controller->spec());
      for (const auto& pool : system.controller->pools()) {
        checker.RegisterGroup(pool->name(), pool->devices());
      }
      const std::vector<TimelineViolation> violations = checker.Check(cluster);
      EXPECT_TRUE(violations.empty()) << FormatViolations(violations);
    }
  }
  EXPECT_EQ(CompareTraces(first_trace, second_trace), "") << "schedules diverged";
}

}  // namespace
}  // namespace hybridflow
