// Tests for the serving front end (src/serving/ + src/data/arrival_trace).
//
// Load-bearing properties:
//   * SLO-aware admission (priority / EDF / weighted fair) reorders only
//     *which* request is admitted next — under greedy decoding every
//     uncancelled request's response and log-probs stay bitwise-identical
//     to the plain FCFS path, across forced preemption, cancellation, and
//     expiry of other requests.
//   * Every terminal exit (finish, cancel, expire) returns its KV blocks:
//     no leak in any lifecycle corner (cancel while waiting, cancel
//     mid-prefill-chunk, cancel while preempted, expiry racing the final
//     token).
//   * Arrival traces are deterministic given a seed, and SLO-aware
//     admission beats FCFS on high-priority p99 TTFT on bursty and diurnal
//     traces (the serving claim bench/bench_serving.cc measures).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/data/arrival_trace.h"
#include "src/nn/policy_net.h"
#include "src/obs/json_util.h"
#include "src/obs/metrics.h"
#include "src/obs/seq_events.h"
#include "src/rollout/engine.h"
#include "src/rollout/timing.h"
#include "src/serving/frontend.h"
#include "src/serving/request.h"
#include "src/serving/sim.h"
#include "src/sim/topology.h"

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

void Drain(RolloutScheduler& scheduler) {
  int64_t guard = 0;
  while (scheduler.HasWork()) {
    ASSERT_LT(guard++, 1000) << "scheduler failed to drain";
    const StepPlan plan = scheduler.BeginStep();
    scheduler.CommitStep(plan, /*eos_finished=*/{});
  }
}

// --- Arrival traces -----------------------------------------------------------

ArrivalTraceConfig TwoTenantTrace(TraceShape shape) {
  ArrivalTraceConfig config;
  config.shape = shape;
  config.rate = 20.0;
  config.duration = 8.0;
  TenantSpec interactive;
  interactive.tenant = 0;
  interactive.share = 1.0;
  interactive.priority = 5;
  interactive.ttft_slo = 0.5;
  TenantSpec batch;
  batch.tenant = 1;
  batch.share = 2.0;
  batch.prompt_min = 16;
  batch.prompt_max = 48;
  config.tenants = {interactive, batch};
  return config;
}

TEST(ArrivalTraceTest, DeterministicGivenSeedAndSortedWithDenseIndices) {
  const ArrivalTraceConfig config = TwoTenantTrace(TraceShape::kBursty);
  const std::vector<ArrivalRecord> a = GenerateArrivalTrace(config, 42);
  const std::vector<ArrivalRecord> b = GenerateArrivalTrace(config, 42);
  const std::vector<ArrivalRecord> c = GenerateArrivalTrace(config, 43);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  bool differs = a.size() != c.size();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, static_cast<int64_t>(i));
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
    EXPECT_EQ(a[i].target_new_tokens, b[i].target_new_tokens);
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
    EXPECT_LT(a[i].arrival, config.duration);
    if (!differs && i < c.size() && a[i].arrival != c[i].arrival) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs) << "different seeds produced the same trace";
}

TEST(ArrivalTraceTest, TenantMetadataAndDeadlinesStampedFromSpecs) {
  const std::vector<ArrivalRecord> trace =
      GenerateArrivalTrace(TwoTenantTrace(TraceShape::kPoisson), 7);
  int64_t interactive = 0;
  int64_t batch = 0;
  for (const ArrivalRecord& record : trace) {
    if (record.tenant == 0) {
      ++interactive;
      EXPECT_EQ(record.priority, 5);
      EXPECT_DOUBLE_EQ(record.ttft_deadline, record.arrival + 0.5);
    } else {
      ++batch;
      EXPECT_EQ(record.tenant, 1);
      EXPECT_EQ(record.ttft_deadline, 0.0);
      EXPECT_GE(record.prompt_tokens, 16);
      EXPECT_LE(record.prompt_tokens, 48);
    }
  }
  EXPECT_GT(interactive, 0);
  EXPECT_GT(batch, 0);  // Both tenants present in the mix.
}

TEST(ArrivalTraceTest, PerTenantRequestShapesSurviveMixChanges) {
  // Changing tenant 1's share reassigns arrivals, but tenant 0's k-th
  // request must keep its sizes: shapes come from a per-tenant stream.
  ArrivalTraceConfig base = TwoTenantTrace(TraceShape::kPoisson);
  ArrivalTraceConfig reweighted = base;
  reweighted.tenants[1].share = 9.0;
  const std::vector<ArrivalRecord> a = GenerateArrivalTrace(base, 11);
  const std::vector<ArrivalRecord> b = GenerateArrivalTrace(reweighted, 11);
  const auto tenant0_shapes = [](const std::vector<ArrivalRecord>& trace) {
    std::vector<std::pair<int64_t, int64_t>> shapes;
    for (const ArrivalRecord& record : trace) {
      if (record.tenant == 0) {
        shapes.push_back({record.prompt_tokens, record.target_new_tokens});
      }
    }
    return shapes;
  };
  const auto shapes_a = tenant0_shapes(a);
  const auto shapes_b = tenant0_shapes(b);
  const size_t shared = std::min(shapes_a.size(), shapes_b.size());
  ASSERT_GT(shared, 0u);
  for (size_t i = 0; i < shared; ++i) {
    EXPECT_EQ(shapes_a[i], shapes_b[i]) << "tenant-0 request " << i;
  }
}

TEST(ArrivalTraceTest, RateShapesMatchTheirEnvelope) {
  ArrivalTraceConfig config;
  config.rate = 10.0;
  config.shape = TraceShape::kBursty;
  config.burst_on = 1.0;
  config.burst_off = 1.0;
  config.burst_factor = 3.0;
  EXPECT_DOUBLE_EQ(TraceRateAt(config, 0.5), 30.0);  // ON window.
  EXPECT_DOUBLE_EQ(TraceRateAt(config, 1.5), 10.0);  // OFF window.
  config.shape = TraceShape::kDiurnal;
  config.diurnal_period = 4.0;
  config.diurnal_depth = 0.5;
  EXPECT_DOUBLE_EQ(TraceRateAt(config, 1.0), 15.0);  // Peak of the sinusoid.
  EXPECT_DOUBLE_EQ(TraceRateAt(config, 3.0), 5.0);   // Trough.
  TraceShape parsed;
  ASSERT_TRUE(ParseTraceShape("diurnal", &parsed));
  EXPECT_EQ(parsed, TraceShape::kDiurnal);
  EXPECT_FALSE(ParseTraceShape("sawtooth", &parsed));
}

// --- Scheduler admission policies --------------------------------------------

TEST(ServingSchedulerTest, PriorityAdmitsHigherFirstWithArrivalTies) {
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({4, 4, 4, 4}, /*target_new=*/2);
  sequences[0].priority = 0;
  sequences[1].priority = 7;
  sequences[2].priority = 7;
  sequences[3].priority = 3;
  RolloutSchedulerConfig config;
  config.admission = AdmissionPolicy::kPriority;
  RolloutScheduler scheduler(config, &kv, &sequences);
  for (int64_t id = 0; id < 4; ++id) {
    scheduler.Enqueue(id);
  }
  EXPECT_EQ(PrefillIds(scheduler.BeginStep()), (std::vector<int64_t>{1, 2, 3, 0}));
}

TEST(ServingSchedulerTest, DeadlineAdmitsEarliestFirstAndDeadlineFreeLast) {
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({4, 4, 4, 4}, /*target_new=*/2);
  sequences[0].ttft_deadline = 0.0;  // No SLO: sorts last.
  sequences[1].ttft_deadline = 5.0;
  sequences[2].ttft_deadline = 2.0;
  sequences[3].ttft_deadline = 5.0;  // Tie with 1: arrival order.
  RolloutSchedulerConfig config;
  config.admission = AdmissionPolicy::kDeadline;
  RolloutScheduler scheduler(config, &kv, &sequences);
  for (int64_t id = 0; id < 4; ++id) {
    scheduler.Enqueue(id);
  }
  EXPECT_EQ(PrefillIds(scheduler.BeginStep()), (std::vector<int64_t>{2, 1, 3, 0}));
}

TEST(ServingSchedulerTest, WeightedFairInterleavesPerDeficitRounds) {
  // Tenant 7 weighs 2.0, tenant 9 weighs 1.0, every context costs 4 tokens
  // and the quantum is 4: each round admits two of tenant 7's requests and
  // one of tenant 9's, starting at the cursor (tenant 7).
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({4, 4, 4, 4, 4, 4}, /*target_new=*/2);
  for (int64_t id : {0, 1, 2, 3}) {
    sequences[static_cast<size_t>(id)].tenant = 7;
  }
  for (int64_t id : {4, 5}) {
    sequences[static_cast<size_t>(id)].tenant = 9;
  }
  RolloutSchedulerConfig config;
  config.admission = AdmissionPolicy::kWeightedFair;
  config.fair_quantum_tokens = 4;
  config.tenant_weights = {{7, 2.0}, {9, 1.0}};
  RolloutScheduler scheduler(config, &kv, &sequences);
  for (int64_t id = 0; id < 6; ++id) {
    scheduler.Enqueue(id);
  }
  EXPECT_EQ(PrefillIds(scheduler.BeginStep()), (std::vector<int64_t>{0, 1, 4, 2, 3, 5}));
}

TEST(ServingSchedulerTest, WeightedFairBlockedTenantDoesNotStarveOthers) {
  // Tenant 1's queue head (14 tokens -> 4 blocks + reserve) cannot fit
  // while tenant 0's small requests can: fair queueing must serve tenant 0
  // past the blocked tenant instead of stalling the whole admission.
  KvBlockManager kv(KvConfig(/*blocks=*/4));
  std::vector<RolloutSequence> sequences = MakeSequences({14, 4, 4}, /*target_new=*/2);
  sequences[0].tenant = 1;
  sequences[1].tenant = 0;
  sequences[2].tenant = 0;
  RolloutSchedulerConfig config;
  config.admission = AdmissionPolicy::kWeightedFair;
  config.fair_quantum_tokens = 64;
  RolloutScheduler scheduler(config, &kv, &sequences);
  scheduler.Enqueue(0);  // Tenant 1 arrives first.
  scheduler.Enqueue(1);
  scheduler.Enqueue(2);
  const StepPlan plan = scheduler.BeginStep();
  EXPECT_EQ(PrefillIds(plan), (std::vector<int64_t>{1, 2}));  // Both small fit.
  EXPECT_EQ(sequences[0].state, SequenceState::kWaiting);
}

// --- Cancellation and expiry edge cases --------------------------------------

TEST(ServingSchedulerTest, CancelWhileWaitingLeavesNoResidencyAndSkipsAdmission) {
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({4, 4}, /*target_new=*/2);
  RolloutScheduler scheduler({}, &kv, &sequences);
  scheduler.Enqueue(0);
  scheduler.Enqueue(1);
  scheduler.Cancel(1);
  EXPECT_EQ(sequences[1].state, SequenceState::kCancelled);
  EXPECT_EQ(scheduler.waiting().size(), 1u);
  Drain(scheduler);
  EXPECT_EQ(sequences[0].state, SequenceState::kFinished);
  EXPECT_EQ(sequences[1].generated, 0);
  EXPECT_EQ(scheduler.stats().cancelled, 1);
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_TRUE(kv.RefcountsConsistent());
}

TEST(ServingSchedulerTest, CancelMidPrefillChunkReturnsAllBlocks) {
  // Chunked prefill: seq 0's 8-token context enters compute 2 tokens per
  // step. Cancel after the first partial chunk, while its full context's
  // blocks are resident but prefill has not completed.
  KvBlockManager kv(KvConfig(/*blocks=*/16, /*block_tokens=*/2));
  std::vector<RolloutSequence> sequences = MakeSequences({8, 2}, /*target_new=*/2);
  RolloutSchedulerConfig config;
  config.prefill_chunk_tokens = 2;
  RolloutScheduler scheduler(config, &kv, &sequences);
  scheduler.Enqueue(0);
  scheduler.Enqueue(1);
  const StepPlan plan = scheduler.BeginStep();
  ASSERT_FALSE(plan.prefill.empty());
  EXPECT_FALSE(plan.prefill[0].completes);  // Mid-chunk by construction.
  scheduler.CommitStep(plan, {});
  ASSERT_EQ(sequences[0].state, SequenceState::kPrefill);
  const int64_t resident_before = kv.used_blocks();
  EXPECT_GT(resident_before, 0);
  scheduler.Cancel(0);
  EXPECT_EQ(sequences[0].state, SequenceState::kCancelled);
  EXPECT_EQ(sequences[0].kv_tokens, 0);
  EXPECT_LT(kv.used_blocks(), resident_before);
  Drain(scheduler);
  EXPECT_EQ(sequences[1].state, SequenceState::kFinished);
  EXPECT_EQ(kv.used_blocks(), 0);
}

TEST(ServingSchedulerTest, CancelWhilePreemptedRemovesFromRequeue) {
  // Tight cache forces preemption; the victim sits in the waiting queue
  // with generated > 0 (recompute-on-resume). Cancelling it there must
  // remove it without touching KV (its blocks were freed at preemption).
  KvBlockManager kv(KvConfig(/*blocks=*/6, /*block_tokens=*/2));
  std::vector<RolloutSequence> sequences = MakeSequences({2, 2, 2, 2}, /*target_new=*/6);
  RolloutScheduler scheduler({}, &kv, &sequences);
  for (int64_t id = 0; id < 4; ++id) {
    scheduler.Enqueue(id);
  }
  int64_t preempted = -1;
  int64_t guard = 0;
  while (scheduler.HasWork() && preempted < 0) {
    ASSERT_LT(guard++, 1000);
    const StepPlan plan = scheduler.BeginStep();
    scheduler.CommitStep(plan, {});
    for (int64_t id : scheduler.waiting()) {
      if (sequences[static_cast<size_t>(id)].generated > 0) {
        preempted = id;
        break;
      }
    }
  }
  ASSERT_GE(preempted, 0) << "workload never preempted";
  const int64_t tokens_kept = sequences[static_cast<size_t>(preempted)].generated;
  scheduler.Cancel(preempted);
  EXPECT_EQ(sequences[static_cast<size_t>(preempted)].state, SequenceState::kCancelled);
  EXPECT_EQ(sequences[static_cast<size_t>(preempted)].generated, tokens_kept);
  EXPECT_TRUE(std::find(scheduler.waiting().begin(), scheduler.waiting().end(), preempted) ==
              scheduler.waiting().end());
  Drain(scheduler);
  for (const RolloutSequence& sequence : sequences) {
    if (sequence.id != preempted) {
      EXPECT_EQ(sequence.state, SequenceState::kFinished);
    }
  }
  EXPECT_EQ(kv.used_blocks(), 0);
  EXPECT_TRUE(kv.RefcountsConsistent());
}

TEST(ServingSchedulerTest, ExpiryRacesTheFinalTokenAtTheStepBoundary) {
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({2, 2, 2}, /*target_new=*/2);
  sequences[0].ttft_deadline = 1.0;  // Served before the deadline: finishes.
  sequences[1].ttft_deadline = 1.0;  // Still tokenless past it: expires.
  sequences[2].ttft_deadline = 1.0;  // First token in time: runs to finish.
  RolloutSchedulerConfig config;
  config.expire_overdue = true;
  config.max_running = 2;  // Seq 1 must wait behind 0 and 2.
  RolloutScheduler scheduler(config, &kv, &sequences);
  for (int64_t id = 0; id < 3; ++id) {
    scheduler.Enqueue(id);
  }
  scheduler.SetSimNow(0.5);
  const StepPlan first = scheduler.BeginStep();
  EXPECT_EQ(PrefillIds(first), (std::vector<int64_t>{0, 1}));
  scheduler.SetSimNow(0.9);  // First tokens for 0 and 1 land in time.
  scheduler.CommitStep(first, {});

  // The deadline passes. Seq 2 never got its first token: expired at the
  // top of the next step even though it could have emitted this very step.
  // Seqs 0 and 1 met TTFT (generated > 0) and run on to completion.
  scheduler.SetSimNow(1.5);
  const StepPlan second = scheduler.BeginStep();
  EXPECT_EQ(sequences[2].state, SequenceState::kExpired);
  EXPECT_EQ(PrefillIds(second), std::vector<int64_t>{});
  EXPECT_EQ(second.decode, (std::vector<int64_t>{0, 1}));
  scheduler.CommitStep(second, {});
  EXPECT_EQ(sequences[0].state, SequenceState::kFinished);
  EXPECT_EQ(sequences[1].state, SequenceState::kFinished);
  EXPECT_EQ(scheduler.stats().expired, 1);
  EXPECT_FALSE(scheduler.HasWork());
  EXPECT_EQ(kv.used_blocks(), 0);
}

TEST(ServingSchedulerTest, ExpiryDrainingAllWorkReturnsAnEmptyPlan) {
  KvBlockManager kv(KvConfig(/*blocks=*/64));
  std::vector<RolloutSequence> sequences = MakeSequences({2, 2}, /*target_new=*/2);
  sequences[0].ttft_deadline = 1.0;
  sequences[1].ttft_deadline = 1.0;
  RolloutSchedulerConfig config;
  config.expire_overdue = true;
  RolloutScheduler scheduler(config, &kv, &sequences);
  scheduler.Enqueue(0);
  scheduler.Enqueue(1);
  scheduler.SetSimNow(2.0);
  const StepPlan plan = scheduler.BeginStep();
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(scheduler.HasWork());
  EXPECT_EQ(scheduler.stats().expired, 2);
  EXPECT_EQ(kv.used_blocks(), 0);
}

// --- Data-plane frontend: greedy equivalence ---------------------------------

PolicyNet TestNet() {
  PolicyNetConfig net_config;
  net_config.vocab_size = 16;
  net_config.context_window = 3;
  net_config.embed_dim = 8;
  net_config.hidden_dim = 16;
  Rng net_rng(1234);
  return PolicyNet(net_config, net_rng);
}

std::vector<ServingRequest> TestRequests() {
  // 8 requests, 2 tenants, arrivals spread over 2 virtual seconds.
  Rng rng(55);
  std::vector<ServingRequest> requests;
  for (int64_t i = 0; i < 8; ++i) {
    ServingRequest request;
    request.id = i;
    request.tenant = i % 2;
    request.priority = i % 2 == 0 ? 5 : 0;
    request.arrival = 0.25 * static_cast<double>(i % 4);
    request.max_new_tokens = 4 + (i % 3);
    request.prompt.resize(static_cast<size_t>(rng.UniformInt(2, 6)));
    for (int64_t& token : request.prompt) {
      token = rng.UniformInt(0, 15);
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

ServingResult ServeWith(const PolicyNet& net, const std::vector<ServingRequest>& requests,
                        const ServingFrontendConfig& config,
                        const StreamCallback& on_token = nullptr) {
  ServingFrontend frontend(net, config, /*kv_ranks=*/2);
  Rng rng(999);  // Greedy decoding never draws from it.
  return frontend.Serve(requests, /*do_sample=*/false, /*temperature=*/1.0, rng, on_token);
}

TEST(ServingFrontendTest, GreedyOutputsInvariantAcrossAdmissionPolicies) {
  const PolicyNet net = TestNet();
  const std::vector<ServingRequest> requests = TestRequests();

  // Baseline: plain FCFS, ample KV, no SLO enforcement — the rollout path.
  ServingFrontendConfig baseline;
  baseline.scheduler.expire_overdue = false;
  const ServingResult want = ServeWith(net, requests, baseline);
  ASSERT_EQ(want.report.finished, static_cast<int64_t>(requests.size()));

  for (const AdmissionPolicy admission :
       {AdmissionPolicy::kQueueOrder, AdmissionPolicy::kPriority, AdmissionPolicy::kDeadline,
        AdmissionPolicy::kWeightedFair}) {
    ServingFrontendConfig config;
    config.scheduler.admission = admission;
    config.scheduler.expire_overdue = false;
    config.scheduler.tenant_weights = {{0, 3.0}, {1, 1.0}};
    config.block_tokens = 2;
    config.num_blocks = 7;  // Tight: forces preemption and queueing.
    config.seconds_per_step = 0.05;
    const ServingResult got = ServeWith(net, requests, config);
    EXPECT_EQ(got.kv_leaked_blocks, 0);
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(got.records[i].outcome, RequestOutcome::kFinished);
      EXPECT_EQ(got.records[i].response, want.records[i].response)
          << "policy " << static_cast<int>(admission) << " request " << i;
      EXPECT_EQ(got.records[i].log_probs, want.records[i].log_probs)
          << "policy " << static_cast<int>(admission) << " request " << i;
    }
  }
}

TEST(ServingFrontendTest, CancellationAndExpiryLeaveOthersBitwiseIdentical) {
  const PolicyNet net = TestNet();
  std::vector<ServingRequest> requests = TestRequests();

  ServingFrontendConfig baseline;
  baseline.scheduler.expire_overdue = false;
  const ServingResult want = ServeWith(net, requests, baseline);

  // Request 2 cancels after 2 streamed tokens; request 5 cancels on a
  // timer; request 7 carries a TTFT deadline it cannot meet behind a
  // single-slot queue and must be expired, not served late.
  requests[2].cancel_after_tokens = 2;
  requests[5].cancel_at = 1.0;
  requests[7].ttft_deadline = 0.4;
  ServingFrontendConfig config;
  config.scheduler.max_running = 1;  // Deep queueing: expiry has teeth.
  config.scheduler.expire_overdue = true;
  config.seconds_per_step = 0.2;
  const ServingResult got = ServeWith(net, requests, config);

  EXPECT_EQ(got.kv_leaked_blocks, 0);
  EXPECT_EQ(got.records[2].outcome, RequestOutcome::kCancelled);
  EXPECT_EQ(got.records[2].tokens, 2);
  EXPECT_EQ(got.records[5].outcome, RequestOutcome::kCancelled);
  EXPECT_EQ(got.records[7].outcome, RequestOutcome::kExpired);
  EXPECT_EQ(got.records[7].tokens, 0);  // Expiry implies no first token.
  for (size_t i = 0; i < requests.size(); ++i) {
    const RequestRecord& record = got.records[i];
    if (record.outcome == RequestOutcome::kFinished) {
      // Untouched requests are bitwise-identical to the baseline.
      EXPECT_EQ(record.response, want.records[i].response) << "request " << i;
      EXPECT_EQ(record.log_probs, want.records[i].log_probs) << "request " << i;
    } else {
      // A cut request streamed a greedy *prefix* of its baseline response.
      ASSERT_LE(record.response.size(), want.records[i].response.size());
      for (size_t k = 0; k < record.response.size(); ++k) {
        EXPECT_EQ(record.response[k], want.records[i].response[k])
            << "request " << i << " token " << k;
      }
    }
  }
  const RolloutSchedulerStats& stats = got.scheduler_stats;
  EXPECT_EQ(stats.cancelled, 2);
  EXPECT_EQ(stats.expired, 1);
}

TEST(ServingFrontendTest, CancellationAppliesAfterAnExpiryDrainedStep) {
  const PolicyNet net = TestNet();
  std::vector<ServingRequest> requests = TestRequests();
  requests.resize(3);
  // Request 0 occupies step [0, 0.1). Request 1 arrives during it and is
  // overdue by the next step start, so expiry drains that step's plan.
  // Request 2 arrives during the drained step with its cancel time already
  // past at the following step start: it must be cancelled with 0 tokens,
  // as on every other path, not admitted and streamed first.
  requests[0].arrival = 0.0;
  requests[0].max_new_tokens = 1;
  requests[1].arrival = 0.01;
  requests[1].ttft_deadline = 0.05;
  requests[2].arrival = 0.15;
  requests[2].cancel_at = 0.18;
  ServingFrontendConfig config;
  config.scheduler.expire_overdue = true;
  config.seconds_per_step = 0.1;
  const ServingResult got = ServeWith(net, requests, config);

  EXPECT_EQ(got.records[0].outcome, RequestOutcome::kFinished);
  EXPECT_EQ(got.records[1].outcome, RequestOutcome::kExpired);
  EXPECT_EQ(got.records[2].outcome, RequestOutcome::kCancelled);
  EXPECT_EQ(got.records[2].tokens, 0);
  EXPECT_TRUE(got.records[2].response.empty());
  EXPECT_EQ(got.scheduler_stats.cancelled, 1);
  EXPECT_EQ(got.kv_leaked_blocks, 0);
}

TEST(ServingFrontendTest, ArrivalAfterAnIdleGapIsStampedAtItsArrival) {
  // Request 0 drains by 0.2; request 1 arrives at 10.0 into an idle
  // scheduler. Its enqueue must carry the clock the loop jumped to, not the
  // last step end, so the event-derived TTFT agrees with its record.
  const PolicyNet net = TestNet();
  std::vector<ServingRequest> requests = TestRequests();
  requests.resize(2);
  requests[0].arrival = 0.0;
  requests[1].arrival = 10.0;
  for (ServingRequest& request : requests) {
    request.max_new_tokens = 2;
  }
  SeqEventLog log;
  ServingFrontendConfig config;
  config.seconds_per_step = 0.1;
  config.event_log = &log;
  const ServingResult got = ServeWith(net, requests, config);
  ASSERT_EQ(got.report.finished, 2);

  const std::vector<SeqEvent> events = log.Snapshot();
  const auto enqueue = std::find_if(events.begin(), events.end(), [](const SeqEvent& event) {
    return event.seq == 1 && event.kind == SeqEventKind::kEnqueue;
  });
  ASSERT_NE(enqueue, events.end());
  EXPECT_EQ(enqueue->sim_seconds, 10.0);
  const std::vector<SeqLatency> rows = DeriveSeqLatencies(events, /*wall=*/false);
  ASSERT_EQ(rows.size(), 2u);
  for (const SeqLatency& row : rows) {
    EXPECT_EQ(row.ttft, got.records[static_cast<size_t>(row.seq)].ttft) << "request " << row.seq;
  }
}

TEST(ServingFrontendDeathTest, RejectsDisagreeingPrefixCacheFlags) {
  const PolicyNet net = TestNet();
  ServingFrontendConfig config;
  config.prefix_cache = true;  // config.scheduler.prefix_cache stays false.
  EXPECT_DEATH(ServingFrontend(net, config, /*kv_ranks=*/1),
               "ServingFrontendConfig::prefix_cache and RolloutSchedulerConfig::prefix_cache");
}

TEST(ServingFrontendTest, LatencyLandsUnderTheVirtualClockMetricNames) {
  // One request on an idle server prefills in the first step and emits a
  // token at each step end: TTFT and TPOT are one step each on the virtual
  // serving clock, 0.25 s, observed as 250000 us under the serving.*
  // virtual names. Tenant 9017 is served by no other test, so its
  // instruments hold this run alone.
  const PolicyNet net = TestNet();
  std::vector<ServingRequest> requests = TestRequests();
  requests.resize(1);
  requests[0].tenant = 9017;
  requests[0].arrival = 0.0;
  requests[0].max_new_tokens = 3;
  ServingFrontendConfig config;
  config.seconds_per_step = 0.25;
  const ServingResult got = ServeWith(net, requests, config);
  ASSERT_EQ(got.report.finished, 1);
  ASSERT_EQ(got.records[0].ttft, 0.25);

  const MetricLabels labels = {{"plane", "serving"}, {"tenant", "9017"}};
  for (const char* name : {"serving.ttft_virtual_us", "serving.tpot_virtual_us"}) {
    const QuantileHistogram& latency = MetricsRegistry::Global().GetQuantileHistogram(
        name, QuantileHistogram::kDefaultRelativeError, labels);
    EXPECT_EQ(latency.TotalCount(), 1u) << name;
    EXPECT_EQ(latency.Quantile(0.0), 250000.0) << name;  // Exact min = exact max.
    EXPECT_EQ(latency.Quantile(1.0), 250000.0) << name;
  }
  // The clock-less name that used to mix both clocks is gone.
  EXPECT_EQ(MetricsRegistry::Global().ToJsonLines().find("\"rollout.ttft_us\""),
            std::string::npos);
}

TEST(ServingFrontendTest, StreamingCallbackDeliversTokensInOrderAndCanCancel) {
  const PolicyNet net = TestNet();
  const std::vector<ServingRequest> requests = TestRequests();
  ServingFrontendConfig config;
  config.scheduler.expire_overdue = false;
  std::map<int64_t, std::vector<int64_t>> streamed;
  double last_time = 0.0;
  const StreamCallback on_token = [&](const StreamDelta& delta) {
    EXPECT_EQ(delta.index, static_cast<int64_t>(streamed[delta.request].size()));
    EXPECT_GE(delta.time, last_time);
    last_time = std::max(last_time, delta.time);
    streamed[delta.request].push_back(delta.token);
    return delta.request != 3 || delta.index < 1;  // Hang up request 3 early.
  };
  const ServingResult got = ServeWith(net, requests, config, on_token);
  EXPECT_EQ(got.records[3].outcome, RequestOutcome::kCancelled);
  EXPECT_EQ(got.records[3].tokens, 2);  // Token 0, then the refused token 1.
  for (const RequestRecord& record : got.records) {
    EXPECT_EQ(streamed[record.id], record.response);  // Stream == record.
  }
  EXPECT_EQ(got.kv_leaked_blocks, 0);
}

TEST(ServingFrontendTest, ReportAggregatesPerTenantAndJsonlValidates) {
  const PolicyNet net = TestNet();
  const std::vector<ServingRequest> requests = TestRequests();
  ServingFrontendConfig config;
  config.scheduler.expire_overdue = false;
  const ServingResult got = ServeWith(net, requests, config);
  ASSERT_EQ(got.report.tenants.size(), 2u);
  int64_t requests_sum = 0;
  for (const TenantServingStats& tenant : got.report.tenants) {
    requests_sum += tenant.requests;
    EXPECT_EQ(tenant.requests, 4);
    EXPECT_EQ(tenant.finished, 4);
    EXPECT_GT(tenant.ttft.count, 0u);
  }
  EXPECT_EQ(requests_sum, got.report.requests);
  EXPECT_GT(got.report.makespan, 0.0);

  std::istringstream lines(RequestRecordsToJsonl(got.records));
  std::string line;
  size_t count = 0;
  while (std::getline(lines, line)) {
    std::string error;
    EXPECT_TRUE(JsonValidate(line, &error)) << error << "\n" << line;
    EXPECT_NE(line.find("\"req\":"), std::string::npos);
    EXPECT_NE(line.find("\"outcome\":"), std::string::npos);
    ++count;
  }
  EXPECT_EQ(count, requests.size());
}

// --- Sim plane: the serving claim --------------------------------------------

ArrivalTraceConfig BenchLikeTrace(TraceShape shape) {
  ArrivalTraceConfig config;
  config.shape = shape;
  config.rate = 6.0;
  config.duration = 20.0;
  config.max_requests = 160;
  config.burst_on = 2.0;
  config.burst_off = 4.0;
  config.burst_factor = 4.0;
  config.diurnal_period = 10.0;
  config.diurnal_depth = 0.9;
  TenantSpec interactive;
  interactive.tenant = 0;
  interactive.share = 0.3;
  interactive.priority = 10;
  interactive.ttft_slo = 2.0;
  interactive.prompt_min = 64;
  interactive.prompt_max = 256;
  interactive.new_tokens_min = 16;
  interactive.new_tokens_max = 64;
  TenantSpec batch;
  batch.tenant = 1;
  batch.share = 0.7;
  batch.prompt_min = 256;
  batch.prompt_max = 1024;
  batch.new_tokens_min = 64;
  batch.new_tokens_max = 256;
  config.tenants = {interactive, batch};
  return config;
}

const TenantServingStats& TenantRow(const ServingReport& report, int64_t tenant) {
  for (const TenantServingStats& row : report.tenants) {
    if (row.tenant == tenant) {
      return row;
    }
  }
  ADD_FAILURE() << "tenant " << tenant << " missing from report";
  static const TenantServingStats empty{};
  return empty;
}

TEST(ServingSimTest, SloAwareAdmissionBeatsFcfsOnHighPriorityP99Ttft) {
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(8));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  const double kv_budget = 256.0 * 16.0 * perf.KvBytesPerTokenPerGpu(gen);

  for (const TraceShape shape : {TraceShape::kBursty, TraceShape::kDiurnal}) {
    const std::vector<ArrivalRecord> trace = GenerateArrivalTrace(BenchLikeTrace(shape), 7);
    RolloutSchedulerConfig fcfs;
    fcfs.expire_overdue = false;  // The plain rollout path serves late.
    const ServingSimResult base = SimulateServing(perf, gen, devices, trace, kv_budget, fcfs);
    const ServingSimResult base_again =
        SimulateServing(perf, gen, devices, trace, kv_budget, fcfs);
    EXPECT_EQ(base.sim_seconds, base_again.sim_seconds);  // Deterministic.
    EXPECT_EQ(base.report.slo_attained, base_again.report.slo_attained);
    EXPECT_EQ(base.kv_leaked_blocks, 0);

    for (const AdmissionPolicy admission :
         {AdmissionPolicy::kPriority, AdmissionPolicy::kDeadline,
          AdmissionPolicy::kWeightedFair}) {
      RolloutSchedulerConfig slo_aware;
      slo_aware.admission = admission;
      slo_aware.tenant_weights = {{0, 4.0}, {1, 1.0}};
      const ServingSimResult got =
          SimulateServing(perf, gen, devices, trace, kv_budget, slo_aware);
      EXPECT_EQ(got.kv_leaked_blocks, 0);
      const TenantServingStats& fcfs_hi = TenantRow(base.report, 0);
      const TenantServingStats& slo_hi = TenantRow(got.report, 0);
      // The serving claim: the SLO'd class's p99 TTFT and attainment both
      // improve on bursty and diurnal traffic.
      EXPECT_LT(slo_hi.ttft.p99, fcfs_hi.ttft.p99)
          << TraceShapeName(shape) << " policy " << static_cast<int>(admission);
      EXPECT_GT(slo_hi.slo_attained, fcfs_hi.slo_attained)
          << TraceShapeName(shape) << " policy " << static_cast<int>(admission);
    }
  }
}

// --- Entry points agree: one step loop under all four --------------------------
//
// With every request arriving at t=0 and no deadlines or cancellations, the
// serving entry points are a batch rollout: the same StepLoop, the same
// executor, the same schedule.

TEST(ServingSimTest, FullLengthReservationsRemovePreemption) {
  // Serving takes the scheduler's one config, so reserve_full_length
  // reaches it. The prefix cache stays off: every request's target is its
  // exact length, so reserving it in full must never over-commit.
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(8));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  const double kv_budget = 96.0 * 16.0 * perf.KvBytesPerTokenPerGpu(gen);
  const std::vector<ArrivalRecord> trace =
      GenerateArrivalTrace(BenchLikeTrace(TraceShape::kBursty), 7);
  RolloutSchedulerConfig optimistic;
  optimistic.expire_overdue = false;  // Every request finishes either way.
  RolloutSchedulerConfig reserved = optimistic;
  reserved.reserve_full_length = true;

  const ServingSimResult base = SimulateServing(perf, gen, devices, trace, kv_budget, optimistic);
  const ServingSimResult got = SimulateServing(perf, gen, devices, trace, kv_budget, reserved);
  ASSERT_GT(base.scheduler_stats.preemptions, 0);
  EXPECT_EQ(got.scheduler_stats.preemptions, 0);
  EXPECT_EQ(got.kv_leaked_blocks, 0);
  EXPECT_EQ(got.report.finished, base.report.finished);
  EXPECT_EQ(got.report.finished, static_cast<int64_t>(trace.size()));
}

TEST(ServingEquivalenceTest, SimulateServingMatchesSimulateContinuousGeneration) {
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(8));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  // Tight KV (forces preemption) and chunked prefill on both planes.
  const double kv_budget = 96.0 * 16.0 * perf.KvBytesPerTokenPerGpu(gen);
  Rng rng(21);
  std::vector<NominalSequence> nominal;
  std::vector<ArrivalRecord> trace;
  for (int64_t i = 0; i < 48; ++i) {
    const int64_t prompt = rng.UniformInt(64, 512);
    const int64_t response = rng.UniformInt(16, 256);
    nominal.push_back(NominalSequence{prompt, response});
    ArrivalRecord record;
    record.index = i;
    record.prompt_tokens = prompt;
    record.target_new_tokens = response;
    trace.push_back(record);
  }
  RolloutOptions rollout;
  rollout.mode = RolloutMode::kContinuous;
  rollout.prefill_chunk_tokens = 256;
  RolloutSchedulerConfig serving;
  serving.prefill_chunk_tokens = 256;

  const RolloutSimResult want =
      SimulateContinuousGeneration(perf, gen, devices, nominal, kv_budget, rollout);
  const ServingSimResult got = SimulateServing(perf, gen, devices, trace, kv_budget, serving);
  ASSERT_GT(want.stats.preemptions, 0);
  EXPECT_EQ(got.scheduler_stats.steps, want.stats.steps);
  EXPECT_EQ(got.scheduler_stats.admissions, want.stats.admissions);
  EXPECT_EQ(got.scheduler_stats.preemptions, want.stats.preemptions);
  EXPECT_EQ(got.kv_high_water_blocks, want.stats.kv_high_water_blocks);
  EXPECT_EQ(got.report.finished, static_cast<int64_t>(trace.size()));
  // The serving clock is the running sum of the same step costs.
  EXPECT_NEAR(got.sim_seconds, want.time.total(), 1e-9 * want.time.total());
}

TEST(ServingEquivalenceTest, ServeMatchesRolloutEngineBitwiseGreedyAndSampled) {
  const PolicyNet net = TestNet();
  std::vector<ServingRequest> requests = TestRequests();
  std::vector<std::vector<int64_t>> prompts;
  for (ServingRequest& request : requests) {
    request.arrival = 0.0;
    request.max_new_tokens = 5;
    prompts.push_back(request.prompt);
  }
  RolloutLimits limits;
  limits.max_new_tokens = 5;
  RolloutOptions options;
  options.mode = RolloutMode::kContinuous;
  const RolloutEngine engine(net, limits, options);
  ServingFrontendConfig config;
  config.block_tokens = 2;
  config.num_blocks = 9;  // Tight, unlike the engine: a different schedule.
  ServingFrontend frontend(net, config, /*kv_ranks=*/2);

  for (const bool do_sample : {false, true}) {
    Rng engine_rng(4242);
    Rng serving_rng(4242);
    const RolloutShardResult want = engine.Run(prompts, do_sample, 0.8, engine_rng);
    const ServingResult got = frontend.Serve(requests, do_sample, 0.8, serving_rng);
    EXPECT_GT(got.scheduler_stats.preemptions, 0);
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(got.records[i].outcome, RequestOutcome::kFinished);
      EXPECT_EQ(got.records[i].response, want.responses[i])
          << "sample " << do_sample << " request " << i;
      EXPECT_EQ(got.records[i].log_probs, want.log_probs[i])
          << "sample " << do_sample << " request " << i;
    }
  }
}

}  // namespace
}  // namespace hybridflow
