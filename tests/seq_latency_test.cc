// Tests for the per-sequence lifecycle event log (src/obs/seq_events.h),
// its scheduler/engine/timing-simulator recording hooks, and the TTFT /
// TPOT / queue-delay / stall derivations built on it. Suite names contain
// "Latency" so tools/check.sh picks them up for the TSan and schedule-fuzz
// phases. The load-bearing properties:
//   * recording must not perturb behavior — greedy decode output and the
//     timing simulator's DES results are bitwise identical with the log
//     attached and detached;
//   * the derived latencies must match hand-computed values on a known
//     event stream;
//   * the JSONL export must be valid line-JSON for arbitrary event content.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/nn/policy_net.h"
#include "src/obs/dual_trace.h"
#include "src/obs/json_util.h"
#include "src/obs/seq_events.h"
#include "src/rollout/engine.h"
#include "src/rollout/scheduler.h"
#include "src/rollout/sequence.h"
#include "src/rollout/timing.h"
#include "src/sim/topology.h"

namespace hybridflow {
namespace {

SeqEvent MakeEvent(int64_t run, int64_t seq, SeqEventKind kind, double t, int64_t tokens = 0,
                   int64_t step = 0) {
  SeqEvent event;
  event.run = run;
  event.seq = seq;
  event.kind = kind;
  event.step = step;
  event.tokens = tokens;
  event.sim_seconds = t;
  event.wall_us = t * 1e6;
  return event;
}

TEST(SeqLatencyTest, EventKindNamesRoundTrip) {
  for (const SeqEventKind kind :
       {SeqEventKind::kEnqueue, SeqEventKind::kAdmit, SeqEventKind::kPrefillChunk,
        SeqEventKind::kFirstToken, SeqEventKind::kDecodeStep, SeqEventKind::kPreempt,
        SeqEventKind::kResume, SeqEventKind::kFinish, SeqEventKind::kCancel,
        SeqEventKind::kExpire}) {
    SeqEventKind parsed;
    ASSERT_TRUE(ParseSeqEventKind(SeqEventKindName(kind), &parsed)) << SeqEventKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  SeqEventKind parsed;
  EXPECT_FALSE(ParseSeqEventKind("not-a-kind", &parsed));
  EXPECT_FALSE(ParseSeqEventKind("", &parsed));
}

TEST(SeqLatencyTest, DerivesHandComputedLatenciesFromOneStream) {
  // One sequence through a full preempt/resume lifecycle, timestamps in
  // sim-seconds: enqueue@1, admit@3, first token@6, decode@7, preempt@8,
  // resume@10 (re-prefills 5 tokens), decode@11, finish@11.
  std::vector<SeqEvent> events;
  events.push_back(MakeEvent(0, 4, SeqEventKind::kEnqueue, 1.0, 8));
  events.push_back(MakeEvent(0, 4, SeqEventKind::kAdmit, 3.0, 8));
  events.push_back(MakeEvent(0, 4, SeqEventKind::kPrefillChunk, 3.0, 4));
  events.push_back(MakeEvent(0, 4, SeqEventKind::kFirstToken, 6.0, 1));
  events.push_back(MakeEvent(0, 4, SeqEventKind::kDecodeStep, 7.0, 2));
  events.push_back(MakeEvent(0, 4, SeqEventKind::kPreempt, 8.0, 6));
  events.push_back(MakeEvent(0, 4, SeqEventKind::kResume, 10.0, 5));
  events.push_back(MakeEvent(0, 4, SeqEventKind::kDecodeStep, 11.0, 3));
  events.push_back(MakeEvent(0, 4, SeqEventKind::kFinish, 11.0, 3));

  const std::vector<SeqLatency> latencies = DeriveSeqLatencies(events, /*wall=*/false);
  ASSERT_EQ(latencies.size(), 1u);
  const SeqLatency& latency = latencies[0];
  EXPECT_EQ(latency.run, 0);
  EXPECT_EQ(latency.seq, 4);
  EXPECT_EQ(latency.tokens, 3);
  EXPECT_EQ(latency.preemptions, 1);
  EXPECT_EQ(latency.recomputed_tokens, 5);
  EXPECT_TRUE(latency.finished);
  EXPECT_DOUBLE_EQ(latency.queue_delay, 2.0);       // 3 - 1
  EXPECT_DOUBLE_EQ(latency.ttft, 5.0);              // 6 - 1
  EXPECT_DOUBLE_EQ(latency.tpot, 2.5);              // (11 - 6) / (3 - 1)
  EXPECT_DOUBLE_EQ(latency.preemption_stall, 2.0);  // 10 - 8
  EXPECT_DOUBLE_EQ(latency.total, 10.0);            // 11 - 1

  // The wall-plane derivation uses the microsecond stamps instead.
  const std::vector<SeqLatency> wall = DeriveSeqLatencies(events, /*wall=*/true);
  ASSERT_EQ(wall.size(), 1u);
  EXPECT_DOUBLE_EQ(wall[0].ttft, 5.0e6);
}

TEST(SeqLatencyTest, SummaryDigestsSliceByEligibility) {
  // Three sequences: one full decode, one single-token (no TPOT), one
  // never admitted (no TTFT / queue delay). TPOT and stall digests must
  // only cover eligible sequences.
  std::vector<SeqEvent> events;
  events.push_back(MakeEvent(0, 0, SeqEventKind::kEnqueue, 0.0));
  events.push_back(MakeEvent(0, 0, SeqEventKind::kAdmit, 1.0));
  events.push_back(MakeEvent(0, 0, SeqEventKind::kFirstToken, 2.0, 1));
  events.push_back(MakeEvent(0, 0, SeqEventKind::kDecodeStep, 4.0, 2));
  events.push_back(MakeEvent(0, 0, SeqEventKind::kFinish, 4.0, 2));
  events.push_back(MakeEvent(0, 1, SeqEventKind::kEnqueue, 0.0));
  events.push_back(MakeEvent(0, 1, SeqEventKind::kAdmit, 2.0));
  events.push_back(MakeEvent(0, 1, SeqEventKind::kFirstToken, 6.0, 1));
  events.push_back(MakeEvent(0, 1, SeqEventKind::kFinish, 6.0, 1));
  events.push_back(MakeEvent(0, 2, SeqEventKind::kEnqueue, 0.0));

  const SeqLatencySummary summary =
      SummarizeSeqLatencies(DeriveSeqLatencies(events, /*wall=*/false));
  EXPECT_EQ(summary.sequences, 3);
  EXPECT_EQ(summary.finished, 2);
  EXPECT_EQ(summary.preemptions, 0);
  EXPECT_EQ(summary.ttft.count, 2u);         // Sequences that emitted a token.
  EXPECT_EQ(summary.tpot.count, 1u);         // Needs >= 2 tokens.
  EXPECT_EQ(summary.queue_delay.count, 2u);  // Sequences that were admitted.
  EXPECT_EQ(summary.preemption_stall.count, 0u);
  EXPECT_DOUBLE_EQ(summary.ttft.max, 6.0);
  EXPECT_DOUBLE_EQ(summary.tpot.p50, 2.0);  // (4 - 2) / (2 - 1) for seq 0.
}

TEST(SeqLatencyTest, DigestUsesNearestRankOnSortedValues) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(static_cast<double>(i));
  }
  const LatencyDigest digest = DigestValues(std::move(values));
  EXPECT_EQ(digest.count, 100u);
  EXPECT_DOUBLE_EQ(digest.p50, 50.0);
  EXPECT_DOUBLE_EQ(digest.p90, 90.0);
  EXPECT_DOUBLE_EQ(digest.p99, 99.0);
  EXPECT_DOUBLE_EQ(digest.max, 100.0);
  EXPECT_DOUBLE_EQ(digest.mean, 50.5);
}

TEST(SeqLatencyTest, JsonlExportIsValidForRandomizedEvents) {
  // Property test: whatever the event content (any kind, negative /
  // fractional / huge timestamps), every exported line must be standalone
  // valid JSON and carry the expected keys.
  Rng rng(4242);
  std::vector<SeqEvent> events;
  const SeqEventKind kinds[] = {SeqEventKind::kEnqueue,    SeqEventKind::kAdmit,
                                SeqEventKind::kPrefillChunk, SeqEventKind::kFirstToken,
                                SeqEventKind::kDecodeStep, SeqEventKind::kPreempt,
                                SeqEventKind::kResume,     SeqEventKind::kFinish};
  for (int i = 0; i < 500; ++i) {
    SeqEvent event;
    event.run = rng.UniformInt(0, 7);
    event.seq = rng.UniformInt(-3, 1000000);
    event.kind = kinds[rng.UniformInt(0, 7)];
    event.step = rng.UniformInt(0, 100000);
    event.tokens = rng.UniformInt(-1, 1 << 20);
    event.sim_seconds = rng.Uniform(-1.0, 1e9);
    event.wall_us = rng.Uniform(0.0, 1e15);
    events.push_back(event);
  }
  const std::string jsonl = SeqEventLog::ToJsonl(events);
  std::istringstream lines(jsonl);
  size_t line_count = 0;
  for (std::string line; std::getline(lines, line); ++line_count) {
    std::string error;
    ASSERT_TRUE(JsonValidate(line, &error)) << line << ": " << error;
    EXPECT_NE(line.find("\"kind\":\""), std::string::npos);
    EXPECT_NE(line.find("\"wall_us\":"), std::string::npos);
  }
  EXPECT_EQ(line_count, events.size());
}

TEST(SeqLatencyTest, ConcurrentRecordingIsExact) {
  // TSan-relevant: many threads record into one shared log, each under its
  // own run id (the per-rank data-plane sharing pattern). No event may be
  // lost or cross-tagged.
  SeqEventLog log;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads, [&log](int) {
    const int64_t run = log.BeginRun();
    for (int i = 0; i < kPerThread; ++i) {
      SeqEvent event;
      event.run = run;
      event.seq = i;
      event.kind = i == 0 ? SeqEventKind::kEnqueue : SeqEventKind::kDecodeStep;
      event.tokens = i;
      log.RecordNow(event);
    }
  });
  EXPECT_EQ(log.size(), static_cast<size_t>(kThreads * kPerThread));
  for (int64_t run = 0; run < kThreads; ++run) {
    const std::vector<SeqEvent> events = log.SnapshotRun(run);
    ASSERT_EQ(events.size(), static_cast<size_t>(kPerThread)) << "run " << run;
    // Record order is preserved within a run.
    for (int i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(events[static_cast<size_t>(i)].seq, i) << "run " << run;
    }
  }
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_GE(log.BeginRun(), kThreads);  // Run ids keep advancing past Clear.
}

// --- Scheduler hooks ----------------------------------------------------------

KvBlockConfig TightKvConfig() {
  KvBlockConfig config;
  config.block_tokens = 2;
  config.num_blocks = 6;
  return config;
}

TEST(SeqLatencyTest, SchedulerHooksEmitOrderedLifecycleUnderPreemption) {
  // Same tight-KV drain as RolloutSchedulerTest.PreemptsYoungestAndDrains-
  // Everything, with the event log attached: every sequence's stream must
  // be well-formed (enqueue first, admit before tokens, preempts matched
  // by resumes, finish last) and the hook counters must agree with the
  // scheduler's own stats.
  KvBlockManager kv(TightKvConfig());
  std::vector<RolloutSequence> sequences(4);
  for (int64_t id = 0; id < 4; ++id) {
    sequences[static_cast<size_t>(id)].id = id;
    sequences[static_cast<size_t>(id)].prompt_tokens = 2;
    sequences[static_cast<size_t>(id)].target_new_tokens = 6;
  }
  SeqEventLog log;
  RolloutScheduler scheduler({}, &kv, &sequences);
  const int64_t run = log.BeginRun();
  scheduler.SetEventLog(&log, run);
  for (int64_t id = 0; id < 4; ++id) {
    scheduler.Enqueue(id);
  }
  double sim_now = 0.0;
  while (scheduler.HasWork()) {
    scheduler.SetSimNow(sim_now);
    const StepPlan plan = scheduler.BeginStep();
    ASSERT_FALSE(plan.empty());
    sim_now += 1.0;
    scheduler.SetSimNow(sim_now);
    scheduler.CommitStep(plan, /*eos_finished=*/{});
    ASSERT_LT(sim_now, 1000.0) << "scheduler failed to drain";
  }
  ASSERT_GT(scheduler.stats().preemptions, 0);

  int64_t preempt_events = 0;
  int64_t resume_events = 0;
  int64_t resumed_tokens = 0;
  for (int64_t id = 0; id < 4; ++id) {
    std::vector<SeqEvent> stream;
    for (const SeqEvent& event : log.SnapshotRun(run)) {
      if (event.seq == id) {
        stream.push_back(event);
      }
    }
    ASSERT_FALSE(stream.empty()) << "seq " << id;
    EXPECT_EQ(stream.front().kind, SeqEventKind::kEnqueue);
    EXPECT_EQ(stream.back().kind, SeqEventKind::kFinish);
    EXPECT_EQ(stream.back().tokens, 6);  // All six tokens generated.
    int64_t tokens_seen = 0;
    int64_t outstanding_preempts = 0;
    bool admitted = false;
    for (const SeqEvent& event : stream) {
      switch (event.kind) {
        case SeqEventKind::kAdmit:
          admitted = true;
          break;
        case SeqEventKind::kFirstToken:
        case SeqEventKind::kDecodeStep:
          EXPECT_TRUE(admitted);
          ++tokens_seen;
          EXPECT_EQ(event.tokens, tokens_seen);  // Cumulative generated count.
          break;
        case SeqEventKind::kPreempt:
          ++outstanding_preempts;
          ++preempt_events;
          break;
        case SeqEventKind::kResume:
          EXPECT_GT(outstanding_preempts, 0);
          --outstanding_preempts;
          ++resume_events;
          resumed_tokens += event.tokens;
          break;
        default:
          break;
      }
      // Sim timestamps are monotonic within a stream (SetSimNow advances).
      EXPECT_GE(event.sim_seconds, stream.front().sim_seconds);
    }
    EXPECT_EQ(outstanding_preempts, 0) << "seq " << id;
    EXPECT_EQ(tokens_seen, 6) << "seq " << id;
  }
  EXPECT_EQ(preempt_events, scheduler.stats().preemptions);
  EXPECT_EQ(resume_events, scheduler.stats().resumes);
  EXPECT_EQ(resumed_tokens, scheduler.stats().recomputed_tokens);

  // The derived summary sees the preemptions and yields usable digests.
  const SeqLatencySummary summary =
      SummarizeSeqLatencies(DeriveSeqLatencies(log.SnapshotRun(run), /*wall=*/false));
  EXPECT_EQ(summary.sequences, 4);
  EXPECT_EQ(summary.finished, 4);
  EXPECT_EQ(summary.preemptions, scheduler.stats().preemptions);
  EXPECT_EQ(summary.recomputed_tokens, scheduler.stats().recomputed_tokens);
  EXPECT_EQ(summary.ttft.count, 4u);
  EXPECT_GT(summary.preemption_stall.count, 0u);
  EXPECT_GT(summary.preemption_stall.max, 0.0);
}

// --- Engine / timing-simulator equivalence with recording on ------------------

TEST(SeqLatencyTest, RecordingDoesNotPerturbGreedyDecode) {
  // The no-op hook contract, observed end to end: the engine's greedy
  // output must be bitwise identical with and without an event log, on a
  // KV budget tight enough to preempt.
  Rng rng(977);
  PolicyNetConfig net_config;
  net_config.vocab_size = 16;
  net_config.context_window = 3;
  net_config.embed_dim = 8;
  net_config.hidden_dim = 16;
  Rng net_rng = rng.Fork(1);
  const PolicyNet net(net_config, net_rng);
  std::vector<std::vector<int64_t>> prompts;
  for (int i = 0; i < 6; ++i) {
    prompts.emplace_back(static_cast<size_t>(2 + i % 4), 3);
  }
  RolloutLimits limits;
  limits.max_new_tokens = 6;
  RolloutOptions options;
  options.block_tokens = 2;
  options.num_blocks = 7;
  options.projected_peak_admission = false;  // Optimistic: preempts.

  const RolloutEngine plain_engine(net, limits, options);
  Rng plain_rng = rng.Fork(2);
  const RolloutShardResult plain =
      plain_engine.Run(prompts, /*do_sample=*/false, /*temperature=*/1.0, plain_rng);

  SeqEventLog log;
  RolloutOptions recording = options;
  recording.event_log = &log;
  const RolloutEngine recorded_engine(net, limits, recording);
  Rng recorded_rng = rng.Fork(2);
  const RolloutShardResult recorded =
      recorded_engine.Run(prompts, /*do_sample=*/false, /*temperature=*/1.0, recorded_rng);

  EXPECT_GT(plain.stats.preemptions, 0);
  ASSERT_EQ(recorded.responses.size(), plain.responses.size());
  for (size_t i = 0; i < plain.responses.size(); ++i) {
    EXPECT_EQ(recorded.responses[i], plain.responses[i]) << "row " << i;
    ASSERT_EQ(recorded.log_probs[i].size(), plain.log_probs[i].size()) << "row " << i;
    for (size_t k = 0; k < plain.log_probs[i].size(); ++k) {
      EXPECT_EQ(recorded.log_probs[i][k], plain.log_probs[i][k]) << "row " << i;
    }
  }
  EXPECT_EQ(recorded.stats.steps, plain.stats.steps);
  EXPECT_EQ(recorded.stats.preemptions, plain.stats.preemptions);
  EXPECT_EQ(recorded.stats.resumes, plain.stats.resumes);
  EXPECT_EQ(recorded.stats.recomputed_tokens, plain.stats.recomputed_tokens);
  EXPECT_GT(log.size(), 0u);
  // Wall stamps are set on the data-plane path; sim stamps stay 0.
  for (const SeqEvent& event : log.Snapshot()) {
    EXPECT_GT(event.wall_us, 0.0);
    EXPECT_DOUBLE_EQ(event.sim_seconds, 0.0);
  }
}

TEST(SeqLatencyTest, TimingSimIsDeterministicWithAndWithoutEventSink) {
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(8));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  const std::vector<NominalSequence> sequences(64, NominalSequence{256, 256});
  const double budget = 40.0 * 16.0 * perf.KvBytesPerTokenPerGpu(gen);
  RolloutOptions plain;
  plain.mode = RolloutMode::kContinuous;
  plain.projected_peak_admission = false;  // Optimistic: preempts.
  const RolloutSimResult reference =
      SimulateContinuousGeneration(perf, gen, devices, sequences, budget, plain);

  SeqEventLog log;
  RolloutOptions recording = plain;
  recording.sim_event_log = &log;
  const RolloutSimResult recorded =
      SimulateContinuousGeneration(perf, gen, devices, sequences, budget, recording);

  EXPECT_EQ(recorded.time.total(), reference.time.total());
  EXPECT_EQ(recorded.stats.steps, reference.stats.steps);
  EXPECT_EQ(recorded.stats.preemptions, reference.stats.preemptions);
  EXPECT_GT(log.size(), 0u);

  // The latency summary is always derived (with or without an external
  // sink) and is itself deterministic.
  EXPECT_GT(reference.stats.preemptions, 0);
  EXPECT_EQ(reference.latency.sequences, 64);
  EXPECT_EQ(reference.latency.finished, 64);
  EXPECT_EQ(reference.latency.preemptions, reference.stats.preemptions);
  EXPECT_EQ(reference.latency.ttft.count, 64u);
  EXPECT_EQ(reference.latency.tpot.count, 64u);
  EXPECT_GT(reference.latency.ttft.p50, 0.0);
  EXPECT_GT(reference.latency.preemption_stall.max, 0.0);
  EXPECT_DOUBLE_EQ(recorded.latency.ttft.p50, reference.latency.ttft.p50);
  EXPECT_DOUBLE_EQ(recorded.latency.tpot.p99, reference.latency.tpot.p99);
  EXPECT_DOUBLE_EQ(recorded.latency.preemption_stall.max,
                   reference.latency.preemption_stall.max);

  // Sim-plane events carry DES timestamps; decode-step stamps advance.
  const std::vector<SeqEvent> events = log.Snapshot();
  double max_sim = 0.0;
  for (const SeqEvent& event : events) {
    max_sim = std::max(max_sim, event.sim_seconds);
  }
  EXPECT_GT(max_sim, 0.0);
}

void ExpectSameDigest(const LatencyDigest& got, const LatencyDigest& want, const char* name) {
  EXPECT_EQ(got.count, want.count) << name;
  EXPECT_EQ(got.mean, want.mean) << name;
  EXPECT_EQ(got.p50, want.p50) << name;
  EXPECT_EQ(got.p90, want.p90) << name;
  EXPECT_EQ(got.p99, want.p99) << name;
  EXPECT_EQ(got.max, want.max) << name;
}

TEST(SeqLatencyTest, SequenceStampsSummarizeExactlyLikeTheEventStream) {
  // DeriveSeqLatencies over the exported sim events is the reference: the
  // summary built from the scheduler's per-sequence stamps must equal it
  // bit for bit on a run that preempts, chunks prefill and hits the prefix
  // cache. The zero-target sequence is never enqueued, so both leave it out.
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(8));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  std::vector<NominalSequence> sequences;
  for (int64_t i = 0; i < 48; ++i) {
    sequences.push_back({128 + 32 * (i % 5), 64 + 48 * (i % 7), i % 3 == 0 ? i % 4 : -1});
  }
  sequences.push_back({64, 0, -1});
  RolloutOptions options;
  options.mode = RolloutMode::kContinuous;
  options.prefill_chunk_tokens = 256;
  options.prefix_cache = true;
  options.projected_peak_admission = false;  // Optimistic: preempts.
  SeqEventLog log;
  options.sim_event_log = &log;
  const double budget = 64.0 * 16.0 * perf.KvBytesPerTokenPerGpu(gen);
  const RolloutSimResult result =
      SimulateContinuousGeneration(perf, gen, devices, sequences, budget, options);
  ASSERT_GT(result.stats.preemptions, 0);
  ASSERT_GT(result.stats.prefill_chunks, 0);
  ASSERT_GT(result.stats.prefix_skipped_tokens, 0);

  const SeqLatencySummary want =
      SummarizeSeqLatencies(DeriveSeqLatencies(log.Snapshot(), /*wall=*/false));
  const SeqLatencySummary& got = result.latency;
  EXPECT_EQ(want.sequences, 48);
  EXPECT_GT(want.preemption_stall.count, 0u);
  EXPECT_EQ(got.sequences, want.sequences);
  EXPECT_EQ(got.finished, want.finished);
  EXPECT_EQ(got.preemptions, want.preemptions);
  EXPECT_EQ(got.recomputed_tokens, want.recomputed_tokens);
  ExpectSameDigest(got.ttft, want.ttft, "ttft");
  ExpectSameDigest(got.tpot, want.tpot, "tpot");
  ExpectSameDigest(got.queue_delay, want.queue_delay, "queue_delay");
  ExpectSameDigest(got.preemption_stall, want.preemption_stall, "preemption_stall");
}

TEST(SeqLatencyTest, LazyDecodeRowsMatchTheEveryRowPathExactly) {
  // Without a log the scheduler visits only the rows an event touches and
  // advances the rest arithmetically; with one, every row is visited for
  // its per-token event. Every simulated number must agree bit for bit on
  // a run that preempts, chunks prefill and hits the prefix cache, and so
  // must the KV append count: a visited row inside its tail block appends
  // no more than an unvisited one.
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(8));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices{0, 1};
  std::vector<NominalSequence> sequences;
  for (int64_t i = 0; i < 48; ++i) {
    sequences.push_back({100 + 37 * (i % 5), 1 + 53 * (i % 7), i % 3 == 0 ? i % 4 : -1});
  }
  RolloutOptions lazy;
  lazy.mode = RolloutMode::kContinuous;
  lazy.prefill_chunk_tokens = 192;
  lazy.prefix_cache = true;
  lazy.projected_peak_admission = false;  // Optimistic: preempts.
  SeqEventLog log;
  RolloutOptions visited = lazy;
  visited.sim_event_log = &log;
  const double budget = 48.0 * 16.0 * perf.KvBytesPerTokenPerGpu(gen);
  const RolloutSimResult got =
      SimulateContinuousGeneration(perf, gen, devices, sequences, budget, lazy);
  const RolloutSimResult want =
      SimulateContinuousGeneration(perf, gen, devices, sequences, budget, visited);
  ASSERT_GT(want.stats.preemptions, 0);
  ASSERT_GT(want.stats.prefill_chunks, 0);
  ASSERT_GT(want.stats.prefix_skipped_tokens, 0);
  EXPECT_EQ(got.time.prefill_seconds, want.time.prefill_seconds);
  EXPECT_EQ(got.time.decode_seconds, want.time.decode_seconds);
  EXPECT_EQ(got.time.comm_seconds, want.time.comm_seconds);
  EXPECT_EQ(got.max_step_seconds, want.max_step_seconds);
  EXPECT_EQ(got.stats.steps, want.stats.steps);
  EXPECT_EQ(got.stats.admissions, want.stats.admissions);
  EXPECT_EQ(got.stats.preemptions, want.stats.preemptions);
  EXPECT_EQ(got.stats.recomputed_tokens, want.stats.recomputed_tokens);
  EXPECT_EQ(got.stats.prefix_skipped_tokens, want.stats.prefix_skipped_tokens);
  EXPECT_EQ(got.stats.queue_wait_steps_total, want.stats.queue_wait_steps_total);
  EXPECT_EQ(got.stats.kv_high_water_blocks, want.stats.kv_high_water_blocks);
  EXPECT_EQ(got.stats.kv_allocations, want.stats.kv_allocations);
  EXPECT_EQ(got.stats.kv_peak_utilization, want.stats.kv_peak_utilization);
  EXPECT_EQ(got.stats.kv_appends, want.stats.kv_appends);
  EXPECT_EQ(got.latency.finished, want.latency.finished);
  EXPECT_EQ(got.latency.preemptions, want.latency.preemptions);
  ExpectSameDigest(got.latency.ttft, want.latency.ttft, "ttft");
  ExpectSameDigest(got.latency.tpot, want.latency.tpot, "tpot");
  ExpectSameDigest(got.latency.queue_delay, want.latency.queue_delay, "queue_delay");
  ExpectSameDigest(got.latency.preemption_stall, want.latency.preemption_stall,
                   "preemption_stall");
}

TEST(SeqLatencyTest, DualTraceMergesSeqEventsAsValidJson) {
  ClusterState state(ClusterSpec::WithGpus(1));
  std::vector<SeqEvent> events;
  events.push_back(MakeEvent(0, 0, SeqEventKind::kEnqueue, 0.5));
  events.push_back(MakeEvent(0, 0, SeqEventKind::kAdmit, 1.0));
  events.push_back(MakeEvent(0, 0, SeqEventKind::kFirstToken, 1.5, 1));
  events.push_back(MakeEvent(0, 0, SeqEventKind::kFinish, 2.0, 1));
  // A second run with wall-only stamps lands on its own tid/clock.
  SeqEvent wall_only = MakeEvent(1, 3, SeqEventKind::kEnqueue, 0.0);
  wall_only.wall_us = 42.0;
  events.push_back(wall_only);
  const std::string json = DualPlaneChromeJson(state, /*wall_spans=*/{}, events);
  std::string error;
  ASSERT_TRUE(JsonValidate(json, &error)) << json << ": " << error;
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("rollout sequences"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0:0\""), std::string::npos);
  // Empty event set: pid 2 group is omitted entirely, JSON stays valid.
  const std::string without = DualPlaneChromeJson(state, /*wall_spans=*/{}, {});
  ASSERT_TRUE(JsonValidate(without, &error)) << error;
  EXPECT_EQ(without.find("\"pid\":2"), std::string::npos);
}

}  // namespace
}  // namespace hybridflow
