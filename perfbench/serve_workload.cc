// serve_bursty: ServingFrontend over the toy transformer PolicyNet replays a
// seeded bursty two-tenant trace, open loop on the frontend's virtual step
// clock, under deadline admission with expiry and the prefix cache on. The
// KV pool is sized below the offered load so preemptions occur. One
// replay of the whole trace is one timed unit; each request in it is one
// operation. SimulateServing then replays the same tenant mix at 7B TP2
// over a fixed ladder of rates.
#include <algorithm>
#include <cmath>
#include <memory>

#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/data/arrival_trace.h"
#include "src/nn/policy_net.h"
#include "src/obs/seq_events.h"
#include "src/serving/frontend.h"
#include "src/serving/sim.h"
#include "src/tensor/parallel.h"

namespace perfbench {

using namespace hybridflow;

namespace {

constexpr int64_t kVocab = 16;
constexpr int64_t kMaxRequests = 3000;
constexpr int64_t kPrefixTokens = 8;      // Two 4-token KV blocks.
constexpr int64_t kPrefixPool = 4;        // Distinct shared system prompts.
constexpr double kSharedPrefixShare = 0.3;
constexpr double kCancelShare = 0.1;
constexpr double kTtftSlo = 6.0;          // Interactive tenant, virtual seconds.
constexpr double kTpotSlo = 0.15;
// SimulateServing ladder (requests per second) and its backlog rule: the
// replica must finish within this many seconds of the trace horizon.
constexpr double kLadderRates[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0};
constexpr double kLadderDuration = 30.0;
constexpr double kLadderDrainSlack = 15.0;

TenantSpec Interactive(bool full_scale) {
  TenantSpec t;
  t.tenant = 0;
  t.share = 0.3;
  t.priority = 10;
  t.ttft_slo = full_scale ? 2.0 : kTtftSlo;
  t.tpot_slo = full_scale ? 0.5 : kTpotSlo;
  t.prompt_min = full_scale ? 64 : 4;
  t.prompt_max = full_scale ? 256 : 12;
  t.new_tokens_min = full_scale ? 16 : 4;
  t.new_tokens_max = full_scale ? 64 : 8;
  return t;
}

TenantSpec Batch(bool full_scale) {
  TenantSpec t;
  t.tenant = 1;
  t.share = 0.7;
  t.prompt_min = full_scale ? 256 : 8;
  t.prompt_max = full_scale ? 1024 : 24;
  t.new_tokens_min = full_scale ? 64 : 8;
  t.new_tokens_max = full_scale ? 256 : 16;
  return t;
}

ServingPolicyConfig Policy() {
  ServingPolicyConfig policy;
  policy.admission = AdmissionPolicy::kDeadline;
  policy.expire_overdue = true;
  policy.prefix_cache = true;
  return policy;
}

// The seeded request list of one run: a bursty two-tenant arrival trace, a
// share of prompts behind one of a few common prefixes, and a share of
// requests the client cancels after some streamed tokens.
std::vector<ServingRequest> MakeRequests(uint64_t seed) {
  ArrivalTraceConfig config;
  config.shape = TraceShape::kBursty;
  config.rate = 5.0;
  config.duration = 1e6;
  config.max_requests = kMaxRequests;
  config.tenants = {Interactive(false), Batch(false)};
  std::vector<ServingRequest> requests =
      RequestsFromTrace(GenerateArrivalTrace(config, seed), kVocab, seed ^ 0x5E7EULL);
  Rng rng(seed ^ 0xB0B5ULL);
  std::vector<std::vector<int64_t>> prefixes(kPrefixPool);
  for (std::vector<int64_t>& prefix : prefixes) {
    for (int64_t i = 0; i < kPrefixTokens; ++i) {
      prefix.push_back(rng.UniformInt(0, kVocab - 2));
    }
  }
  for (ServingRequest& request : requests) {
    if (rng.Uniform(0.0, 1.0) < kSharedPrefixShare) {
      const std::vector<int64_t>& prefix =
          prefixes[static_cast<size_t>(rng.UniformInt(0, kPrefixPool - 1))];
      request.prompt.insert(request.prompt.begin(), prefix.begin(), prefix.end());
    }
    if (rng.Uniform(0.0, 1.0) < kCancelShare && request.max_new_tokens > 1) {
      request.cancel_after_tokens = rng.UniformInt(1, request.max_new_tokens - 1);
    }
  }
  return requests;
}

PolicyNet MakeNet(uint64_t seed) {
  PolicyNetConfig config;
  config.arch = PolicyArch::kTransformer;
  config.vocab_size = kVocab;
  config.context_window = 4;
  config.embed_dim = 16;
  config.hidden_dim = 32;
  config.num_layers = 2;
  Rng rng(seed ^ 0x4E7ULL);
  return PolicyNet(config, rng);
}

ServingFrontendConfig FrontendConfig(SeqEventLog* events) {
  ServingFrontendConfig config;
  config.scheduler = Policy();
  config.block_tokens = 4;
  config.num_blocks = 48;  // Below peak demand: bursts preempt.
  config.prefix_cache = true;
  config.seconds_per_step = 0.1;
  config.event_log = events;
  return config;
}

struct Replay {
  double wall_s = 0.0;
  int64_t tokens = 0;      // Streamed to the client callback.
  int64_t events = 0;      // Lifecycle events recorded (traced replays).
  ServingResult result;
};

// One replay of the whole trace, timed plain or through `traced` (which
// also attaches a lifecycle event sink).
Replay RunReplay(const PolicyNet& net, const std::vector<ServingRequest>& requests,
                 uint64_t seed, TracedOps* traced) {
  SeqEventLog events;
  ServingFrontend frontend(net, FrontendConfig(traced != nullptr ? &events : nullptr),
                           /*kv_ranks=*/1);
  Replay replay;
  Rng rng(seed);
  const StreamCallback on_token = [&replay](const StreamDelta&) {
    ++replay.tokens;
    return true;
  };
  const auto call = [&] {
    replay.result = frontend.Serve(requests, /*do_sample=*/false, 1.0, rng, on_token);
  };
  if (traced != nullptr) {
    replay.wall_s = traced->Run(call);
  } else {
    const double start = NowSeconds();
    call();
    replay.wall_s = NowSeconds() - start;
  }
  replay.events = static_cast<int64_t>(events.size());
  return replay;
}

// Per-request checks against the first replay (greedy decoding: every
// replay must stream the identical responses). Returns failed requests.
int64_t CheckReplay(const std::vector<ServingRequest>& requests, const Replay& replay,
                    const Replay& reference, BenchResult* out) {
  const std::vector<RequestRecord>& records = replay.result.records;
  if (records.size() != requests.size()) {
    out->Fail("record count mismatch");
    return static_cast<int64_t>(requests.size());
  }
  if (replay.result.kv_leaked_blocks != 0) {
    out->Fail(Fmt("%lld KV blocks leaked", static_cast<long long>(replay.result.kv_leaked_blocks)));
    return static_cast<int64_t>(records.size());
  }
  int64_t failed = 0;
  int64_t streamed = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const RequestRecord& r = records[i];
    const ServingRequest& q = requests[i];
    streamed += r.tokens;
    bool ok = static_cast<int64_t>(r.response.size()) == r.tokens;
    switch (r.outcome) {
      case RequestOutcome::kExpired:
        ok = false;
        break;
      case RequestOutcome::kFinished:
        ok = ok && r.tokens == q.max_new_tokens;
        break;
      case RequestOutcome::kCancelled:
        ok = ok && q.cancel_after_tokens > 0 && r.tokens >= q.cancel_after_tokens &&
             r.tokens <= q.max_new_tokens;
        break;
    }
    const RequestRecord& first = reference.result.records[i];
    ok = ok && r.outcome == first.outcome && r.response == first.response &&
         r.log_probs == first.log_probs;
    failed += ok ? 0 : 1;
  }
  if (streamed != replay.tokens) {
    out->Fail("streamed-token count disagrees with the records");
  }
  if (failed > 0) {
    out->Fail(Fmt("%lld request(s) failed (expired, wrong length or nondeterministic)",
                  static_cast<long long>(failed)));
  }
  return failed;
}

// Interactive-tenant TTFT p99 on the virtual clock; an expired request
// counts with the instant it was dropped, so it misses the SLO.
double InteractiveTtftP99(const std::vector<RequestRecord>& records) {
  std::vector<double> ttft;
  for (const RequestRecord& r : records) {
    if (r.tenant != 0) {
      continue;
    }
    if (r.outcome == RequestOutcome::kExpired) {
      ttft.push_back(r.end_time - r.arrival);
    } else if (r.tokens > 0) {
      ttft.push_back(r.ttft);
    }
  }
  return Percentile(ttft, 0.99);
}

// The SimulateServing ladder: highest rate whose interactive p99 TTFT
// (expiries counted as misses) meets the SLO and whose backlog drains.
double ModeledMaxRps(uint64_t seed, BenchResult* out) {
  const PerfModel perf(ModelSpec::Llama7B(), ClusterSpec::WithGpus(16));
  const GenParallelConfig gen{1, 2};
  const std::vector<DeviceId> devices = {0, 1};
  const double kv_budget = 4096.0 * perf.KvBytesPerTokenPerGpu(gen);
  const TenantSpec interactive = Interactive(true);
  double best = 0.0;
  for (double rate : kLadderRates) {
    ArrivalTraceConfig config;
    config.shape = TraceShape::kBursty;
    config.rate = rate;
    config.duration = kLadderDuration;
    config.tenants = {interactive, Batch(true)};
    std::vector<ArrivalRecord> trace = GenerateArrivalTrace(config, seed);
    Rng rng(seed ^ 0xB0B5ULL);
    for (ArrivalRecord& record : trace) {
      if (rng.Uniform(0.0, 1.0) < kSharedPrefixShare) {
        record.prompt_group = rng.UniformInt(0, kPrefixPool - 1);
      }
    }
    const ServingSimResult sim = SimulateServing(perf, gen, devices, trace, kv_budget, Policy());
    const double p99 = InteractiveTtftP99(sim.records);
    const bool drained = sim.sim_seconds <= kLadderDuration + kLadderDrainSlack;
    const bool meets = p99 <= interactive.ttft_slo && drained && sim.kv_leaked_blocks == 0;
    out->Note(Fmt("  ladder %5.1f req/s: %zu reqs, interactive ttft p99 %.3f s, makespan "
                  "%.1f s, %lld expired -> %s",
                  rate, trace.size(), p99, sim.sim_seconds,
                  static_cast<long long>(sim.report.expired), meets ? "meets" : "misses"));
    if (meets) {
      best = rate;
    }
  }
  return best;
}

void ReportReplay(const Replay& replay, BenchResult* out) {
  const ServingResult& r = replay.result;
  const RolloutSchedulerStats& stats = r.scheduler_stats;
  out->metrics["serving.steps"] = static_cast<double>(stats.steps);
  out->metrics["serving.preemptions"] = static_cast<double>(stats.preemptions);
  out->metrics["serving.expired"] = static_cast<double>(stats.expired);
  out->metrics["serving.cancelled"] = static_cast<double>(stats.cancelled);
  out->metrics["kvcache.prefix_hits"] = static_cast<double>(stats.prefix_skipped_tokens);
  out->metrics["serve_ttft_p99_virtual_s"] = InteractiveTtftP99(r.records);
  out->metrics["serve_slo_attainment"] =
      static_cast<double>(r.report.slo_attained) / static_cast<double>(r.report.requests);
  out->Note(Fmt("replay: %lld requests, %lld tokens, %lld steps, %lld preemptions, "
                "%lld cancelled, %lld expired, %lld prefix-skipped tokens, KV high water %lld",
                static_cast<long long>(r.report.requests), static_cast<long long>(replay.tokens),
                static_cast<long long>(stats.steps),
                static_cast<long long>(stats.preemptions),
                static_cast<long long>(stats.cancelled),
                static_cast<long long>(stats.expired),
                static_cast<long long>(stats.prefix_skipped_tokens),
                static_cast<long long>(r.kv_high_water_blocks)));
  out->Note(Fmt("serve_ttft_p99_virtual_s %.3f s (virtual clock, interactive tenant); "
                "serve_slo_attainment %.4f",
                out->metrics["serve_ttft_p99_virtual_s"], out->metrics["serve_slo_attainment"]));
}

}  // namespace

BenchResult RunServeBursty(const BenchArgs& args) {
  SetTensorThreads(1);  // Pinned, as on ppo_dataplane.
  BenchResult out;
  const double run_start = NowSeconds();
  std::vector<ServingRequest> requests;
  std::unique_ptr<PolicyNet> net;
  std::vector<ServingRequest> scratch_requests;
  std::unique_ptr<PolicyNet> scratch_net;
  const auto build = [&] {
    scratch_requests = MakeRequests(args.seed);
    scratch_net = std::make_unique<PolicyNet>(MakeNet(args.seed));
  };
  std::unique_ptr<SetupTimer> setup;
  if (args.trace) {
    build();
  } else {
    setup = std::make_unique<SetupTimer>(
        [&] {
          scratch_requests.clear();
          scratch_net.reset();
        },
        build);
    setup->Sample(0.0);
  }
  requests = std::move(scratch_requests);  // The last up-front build is measured.
  net = std::move(scratch_net);

  // Warm-up replay; every later replay must reproduce its responses.
  const Replay reference = RunReplay(*net, requests, args.seed, nullptr);
  const auto account = [&](const Replay& replay) {
    out.attempted += static_cast<int64_t>(requests.size());
    out.failed += CheckReplay(requests, replay, reference, &out);
  };
  account(reference);
  ReportReplay(reference, &out);

  // Open loop on the virtual clock; replays back to back in wall time. A
  // traced run alternates untraced and traced replays.
  std::unique_ptr<TracedOps> traced = args.trace ? std::make_unique<TracedOps>() : nullptr;
  std::vector<double> walls;
  double timed = 0.0;
  double events = 0.0;
  while (timed < args.seconds || walls.size() < 3) {
    const Replay replay = RunReplay(*net, requests, args.seed, nullptr);
    account(replay);
    walls.push_back(replay.wall_s);
    timed += replay.wall_s;
    if (setup != nullptr) {
      setup->Sample(NowSeconds() - run_start);
    }
    if (traced != nullptr) {
      const Replay traced_replay = RunReplay(*net, requests, args.seed, traced.get());
      account(traced_replay);
      timed += traced_replay.wall_s;
      events += static_cast<double>(traced_replay.events);
    }
  }

  const double tokens = static_cast<double>(reference.tokens);
  for (double wall : walls) {
    out.samples["wall_tokens_per_s"].push_back(tokens / wall);
  }
  const double median_s = Median(walls);
  out.metrics["serve_tokens_per_s"] = tokens / median_s;
  out.metrics["serving.replay_ms"] = 1000.0 * median_s;
  out.Note(Fmt("%zu timed replays: wall median %.4f s (p10 %.4f, p90 %.4f); "
               "serve_tokens_per_s %.1f tok/s (wall clock)",
               walls.size(), median_s, Percentile(walls, 0.1), Percentile(walls, 0.9),
               out.metrics["serve_tokens_per_s"]));

  if (setup != nullptr) {
    out.samples["setup_s"] = setup->seconds();
    out.Note(Fmt("setup_s %.6f s (median of %zu builds spread over the run)",
                 Median(setup->seconds()), setup->seconds().size()));
    return out;
  }

  const double ladder_start = NowSeconds();
  out.metrics["modeled_serve_max_rps"] = ModeledMaxRps(args.seed, &out);
  out.metrics["serving.sim_ladder_ms"] = 1000.0 * (NowSeconds() - ladder_start);
  out.Note(Fmt("modeled_serve_max_rps %.1f req/s (modeled A100 clock, 7B TP2)",
               out.metrics["modeled_serve_max_rps"]));
  traced->Report(walls, &out);
  out.Note(Fmt("%.0f serving lifecycle events per traced replay", events / traced->operations()));
  return out;
}

}  // namespace perfbench
