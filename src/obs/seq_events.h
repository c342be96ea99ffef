// Per-sequence lifecycle event log for the continuous-batching rollout
// path, and the latency derivations built on it (TTFT / TPOT / queue delay
// / preemption stall / recompute overhead).
//
// The rollout scheduler records one SeqEvent per lifecycle transition —
// enqueue, admit, prefill-chunk, first-token, decode-step, preempt, resume,
// finish — stamped in *both* planes: `sim_seconds` is the DES clock the
// timing simulator advances (0 on the data-plane path, which has no sim
// clock), `wall_us` is WallclockTracer::NowMicros(). Recording is opt-in:
// a null SeqEventLog* on the scheduler makes every hook a no-op branch, so
// the default (Release and hot-path) cost is one pointer compare, matching
// the concurrency-contract hook discipline. Only callers construct a log
// (hflint borrowed-event-log); latency accounting does not need one, since
// the scheduler also stamps each RolloutSequence's lifecycle clocks.
//
// Events export as JSONL (one object per line, JsonValidate-clean) and
// merge into the dual-plane Chrome trace as per-sequence async spans
// (src/obs/dual_trace.h). DeriveSeqLatencies/SummarizeSeqLatencies turn an
// event stream into per-sequence latency rows and p50/p90/p99 digests;
// tools/hfstat.cc reads the JSONL artifact and prints the same breakdown
// offline.
#ifndef SRC_OBS_SEQ_EVENTS_H_
#define SRC_OBS_SEQ_EVENTS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/annotations.h"

namespace hybridflow {

enum class SeqEventKind {
  kEnqueue,       // Sequence handed to the scheduler (waiting queue).
  kAdmit,         // First admission: KV blocks allocated, prefill begins.
  kPrefixHit,     // (Re)admission shared cached prompt blocks (tokens =
                  // prefill compute skipped); precedes kAdmit/kResume.
  kPrefillChunk,  // One prefill chunk planned this step (tokens = chunk size).
  kFirstToken,    // First generated token committed (TTFT endpoint).
  kDecodeStep,    // A subsequent token committed (TPOT numerator).
  kPreempt,       // Preempted: KV freed, requeued (tokens = resident tokens lost).
  kResume,        // Re-admitted after preemption (tokens = tokens to re-prefill).
  kFinish,        // Reached target length / EOS; KV released.
  kCancel,        // Client-side cancellation; KV released (tokens = resident lost).
  kExpire,        // TTFT deadline passed before the first token; KV released.
};

// Stable lowercase-dash name used in JSONL ("prefill-chunk", ...).
const char* SeqEventKindName(SeqEventKind kind);
// Inverse of SeqEventKindName; false if `name` is not a known kind.
bool ParseSeqEventKind(const std::string& name, SeqEventKind* kind);

struct SeqEvent {
  int64_t run = 0;          // Generation-run id (SeqEventLog::BeginRun).
  int64_t seq = 0;          // RolloutSequence::id (unique within a run).
  SeqEventKind kind = SeqEventKind::kEnqueue;
  int64_t step = 0;         // Scheduler step index within the run.
  int64_t tokens = 0;       // Kind-specific token count (see enum comments).
  double sim_seconds = 0.0; // DES clock; 0 on the data plane.
  double wall_us = 0.0;     // WallclockTracer::NowMicros() at record time.
};

// Thread-safe append-only event sink. One log may be shared by concurrent
// engines (e.g. per-rank data-plane shards); each engine tags its events
// with a distinct run id from BeginRun().
class SeqEventLog {
 public:
  SeqEventLog() = default;
  SeqEventLog(const SeqEventLog&) = delete;
  SeqEventLog& operator=(const SeqEventLog&) = delete;

  // Reserves the next generation-run id (0, 1, 2, ...).
  int64_t BeginRun() { return next_run_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const SeqEvent& event);
  // Records with wall_us stamped from WallclockTracer::NowMicros().
  void RecordNow(SeqEvent event);

  std::vector<SeqEvent> Snapshot() const;
  // Events tagged with `run` only, in record order.
  std::vector<SeqEvent> SnapshotRun(int64_t run) const;
  size_t size() const;
  void Clear();

  // One JSON object per line:
  //   {"run":0,"seq":3,"kind":"admit","step":2,"tokens":14,
  //    "sim_s":0.53,"wall_us":1234.5}
  static std::string ToJsonl(const std::vector<SeqEvent>& events);
  // Writes ToJsonl(Snapshot()) to `path` (truncating); false on I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable Mutex mutex_;
  std::vector<SeqEvent> events_ HF_GUARDED_BY(mutex_);
  std::atomic<int64_t> next_run_{0};
};

// Per-sequence latency row derived from one run's event stream. All
// durations are in the chosen plane's unit: sim-seconds when derived with
// wall=false, wall-microseconds with wall=true.
struct SeqLatency {
  int64_t run = 0;
  int64_t seq = 0;
  int64_t tokens = 0;             // Generated tokens (first-token + decode-steps).
  int64_t preemptions = 0;
  int64_t recomputed_tokens = 0;  // Prefill tokens re-run after preemption.
  bool finished = false;
  double queue_delay = 0.0;       // enqueue -> first admit.
  double ttft = 0.0;              // enqueue -> first token.
  double tpot = 0.0;              // (last token - first token) / (tokens - 1).
  double preemption_stall = 0.0;  // Sum of preempt -> resume gaps.
  double total = 0.0;             // enqueue -> finish (or last event if unfinished).
};

// Groups `events` by (run, seq) and derives one SeqLatency per sequence.
// Events must be in record order within each (run, seq) group (the log
// preserves this). `wall` selects the wall_us timestamps instead of
// sim_seconds.
std::vector<SeqLatency> DeriveSeqLatencies(const std::vector<SeqEvent>& events, bool wall);

// Exact (sorted, nearest-rank) digest of one latency dimension.
struct LatencyDigest {
  uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

LatencyDigest DigestValues(std::vector<double> values);

struct SeqLatencySummary {
  int64_t sequences = 0;
  int64_t finished = 0;
  int64_t preemptions = 0;
  int64_t recomputed_tokens = 0;
  LatencyDigest ttft;
  LatencyDigest tpot;              // Over sequences with >= 2 tokens.
  LatencyDigest queue_delay;
  LatencyDigest preemption_stall;  // Over preempted sequences only.
};

SeqLatencySummary SummarizeSeqLatencies(const std::vector<SeqLatency>& latencies);

}  // namespace hybridflow

#endif  // SRC_OBS_SEQ_EVENTS_H_
