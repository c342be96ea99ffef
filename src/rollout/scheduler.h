// Request-level continuous-batching scheduler for the generation stage.
//
// Each engine step the scheduler composes a mixed prefill+decode batch:
// it first reserves KV headroom for the running sequences' next token
// (preempting the youngest on exhaustion — vLLM's recompute-on-resume
// policy), then admits waiting sequences in policy order while the
// KvBlockManager accepts their full current context plus one token of
// decode headroom. Admission and appends go through the replica's *real*
// KvBlockManager, so capacity effects are block-granular, not analytical.
//
// Contract: every enqueued sequence must fit alone at full length
// (BlocksFor(prompt + target_new_tokens) <= num_blocks);
// otherwise it would preempt itself forever. The step loop
// (src/rollout/step_loop.h) sizes every cache accordingly.
#ifndef SRC_ROLLOUT_SCHEDULER_H_
#define SRC_ROLLOUT_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "src/kvcache/block_manager.h"
#include "src/obs/seq_events.h"
#include "src/rollout/sequence.h"

namespace hybridflow {

enum class RolloutPolicy {
  kFcfs,               // Admit in arrival order.
  kLongestPrefixFirst, // Admit the longest pending context first.
};

// Serving-surface admission orderings (src/serving/) layered over the base
// RolloutPolicy. kQueueOrder preserves the plain RLHF behavior exactly; the
// other three reorder only *which* waiting sequence is admitted next, never
// what an admitted sequence computes — greedy outputs per sequence are
// schedule-invariant, so every policy keeps the bitwise-equivalence
// contract (docs/ROLLOUT.md).
enum class AdmissionPolicy {
  kQueueOrder,    // RolloutPolicy over the waiting queue (legacy default).
  kPriority,      // Higher RolloutSequence::priority first; queue-order ties.
  kDeadline,      // Earliest ttft_deadline first (EDF); no deadline sorts last.
  kWeightedFair,  // Weighted deficit round-robin across tenants.
};

// The one configuration of the scheduler, shared by every generation
// surface: RolloutOptions (the RLHF rollout engine and its timing
// simulator) derives from it, and the serving surfaces take it as is.
struct RolloutSchedulerConfig {
  RolloutPolicy policy = RolloutPolicy::kFcfs;
  // SLO-aware admission (serving front end). kQueueOrder leaves the plain
  // RLHF path untouched.
  AdmissionPolicy admission = AdmissionPolicy::kQueueOrder;
  // Cap on concurrently running sequences; 0 = bounded by KV capacity only.
  int64_t max_running = 0;
  // Chunked prefill (vLLM-style): per-step token budget for prefill
  // compute. Contexts longer than the remaining budget enter compute in
  // chunks across consecutive steps, so a long prompt never stalls the
  // decode batch for a whole step. 0 disables chunking (each admitted
  // context prefills in one step, the pre-chunking behavior).
  //
  // Chunking also switches KV residency to *incremental*: a sequence is
  // admitted with blocks for its first chunk only (plus any prefix-cache
  // hits) and acquires the rest chunk by chunk as its prefill progresses,
  // so admission gates on the next chunk's need — not the full context —
  // raising effective admission under tight budgets. The fit-alone-at-
  // full-length progress contract is unchanged.
  int64_t prefill_chunk_tokens = 0;
  // Full-length admission reservations. When on, admission additionally
  // charges each candidate its block demand at full length (prompt +
  // target_new_tokens), discounted by prefix blocks already referenced by
  // live sequences, against the cache's total block count; a candidate whose
  // reservation does not fit next to the running set's reservations waits.
  // Physical blocks are still acquired incrementally (chunked prefill), but
  // the scheduler never over-commits beyond what the running set will need
  // at completion, so decode-time preemption churn disappears whenever
  // targets are accurate (RLHF rollouts with a known response cap, and the
  // perf plane, where targets are the simulated lengths). Off by default:
  // optimistic vLLM-style admission, which bets on early finishes and
  // preempts when the bet loses — better when targets are loose caps.
  // An empty running set always admits (the progress contract).
  bool reserve_full_length = false;
  // kWeightedFair: context tokens of credit granted per tenant visit; a
  // tenant admits its queue head only while its accumulated deficit covers
  // the head's full context, so admitted tokens track weights over time.
  int64_t fair_quantum_tokens = 256;
  // kWeightedFair: per-tenant service weights (missing tenants weigh 1.0).
  std::map<int64_t, double> tenant_weights;
  // Expire un-started sequences whose ttft_deadline is behind the SetSimNow
  // clock at the top of BeginStep — rejected rather than served late. Turn
  // off to measure how late a policy would have served them. Inert on the
  // RLHF paths: their sequences carry no deadline (ttft_deadline <= 0), so
  // nothing expires and the scan is skipped.
  bool expire_overdue = true;
  // Prefix-sharing KV cache (docs/KVCACHE.md): ref-counted blocks with a
  // content-hash index over full prompt blocks. Identical prompt prefixes
  // share blocks and skip the shared tokens' prefill compute; blocks of
  // finished sequences are retained (evictable) for later hits. Greedy
  // outputs stay bitwise-identical — sharing changes residency and
  // scheduling, never per-row compute. Data plane: prompts hash by
  // content. Sim plane: count-based group identity.
  bool prefix_cache = false;
};

// One slice of prefill compute for one sequence this step. A sequence's
// context enters compute chunk by chunk; only the chunk that reaches the
// full context (`completes`) runs the LM head and emits a token.
struct PrefillChunk {
  int64_t id = 0;
  int64_t tokens = 0;      // Context tokens entering compute this step.
  bool completes = false;  // Caught up with the full context -> emits a token.
};

// One engine step's batch composition: prefill chunks (newly admitted or
// still catching up) plus decode rows (already running). Decode rows and
// *completing* prefill chunks emit exactly one token this step; partial
// chunks emit nothing yet.
struct StepPlan {
  std::vector<PrefillChunk> prefill;
  std::vector<int64_t> decode;
  // Sum of the decode rows' kv_tokens this step: what a decode step's cost
  // depends on. The rows' own RolloutSequence::kv_tokens may lag behind
  // (see RolloutScheduler::SyncSequences).
  int64_t decode_kv_tokens = 0;

  bool empty() const { return prefill.empty() && decode.empty(); }
  int64_t rows() const {
    return static_cast<int64_t>(prefill.size() + decode.size());
  }
  // Calls fn(id) for each row that runs the LM head and emits a token this
  // step: completing prefill chunks, then decode rows.
  template <typename Fn>
  void ForEachEmitting(Fn&& fn) const {
    for (const PrefillChunk& chunk : prefill) {
      if (chunk.completes) {
        fn(chunk.id);
      }
    }
    for (int64_t id : decode) {
      fn(id);
    }
  }
  int64_t EmittingRows() const {
    int64_t emitting = 0;
    ForEachEmitting([&emitting](int64_t) { emitting += 1; });
    return emitting;
  }
};

// The scheduler's counters of one run; RolloutStats (src/rollout/engine.h)
// extends them with the step loop's KV and queueing figures.
struct RolloutSchedulerStats {
  int64_t steps = 0;
  int64_t admissions = 0;   // Includes re-admissions after preemption.
  int64_t preemptions = 0;
  int64_t max_running_batch = 0;  // Largest planned batch (rows) of any step.
  // Chunked prefill: partial (non-completing) chunks planned, and the
  // largest per-step prefill token total (bounded by prefill_chunk_tokens
  // when chunking is on).
  int64_t prefill_chunks = 0;
  int64_t max_prefill_tokens_step = 0;
  // Re-admissions after preemption, and the context tokens those resumes
  // re-prefilled (the recompute-on-resume overhead; disjoint from first
  // admissions' prefill work).
  int64_t resumes = 0;
  int64_t recomputed_tokens = 0;
  // Serving exits: client cancellations and TTFT-deadline expiries.
  int64_t cancelled = 0;
  int64_t expired = 0;
  // Prefill compute skipped over prefix-cache hits at (re)admission
  // (docs/KVCACHE.md): the structural win of sharing — group sampling
  // skips n-1 prompt prefills, resumes skip their still-cached prompt.
  int64_t prefix_skipped_tokens = 0;
};

// Single-threaded by design: one scheduler drives one replica's engine
// loop (concurrency lives across replicas, which never share a scheduler).
class RolloutScheduler {
 public:
  // `kv` and `sequences` are borrowed; ids index into *sequences.
  RolloutScheduler(const RolloutSchedulerConfig& config, KvBlockManager* kv,
                   std::vector<RolloutSequence>* sequences);

  // Adds a waiting sequence (state must be kWaiting).
  void Enqueue(int64_t id);

  // Reserves decode headroom (preempting if needed), expires overdue
  // waiting/prefilling sequences (when configured), admits waiting
  // sequences, and returns the step's batch. Aborts if no progress is
  // possible while work remains (violated fit contract) — except when
  // expiry drained all remaining work, which returns an empty plan.
  StepPlan BeginStep();

  // Terminates a non-terminal sequence from the outside: removes it from
  // the waiting queue or running set, releases its KV blocks, and marks it
  // kCancelled (or kExpired when `expired` is set). Legal in any
  // non-terminal state — waiting, mid-prefill-chunk, decoding, or requeued
  // after preemption. Must not be called between BeginStep and the matching
  // CommitStep (the plan would hold a dangling row).
  void Cancel(int64_t id, bool expired = false);

  // Completes a step: every decode row and completing prefill chunk
  // emitted one token; partial chunks only advance their prefill progress.
  // Emitting sequences in `eos_finished` (plus any that reached
  // target_new_tokens) release their blocks; the rest append their new
  // token to the KV cache, preempting victims (youngest-first, possibly
  // themselves) on exhaustion.
  //
  // Cost is O(events), not O(rows): between events a decode row only
  // gains one token per step, so the commit visits just the rows an event
  // touches (block-boundary crossers, finishers, EOS rows, prefill chunks,
  // victims), in running order. The others' generated, kv_tokens and
  // last_token_seconds advance lazily; with an event log attached every
  // token is an event and every row is visited.
  void CommitStep(const StepPlan& plan, const std::vector<int64_t>& eos_finished);

  // Brings every decode row's lagging generated, kv_tokens and
  // last_token_seconds up to date. Call before reading those fields
  // between steps; finished, cancelled and expired rows are always exact.
  void SyncSequences();

  bool HasWork() const { return !waiting_.empty() || !running_.empty(); }
  const std::deque<int64_t>& waiting() const { return waiting_; }
  const RolloutSchedulerStats& stats() const { return stats_; }
  int64_t current_step() const { return stats_.steps; }

  // Attaches a per-sequence lifecycle event sink (src/obs/seq_events.h);
  // events are tagged with `run` (from SeqEventLog::BeginRun). A null log
  // (the default) makes every recording hook a single pointer compare, so
  // the scheduler's behavior and hot-path cost are unchanged when nobody
  // is listening — the same no-op contract as the sync-contract hooks.
  // Latency accounting does not need a log: the scheduler stamps each
  // RolloutSequence's lifecycle clocks itself.
  void SetEventLog(SeqEventLog* log, int64_t run);
  // Advances the clock stamped on sequences and events. The step loop
  // sets it at every arrival injection and step end; on the RLHF data
  // plane it stays 0 (events then carry wall-clock only).
  void SetSimNow(double sim_seconds) { sim_now_ = sim_seconds; }

 private:
  RolloutSequence& seq(int64_t id);
  // Frees the victim's KV and requeues it at the front of the waiting
  // queue (its context is recomputed on resume).
  void Preempt(int64_t id);
  // Returns a synced running row's KV blocks and full-length reservation
  // and drops it from the running set (and the decode aggregates).
  void ReleaseRunning(int64_t id);
  // A decode row joins the aggregates with counters exact at tick
  // `anchor`; Sync advances them to the tick the row has reached (during
  // a commit, rows the cursor has passed are one ahead).
  void AddDecodeRow(int64_t id, int64_t anchor);
  void Sync(int64_t id);
  // (kv_tokens - anchor) mod block_tokens, constant while a row decodes:
  // its next append crosses a block boundary when it equals CrossingPhase().
  int64_t Phase(int64_t id) const;
  int64_t CrossingPhase() const;
  // Tick at which a decode row would finish (reach target_new_tokens).
  int64_t FinishTick(int64_t id) const;
  // Orders ids by admission: the running order.
  auto ByTicket() const;
  // Expires every waiting or still-prefilling sequence whose ttft_deadline
  // is strictly behind sim_now_ (first token not yet emitted).
  void ExpireOverdue();
  // Admits one waiting candidate if the KV, prefill-budget, and max_running
  // gates allow; returns false when admission must stop for this step.
  bool TryAdmit(int64_t id, StepPlan* plan, int64_t* budget);
  // Waiting queue reordered per config_.admission (all but kWeightedFair).
  std::vector<int64_t> AdmissionOrder() const;
  // Weighted deficit round-robin admission over per-tenant FIFOs.
  void AdmitWeightedFair(StepPlan* plan, int64_t* budget);
  // Fills prefill_needed_ with the blocks each mid-prefill row's residency
  // extension needs this step under the prefill budget (incremental
  // residency), in running order.
  void FillPrefillBlocksNeeded();
  // Retires or appends one row that emitted a token this step.
  void CommitEmittedToken(int64_t id, const std::vector<int64_t>& eos_finished);
  // No-op unless an event log is attached. `step` is the 0-based step
  // index the event belongs to.
  void RecordEvent(SeqEventKind kind, int64_t id, int64_t tokens, int64_t step);

  RolloutSchedulerConfig config_;
  KvBlockManager* kv_;
  std::vector<RolloutSequence>* sequences_;
  std::deque<int64_t> waiting_;
  std::vector<int64_t> running_;     // Admission order: oldest first.
  std::vector<int64_t> decoding_;    // running_'s kDecode rows, in order.
  std::vector<int64_t> prefilling_;  // running_'s kPrefill rows, in order.
  // Per id: admission ticket (running_ is sorted by it) and the tick at
  // which a decode row's counters were last exact.
  struct RowClock {
    int64_t ticket = 0;
    int64_t anchor = 0;
  };
  std::vector<RowClock> rows_;
  int64_t next_ticket_ = 0;
  int64_t ticks_ = 0;  // Completed commits.
  int64_t commit_cursor_ = -1;  // Ticket of the decode row being committed.
  double last_commit_seconds_ = 0.0;
  // Decode aggregates: sum of (kv_tokens - anchor), rows by Phase(), and
  // rows by FinishTick().
  int64_t decode_kv_base_ = 0;
  std::vector<std::vector<int64_t>> phase_rows_;
  std::multimap<int64_t, int64_t> finish_at_;
  // The current commit's touched decode rows, sorted by ticket.
  std::vector<int64_t> touched_;
  // BeginStep's per-step prefill block needs (FillPrefillBlocksNeeded),
  // kept so a step reuses its capacity.
  std::vector<int64_t> prefill_needed_;
  RolloutSchedulerStats stats_;
  SeqEventLog* event_log_ = nullptr;
  int64_t event_run_ = 0;
  double sim_now_ = 0.0;
  // Whether any enqueued sequence carries a ttft_deadline; without one
  // nothing can expire, so ExpireOverdue skips its scan (the RLHF paths).
  bool deadlines_enqueued_ = false;
  // Sum of running sequences' reserved_blocks (reserve_full_length only).
  int64_t reserved_blocks_total_ = 0;
  // kWeightedFair state: unspent per-tenant credit (context tokens) and the
  // tenant the next round-robin sweep starts from, both persisted across
  // steps so service converges on the weight ratios.
  std::map<int64_t, double> fair_deficit_;
  int64_t fair_cursor_ = 0;
};

}  // namespace hybridflow

#endif  // SRC_ROLLOUT_SCHEDULER_H_
