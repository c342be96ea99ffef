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
#include <unordered_map>
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
  // Projected-peak admission (docs/ROLLOUT.md). Off, admission is
  // optimistic (vLLM-style): a candidate needs only its first chunk's
  // blocks now, and decode growth that outruns the cache preempts the
  // youngest row — right when targets are loose caps (serving). On, as
  // RolloutOptions sets it for RLHF rollouts, targets are exact, so the
  // scheduler knows the step at which each running row finishes; it admits
  // a candidate only when the running set plus the candidate fit at every
  // future step, each row growing one token per step up to prompt + target
  // until its finish frees it (a row still prefilling holds less: its
  // prefill computes at least a token per step); prefix blocks live rows
  // already reference count once. Growth
  // then never outruns the cache: no preemption, no recompute. A rejected
  // candidate is rechecked every step: waiting moves its finish later, so
  // its need at each step ahead shrinks. An empty running set always
  // admits (the progress contract).
  bool projected_peak_admission = false;
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

// One waiting sequence at its place in admission order. The waiting set is
// kept sorted by (admission, length, number), which is the order the
// scheduler admits in: the policy's own key first, then longest context
// under kLongestPrefixFirst, then queue position.
struct WaitingEntry {
  // kPriority: -priority. kDeadline: the TTFT deadline, +inf without one
  // (EDF, deadline-free sequences last). Otherwise 0.
  double admission = 0.0;
  // kLongestPrefixFirst: -total_tokens() (kWeightedFair keeps per-tenant
  // queue order and ignores it). Otherwise 0.
  int64_t length = 0;
  // Queue position: enqueues count up from 0; a preempted victim goes to
  // the front, counting down from -1 (vLLM's requeue-at-head).
  int64_t number = 0;
  int64_t id = 0;

  bool operator<(const WaitingEntry& other) const {
    if (admission != other.admission) {
      return admission < other.admission;
    }
    if (length != other.length) {
      return length < other.length;
    }
    return number < other.number;
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
  // The step loop's work per generation: steps planned one BeginStep at a
  // time plus quiet runs settled whole (docs/ROLLOUT.md).
  int64_t visited_steps = 0;
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

  // Quiet runs (docs/ROLLOUT.md): the number of steps from now in which
  // nothing happens but one token per decode row — no admission can
  // succeed (nothing waits, or projected-peak admission rejects the head
  // candidate at each of those steps), no prefill chunk is pending, no row
  // finishes, and every block crossing fits the free pool, so nothing is
  // preempted or evicted. 0 with an event log attached, where every token
  // is an event.
  int64_t QuietSteps() const;
  // The blocks the decode rows' appends take in the step `offset` steps
  // from now (the rows whose append crosses a block boundary then).
  int64_t CrossingsAt(int64_t offset) const;
  // The decode batch a quiet run steps: its rows and their kv_tokens sum
  // in the next step (the sum grows by the row count per step).
  int64_t decode_rows() const { return static_cast<int64_t>(decoding_.size()); }
  int64_t decode_kv_tokens() const {
    return decode_kv_base_ + ticks_ * static_cast<int64_t>(decoding_.size());
  }
  // Settles `steps` quiet steps (at most QuietSteps()) at once, the last
  // committed at clock `end_seconds`: step counters, the rows' lazy clocks
  // and their block crossings as counts, exactly as that many
  // BeginStep/CommitStep pairs would leave them.
  void CommitQuietRun(int64_t steps, double end_seconds);

  // Brings every decode row's lagging generated, kv_tokens and
  // last_token_seconds up to date. Call before reading those fields
  // between steps; finished, cancelled and expired rows are always exact.
  void SyncSequences();

  bool HasWork() const { return !waiting_.empty() || !running_.empty(); }
  // The waiting set in admission order; the head is admitted next.
  const std::deque<WaitingEntry>& waiting() const { return waiting_; }
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
  // Files `id` in the waiting set at queue position `number`, or takes it
  // out and returns its position. The head and the tail cost O(1);
  // elsewhere a binary search to the entries sharing its policy key, a
  // scan among them, and a shift of the shorter side.
  void PushWaiting(int64_t id, int64_t number);
  int64_t EraseWaiting(int64_t id);
  // `id`'s waiting-set key at queue position `number`.
  WaitingEntry WaitingKey(int64_t id, int64_t number) const;
  // Returns a synced running row's KV blocks and projected peak and drops
  // it from the running set (and the decode aggregates).
  void ReleaseRunning(int64_t id);
  // A decode row joins the aggregates with counters exact at tick
  // `anchor`; Sync advances them to the tick the row has reached (during
  // a commit, rows the cursor has passed are one ahead).
  void AddDecodeRow(int64_t id, int64_t anchor);
  void Sync(int64_t id);
  // (kv_tokens - anchor) mod block_tokens, constant while a row decodes:
  // its append in the step `offset` steps from now crosses a block
  // boundary when it equals CrossingPhase(offset).
  int64_t Phase(int64_t id) const;
  int64_t CrossingPhase(int64_t offset = 0) const;
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
  // What admitting `sequence` in the step under way, with `budget` prefill
  // tokens left, takes: its prefix-cache hit, the prefill compute it skips
  // and its first chunk; and, under projected-peak admission, the tick its
  // last token would commit at (the FIFO budget serves the rest of its
  // prefill from the next step on, and its first token commits with its
  // last chunk).
  struct AdmitPlan {
    int64_t hit_tokens = 0;
    int64_t skip = 0;
    int64_t grant = 0;
    int64_t finish = 0;
  };
  AdmitPlan PlanAdmit(const RolloutSequence& sequence, int64_t budget) const;
  // Projected-peak admission. A row's growth is fixed at admission: during
  // step T before its `finish` it needs BlocksFor(peak - finish + 1 + T)
  // blocks (peak = prompt + target): one token per step up to its peak at
  // its last step, the final append counted as the preemption pass counts
  // it. That bounds a prefilling row too: at least one token of its
  // context enters compute per step until its last chunk, so it holds at
  // most its full context, plus the first token, minus one token per step
  // left. With peak - finish + block_tokens = quotient * block_tokens +
  // residue and T likewise split, the need is quotient + T's quotient +
  // [residue + T's residue >= block_tokens].
  struct Projection {
    int64_t finish = 0;
    int64_t quotient = 0;
    int64_t residue = 0;
  };
  // A step at which the running set's need may peak: the last step before
  // a running row's finish (a row's need only grows until it leaves). Its
  // `blocks`: the running rows' needs then, net of indexed blocks, plus the
  // indexed blocks whose cover is later.
  struct PeakStep {
    int64_t finish = 0;
    int64_t quotient = 0;  // finish - 1 = quotient * block_tokens + residue.
    int64_t residue = 0;
    int64_t blocks = 0;
  };
  Projection Project(const RolloutSequence& sequence, int64_t finish) const;
  PeakStep StepBefore(int64_t finish) const;
  int64_t Need(const Projection& row, const PeakStep& step) const;
  // The running set's need at the step before `finish`, summed afresh.
  int64_t BlocksBefore(int64_t finish) const;
  // Fills credit_ends_ with the cover ticks of the candidate's prefix hits
  // a cover already counts, ascending: it shares them until their covers
  // end.
  void CollectCredits(const RolloutSequence& candidate) const;
  // How many ticks from now the running set plus the candidate, projected
  // to finish at `finish`, cannot fit the cache at some step until then: 0
  // when it fits now. While the running and waiting sets, the prefix index
  // and the candidate's first chunk stay as they are, waiting d ticks only
  // moves its finish d later; each step that overflows now keeps
  // overflowing until the candidate's need there has shrunk by the excess
  // or the step has passed. The result is the latest of those ticks over
  // the overflowing steps, so the candidate cannot be admitted earlier.
  int64_t ProjectedPeakDelay(const RolloutSequence& sequence, int64_t finish) const;
  // Adds an admitted row to the peak steps (and its blocks' covers), or
  // takes a leaving one out (its covers stand until they end).
  void AddProjection(int64_t id);
  void RemoveProjection(int64_t id);
  // Stamps a running row's finish on the covers of the indexed blocks it
  // references that it has not stamped yet (admission, then each residency
  // extension that indexes more).
  void CoverIndexedBlocks(int64_t id);
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
  std::deque<WaitingEntry> waiting_;  // Sorted: admission order.
  int64_t next_back_number_ = 0;      // Queue positions of the next enqueue
  int64_t next_front_number_ = -1;    // and of the next preempted victim.
  std::vector<int64_t> running_;     // Admission order: oldest first.
  std::vector<int64_t> decoding_;    // running_'s kDecode rows, in order.
  std::vector<int64_t> prefilling_;  // running_'s kPrefill rows, in order.
  // Per id: admission ticket (running_ is sorted by it) and the tick at
  // which a decode row's counters were last exact. Under projected-peak
  // admission also the tick its last token commits at (`finish`, fixed at
  // admission; it needs blocks for every step before), and how many of its
  // indexed blocks carry its finish as their cover.
  struct RowClock {
    int64_t ticket = 0;
    int64_t anchor = 0;
    int64_t finish = 0;
    size_t covered = 0;
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
  // Projected-peak admission state: the peak steps ahead, and per indexed
  // block hash its cover — the finish of the longest-lived row projected
  // to hold it; the block counts once, for every step before its cover,
  // also after a holder leaves early (EOS, cancel) — plus how many hashes
  // each cover tick ends.
  std::vector<PeakStep> peak_steps_;  // Ascending finish; past ones are stale.
  std::unordered_map<uint64_t, int64_t> cover_;
  std::map<int64_t, int64_t> cover_ticks_;
  mutable std::vector<int64_t> credit_ends_;  // CollectCredits' output.
  // kWeightedFair state: unspent per-tenant credit (context tokens) and the
  // tenant the next round-robin sweep starts from, both persisted across
  // steps so service converges on the weight ratios.
  std::map<int64_t, double> fair_deficit_;
  int64_t fair_cursor_ = 0;
};

}  // namespace hybridflow

#endif  // SRC_ROLLOUT_SCHEDULER_H_
