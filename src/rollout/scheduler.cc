#include "src/rollout/scheduler.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>

#include "src/common/check.h"

namespace hybridflow {
namespace {

// Decode headroom demanded beyond the current context when admitting a
// sequence: room for its first generated token.
constexpr int64_t kAdmitReserveTokens = 1;

}  // namespace

RolloutScheduler::RolloutScheduler(const RolloutSchedulerConfig& config, KvBlockManager* kv,
                                   std::vector<RolloutSequence>* sequences)
    : config_(config), kv_(kv), sequences_(sequences) {
  HF_CHECK(kv_ != nullptr);
  HF_CHECK(sequences_ != nullptr);
  HF_CHECK_GE(config_.max_running, 0);
  HF_CHECK_GE(config_.prefill_chunk_tokens, 0);
  HF_CHECK_GT(config_.fair_quantum_tokens, 0);
  phase_rows_.resize(static_cast<size_t>(kv_->config().block_tokens));
}

RolloutSequence& RolloutScheduler::seq(int64_t id) {
  HF_CHECK_GE(id, 0);
  HF_CHECK_LT(static_cast<size_t>(id), sequences_->size());
  return (*sequences_)[static_cast<size_t>(id)];
}

void RolloutScheduler::SetEventLog(SeqEventLog* log, int64_t run) {
  event_log_ = log;
  event_run_ = run;
}

void RolloutScheduler::RecordEvent(SeqEventKind kind, int64_t id, int64_t tokens, int64_t step) {
  if (event_log_ == nullptr) {
    return;  // Recording disabled: the hook costs one pointer compare.
  }
  SeqEvent event;
  event.run = event_run_;
  event.seq = id;
  event.kind = kind;
  event.step = step;
  event.tokens = tokens;
  event.sim_seconds = sim_now_;
  event_log_->RecordNow(event);
}

void RolloutScheduler::Enqueue(int64_t id) {
  RolloutSequence& sequence = seq(id);
  HF_CHECK(sequence.state == SequenceState::kWaiting);
  rows_.resize(std::max(rows_.size(), sequences_->size()));  // The vector may have grown.
  sequence.enqueue_step = stats_.steps;
  sequence.enqueue_seconds = sim_now_;
  deadlines_enqueued_ = deadlines_enqueued_ || sequence.ttft_deadline > 0.0;
  PushWaiting(id, next_back_number_++);
  RecordEvent(SeqEventKind::kEnqueue, id, sequence.total_tokens(), stats_.steps);
}

void RolloutScheduler::ReleaseRunning(int64_t id) {
  RolloutSequence& sequence = seq(id);
  if (config_.projected_peak_admission) {
    RemoveProjection(id);
  }
  kv_->FreeSequence(id);
  const auto erase = [id](std::vector<int64_t>& rows) {
    auto it = std::find(rows.rbegin(), rows.rend(), id);
    HF_CHECK(it != rows.rend());
    rows.erase(std::next(it).base());
  };
  erase(running_);
  if (sequence.state == SequenceState::kPrefill) {
    erase(prefilling_);
    return;
  }
  erase(decoding_);
  erase(phase_rows_[static_cast<size_t>(Phase(id))]);
  auto [begin, end] = finish_at_.equal_range(FinishTick(id));
  finish_at_.erase(std::find_if(begin, end, [id](const auto& entry) { return entry.second == id; }));
  decode_kv_base_ -= sequence.kv_tokens - rows_[static_cast<size_t>(id)].anchor;
}

auto RolloutScheduler::ByTicket() const {
  return [this](int64_t a, int64_t b) {
    return rows_[static_cast<size_t>(a)].ticket < rows_[static_cast<size_t>(b)].ticket;
  };
}

void RolloutScheduler::AddDecodeRow(int64_t id, int64_t anchor) {
  RowClock& row = rows_[static_cast<size_t>(id)];
  row.anchor = anchor;
  decoding_.insert(std::upper_bound(decoding_.begin(), decoding_.end(), id, ByTicket()), id);
  phase_rows_[static_cast<size_t>(Phase(id))].push_back(id);
  finish_at_.emplace(FinishTick(id), id);
  decode_kv_base_ += seq(id).kv_tokens - anchor;
}

int64_t RolloutScheduler::Phase(int64_t id) const {
  const int64_t block_tokens = static_cast<int64_t>(phase_rows_.size());
  const int64_t offset = (*sequences_)[static_cast<size_t>(id)].kv_tokens -
                         rows_[static_cast<size_t>(id)].anchor;
  return (offset % block_tokens + block_tokens) % block_tokens;
}

int64_t RolloutScheduler::CrossingPhase(int64_t offset) const {
  const int64_t block_tokens = static_cast<int64_t>(phase_rows_.size());
  return (block_tokens - (ticks_ + offset) % block_tokens) % block_tokens;
}

int64_t RolloutScheduler::CrossingsAt(int64_t offset) const {
  return static_cast<int64_t>(phase_rows_[static_cast<size_t>(CrossingPhase(offset))].size());
}

int64_t RolloutScheduler::QuietSteps() const {
  if (event_log_ != nullptr || !prefilling_.empty() || decoding_.empty()) {
    return 0;
  }
  // No row finishes: the earliest finish commits at its FinishTick.
  int64_t steps = finish_at_.begin()->first - ticks_ - 1;
  // No admission can succeed: nothing waits, or projected-peak admission
  // rejects the head candidate at every step of the run. The run keeps the
  // running and waiting sets, the prefix index and the whole prefill budget
  // (nothing prefills), so the rejection holds for ProjectedPeakDelay's
  // ticks; no waiting sequence may expire meanwhile.
  if (!waiting_.empty()) {
    if (!config_.projected_peak_admission ||
        config_.admission == AdmissionPolicy::kWeightedFair ||
        (deadlines_enqueued_ && config_.expire_overdue)) {
      return 0;
    }
    if (config_.max_running == 0 ||
        static_cast<int64_t>(running_.size()) < config_.max_running) {
      const RolloutSequence& candidate =
          (*sequences_)[static_cast<size_t>(waiting_.front().id)];
      const int64_t budget = config_.prefill_chunk_tokens > 0
                                 ? config_.prefill_chunk_tokens
                                 : std::numeric_limits<int64_t>::max();
      CollectCredits(candidate);
      steps = std::min(steps, ProjectedPeakDelay(candidate, PlanAdmit(candidate, budget).finish));
    }
  }
  // Every crossing fits the free pool: each step's preemption pass passes
  // and no append evicts a retained prefix block. Each row crosses once
  // per block_tokens steps, so whole cycles take a row count each.
  const int64_t block_tokens = static_cast<int64_t>(phase_rows_.size());
  const int64_t rows = static_cast<int64_t>(decoding_.size());
  int64_t free = kv_->free_blocks();
  const int64_t cycles = std::min(steps / block_tokens, free / rows);
  int64_t quiet = cycles * block_tokens;
  free -= cycles * rows;
  for (; quiet < steps && CrossingsAt(quiet) <= free; ++quiet) {
    free -= CrossingsAt(quiet);
  }
  return quiet;
}

void RolloutScheduler::CommitQuietRun(int64_t steps, double end_seconds) {
  HF_CHECK_GT(steps, 0);
  HF_CHECK_LE(steps, QuietSteps());
  stats_.steps += steps;
  stats_.visited_steps += 1;
  stats_.max_running_batch =
      std::max(stats_.max_running_batch, static_cast<int64_t>(decoding_.size()));
  // Each boundary bucket the run reaches crossed once per visit; its rows
  // catch up to the run's end in one append each. The rest only gained
  // tokens inside their tail block and stay lazy.
  const int64_t end = ticks_ + steps;
  const int64_t buckets = std::min<int64_t>(steps, static_cast<int64_t>(phase_rows_.size()));
  for (int64_t offset = 0; offset < buckets; ++offset) {
    for (int64_t id : phase_rows_[static_cast<size_t>(CrossingPhase(offset))]) {
      RolloutSequence& sequence = seq(id);
      RowClock& row = rows_[static_cast<size_t>(id)];
      const int64_t lag = end - row.anchor;
      sequence.generated += lag;
      sequence.kv_tokens += lag;
      sequence.last_token_seconds = end_seconds;
      row.anchor = end;
      kv_->AppendRun(id, sequence.kv_tokens - kv_->SequenceTokens(id));
    }
  }
  ticks_ = end;
  last_commit_seconds_ = end_seconds;
  sim_now_ = end_seconds;
}

int64_t RolloutScheduler::FinishTick(int64_t id) const {
  const RolloutSequence& sequence = (*sequences_)[static_cast<size_t>(id)];
  return rows_[static_cast<size_t>(id)].anchor + sequence.remaining_tokens();
}

void RolloutScheduler::Sync(int64_t id) {
  RolloutSequence& sequence = seq(id);
  RowClock& row = rows_[static_cast<size_t>(id)];
  if (sequence.state != SequenceState::kDecode || row.anchor > ticks_) {
    return;  // Not lagging: not decoding, or already committed this step.
  }
  const bool passed = row.ticket < commit_cursor_;
  const int64_t lag = ticks_ + (passed ? 1 : 0) - row.anchor;
  if (lag > 0) {
    sequence.generated += lag;
    sequence.kv_tokens += lag;
    sequence.last_token_seconds = passed ? sim_now_ : last_commit_seconds_;
    row.anchor += lag;
  }
}

void RolloutScheduler::SyncSequences() {
  for (int64_t id : decoding_) {
    Sync(id);
  }
}

void RolloutScheduler::Preempt(int64_t id) {
  RolloutSequence& sequence = seq(id);
  HF_CHECK(sequence.state == SequenceState::kPrefill ||
           sequence.state == SequenceState::kDecode);
  Sync(id);
  RecordEvent(SeqEventKind::kPreempt, id, sequence.kv_tokens, stats_.steps - 1);
  ReleaseRunning(id);
  sequence.kv_tokens = 0;
  sequence.prefill_computed = 0;
  sequence.state = SequenceState::kPreempted;
  sequence.preemptions += 1;
  sequence.preempted_seconds = sim_now_;
  stats_.preemptions += 1;
  // Recompute-on-resume: the victim goes to the *front* of the waiting
  // queue (vLLM semantics) so preemption reorders, never starves.
  sequence.state = SequenceState::kWaiting;
  PushWaiting(id, next_front_number_--);
}

WaitingEntry RolloutScheduler::WaitingKey(int64_t id, int64_t number) const {
  const RolloutSequence& sequence = (*sequences_)[static_cast<size_t>(id)];
  WaitingEntry entry;
  entry.id = id;
  entry.number = number;
  switch (config_.admission) {
    case AdmissionPolicy::kQueueOrder:
      break;
    case AdmissionPolicy::kWeightedFair:
      return entry;  // Per-tenant queue order (AdmitWeightedFair).
    case AdmissionPolicy::kPriority:
      entry.admission = -static_cast<double>(sequence.priority);
      break;
    case AdmissionPolicy::kDeadline:
      entry.admission = sequence.ttft_deadline > 0.0 ? sequence.ttft_deadline
                                                     : std::numeric_limits<double>::infinity();
      break;
  }
  if (config_.policy == RolloutPolicy::kLongestPrefixFirst) {
    entry.length = -sequence.total_tokens();
  }
  return entry;
}

void RolloutScheduler::PushWaiting(int64_t id, int64_t number) {
  const WaitingEntry entry = WaitingKey(id, number);
  if (waiting_.empty() || !(entry < waiting_.back())) {
    waiting_.push_back(entry);
  } else if (entry < waiting_.front()) {
    waiting_.push_front(entry);
  } else {
    waiting_.insert(std::upper_bound(waiting_.begin(), waiting_.end(), entry), entry);
  }
}

int64_t RolloutScheduler::EraseWaiting(int64_t id) {
  HF_CHECK(!waiting_.empty());
  auto it = waiting_.begin();
  if (it->id != id) {
    // Its entry sits among those sharing its policy key, in queue order.
    it = std::lower_bound(waiting_.begin(), waiting_.end(),
                          WaitingKey(id, std::numeric_limits<int64_t>::min()));
    it = std::find_if(it, waiting_.end(), [id](const WaitingEntry& entry) {
      return entry.id == id;
    });
    HF_CHECK(it != waiting_.end());
  }
  const int64_t number = it->number;
  waiting_.erase(it);
  return number;
}

void RolloutScheduler::Cancel(int64_t id, bool expired) {
  RolloutSequence& sequence = seq(id);
  HF_CHECK_MSG(sequence.state == SequenceState::kWaiting ||
                   sequence.state == SequenceState::kPrefill ||
                   sequence.state == SequenceState::kDecode,
               "Cancel on a sequence that is not waiting or running");
  const bool resident = sequence.state == SequenceState::kPrefill ||
                        sequence.state == SequenceState::kDecode;
  Sync(id);
  RecordEvent(expired ? SeqEventKind::kExpire : SeqEventKind::kCancel, id, sequence.kv_tokens,
              std::max<int64_t>(stats_.steps - 1, 0));
  if (resident) {
    ReleaseRunning(id);
  } else {
    EraseWaiting(id);
  }
  sequence.kv_tokens = 0;
  sequence.prefill_computed = 0;
  sequence.state = expired ? SequenceState::kExpired : SequenceState::kCancelled;
  if (expired) {
    stats_.expired += 1;
  } else {
    stats_.cancelled += 1;
  }
}

void RolloutScheduler::ExpireOverdue() {
  if (!config_.expire_overdue || !deadlines_enqueued_) {
    return;
  }
  // A sequence is overdue when its first token has not been emitted by its
  // TTFT deadline; rows already streaming (generated > 0, including ones
  // sitting preempted in the waiting queue) met their deadline and run on.
  std::vector<int64_t> overdue;
  const auto collect = [this, &overdue](int64_t id) {
    const RolloutSequence& sequence = (*sequences_)[static_cast<size_t>(id)];
    if (sequence.ttft_deadline > 0.0 && sequence.generated == 0 &&
        sim_now_ > sequence.ttft_deadline) {
      overdue.push_back(id);
    }
  };
  for (const WaitingEntry& entry : waiting_) {
    collect(entry.id);
  }
  std::for_each(running_.begin(), running_.end(), collect);
  for (int64_t id : overdue) {
    Cancel(id, /*expired=*/true);
  }
}

void RolloutScheduler::FillPrefillBlocksNeeded() {
  // Mirrors BeginStep's plan-building loop: same running order, same
  // budget accounting, so the preemption pass reserves exactly the blocks
  // the plan will then take.
  int64_t budget = config_.prefill_chunk_tokens > 0 ? config_.prefill_chunk_tokens
                                                    : std::numeric_limits<int64_t>::max();
  prefill_needed_.clear();
  for (int64_t id : prefilling_) {
    const RolloutSequence& sequence = (*sequences_)[static_cast<size_t>(id)];
    // Its next chunk must extend KV residency to cover the tokens it
    // computes; a row the budget no longer reaches idles and needs nothing.
    const int64_t grant =
        std::min(budget, sequence.total_tokens() - sequence.prefill_computed);
    budget -= std::max<int64_t>(grant, 0);
    const int64_t resident_target =
        std::max(sequence.kv_tokens, sequence.prefill_computed + grant);
    prefill_needed_.push_back(grant <= 0 ? 0
                                         : kv_->BlocksFor(resident_target) -
                                               kv_->BlocksFor(sequence.kv_tokens));
  }
}

bool RolloutScheduler::TryAdmit(int64_t id, StepPlan* plan, int64_t* budget) {
  if (*budget <= 0) {
    return false;  // No prefill compute left this step (chunked prefill).
  }
  if (config_.max_running > 0 &&
      static_cast<int64_t>(running_.size()) >= config_.max_running) {
    return false;
  }
  RolloutSequence& sequence = seq(id);
  const int64_t total = sequence.total_tokens();
  const int64_t reserve =
      std::min(kAdmitReserveTokens, std::max<int64_t>(sequence.remaining_tokens() - 1, 0));
  const auto [hit_tokens, skip, grant, finish] = PlanAdmit(sequence, *budget);
  RowClock& row = rows_[static_cast<size_t>(id)];
  if (config_.projected_peak_admission) {
    row.finish = finish;
    CollectCredits(sequence);
    if (!running_.empty() && ProjectedPeakDelay(sequence, row.finish) > 0) {
      return false;
    }
  }
  // Incremental residency (chunked prefill only): admit with blocks for
  // the first chunk, not the full context; later chunks extend in
  // BeginStep phase 2. Without chunking, residency is the full context at
  // admission, exactly as before.
  const int64_t resident_target =
      config_.prefill_chunk_tokens > 0 ? std::max(hit_tokens, skip + grant) : total;
  if (!kv_->CanAdmitShared(resident_target, reserve, sequence.block_hashes)) {
    return false;
  }
  HF_CHECK(kv_->AddSequenceShared(id, resident_target, sequence.block_hashes));
  sequence.kv_tokens = kv_->SequenceTokens(id);
  sequence.prefill_computed = skip;
  sequence.prefix_skipped_tokens = skip;
  sequence.state = SequenceState::kPrefill;
  stats_.prefix_skipped_tokens += skip;
  if (skip > 0) {
    RecordEvent(SeqEventKind::kPrefixHit, id, skip, stats_.steps - 1);
  }
  if (sequence.first_admit_step < 0) {
    sequence.first_admit_step = stats_.steps - 1;
    sequence.first_admit_seconds = sim_now_;
    RecordEvent(SeqEventKind::kAdmit, id, total, stats_.steps - 1);
  } else {
    // Recompute-on-resume: the current context re-enters prefill, minus
    // any prompt prefix still held by the cache (the victim's own freed
    // blocks are retained evictable, so resumes often hit their prompt).
    stats_.resumes += 1;
    stats_.recomputed_tokens += total - skip;
    sequence.recomputed_tokens += total - skip;
    sequence.preemption_stall_seconds += sim_now_ - sequence.preempted_seconds;
    RecordEvent(SeqEventKind::kResume, id, total - skip, stats_.steps - 1);
  }
  stats_.admissions += 1;
  row.ticket = next_ticket_++;
  running_.push_back(id);
  prefilling_.push_back(id);
  if (config_.projected_peak_admission) {
    AddProjection(id);
  }
  *budget -= grant;
  plan->prefill.push_back({id, grant, skip + grant == total});
  EraseWaiting(id);
  return true;
}

RolloutScheduler::AdmitPlan RolloutScheduler::PlanAdmit(const RolloutSequence& sequence,
                                                       int64_t budget) const {
  AdmitPlan plan;
  const int64_t total = sequence.total_tokens();
  // Prefix-cache probe: leading prompt blocks already materialized are
  // shared instead of allocated, and their prefill compute is skipped —
  // capped at total-1 so the completing chunk always computes at least the
  // last context token (its logits emit the first response token).
  plan.hit_tokens = std::min(kv_->PrefixHitTokens(sequence.block_hashes), total);
  plan.skip = std::min(plan.hit_tokens, std::max<int64_t>(total - 1, 0));
  plan.grant = std::min(budget, total - plan.skip);
  // Budget is left, so every row ahead got its whole chunk this step: the
  // prefill budget serves this row's rest from the next step on, and its
  // first token commits with its last chunk.
  const int64_t chunk = config_.prefill_chunk_tokens;
  const int64_t rest = total - plan.skip - plan.grant;
  plan.finish = ticks_ + (chunk > 0 ? (rest + chunk - 1) / chunk : 0) + sequence.remaining_tokens();
  return plan;
}

RolloutScheduler::Projection RolloutScheduler::Project(const RolloutSequence& sequence,
                                                       int64_t finish) const {
  const int64_t block_tokens = kv_->config().block_tokens;
  Projection projection;
  projection.finish = finish;
  const int64_t base =
      sequence.prompt_tokens + sequence.target_new_tokens - finish + block_tokens;
  projection.residue = (base % block_tokens + block_tokens) % block_tokens;
  projection.quotient = (base - projection.residue) / block_tokens;
  return projection;
}

RolloutScheduler::PeakStep RolloutScheduler::StepBefore(int64_t finish) const {
  const int64_t block_tokens = kv_->config().block_tokens;
  PeakStep step;
  step.finish = finish;
  step.quotient = (finish - 1) / block_tokens;
  step.residue = (finish - 1) % block_tokens;
  return step;
}

int64_t RolloutScheduler::Need(const Projection& row, const PeakStep& step) const {
  return row.quotient + step.quotient +
         (row.residue + step.residue >= kv_->config().block_tokens ? 1 : 0);
}

int64_t RolloutScheduler::BlocksBefore(int64_t finish) const {
  const PeakStep step = StepBefore(finish);
  int64_t blocks = 0;
  for (int64_t id : running_) {
    const int64_t row_finish = rows_[static_cast<size_t>(id)].finish;
    if (row_finish >= finish) {
      blocks += Need(Project((*sequences_)[static_cast<size_t>(id)], row_finish), step);
      if (kv_->config().enable_prefix_cache) {
        blocks -= static_cast<int64_t>(kv_->IndexedHashes(id).size());
      }
    }
  }
  for (auto it = cover_ticks_.lower_bound(finish); it != cover_ticks_.end(); ++it) {
    blocks += it->second;
  }
  return blocks;
}

void RolloutScheduler::CollectCredits(const RolloutSequence& candidate) const {
  credit_ends_.clear();
  const int64_t hits = kv_->PrefixHitTokens(candidate.block_hashes) / kv_->config().block_tokens;
  for (int64_t i = 0; i < hits; ++i) {
    const auto it = cover_.find(candidate.block_hashes[static_cast<size_t>(i)]);
    if (it != cover_.end() && it->second > ticks_) {
      credit_ends_.push_back(it->second);
    }
  }
  std::sort(credit_ends_.begin(), credit_ends_.end());
}

int64_t RolloutScheduler::ProjectedPeakDelay(const RolloutSequence& sequence,
                                             int64_t finish) const {
  // The candidate's need only grows, so the steps before its finish where
  // the sum can peak are the running set's peak steps, and its own last.
  const Projection candidate = Project(sequence, finish);
  const int64_t capacity = kv_->config().num_blocks;
  const int64_t block_tokens = kv_->config().block_tokens;
  const int64_t peak = sequence.prompt_tokens + sequence.target_new_tokens;
  const int64_t credits = static_cast<int64_t>(credit_ends_.size());
  int64_t ended = 0;  // Credited hits whose cover ended by the step.
  int64_t delay = 0;
  const auto check = [&](const PeakStep& step) {
    for (; ended < credits && credit_ends_[static_cast<size_t>(ended)] < step.finish; ++ended) {
    }
    const int64_t need = Need(candidate, step);
    const int64_t excess = step.blocks + need - credits + ended - capacity;
    if (excess > 0) {
      // The candidate holds `tokens` then, BlocksFor(tokens) = need; each
      // tick it waits takes one token off, and the step stops counting
      // once it has passed.
      const int64_t tokens = peak - finish + step.finish;
      const int64_t shrink = tokens - (need - excess) * block_tokens;
      delay = std::max(delay, std::min(shrink, step.finish - ticks_));
    }
  };
  bool last_checked = false;
  for (const PeakStep& step : peak_steps_) {
    if (step.finish > candidate.finish) {
      break;
    }
    if (step.finish > ticks_) {
      check(step);
      last_checked = step.finish == candidate.finish;
    }
  }
  if (!last_checked) {
    PeakStep last = StepBefore(candidate.finish);
    last.blocks = BlocksBefore(candidate.finish);
    check(last);
  }
  return delay;
}

void RolloutScheduler::AddProjection(int64_t id) {
  const Projection row = Project(seq(id), rows_[static_cast<size_t>(id)].finish);
  cover_ticks_.erase(cover_ticks_.begin(), cover_ticks_.upper_bound(ticks_));  // Covers ended.
  peak_steps_.erase(peak_steps_.begin(),
                    std::find_if(peak_steps_.begin(), peak_steps_.end(),
                                 [this](const PeakStep& step) { return step.finish > ticks_; }));
  // The steps until its finish gain its need; the prefix hits it shares
  // count in their covers, which now last until its finish.
  const int64_t credits = static_cast<int64_t>(credit_ends_.size());
  int64_t ended = 0;
  auto step = peak_steps_.begin();
  for (; step != peak_steps_.end() && step->finish <= row.finish; ++step) {
    for (; ended < credits && credit_ends_[static_cast<size_t>(ended)] < step->finish; ++ended) {
    }
    step->blocks += Need(row, *step) - credits + ended;
  }
  rows_[static_cast<size_t>(id)].covered = 0;
  CoverIndexedBlocks(id);
  if (step == peak_steps_.begin() || std::prev(step)->finish != row.finish) {
    PeakStep last = StepBefore(row.finish);
    last.blocks = BlocksBefore(row.finish);
    peak_steps_.insert(step, last);
  }
}

void RolloutScheduler::RemoveProjection(int64_t id) {
  const Projection row = Project(seq(id), rows_[static_cast<size_t>(id)].finish);
  const int64_t indexed = kv_->config().enable_prefix_cache
                              ? static_cast<int64_t>(kv_->IndexedHashes(id).size())
                              : 0;
  for (PeakStep& step : peak_steps_) {
    if (step.finish > row.finish) {
      break;
    }
    if (step.finish > ticks_) {
      step.blocks -= Need(row, step) - indexed;
    }
  }
}

void RolloutScheduler::CoverIndexedBlocks(int64_t id) {
  RowClock& row = rows_[static_cast<size_t>(id)];
  const std::vector<uint64_t>& indexed = kv_->IndexedHashes(id);
  for (; row.covered < indexed.size(); ++row.covered) {
    const auto [it, inserted] = cover_.try_emplace(indexed[row.covered], row.finish);
    if (!inserted) {
      if (it->second >= row.finish) {
        continue;  // A longer-lived holder already counts it.
      }
      const auto old = cover_ticks_.find(it->second);
      if (old != cover_ticks_.end() && --old->second == 0) {
        cover_ticks_.erase(old);
      }
      it->second = row.finish;
    }
    cover_ticks_[row.finish] += 1;
  }
}

void RolloutScheduler::AdmitWeightedFair(StepPlan* plan, int64_t* budget) {
  // Per-tenant FIFOs in waiting-queue order (preempted resumes stay at
  // their tenant's head).
  std::map<int64_t, std::deque<int64_t>> queues;
  for (const WaitingEntry& entry : waiting_) {
    queues[(*sequences_)[static_cast<size_t>(entry.id)].tenant].push_back(entry.id);
  }
  if (queues.empty()) {
    return;
  }
  std::vector<int64_t> tenants;
  tenants.reserve(queues.size());
  for (const auto& [tenant, queue] : queues) {
    tenants.push_back(tenant);
  }
  // Round-robin sweep order: ascending tenant id, starting from the tenant
  // the previous step stopped at (wrapping).
  size_t start = 0;
  for (size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i] >= fair_cursor_) {
      start = i;
      break;
    }
  }
  // Work-conserving DRR rounds: accrue one quantum of credit per pending
  // tenant, then sweep from the cursor admitting while credit and capacity
  // allow. A tenant whose head is blocked (TryAdmit false: KV, prefill
  // budget, or max_running) yields to the *next* tenant — cross-tenant
  // isolation, the point of fair queueing; its FIFO order is untouched and
  // the first blocked tenant takes the cursor, giving it first claim on
  // capacity freed by the next step. Rounds repeat while they admit
  // anything, so ample capacity is never left idle by the quantum.
  bool blocked_seen = false;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const auto& [tenant, queue] : queues) {
      if (!queue.empty()) {
        const auto weight_it = config_.tenant_weights.find(tenant);
        const double weight = weight_it == config_.tenant_weights.end() ? 1.0 : weight_it->second;
        fair_deficit_[tenant] += static_cast<double>(config_.fair_quantum_tokens) * weight;
      }
    }
    for (size_t k = 0; k < tenants.size(); ++k) {
      const int64_t tenant = tenants[(start + k) % tenants.size()];
      std::deque<int64_t>& queue = queues[tenant];
      double& deficit = fair_deficit_[tenant];
      while (!queue.empty()) {
        const int64_t id = queue.front();
        const double cost =
            static_cast<double>((*sequences_)[static_cast<size_t>(id)].total_tokens());
        if (deficit < cost) {
          break;  // Out of credit; earns more next round.
        }
        if (!TryAdmit(id, plan, budget)) {
          if (!blocked_seen) {
            fair_cursor_ = tenant;
            blocked_seen = true;
          }
          break;
        }
        deficit -= cost;
        queue.pop_front();
        progress = true;
      }
      if (queue.empty()) {
        deficit = 0.0;  // Classic DRR: an idle tenant hoards no credit.
      }
    }
  }
}

StepPlan RolloutScheduler::BeginStep() {
  HF_CHECK_MSG(HasWork(), "BeginStep called with no waiting or running sequences");
  stats_.steps += 1;
  stats_.visited_steps += 1;

  // 0. Deadline enforcement: reject overdue sequences instead of serving
  // them late (no KV or compute is spent on them this step).
  ExpireOverdue();
  StepPlan plan;
  if (!HasWork()) {
    return plan;  // Expiry drained every remaining sequence.
  }

  // 1. Reserve the running set's blocks for this step — decode rows' next-
  // token appends plus mid-prefill rows' residency extensions (incremental
  // residency) — before admitting anyone; evict the youngest until the
  // incumbents fit (free-and-requeue). The victim is always the last row
  // of the running order, so no other row's grant changes: the need is
  // computed once and each victim's own share subtracted.
  FillPrefillBlocksNeeded();
  int64_t needed = std::accumulate(
      prefill_needed_.begin(), prefill_needed_.end(),
      static_cast<int64_t>(phase_rows_[static_cast<size_t>(CrossingPhase())].size()));
  while (!running_.empty() && needed > kv_->available_blocks()) {
    const int64_t victim = running_.back();
    if (seq(victim).state == SequenceState::kDecode) {
      needed -= Phase(victim) == CrossingPhase() ? 1 : 0;
    } else {
      needed -= prefill_needed_.back();
      prefill_needed_.pop_back();
    }
    Preempt(victim);
  }

  int64_t budget = config_.prefill_chunk_tokens > 0 ? config_.prefill_chunk_tokens
                                                    : std::numeric_limits<int64_t>::max();

  // 2. Continue the running set: decode rows emit a token; mid-prefill rows
  // (chunked prefill) consume the step's prefill budget in admission order
  // until they catch up with their full context, growing their KV residency
  // to cover each chunk as it enters compute. The extensions cannot fail:
  // phase 1 preempted until exactly these needs fit, and nothing else has
  // allocated since.
  plan.decode = decoding_;
  plan.decode_kv_tokens =
      decode_kv_base_ + ticks_ * static_cast<int64_t>(decoding_.size());
  for (int64_t id : prefilling_) {
    RolloutSequence& sequence = seq(id);
    const int64_t pending = sequence.total_tokens() - sequence.prefill_computed;
    const int64_t grant = std::min(budget, pending);
    if (grant <= 0) {
      continue;  // Budget exhausted: the row idles this step.
    }
    budget -= grant;
    const int64_t resident_target =
        std::max(sequence.kv_tokens, sequence.prefill_computed + grant);
    if (resident_target > sequence.kv_tokens) {
      HF_CHECK_MSG(kv_->ExtendSequence(id, resident_target),
                   "residency extension failed after the preemption pass reserved it");
      sequence.kv_tokens = resident_target;
      if (config_.projected_peak_admission) {
        CoverIndexedBlocks(id);
      }
    }
    plan.prefill.push_back({id, grant, grant == pending});
  }

  // 3. Admission in policy order, gated by real block allocation. Without
  // chunking the full context's blocks are allocated up front; with it,
  // admission gates on the first chunk's need only (incremental residency),
  // discounting prefix-cache hits either way.
  // Strict priority: stop at the first candidate that does not fit, so the
  // head of the order is never starved by smaller requests behind it.
  if (config_.admission == AdmissionPolicy::kWeightedFair) {
    AdmitWeightedFair(&plan, &budget);
  } else {
    while (!waiting_.empty() && TryAdmit(waiting_.front().id, &plan, &budget)) {
    }
  }

  HF_CHECK_MSG(!plan.empty(),
               "scheduler made no progress: a sequence exceeds KV capacity at full length");
  stats_.max_running_batch = std::max(stats_.max_running_batch, plan.rows());
  int64_t prefill_tokens = 0;
  for (const PrefillChunk& chunk : plan.prefill) {
    prefill_tokens += chunk.tokens;
    if (!chunk.completes) {
      stats_.prefill_chunks += 1;
    }
  }
  stats_.max_prefill_tokens_step = std::max(stats_.max_prefill_tokens_step, prefill_tokens);
  if (event_log_ != nullptr) {
    for (const PrefillChunk& chunk : plan.prefill) {
      RecordEvent(SeqEventKind::kPrefillChunk, chunk.id, chunk.tokens, stats_.steps - 1);
    }
  }
  return plan;
}

void RolloutScheduler::CommitStep(const StepPlan& plan, const std::vector<int64_t>& eos_finished) {
  // The decode rows an event touches this step, taken before the commit
  // changes anything: every row when a log records each token; otherwise
  // the rows whose append crosses a block boundary, the rows reaching
  // their target, and EOS rows. Victims join as they are preempted.
  if (event_log_ != nullptr) {
    touched_ = plan.decode;
  } else {
    touched_ = phase_rows_[static_cast<size_t>(CrossingPhase())];
    for (auto [it, end] = finish_at_.equal_range(ticks_ + 1); it != end; ++it) {
      touched_.push_back(it->second);
    }
    for (int64_t id : eos_finished) {
      if (seq(id).state == SequenceState::kDecode) {
        touched_.push_back(id);
      }
    }
    std::sort(touched_.begin(), touched_.end(), ByTicket());
    touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
  }
  for (const PrefillChunk& chunk : plan.prefill) {
    RolloutSequence& sequence = seq(chunk.id);
    const bool resident = sequence.state == SequenceState::kPrefill ||
                          sequence.state == SequenceState::kDecode;
    if (resident) {
      sequence.prefill_computed += chunk.tokens;
    }
    // Non-resident: preempted earlier in this commit as someone's victim;
    // the chunk's compute is lost and recomputed on resume.
    if (chunk.completes) {
      CommitEmittedToken(chunk.id, eos_finished);
    }
  }
  // Decode rows in running order; the rows between two touched ones only
  // gain their token, which Sync applies once the cursor has passed them.
  for (size_t i = 0; i < touched_.size(); ++i) {
    commit_cursor_ = rows_[static_cast<size_t>(touched_[i])].ticket;
    CommitEmittedToken(touched_[i], eos_finished);
  }
  commit_cursor_ = -1;
  ticks_ += 1;
  last_commit_seconds_ = sim_now_;
}

void RolloutScheduler::CommitEmittedToken(int64_t id, const std::vector<int64_t>& eos_finished) {
  RolloutSequence& sequence = seq(id);
  Sync(id);
  // A row preempted earlier in this commit (as someone's victim) still
  // emitted its token; it just lost its KV residency.
  const bool resident = sequence.state == SequenceState::kPrefill ||
                        sequence.state == SequenceState::kDecode;
  const bool finished =
      sequence.generated + 1 >= sequence.target_new_tokens ||
      std::find(eos_finished.begin(), eos_finished.end(), id) != eos_finished.end();
  if (finished && resident) {
    ReleaseRunning(id);
  }
  int64_t queue_number = 0;
  if (!resident) {
    // It waits keyed by its context before this token, which the token
    // lengthens: take it out, and re-file it below unless it finished.
    queue_number = EraseWaiting(id);
  }
  sequence.generated += 1;
  if (sequence.generated == 1) {
    sequence.first_token_seconds = sim_now_;
  }
  sequence.last_token_seconds = sim_now_;
  RecordEvent(sequence.generated == 1 ? SeqEventKind::kFirstToken : SeqEventKind::kDecodeStep, id,
              sequence.generated, stats_.steps - 1);
  if (finished) {
    sequence.kv_tokens = 0;
    sequence.prefill_computed = 0;
    sequence.state = SequenceState::kFinished;
    RecordEvent(SeqEventKind::kFinish, id, sequence.generated, stats_.steps - 1);
    return;
  }
  if (!resident) {
    // Waits for re-admission at its queue position; token kept, KV
    // recomputed later.
    PushWaiting(id, queue_number);
    return;
  }
  if (event_log_ != nullptr && sequence.state == SequenceState::kDecode &&
      kv_->BlocksFor(sequence.kv_tokens + 1) == kv_->BlocksFor(kv_->SequenceTokens(id))) {
    // Visited only for the log, inside its tail block: its KV entry lags
    // like an unvisited row's, so the log changes no KV work count.
    sequence.kv_tokens += 1;
    rows_[static_cast<size_t>(id)].anchor = ticks_ + 1;
    return;
  }
  // Append the new token's KV entry, plus the tokens this row gained
  // without a visit (they never cross a block boundary), evicting
  // youngest-first on exhaustion (possibly this sequence itself, if it is
  // the only one left — only possible when admission overcommitted shared
  // headroom).
  const int64_t lagging = sequence.kv_tokens - kv_->SequenceTokens(id);
  while (!kv_->AppendTokens(id, lagging + 1)) {
    const int64_t victim = running_.back() != id ? running_.back()
                           : running_.size() > 1 ? running_[running_.size() - 2]
                                                 : -1;
    if (victim < 0) {
      Preempt(id);
      return;  // Preempted itself; the appended token is recomputed later.
    }
    // A decode row the cursor has not reached still emits this step: it
    // must be visited once it is preempted.
    const RowClock& row = rows_[static_cast<size_t>(victim)];
    const bool pending = seq(victim).state == SequenceState::kDecode && row.anchor <= ticks_ &&
                         row.ticket > commit_cursor_;
    Preempt(victim);
    const auto at = std::lower_bound(touched_.begin(), touched_.end(), victim, ByTicket());
    if (pending && (at == touched_.end() || *at != victim)) {
      touched_.insert(at, victim);
    }
  }
  sequence.kv_tokens += 1;
  if (sequence.state == SequenceState::kPrefill) {
    sequence.prefill_computed = 0;
    sequence.state = SequenceState::kDecode;
    prefilling_.erase(std::find(prefilling_.begin(), prefilling_.end(), id));
    AddDecodeRow(id, ticks_ + 1);
    HF_CHECK_MSG(!config_.projected_peak_admission ||
                     FinishTick(id) == rows_[static_cast<size_t>(id)].finish,
                 "projected-peak admission mispredicted a prefill completion");
  } else {
    rows_[static_cast<size_t>(id)].anchor = ticks_ + 1;
  }
}

}  // namespace hybridflow
