// Request-level sequence state for the continuous-batching rollout engine
// (vLLM/ScaleLLM-style, adapted to the dual-plane design; docs/ROLLOUT.md).
//
// A RolloutSequence is *count-based* metadata only — prompt/response token
// counts, lifecycle state, and KV residency — so the same scheduler drives
// both the real data plane (RolloutEngine over the toy PolicyNet) and the
// simulated performance plane (SimulateContinuousGeneration over PerfModel).
#ifndef SRC_ROLLOUT_SEQUENCE_H_
#define SRC_ROLLOUT_SEQUENCE_H_

#include <cstdint>
#include <vector>

namespace hybridflow {

// waiting -> prefill -> decode -> finished, with preempted -> waiting on
// capacity exhaustion (free-and-requeue; recompute on resume). The serving
// front end (src/serving/) adds two terminal exits reachable from any
// non-terminal state: cancelled (client-side) and expired (TTFT deadline
// passed before the first token); both release KV residency immediately.
enum class SequenceState {
  kWaiting,
  kPrefill,
  kDecode,
  kFinished,
  kPreempted,
  kCancelled,
  kExpired,
};

// Finished, cancelled or expired: holds no KV and never runs again.
inline bool IsTerminal(SequenceState state) {
  return state == SequenceState::kFinished || state == SequenceState::kCancelled ||
         state == SequenceState::kExpired;
}

struct RolloutSequence {
  int64_t id = 0;
  int64_t prompt_tokens = 0;
  // Response tokens emitted so far. Survives preemption: generated tokens
  // are kept by the data plane and only their KV entries are recomputed
  // (charged as prefill) on resume. While a row decodes, generated,
  // kv_tokens and last_token_seconds lag between its events (see
  // RolloutScheduler::SyncSequences).
  int64_t generated = 0;
  int64_t target_new_tokens = 0;  // Response-length cap.
  SequenceState state = SequenceState::kWaiting;
  int64_t kv_tokens = 0;  // Tokens currently resident in the KV cache.
  // Context tokens whose prefill compute has run since (re)admission.
  // Under chunked prefill a sequence stays in kPrefill across steps until
  // this catches up with total_tokens(); preemption resets it to zero
  // (recompute-on-resume covers the whole grown context).
  int64_t prefill_computed = 0;
  int64_t enqueue_step = -1;      // -1 until enqueued.
  int64_t first_admit_step = -1;  // -1 until first admitted.
  int64_t preemptions = 0;

  // Lifecycle accounting, stamped by the scheduler on its SetSimNow clock
  // (sim-seconds, virtual serving seconds, or 0 on the RLHF data plane).
  // Admission and preemption instants are step starts; token instants are
  // step ends. A clock is meaningful once its event happened
  // (enqueue_step / first_admit_step >= 0, generated >= 1).
  double enqueue_seconds = 0.0;
  double first_admit_seconds = 0.0;
  double first_token_seconds = 0.0;
  double last_token_seconds = 0.0;
  double preempted_seconds = 0.0;         // Clock of the latest preemption.
  double preemption_stall_seconds = 0.0;  // Sum of preempt -> resume gaps.
  int64_t recomputed_tokens = 0;          // Context tokens resumes re-prefilled.

  // Prefix-sharing metadata (src/kvcache/ prefix cache): chained content
  // hashes of the full prompt blocks, from PromptBlockHashes (data plane)
  // or GroupBlockHashes (sim plane). Empty disables sharing for this
  // sequence; ignored entirely when the KV manager's prefix cache is off.
  std::vector<uint64_t> block_hashes;
  // Prompt-prefix tokens whose prefill compute was skipped at the last
  // (re)admission because their blocks were served from the prefix cache.
  int64_t prefix_skipped_tokens = 0;

  // Serving metadata (src/serving/); inert on the plain RLHF rollout path.
  // `tenant` keys weighted fair queueing, `priority` orders admission under
  // AdmissionPolicy::kPriority (higher first), and `ttft_deadline` is an
  // absolute scheduler-clock instant (SetSimNow units) after which an
  // un-started sequence is expired rather than served late; <= 0 disables.
  int64_t tenant = 0;
  int64_t priority = 0;
  double ttft_deadline = 0.0;
  // Scheduler-clock instant the step loop enqueues this sequence at
  // (src/rollout/step_loop.h); 0 for a batch rollout.
  double arrival = 0.0;

  // Context length a (re)admission must cover.
  int64_t total_tokens() const { return prompt_tokens + generated; }
  int64_t remaining_tokens() const { return target_new_tokens - generated; }
};

// Rolling context window of one sequence: reproduces
// ContextWindow(prompt, response, emitted, window) — the last `window`
// tokens of prompt+response, left-padded with 0 — but maintained
// incrementally (one shift+append per generated token) instead of being
// rebuilt from the full prompt+response at every decode step.
class IncrementalContext {
 public:
  IncrementalContext(const std::vector<int64_t>& prompt, int64_t window);

  // Appends one generated token, sliding the window left by one.
  void Push(int64_t token);

  const std::vector<int64_t>& tokens() const { return window_; }

 private:
  std::vector<int64_t> window_;
};

}  // namespace hybridflow

#endif  // SRC_ROLLOUT_SEQUENCE_H_
