// ServingFrontend: the data-plane serving loop (docs/SERVING.md).
//
// Maps ServingRequests onto the shared step loop (src/rollout/step_loop.h)
// with a DataStepExecutor over the real toy PolicyNet: the loop injects
// arrivals, applies TTFT expiry and — through a between-steps hook —
// client cancellations, and the executor runs one forward per step and
// streams each committed token to the client callback.
//
// The serving clock is *virtual*: step k commits at (k+1) *
// seconds_per_step, and arrivals/deadlines/cancellations are interpreted on
// that clock (SetSimNow), so runs are fully deterministic — no wall-time
// dependence. The per-row forward is independent of batch composition and
// sampling uses per-request forked RNG streams, so greedy responses of
// uncancelled requests are bitwise-identical across admission policies,
// preemption, cancellation, and expiry of *other* requests (the rollout
// engine's equivalence contract, extended to the serving surface).
#ifndef SRC_SERVING_FRONTEND_H_
#define SRC_SERVING_FRONTEND_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/policy_net.h"
#include "src/obs/metrics.h"
#include "src/serving/request.h"

namespace hybridflow {

struct ServingFrontendConfig {
  RolloutSchedulerConfig scheduler;
  // Data-plane KV geometry (toy scale); num_blocks == 0 auto-sizes to fit
  // every request at full length (no capacity pressure).
  int64_t block_tokens = 4;
  int64_t num_blocks = 0;
  // Prefix-sharing KV cache (docs/KVCACHE.md): requests with identical
  // prompt prefixes — concurrent or arriving after an identical request
  // finished (cross-request reuse; finished requests' prompt blocks are
  // retained evictable) — share blocks and skip the shared prefill. Must
  // equal scheduler.prefix_cache; the constructor rejects a config where
  // they disagree.
  bool prefix_cache = false;
  // Virtual seconds one engine step advances the serving clock by.
  double seconds_per_step = 0.1;
  // Optional lifecycle sink (src/obs/seq_events.h); null disables, same
  // no-op contract as the rollout engine.
  SeqEventLog* event_log = nullptr;
};

class ServingFrontend {
 public:
  // `net` is borrowed (read-only). `kv_ranks` must be positive and is
  // otherwise unused (one KV manager serves the replica); it is kept while
  // perfbench (which only a benchmark change may edit) passes it.
  ServingFrontend(const PolicyNet& net, const ServingFrontendConfig& config, int kv_ranks);

  // Serves `requests` (ids must be dense 0..n-1 and equal each request's
  // position — RequestsFromTrace produces this; replayed by arrival time,
  // not vector order). `on_token`
  // may be null; returning false from it cancels that request at the next
  // step boundary. `rng` seeds per-request sampling streams (greedy
  // decoding never draws from it).
  ServingResult Serve(const std::vector<ServingRequest>& requests, bool do_sample,
                      double temperature, Rng& rng, const StreamCallback& on_token = nullptr);

 private:
  const PolicyNet& net_;
  ServingFrontendConfig config_;
  // Cached registry handles; per-tenant counters are resolved per run
  // (tenant sets are dynamic), these aggregate across tenants.
  Counter& requests_total_;
  Counter& finished_total_;
  Counter& cancelled_total_;
  Counter& expired_total_;
};

}  // namespace hybridflow

#endif  // SRC_SERVING_FRONTEND_H_
