// Paged KVCache block manager (§7) with prefix sharing.
//
// vLLM manages the KV cache as fixed-size blocks with per-sequence block
// tables (PagedAttention); the paper replaces its *centralized* manager
// with a *distributed* one so each generation replica manages its own
// cache under the multi-controller paradigm. A replica's TP ranks hold
// identical block tables and split only the bytes (each holds 1/t_g of
// every token's KV), so one manager per replica answers for all of them,
// as vLLM-style workers size one cache from one shape. On top of the paged
// allocator this module layers the sharing shape of production engines
// (LLMInfer's block_manager, SGLang-style RadixAttention prefix caching):
//
//   * Hash-keyed prefix cache — full prompt blocks carry a content hash
//     (chained over the token prefix, so equal hash => equal prefix) and
//     are indexed; a new sequence whose leading blocks hit the index
//     shares them instead of re-allocating and re-prefilling. An indexed
//     block is ref-counted and returns to circulation only when its last
//     reference drops.
//   * Cached-block retention — when prefix caching is enabled, an indexed
//     block whose refcount drops to zero is *retained* in an LRU list
//     instead of freed, so a later identical prompt still hits; retained
//     blocks are evicted (LRU, index pruned) when allocation runs dry.
//
// Residency is kept by counts: only an indexed block — the one kind a
// caller can observe, by hitting it — has an identity (its hash). Every
// other block is a count: a sequence holds its indexed blocks plus
// BlocksFor(tokens) minus those, privately, and the free pool is a count
// beside the LRU. An append, extension or free of private blocks is
// integer arithmetic.
//
// Block lifecycle, refcount invariants, and the greedy-equivalence
// contract under sharing are documented in docs/KVCACHE.md.
#ifndef SRC_KVCACHE_BLOCK_MANAGER_H_
#define SRC_KVCACHE_BLOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

namespace hybridflow {

struct KvBlockConfig {
  int64_t block_tokens = 16;  // Tokens per block (vLLM default 16).
  int64_t num_blocks = 1024;  // Blocks in the replica's cache.
  // Prefix cache switch. Off (the default), hashes are ignored, blocks are
  // never shared or retained, and the manager behaves exactly like the
  // pre-sharing allocator.
  bool enable_prefix_cache = false;
};

// Chained content hashes for the *full* blocks of a token prefix: entry i
// covers tokens [0, (i+1) * block_tokens) — hashing is cumulative, so two
// sequences share entry i only if their entire prefixes up to that point
// are identical. Partial tail blocks are never hashed (they are mutable).
std::vector<uint64_t> PromptBlockHashes(const std::vector<int64_t>& tokens,
                                        int64_t block_tokens);
// Same keying for count-based planes that lack token content: one chained
// hash per full block of a `group`-identified prompt (equal group =>
// identical simulated prompt). `full_blocks` = prompt_tokens / block_tokens.
std::vector<uint64_t> GroupBlockHashes(int64_t group, int64_t full_blocks);

class KvBlockManager {
 public:
  explicit KvBlockManager(const KvBlockConfig& config);

  const KvBlockConfig& config() const { return config_; }

  // Registers a new sequence with `prompt_tokens` of initial context,
  // allocated privately (no sharing). Returns false (allocating nothing)
  // if the blocks don't fit.
  bool AddSequence(int64_t sequence_id, int64_t prompt_tokens);

  // Registers a new sequence resident to `resident_tokens`, sharing the
  // leading full blocks whose content hashes hit the prefix index and
  // allocating the rest fresh. Freshly allocated full blocks that carry a
  // hash are registered in the index. All-or-nothing; returns false on
  // capacity exhaustion. `block_hashes` may be shorter than the full-block
  // count of `resident_tokens` (trailing blocks are simply unhashed) and is
  // ignored entirely when the prefix cache is disabled.
  bool AddSequenceShared(int64_t sequence_id, int64_t resident_tokens,
                         const std::vector<uint64_t>& block_hashes);

  // Longest run of leading hashed blocks currently materialized in the
  // cache, in tokens. Pure probe — allocates and touches nothing.
  int64_t PrefixHitTokens(const std::vector<uint64_t>& block_hashes) const;

  // Of that same leading hit run, how many blocks are currently *referenced*
  // (refs > 0) by live sequences. Sharing those consumes no extra capacity,
  // unlike evictable hits, which leave the reclaimable pool when re-refed.
  // Admission planners use this to discount genuinely-free sharing only.
  int64_t PrefixHitBlocksReferenced(const std::vector<uint64_t>& block_hashes) const;

  // Grows a sequence's residency to cover `resident_tokens` (no-op if it
  // already does). All-or-nothing; returns false on exhaustion. The
  // incremental-residency path: chunked prefill acquires blocks chunk by
  // chunk instead of all at admission.
  bool ExtendSequence(int64_t sequence_id, int64_t resident_tokens);

  // Admission probe for schedulers: would a new sequence of
  // `prompt_tokens` fit right now with `reserve_tokens` of decode headroom
  // on top? Pure capacity check — allocates nothing.
  bool CanAdmit(int64_t prompt_tokens, int64_t reserve_tokens) const;
  // Sharing-aware probe: like CanAdmit but discounts the leading blocks
  // `block_hashes` would share instead of allocate.
  bool CanAdmitShared(int64_t resident_tokens, int64_t reserve_tokens,
                      const std::vector<uint64_t>& block_hashes) const;

  // Appends `tokens` generated tokens, exactly as that many AppendToken
  // calls would: each block boundary crossed allocates one block, and an
  // append that stays inside the tail block is a counter bump.
  // All-or-nothing: returns false on capacity exhaustion with the sequence
  // unchanged.
  bool AppendTokens(int64_t sequence_id, int64_t tokens);
  bool AppendToken(int64_t sequence_id) { return AppendTokens(sequence_id, 1); }
  // Would AppendTokens succeed right now? Pure probe.
  bool CanAppendTokens(int64_t sequence_id, int64_t tokens) const;
  // Would ExtendSequence succeed right now? Pure probe.
  bool CanExtendSequence(int64_t sequence_id, int64_t resident_tokens) const;

  // Drops all of a finished sequence's references. Its private blocks
  // return to the free pool; an indexed block whose last reference drops is
  // retained (evictable, LRU) instead.
  void FreeSequence(int64_t sequence_id);

  // Bulk release (preemption path): frees every listed sequence in one
  // call so a scheduler can reclaim a victim set atomically.
  void FreeSequences(const std::vector<int64_t>& sequence_ids);

  bool HasSequence(int64_t sequence_id) const {
    return sequence_id >= 0 && static_cast<size_t>(sequence_id) < tables_.size() &&
           tables_[static_cast<size_t>(sequence_id)].live;
  }
  int64_t SequenceTokens(int64_t sequence_id) const;

  // Blocks in the free pool.
  int64_t free_blocks() const { return free_blocks_; }
  // Blocks referenced by at least one live sequence. Shared blocks count
  // once — this is physical usage, and the leak invariant: it must return
  // to zero once every sequence is freed, cached retention notwithstanding.
  int64_t used_blocks() const { return used_blocks_; }
  // Unreferenced indexed blocks retained for future prefix hits (evictable).
  int64_t cached_blocks() const { return static_cast<int64_t>(evictable_lru_.size()); }
  // Blocks an allocation could draw on right now: free + evictable.
  int64_t available_blocks() const { return free_blocks() + cached_blocks(); }
  // Blocks currently referenced by two or more sequences.
  int64_t shared_blocks() const { return shared_blocks_; }
  int64_t num_sequences() const { return num_sequences_; }
  // Most blocks ever simultaneously referenced over this manager's
  // lifetime (high-water mark; never decreases).
  int64_t high_water_blocks() const { return high_water_blocks_; }
  // Sequences that fit if each needs `tokens_per_sequence` in total.
  int64_t CapacitySequences(int64_t tokens_per_sequence) const;
  // What an empty manager built from `config` would answer, in closed
  // form: pricing code asks this per candidate, and building the paged
  // cache just to divide two integers is what it must not pay for.
  static int64_t CapacitySequences(const KvBlockConfig& config, int64_t tokens_per_sequence);
  // Blocks needed to hold `tokens` (ceiling division).
  int64_t BlocksFor(int64_t tokens) const;

  // Lifetime counters (docs/KVCACHE.md; surfaced as kvcache.* metrics).
  int64_t prefix_hit_tokens_total() const { return prefix_hit_tokens_total_; }
  // Successful append operations (one per AppendToken call) and blocks
  // taken by any allocation: the KV cache's work counters.
  int64_t appends_total() const { return appends_total_; }
  int64_t allocations_total() const { return allocations_total_; }
  int64_t evictions_total() const { return evictions_total_; }
  int64_t shared_blocks_high_water() const { return shared_blocks_high_water_; }

  // Invariant audit (test hook): every indexed block's refcount equals the
  // number of live sequences holding it, the retained blocks are exactly
  // the unreferenced indexed ones, each sequence holds BlocksFor(tokens)
  // blocks, and free + retained + referenced blocks sum to num_blocks.
  bool RefcountsConsistent() const;

 private:
  // An indexed block, keyed by its hash in prefix_index_.
  struct IndexedBlock {
    int64_t refs = 0;
    std::list<uint64_t>::iterator lru;  // Valid iff refs == 0 (retained).
  };
  struct SequenceState {
    bool live = false;
    int64_t tokens = 0;
    // Content hashes of this sequence's prompt blocks (AddSequenceShared
    // keeps them so later ExtendSequence calls can index blocks once they
    // fill). Empty on the private AddSequence path.
    std::vector<uint64_t> hashes;
    // Leading blocks already offered to the index: shared hits, and full
    // hashed blocks this sequence filled.
    int64_t offered = 0;
    // The indexed blocks this sequence references, in block order. The
    // rest of its BlocksFor(tokens) blocks are private.
    std::vector<uint64_t> indexed;
  };

  SequenceState& State(int64_t sequence_id);
  const SequenceState& State(int64_t sequence_id) const;
  // Takes `count` blocks for a caller, free pool first, then evicting the
  // LRU retained blocks (pruning their index entries). The caller has
  // checked that `count` <= available_blocks().
  void TakeBlocks(int64_t count);
  // Adds one reference to an indexed block; a retained block leaves the LRU.
  void Ref(uint64_t hash);
  // Drops one reference; on zero, the block is retained.
  void Unref(uint64_t hash);
  // Offers `state`'s newly filled hashed blocks to the index: each becomes
  // indexed unless another block already serves its hash (first writer
  // wins; the loser stays private).
  void IndexFullBlocks(SequenceState& state);
  // How many of the first `hit_count` prefix hits are retained (refs == 0).
  // Those blocks are counted by available_blocks() but leave the pool the
  // moment admission re-refs them, so admission probes must discount them.
  int64_t EvictableHitBlocks(const std::vector<uint64_t>& block_hashes, int64_t hit_count) const;
  void NoteAllocation();

  KvBlockConfig config_;
  int64_t free_blocks_ = 0;
  // Retained blocks' hashes, least recently used at the front.
  std::list<uint64_t> evictable_lru_;
  std::unordered_map<uint64_t, IndexedBlock> prefix_index_;
  // Indexed by sequence id: ids are small and dense (every scheduler
  // numbers its sequences from 0), so a lookup is one vector index.
  std::vector<SequenceState> tables_;
  int64_t num_sequences_ = 0;
  int64_t used_blocks_ = 0;
  int64_t shared_blocks_ = 0;
  int64_t high_water_blocks_ = 0;
  int64_t shared_blocks_high_water_ = 0;
  int64_t prefix_hit_tokens_total_ = 0;
  int64_t appends_total_ = 0;
  int64_t allocations_total_ = 0;
  int64_t evictions_total_ = 0;
};

}  // namespace hybridflow

#endif  // SRC_KVCACHE_BLOCK_MANAGER_H_
