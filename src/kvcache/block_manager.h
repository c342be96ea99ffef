// Paged KVCache block manager (§7) with prefix sharing.
//
// vLLM manages the KV cache as fixed-size blocks with per-sequence block
// tables (PagedAttention); the paper replaces its *centralized* manager
// with a *distributed* one so each worker manages its own shard under the
// multi-controller paradigm. On top of the paged allocator this module
// layers the proven sharing shape of production engines (LLMInfer's
// block_manager, SGLang-style RadixAttention prefix caching):
//
//   * Ref-counted blocks — a physical block may appear in many sequences'
//     block tables; it returns to circulation only when its last reference
//     drops.
//   * Hash-keyed prefix cache — full prompt blocks carry a content hash
//     (chained over the token prefix, so equal hash => equal prefix) and
//     are indexed; a new sequence whose leading blocks hit the index
//     shares them instead of re-allocating and re-prefilling.
//   * Copy-on-write forking — Fork() gives a child all of its parent's
//     blocks by reference; the first divergent AppendToken into a shared
//     block splits it (allocate + logical copy) so writers never perturb
//     readers.
//   * Cached-block retention — when prefix caching is enabled, a hashed
//     block whose refcount drops to zero is *retained* in an LRU list
//     instead of freed, so a later identical prompt still hits; retained
//     blocks are evicted (LRU, index pruned) when allocation runs dry.
//
// Block lifecycle, refcount invariants, and the greedy-equivalence
// contract under sharing are documented in docs/KVCACHE.md.
//
// Two managers:
//   * KvBlockManager — one rank's allocator.
//   * DistributedKvManager — the per-TP-group view: one KvBlockManager per
//     participating rank, kept in lockstep because KV tensors are sharded
//     (every rank holds 1/t_g of each token's KV, so block tables are
//     replicated while bytes are divided).
#ifndef SRC_KVCACHE_BLOCK_MANAGER_H_
#define SRC_KVCACHE_BLOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

namespace hybridflow {

struct KvBlockConfig {
  int64_t block_tokens = 16;       // Tokens per block (vLLM default 16).
  int64_t num_blocks = 1024;       // Blocks available on this rank.
  double bytes_per_token = 1024.0; // KV bytes per token on this rank's shard.
  // Prefix cache switch. Off (the default), hashes are ignored, blocks are
  // never shared or retained, and the manager behaves exactly like the
  // pre-sharing allocator.
  bool enable_prefix_cache = false;
};

// Chained content hashes for the *full* blocks of a token prefix: entry i
// covers tokens [0, (i+1) * block_tokens) — hashing is cumulative, so two
// sequences share entry i only if their entire prefixes up to that point
// are identical. Partial tail blocks are never hashed (they are mutable).
// Hashes are never zero (zero is the "unhashed" sentinel).
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

  // Registers `child_id` sharing every one of `parent_id`'s blocks by
  // reference (group sampling: n responses over one prompt prefill).
  // Allocates nothing; the first divergent AppendToken copy-on-write
  // splits the shared tail.
  void Fork(int64_t parent_id, int64_t child_id);

  // Admission probe for schedulers: would a new sequence of
  // `prompt_tokens` fit right now with `reserve_tokens` of decode headroom
  // on top? Pure capacity check — allocates nothing.
  bool CanAdmit(int64_t prompt_tokens, int64_t reserve_tokens) const;
  // Sharing-aware probe: like CanAdmit but discounts the leading blocks
  // `block_hashes` would share instead of allocate.
  bool CanAdmitShared(int64_t resident_tokens, int64_t reserve_tokens,
                      const std::vector<uint64_t>& block_hashes) const;

  // Appends `tokens` generated tokens, exactly as that many AppendToken
  // calls would: the first write into a shared partial tail copy-on-write
  // splits it (first divergent write after Fork), and each block boundary
  // crossed allocates one block. An append that stays inside the tail
  // block is a counter bump. All-or-nothing: returns false on capacity
  // exhaustion with the sequence unchanged.
  bool AppendTokens(int64_t sequence_id, int64_t tokens);
  bool AppendToken(int64_t sequence_id) { return AppendTokens(sequence_id, 1); }
  // Would AppendTokens succeed right now? Pure probe (used by the
  // distributed manager to keep ranks all-or-nothing).
  bool CanAppendTokens(int64_t sequence_id, int64_t tokens) const;
  // Would ExtendSequence succeed right now? Pure probe.
  bool CanExtendSequence(int64_t sequence_id, int64_t resident_tokens) const;

  // Drops all of a finished sequence's references. A block returns to the
  // free list when its last reference drops — unless it is hashed and the
  // prefix cache is on, in which case it is retained (evictable, LRU).
  void FreeSequence(int64_t sequence_id);

  // Bulk release (preemption path): frees every listed sequence in one
  // call so a scheduler can reclaim a victim set atomically.
  void FreeSequences(const std::vector<int64_t>& sequence_ids);

  bool HasSequence(int64_t sequence_id) const {
    return sequence_id >= 0 && static_cast<size_t>(sequence_id) < tables_.size() &&
           tables_[static_cast<size_t>(sequence_id)].live;
  }
  int64_t SequenceTokens(int64_t sequence_id) const;
  // The block table (physical block ids, in order) of a sequence.
  const std::vector<int64_t>& BlockTable(int64_t sequence_id) const;

  // Never-written blocks on the free list.
  int64_t free_blocks() const { return static_cast<int64_t>(free_list_.size()); }
  // Blocks referenced by at least one live sequence. Shared blocks count
  // once — this is physical usage, and the leak invariant: it must return
  // to zero once every sequence is freed, cached retention notwithstanding.
  int64_t used_blocks() const { return used_blocks_; }
  // Unreferenced hashed blocks retained for future prefix hits (evictable).
  int64_t cached_blocks() const { return static_cast<int64_t>(evictable_lru_.size()); }
  // Blocks an allocation could draw on right now: free + evictable.
  int64_t available_blocks() const { return free_blocks() + cached_blocks(); }
  // Blocks currently referenced by two or more sequences.
  int64_t shared_blocks() const { return shared_blocks_; }
  int64_t num_sequences() const { return num_sequences_; }
  double used_bytes() const;
  // Fraction of allocated block capacity actually holding tokens (1 -
  // internal fragmentation). Physical: a block shared by n sequences
  // counts its capacity and its tokens once, not n times.
  double Occupancy() const;
  // Tail waste of partially filled blocks: 1 - Occupancy().
  double InternalFragmentation() const { return 1.0 - Occupancy(); }
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
  int64_t cow_splits_total() const { return cow_splits_total_; }
  // Successful append operations (one per AppendToken call) and blocks
  // taken by any allocation: the KV cache's work counters.
  int64_t appends_total() const { return appends_total_; }
  int64_t allocations_total() const { return allocations_total_; }
  int64_t evictions_total() const { return evictions_total_; }
  int64_t shared_blocks_high_water() const { return shared_blocks_high_water_; }

  // Invariant audit (test hook): per-block refcounts equal the number of
  // block-table entries naming the block, every block is in exactly one of
  // {free, evictable, referenced}, and the three partitions sum to
  // num_blocks. Cheap enough to call after every test scenario.
  bool RefcountsConsistent() const;

 private:
  struct Block {
    int64_t refs = 0;
    int64_t tokens = 0;    // Tokens written into this block.
    uint64_t hash = 0;     // Content key; 0 = unhashed (never indexed).
    bool evictable = false;
    std::list<int64_t>::iterator lru;  // Valid iff evictable.
  };
  struct SequenceState {
    bool live = false;
    std::vector<int64_t> blocks;
    int64_t tokens = 0;
    // Content hashes for this sequence's prompt blocks (AddSequenceShared
    // keeps them so later ExtendSequence calls can index blocks once they
    // fill). Empty on the private AddSequence path.
    std::vector<uint64_t> hashes;
  };

  SequenceState& State(int64_t sequence_id);
  const SequenceState& State(int64_t sequence_id) const;
  // Blocks AppendTokens(·, tokens) takes: a copy of a shared partial tail
  // plus one per block boundary crossed.
  int64_t BlocksToAppend(const SequenceState& state, int64_t tokens) const;
  // Takes a block from the free list, or evicts the LRU cached block
  // (pruning its index entry). Returns -1 when neither is possible.
  int64_t AllocateBlock();
  // Adds one reference; a previously evictable block leaves the LRU.
  void Ref(int64_t block);
  // Drops one reference; on zero, retain (hashed + indexed) or free.
  void Unref(int64_t block);
  // Stamps + indexes any of `state`'s own blocks that are now completely
  // filled and have a known content hash (first writer wins per hash).
  void IndexFullBlocks(SequenceState& state);
  // How many of the first `hit_count` prefix hits currently sit in the
  // evictable cache (refs == 0). Those blocks are counted by
  // available_blocks() but leave the pool the moment admission re-refs
  // them, so admission probes must discount them.
  int64_t EvictableHitBlocks(const std::vector<uint64_t>& block_hashes, int64_t hit_count) const;
  void NoteAllocation();
  void NoteSharing();

  KvBlockConfig config_;
  std::vector<Block> blocks_;
  std::vector<int64_t> free_list_;
  // Unreferenced-but-retained blocks, least recently used at the front.
  std::list<int64_t> evictable_lru_;
  std::unordered_map<uint64_t, int64_t> prefix_index_;  // hash -> block id.
  // Indexed by sequence id: ids are small and dense (every scheduler
  // numbers its sequences from 0), so a lookup is one vector index.
  std::vector<SequenceState> tables_;
  int64_t num_sequences_ = 0;
  int64_t used_blocks_ = 0;
  int64_t shared_blocks_ = 0;
  int64_t high_water_blocks_ = 0;
  int64_t shared_blocks_high_water_ = 0;
  int64_t prefix_hit_tokens_total_ = 0;
  int64_t cow_splits_total_ = 0;
  int64_t appends_total_ = 0;
  int64_t allocations_total_ = 0;
  int64_t evictions_total_ = 0;
};

// The TP-group view: block tables replicated across ranks, bytes sharded.
class DistributedKvManager {
 public:
  // `ranks` managers share one logical cache; all must have identical
  // block geometry.
  DistributedKvManager(int num_ranks, const KvBlockConfig& per_rank_config);

  int num_ranks() const { return static_cast<int>(ranks_.size()); }
  KvBlockManager& rank(int index);
  const KvBlockManager& rank(int index) const;

  // Group-level operations keep every rank's tables in lockstep; they
  // succeed only if every rank can allocate (all-or-nothing).
  bool AddSequence(int64_t sequence_id, int64_t prompt_tokens);
  bool AddSequenceShared(int64_t sequence_id, int64_t resident_tokens,
                         const std::vector<uint64_t>& block_hashes);
  bool ExtendSequence(int64_t sequence_id, int64_t resident_tokens);
  void Fork(int64_t parent_id, int64_t child_id);
  bool AppendTokens(int64_t sequence_id, int64_t tokens);
  bool AppendToken(int64_t sequence_id) { return AppendTokens(sequence_id, 1); }
  void FreeSequence(int64_t sequence_id);
  void FreeSequences(const std::vector<int64_t>& sequence_ids);

  // True iff every rank can admit (symmetric geometry makes rank 0
  // authoritative, but all ranks are probed to preserve the invariant).
  bool CanAdmit(int64_t prompt_tokens, int64_t reserve_tokens) const;
  bool CanAdmitShared(int64_t resident_tokens, int64_t reserve_tokens,
                      const std::vector<uint64_t>& block_hashes) const;
  // Ranks are in lockstep, so rank 0's prefix index is authoritative.
  int64_t PrefixHitTokens(const std::vector<uint64_t>& block_hashes) const;
  // Group high-water mark (max over ranks; ranks move in lockstep).
  int64_t high_water_blocks() const;

  // Invariant check: every rank holds identical block tables.
  bool TablesInLockstep() const;

  double total_used_bytes() const;

 private:
  std::vector<KvBlockManager> ranks_;
};

}  // namespace hybridflow

#endif  // SRC_KVCACHE_BLOCK_MANAGER_H_
