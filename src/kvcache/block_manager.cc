#include "src/kvcache/block_manager.h"

#include <algorithm>

#include "src/common/check.h"

namespace hybridflow {
namespace {

// splitmix64 finalizer — the standard cheap 64-bit mixer. Chained hashing
// only needs collision resistance good enough that distinct prefixes never
// alias in practice (64-bit keyspace, thousands of blocks).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t NonZero(uint64_t h) { return h == 0 ? 0x9e3779b97f4a7c15ULL : h; }

int64_t CeilBlocks(int64_t tokens, int64_t block_tokens) {
  return (tokens + block_tokens - 1) / block_tokens;
}

// The one capacity rule: whole sequences of `tokens_per_sequence` that fit
// in `blocks` blocks.
int64_t SequencesIn(int64_t blocks, int64_t block_tokens, int64_t tokens_per_sequence) {
  HF_CHECK_GT(tokens_per_sequence, 0);
  return blocks / CeilBlocks(tokens_per_sequence, block_tokens);
}

}  // namespace

std::vector<uint64_t> PromptBlockHashes(const std::vector<int64_t>& tokens,
                                        int64_t block_tokens) {
  HF_CHECK_GT(block_tokens, 0);
  std::vector<uint64_t> hashes;
  const int64_t full_blocks = static_cast<int64_t>(tokens.size()) / block_tokens;
  hashes.reserve(static_cast<size_t>(full_blocks));
  uint64_t h = 0x243f6a8885a308d3ULL;  // Arbitrary fixed seed (pi digits).
  for (int64_t block = 0; block < full_blocks; ++block) {
    for (int64_t i = 0; i < block_tokens; ++i) {
      h = Mix64(h ^ static_cast<uint64_t>(tokens[static_cast<size_t>(block * block_tokens + i)]));
    }
    hashes.push_back(NonZero(h));
  }
  return hashes;
}

std::vector<uint64_t> GroupBlockHashes(int64_t group, int64_t full_blocks) {
  HF_CHECK_GE(full_blocks, 0);
  std::vector<uint64_t> hashes;
  hashes.reserve(static_cast<size_t>(full_blocks));
  uint64_t h = Mix64(0x452821e638d01377ULL ^ static_cast<uint64_t>(group));
  for (int64_t block = 0; block < full_blocks; ++block) {
    h = Mix64(h ^ static_cast<uint64_t>(block + 1));
    hashes.push_back(NonZero(h));
  }
  return hashes;
}

KvBlockManager::KvBlockManager(const KvBlockConfig& config) : config_(config) {
  HF_CHECK_GT(config_.block_tokens, 0);
  HF_CHECK_GE(config_.num_blocks, 0);
  blocks_.resize(static_cast<size_t>(config_.num_blocks));
  free_list_.reserve(static_cast<size_t>(config_.num_blocks));
  // Blocks handed out from the back: highest ids first (order is an
  // implementation detail; tests only rely on set semantics).
  for (int64_t block = 0; block < config_.num_blocks; ++block) {
    free_list_.push_back(block);
  }
}

int64_t KvBlockManager::BlocksFor(int64_t tokens) const {
  return CeilBlocks(tokens, config_.block_tokens);
}

KvBlockManager::SequenceState& KvBlockManager::State(int64_t sequence_id) {
  HF_CHECK_MSG(HasSequence(sequence_id), "unknown sequence " << sequence_id);
  return tables_[static_cast<size_t>(sequence_id)];
}

const KvBlockManager::SequenceState& KvBlockManager::State(int64_t sequence_id) const {
  HF_CHECK_MSG(HasSequence(sequence_id), "unknown sequence " << sequence_id);
  return tables_[static_cast<size_t>(sequence_id)];
}

int64_t KvBlockManager::AllocateBlock() {
  if (!free_list_.empty()) {
    const int64_t block = free_list_.back();
    free_list_.pop_back();
    ++allocations_total_;
    return block;
  }
  if (evictable_lru_.empty()) {
    return -1;
  }
  // Evict the least recently used cached block; its prefix-index entry is
  // pruned so later probes can't hit a block that no longer holds the
  // content.
  const int64_t block = evictable_lru_.front();
  evictable_lru_.pop_front();
  Block& b = blocks_[static_cast<size_t>(block)];
  HF_CHECK_EQ(b.refs, 0);
  auto indexed = prefix_index_.find(b.hash);
  if (indexed != prefix_index_.end() && indexed->second == block) {
    prefix_index_.erase(indexed);
  }
  b = Block{};
  ++evictions_total_;
  ++allocations_total_;
  return block;
}

void KvBlockManager::Ref(int64_t block) {
  Block& b = blocks_[static_cast<size_t>(block)];
  if (b.evictable) {
    HF_CHECK_EQ(b.refs, 0);
    evictable_lru_.erase(b.lru);
    b.evictable = false;
  }
  if (b.refs == 0) {
    ++used_blocks_;
  }
  b.refs += 1;
  if (b.refs == 2) {
    ++shared_blocks_;
    NoteSharing();
  }
}

void KvBlockManager::Unref(int64_t block) {
  Block& b = blocks_[static_cast<size_t>(block)];
  HF_CHECK_GT(b.refs, 0);
  b.refs -= 1;
  if (b.refs == 1) {
    --shared_blocks_;
  }
  if (b.refs > 0) {
    return;
  }
  --used_blocks_;
  auto indexed = b.hash == 0 ? prefix_index_.end() : prefix_index_.find(b.hash);
  if (config_.enable_prefix_cache && indexed != prefix_index_.end() && indexed->second == block) {
    // Retain for future prefix hits: unreferenced but still materialized,
    // reclaimable by AllocateBlock's LRU eviction.
    evictable_lru_.push_back(block);
    b.evictable = true;
    b.lru = std::prev(evictable_lru_.end());
    return;
  }
  if (indexed != prefix_index_.end() && indexed->second == block) {
    prefix_index_.erase(indexed);
  }
  b = Block{};
  free_list_.push_back(block);
}

void KvBlockManager::IndexFullBlocks(SequenceState& state) {
  if (!config_.enable_prefix_cache) {
    return;
  }
  const int64_t hashed = std::min<int64_t>(static_cast<int64_t>(state.hashes.size()),
                                           state.tokens / config_.block_tokens);
  for (int64_t i = 0; i < hashed; ++i) {
    Block& b = blocks_[static_cast<size_t>(state.blocks[static_cast<size_t>(i)])];
    if (b.hash != 0) {
      continue;  // Already stamped (shared hit or earlier pass).
    }
    b.hash = state.hashes[static_cast<size_t>(i)];
    // First writer wins: if another block already serves this hash, this
    // one simply stays un-indexed (and frees normally on last unref).
    prefix_index_.emplace(b.hash, state.blocks[static_cast<size_t>(i)]);
  }
}

bool KvBlockManager::AddSequence(int64_t sequence_id, int64_t prompt_tokens) {
  return AddSequenceShared(sequence_id, prompt_tokens, {});
}

bool KvBlockManager::AddSequenceShared(int64_t sequence_id, int64_t resident_tokens,
                                       const std::vector<uint64_t>& block_hashes) {
  HF_CHECK_GE(resident_tokens, 0);
  HF_CHECK_GE(sequence_id, 0);
  HF_CHECK_MSG(!HasSequence(sequence_id), "sequence " << sequence_id << " already exists");
  const int64_t hit_tokens =
      config_.enable_prefix_cache ? PrefixHitTokens(block_hashes) : 0;
  const int64_t hit_count = hit_tokens / config_.block_tokens;
  // Sharing is free, so residency covers at least every hit block even if
  // the caller asked for less.
  const int64_t tokens = std::max(resident_tokens, hit_tokens);
  const int64_t needed = BlocksFor(tokens) - hit_count;
  // Evictable hit blocks are inside available_blocks() but stop being
  // available the moment we re-reference them below.
  if (needed > available_blocks() - EvictableHitBlocks(block_hashes, hit_count)) {
    return false;
  }
  if (static_cast<size_t>(sequence_id) >= tables_.size()) {
    tables_.resize(static_cast<size_t>(sequence_id) + 1);
  }
  SequenceState& state = tables_[static_cast<size_t>(sequence_id)];
  state.live = true;
  state.tokens = tokens;
  if (config_.enable_prefix_cache) {
    state.hashes = block_hashes;
  }
  state.blocks.reserve(static_cast<size_t>(BlocksFor(tokens)));
  // Reference the shared prefix first so eviction (inside AllocateBlock)
  // can never reclaim a block we are about to share.
  for (int64_t i = 0; i < hit_count; ++i) {
    const int64_t block = prefix_index_.at(block_hashes[static_cast<size_t>(i)]);
    Ref(block);
    state.blocks.push_back(block);
  }
  for (int64_t i = hit_count; i < BlocksFor(tokens); ++i) {
    const int64_t block = AllocateBlock();
    HF_CHECK_GE(block, 0);  // Guaranteed by the available_blocks() probe.
    Block& b = blocks_[static_cast<size_t>(block)];
    b.refs = 1;
    b.tokens = std::min<int64_t>(config_.block_tokens, tokens - i * config_.block_tokens);
    ++used_blocks_;
    state.blocks.push_back(block);
  }
  prefix_hit_tokens_total_ += hit_tokens;
  ++num_sequences_;
  IndexFullBlocks(state);
  NoteAllocation();
  return true;
}

int64_t KvBlockManager::EvictableHitBlocks(const std::vector<uint64_t>& block_hashes,
                                           int64_t hit_count) const {
  int64_t evictable = 0;
  for (int64_t i = 0; i < hit_count; ++i) {
    const int64_t block = prefix_index_.at(block_hashes[static_cast<size_t>(i)]);
    if (blocks_[static_cast<size_t>(block)].evictable) {
      ++evictable;
    }
  }
  return evictable;
}

int64_t KvBlockManager::PrefixHitTokens(const std::vector<uint64_t>& block_hashes) const {
  if (!config_.enable_prefix_cache) {
    return 0;
  }
  int64_t hits = 0;
  for (uint64_t hash : block_hashes) {
    if (prefix_index_.count(hash) == 0) {
      break;
    }
    ++hits;
  }
  return hits * config_.block_tokens;
}

int64_t KvBlockManager::PrefixHitBlocksReferenced(
    const std::vector<uint64_t>& block_hashes) const {
  if (!config_.enable_prefix_cache) {
    return 0;
  }
  int64_t referenced = 0;
  for (uint64_t hash : block_hashes) {
    auto it = prefix_index_.find(hash);
    if (it == prefix_index_.end()) {
      break;  // Contiguous leading run only, mirroring PrefixHitTokens.
    }
    if (blocks_[static_cast<size_t>(it->second)].refs > 0) {
      ++referenced;
    }
  }
  return referenced;
}

bool KvBlockManager::CanExtendSequence(int64_t sequence_id, int64_t resident_tokens) const {
  const SequenceState& state = State(sequence_id);
  const int64_t needed =
      BlocksFor(std::max(resident_tokens, state.tokens)) -
      static_cast<int64_t>(state.blocks.size());
  return needed <= available_blocks();
}

bool KvBlockManager::ExtendSequence(int64_t sequence_id, int64_t resident_tokens) {
  SequenceState& state = State(sequence_id);
  if (resident_tokens <= state.tokens) {
    return true;
  }
  const int64_t needed = BlocksFor(resident_tokens) - static_cast<int64_t>(state.blocks.size());
  if (needed > available_blocks()) {
    return false;
  }
  // The existing tail block (if partial) simply fills further; only whole
  // new blocks are allocated. Residency growth never shares: prefix hits
  // are taken once, at admission, so compute-skip accounting stays simple.
  const size_t tail = state.blocks.empty() ? 0 : state.blocks.size() - 1;
  for (int64_t i = 0; i < needed; ++i) {
    const int64_t block = AllocateBlock();
    HF_CHECK_GE(block, 0);
    Block& b = blocks_[static_cast<size_t>(block)];
    b.refs = 1;
    ++used_blocks_;
    state.blocks.push_back(block);
  }
  state.tokens = resident_tokens;
  // Recompute the fill of this sequence's own (unshared) blocks from the
  // old tail on; the blocks before it were already full.
  for (size_t i = tail; i < state.blocks.size(); ++i) {
    Block& b = blocks_[state.blocks[i]];
    if (b.refs == 1) {
      b.tokens = std::min<int64_t>(config_.block_tokens,
                                   state.tokens - static_cast<int64_t>(i) * config_.block_tokens);
    }
  }
  IndexFullBlocks(state);
  NoteAllocation();
  return true;
}

void KvBlockManager::Fork(int64_t parent_id, int64_t child_id) {
  HF_CHECK_GE(child_id, 0);
  HF_CHECK_MSG(!HasSequence(child_id), "sequence " << child_id << " already exists");
  if (static_cast<size_t>(child_id) >= tables_.size()) {
    tables_.resize(static_cast<size_t>(child_id) + 1);
  }
  SequenceState child = State(parent_id);
  for (int64_t block : child.blocks) {
    Ref(block);
  }
  tables_[static_cast<size_t>(child_id)] = std::move(child);
  ++num_sequences_;
  NoteAllocation();
}

bool KvBlockManager::CanAdmit(int64_t prompt_tokens, int64_t reserve_tokens) const {
  HF_CHECK_GE(prompt_tokens, 0);
  HF_CHECK_GE(reserve_tokens, 0);
  return BlocksFor(prompt_tokens + reserve_tokens) <= available_blocks();
}

bool KvBlockManager::CanAdmitShared(int64_t resident_tokens, int64_t reserve_tokens,
                                    const std::vector<uint64_t>& block_hashes) const {
  HF_CHECK_GE(resident_tokens, 0);
  HF_CHECK_GE(reserve_tokens, 0);
  const int64_t hit_tokens = PrefixHitTokens(block_hashes);
  const int64_t hit_count = hit_tokens / config_.block_tokens;
  const int64_t tokens = std::max(resident_tokens, hit_tokens);
  return BlocksFor(tokens + reserve_tokens) - hit_count <=
         available_blocks() - EvictableHitBlocks(block_hashes, hit_count);
}

int64_t KvBlockManager::BlocksToAppend(const SequenceState& state, int64_t tokens) const {
  HF_CHECK_GE(tokens, 0);
  const bool shared_tail = tokens > 0 && state.tokens % config_.block_tokens != 0 &&
                           blocks_[static_cast<size_t>(state.blocks.back())].refs > 1;
  return (shared_tail ? 1 : 0) + BlocksFor(state.tokens + tokens) - BlocksFor(state.tokens);
}

bool KvBlockManager::CanAppendTokens(int64_t sequence_id, int64_t tokens) const {
  return BlocksToAppend(State(sequence_id), tokens) <= available_blocks();
}

bool KvBlockManager::AppendTokens(int64_t sequence_id, int64_t tokens) {
  SequenceState& state = State(sequence_id);
  if (BlocksToAppend(state, tokens) > available_blocks()) {
    return false;
  }
  int64_t left = tokens;
  const int64_t tail_room = (config_.block_tokens - state.tokens % config_.block_tokens) %
                            config_.block_tokens;
  if (left > 0 && tail_room > 0) {
    if (blocks_[static_cast<size_t>(state.blocks.back())].refs > 1) {
      // First divergent write into a shared tail: copy-on-write split. The
      // writer gets a private copy holding the same tokens; readers keep
      // the original untouched. Full shared blocks are never written
      // (appends at a boundary allocate fresh), so COW only ever hits the
      // partial tail.
      const int64_t block = AllocateBlock();
      Block& copy = blocks_[static_cast<size_t>(block)];
      copy.refs = 1;
      copy.tokens = blocks_[static_cast<size_t>(state.blocks.back())].tokens;
      ++used_blocks_;
      Unref(state.blocks.back());
      state.blocks.back() = block;
      ++cow_splits_total_;
    }
    const int64_t fill = std::min(left, tail_room);
    blocks_[static_cast<size_t>(state.blocks.back())].tokens += fill;
    state.tokens += fill;
    left -= fill;
  }
  for (; left > 0; left -= config_.block_tokens) {
    const int64_t block = AllocateBlock();
    Block& b = blocks_[static_cast<size_t>(block)];
    b.refs = 1;
    b.tokens = std::min(left, config_.block_tokens);
    ++used_blocks_;
    state.blocks.push_back(block);
    state.tokens += b.tokens;
  }
  appends_total_ += tokens > 0 ? 1 : 0;
  NoteAllocation();
  return true;
}

void KvBlockManager::NoteAllocation() {
  high_water_blocks_ = std::max(high_water_blocks_, used_blocks_);
}

void KvBlockManager::NoteSharing() {
  shared_blocks_high_water_ = std::max(shared_blocks_high_water_, shared_blocks_);
}

void KvBlockManager::FreeSequence(int64_t sequence_id) {
  SequenceState& state = State(sequence_id);
  for (int64_t block : state.blocks) {
    Unref(block);
  }
  state.live = false;
  state.blocks.clear();  // Keeps capacity for the id's next admission.
  state.hashes.clear();
  state.tokens = 0;
  --num_sequences_;
}

void KvBlockManager::FreeSequences(const std::vector<int64_t>& sequence_ids) {
  for (int64_t sequence_id : sequence_ids) {
    FreeSequence(sequence_id);
  }
}

int64_t KvBlockManager::SequenceTokens(int64_t sequence_id) const {
  return State(sequence_id).tokens;
}

const std::vector<int64_t>& KvBlockManager::BlockTable(int64_t sequence_id) const {
  return State(sequence_id).blocks;
}

double KvBlockManager::used_bytes() const {
  return static_cast<double>(used_blocks()) * static_cast<double>(config_.block_tokens) *
         config_.bytes_per_token;
}

double KvBlockManager::Occupancy() const {
  // Physical accounting: a block shared by n sequences contributes its
  // capacity and its fill exactly once (summing per-sequence token counts
  // would overstate fill n-fold under sharing).
  const int64_t allocated_tokens = used_blocks_ * config_.block_tokens;
  if (allocated_tokens == 0) {
    return 1.0;
  }
  int64_t live_tokens = 0;
  for (const Block& block : blocks_) {
    if (block.refs > 0) {
      live_tokens += block.tokens;
    }
  }
  return static_cast<double>(live_tokens) / static_cast<double>(allocated_tokens);
}

int64_t KvBlockManager::CapacitySequences(int64_t tokens_per_sequence) const {
  return SequencesIn(available_blocks(), config_.block_tokens, tokens_per_sequence);
}

int64_t KvBlockManager::CapacitySequences(const KvBlockConfig& config,
                                          int64_t tokens_per_sequence) {
  HF_CHECK_GT(config.block_tokens, 0);
  HF_CHECK_GE(config.num_blocks, 0);
  return SequencesIn(config.num_blocks, config.block_tokens, tokens_per_sequence);
}

bool KvBlockManager::RefcountsConsistent() const {
  // Recount references from the tables and compare with the per-block
  // refcounts and the cached aggregates.
  std::vector<int64_t> counted(blocks_.size(), 0);
  for (const SequenceState& state : tables_) {
    for (int64_t block : state.blocks) {
      counted[static_cast<size_t>(block)] += 1;
    }
  }
  int64_t used = 0;
  int64_t shared = 0;
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i].refs != counted[i]) {
      return false;
    }
    if (blocks_[i].refs > 0) {
      ++used;
    }
    if (blocks_[i].refs > 1) {
      ++shared;
    }
    if (blocks_[i].evictable && blocks_[i].refs != 0) {
      return false;
    }
  }
  if (used != used_blocks_ || shared != shared_blocks_) {
    return false;
  }
  // Free + evictable + referenced must partition the block space.
  std::vector<int> where(blocks_.size(), 0);
  for (int64_t block : free_list_) {
    where[static_cast<size_t>(block)] += 1;
    if (blocks_[static_cast<size_t>(block)].refs != 0 ||
        blocks_[static_cast<size_t>(block)].evictable) {
      return false;
    }
  }
  for (int64_t block : evictable_lru_) {
    where[static_cast<size_t>(block)] += 1;
    if (!blocks_[static_cast<size_t>(block)].evictable) {
      return false;
    }
  }
  for (size_t i = 0; i < blocks_.size(); ++i) {
    const int expected = blocks_[i].refs > 0 ? 0 : 1;
    if (where[i] != expected) {
      return false;
    }
  }
  // Every index entry must name a materialized block carrying that hash.
  for (const auto& [hash, block] : prefix_index_) {
    const Block& b = blocks_[static_cast<size_t>(block)];
    if (b.hash != hash || (b.refs == 0 && !b.evictable)) {
      return false;
    }
  }
  return true;
}

DistributedKvManager::DistributedKvManager(int num_ranks, const KvBlockConfig& per_rank_config) {
  HF_CHECK_GT(num_ranks, 0);
  ranks_.reserve(static_cast<size_t>(num_ranks));
  for (int rank = 0; rank < num_ranks; ++rank) {
    ranks_.emplace_back(per_rank_config);
  }
}

KvBlockManager& DistributedKvManager::rank(int index) {
  HF_CHECK_GE(index, 0);
  HF_CHECK_LT(static_cast<size_t>(index), ranks_.size());
  return ranks_[static_cast<size_t>(index)];
}

const KvBlockManager& DistributedKvManager::rank(int index) const {
  HF_CHECK_GE(index, 0);
  HF_CHECK_LT(static_cast<size_t>(index), ranks_.size());
  return ranks_[static_cast<size_t>(index)];
}

bool DistributedKvManager::AddSequence(int64_t sequence_id, int64_t prompt_tokens) {
  return AddSequenceShared(sequence_id, prompt_tokens, {});
}

bool DistributedKvManager::AddSequenceShared(int64_t sequence_id, int64_t resident_tokens,
                                             const std::vector<uint64_t>& block_hashes) {
  // All-or-nothing: ranks are symmetric and in lockstep, so either every
  // rank can place the sequence or none can.
  for (const KvBlockManager& manager : ranks_) {
    if (!manager.CanAdmitShared(resident_tokens, 0, block_hashes)) {
      return false;
    }
  }
  for (KvBlockManager& manager : ranks_) {
    HF_CHECK_MSG(manager.AddSequenceShared(sequence_id, resident_tokens, block_hashes),
                 "symmetric ranks diverged while adding a sequence");
  }
  return true;
}

bool DistributedKvManager::ExtendSequence(int64_t sequence_id, int64_t resident_tokens) {
  for (const KvBlockManager& manager : ranks_) {
    if (!manager.CanExtendSequence(sequence_id, resident_tokens)) {
      return false;
    }
  }
  for (KvBlockManager& manager : ranks_) {
    HF_CHECK_MSG(manager.ExtendSequence(sequence_id, resident_tokens),
                 "symmetric ranks diverged while extending a sequence");
  }
  return true;
}

void DistributedKvManager::Fork(int64_t parent_id, int64_t child_id) {
  for (KvBlockManager& manager : ranks_) {
    manager.Fork(parent_id, child_id);
  }
}

bool DistributedKvManager::AppendTokens(int64_t sequence_id, int64_t tokens) {
  // Either every rank can append (allocating or COW-splitting as needed)
  // or none does.
  for (const KvBlockManager& manager : ranks_) {
    if (!manager.CanAppendTokens(sequence_id, tokens)) {
      return false;
    }
  }
  for (KvBlockManager& manager : ranks_) {
    HF_CHECK(manager.AppendTokens(sequence_id, tokens));
  }
  return true;
}

void DistributedKvManager::FreeSequence(int64_t sequence_id) {
  for (KvBlockManager& manager : ranks_) {
    manager.FreeSequence(sequence_id);
  }
}

void DistributedKvManager::FreeSequences(const std::vector<int64_t>& sequence_ids) {
  for (KvBlockManager& manager : ranks_) {
    manager.FreeSequences(sequence_ids);
  }
}

bool DistributedKvManager::CanAdmit(int64_t prompt_tokens, int64_t reserve_tokens) const {
  for (const KvBlockManager& manager : ranks_) {
    if (!manager.CanAdmit(prompt_tokens, reserve_tokens)) {
      return false;
    }
  }
  return true;
}

bool DistributedKvManager::CanAdmitShared(int64_t resident_tokens, int64_t reserve_tokens,
                                          const std::vector<uint64_t>& block_hashes) const {
  for (const KvBlockManager& manager : ranks_) {
    if (!manager.CanAdmitShared(resident_tokens, reserve_tokens, block_hashes)) {
      return false;
    }
  }
  return true;
}

int64_t DistributedKvManager::PrefixHitTokens(const std::vector<uint64_t>& block_hashes) const {
  // Lockstep makes rank 0 authoritative for index contents.
  return ranks_[0].PrefixHitTokens(block_hashes);
}

int64_t DistributedKvManager::high_water_blocks() const {
  int64_t high_water = 0;
  for (const KvBlockManager& manager : ranks_) {
    high_water = std::max(high_water, manager.high_water_blocks());
  }
  return high_water;
}

bool DistributedKvManager::TablesInLockstep() const {
  for (size_t rank = 1; rank < ranks_.size(); ++rank) {
    if (ranks_[rank].num_sequences() != ranks_[0].num_sequences() ||
        ranks_[rank].used_blocks() != ranks_[0].used_blocks() ||
        ranks_[rank].shared_blocks() != ranks_[0].shared_blocks() ||
        ranks_[rank].cached_blocks() != ranks_[0].cached_blocks()) {
      return false;
    }
  }
  return true;
}

double DistributedKvManager::total_used_bytes() const {
  double total = 0.0;
  for (const KvBlockManager& manager : ranks_) {
    total += manager.used_bytes();
  }
  return total;
}

}  // namespace hybridflow
