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
    hashes.push_back(h);
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
    hashes.push_back(h);
  }
  return hashes;
}

KvBlockManager::KvBlockManager(const KvBlockConfig& config)
    : config_(config), free_blocks_(config.num_blocks) {
  HF_CHECK_GT(config_.block_tokens, 0);
  HF_CHECK_GE(config_.num_blocks, 0);
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

void KvBlockManager::TakeBlocks(int64_t count) {
  const int64_t from_free = std::min(count, free_blocks_);
  free_blocks_ -= from_free;
  // Evict the least recently used retained blocks; their index entries are
  // pruned so later probes can't hit a block that no longer holds the
  // content.
  for (int64_t i = from_free; i < count; ++i) {
    HF_CHECK(!evictable_lru_.empty());
    prefix_index_.erase(evictable_lru_.front());
    evictable_lru_.pop_front();
    ++evictions_total_;
  }
  allocations_total_ += count;
  used_blocks_ += count;
}

void KvBlockManager::Ref(uint64_t hash) {
  IndexedBlock& block = prefix_index_.at(hash);
  if (block.refs == 0) {
    evictable_lru_.erase(block.lru);
    ++used_blocks_;
  }
  block.refs += 1;
  if (block.refs == 2) {
    ++shared_blocks_;
    shared_blocks_high_water_ = std::max(shared_blocks_high_water_, shared_blocks_);
  }
}

void KvBlockManager::Unref(uint64_t hash) {
  IndexedBlock& block = prefix_index_.at(hash);
  HF_CHECK_GT(block.refs, 0);
  block.refs -= 1;
  if (block.refs == 1) {
    --shared_blocks_;
  }
  if (block.refs == 0) {
    // Retain for future prefix hits: unreferenced but still materialized,
    // reclaimable by TakeBlocks' LRU eviction.
    --used_blocks_;
    block.lru = evictable_lru_.insert(evictable_lru_.end(), hash);
  }
}

void KvBlockManager::IndexFullBlocks(SequenceState& state, const std::vector<uint64_t>& hashes,
                                     int64_t first) {
  if (!config_.enable_prefix_cache) {
    return;
  }
  const int64_t full = std::min<int64_t>(first + static_cast<int64_t>(hashes.size()),
                                         state.tokens / config_.block_tokens);
  for (; state.offered < full; ++state.offered) {
    const uint64_t hash = hashes[static_cast<size_t>(state.offered - first)];
    // A private block of this sequence becomes the indexed block serving
    // `hash` (refs 1, already counted as used).
    if (prefix_index_.emplace(hash, IndexedBlock{1, {}}).second) {
      state.indexed.push_back(hash);
    }
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
  const int64_t hit_tokens = PrefixHitTokens(block_hashes);
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
  // Reference the shared prefix first so eviction (inside TakeBlocks) can
  // never reclaim a block we are about to share.
  state.indexed.assign(block_hashes.begin(), block_hashes.begin() + hit_count);
  for (uint64_t hash : state.indexed) {
    Ref(hash);
  }
  state.offered = hit_count;
  TakeBlocks(needed);
  prefix_hit_tokens_total_ += hit_tokens;
  ++num_sequences_;
  IndexFullBlocks(state, block_hashes, 0);
  if (config_.enable_prefix_cache && state.offered < static_cast<int64_t>(block_hashes.size())) {
    // Only a partially resident prompt keeps hashes, and only the unoffered
    // tail: a resume re-admits its whole context and copies nothing.
    state.pending_hashes.assign(block_hashes.begin() + state.offered, block_hashes.end());
  }
  NoteAllocation();
  return true;
}

int64_t KvBlockManager::EvictableHitBlocks(const std::vector<uint64_t>& block_hashes,
                                           int64_t hit_count) const {
  int64_t evictable = 0;
  for (int64_t i = 0; i < hit_count; ++i) {
    if (prefix_index_.at(block_hashes[static_cast<size_t>(i)]).refs == 0) {
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
    if (it->second.refs > 0) {
      ++referenced;
    }
  }
  return referenced;
}

bool KvBlockManager::CanExtendSequence(int64_t sequence_id, int64_t resident_tokens) const {
  const SequenceState& state = State(sequence_id);
  return BlocksFor(std::max(resident_tokens, state.tokens)) - BlocksFor(state.tokens) <=
         available_blocks();
}

bool KvBlockManager::ExtendSequence(int64_t sequence_id, int64_t resident_tokens) {
  SequenceState& state = State(sequence_id);
  if (resident_tokens <= state.tokens) {
    return true;
  }
  // The existing tail block (if partial) simply fills further; only whole
  // new blocks are allocated. Residency growth never shares: prefix hits
  // are taken once, at admission, so compute-skip accounting stays simple.
  const int64_t needed = BlocksFor(resident_tokens) - BlocksFor(state.tokens);
  if (needed > available_blocks()) {
    return false;
  }
  TakeBlocks(needed);
  const int64_t first = state.offered;
  state.tokens = resident_tokens;
  IndexFullBlocks(state, state.pending_hashes, first);
  state.pending_hashes.erase(state.pending_hashes.begin(),
                             state.pending_hashes.begin() + (state.offered - first));
  NoteAllocation();
  return true;
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

bool KvBlockManager::CanAppendTokens(int64_t sequence_id, int64_t tokens) const {
  HF_CHECK_GE(tokens, 0);
  const SequenceState& state = State(sequence_id);
  return BlocksFor(state.tokens + tokens) - BlocksFor(state.tokens) <= available_blocks();
}

bool KvBlockManager::AppendTokens(int64_t sequence_id, int64_t tokens) {
  HF_CHECK_GE(tokens, 0);
  SequenceState& state = State(sequence_id);
  // Shared blocks are always full, so an append never writes into one: it
  // fills the private tail and takes one block per boundary crossed.
  const int64_t needed = BlocksFor(state.tokens + tokens) - BlocksFor(state.tokens);
  if (needed > available_blocks()) {
    return false;
  }
  TakeBlocks(needed);
  state.tokens += tokens;
  appends_total_ += tokens > 0 ? 1 : 0;
  NoteAllocation();
  return true;
}

void KvBlockManager::AppendRun(int64_t sequence_id, int64_t tokens) {
  HF_CHECK_GE(tokens, 0);
  SequenceState& state = State(sequence_id);
  const int64_t crossed = BlocksFor(state.tokens + tokens) - BlocksFor(state.tokens);
  HF_CHECK_LE(crossed, free_blocks_);
  TakeBlocks(crossed);
  state.tokens += tokens;
  appends_total_ += crossed;
  NoteAllocation();
}

void KvBlockManager::NoteAllocation() {
  high_water_blocks_ = std::max(high_water_blocks_, used_blocks_);
}

void KvBlockManager::FreeSequence(int64_t sequence_id) {
  SequenceState& state = State(sequence_id);
  // Block order: a sequence's indexed blocks enter the LRU front to back.
  for (uint64_t hash : state.indexed) {
    Unref(hash);
  }
  const int64_t private_blocks =
      BlocksFor(state.tokens) - static_cast<int64_t>(state.indexed.size());
  used_blocks_ -= private_blocks;
  free_blocks_ += private_blocks;
  state.live = false;
  state.tokens = 0;
  state.pending_hashes.clear();  // Keeps capacity for the id's next admission.
  state.offered = 0;
  state.indexed.clear();
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

const std::vector<uint64_t>& KvBlockManager::IndexedHashes(int64_t sequence_id) const {
  return State(sequence_id).indexed;
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
  // Recount references from the live sequences and compare with the
  // indexed blocks' refcounts and the cached aggregates.
  std::unordered_map<uint64_t, int64_t> counted;
  int64_t live = 0;
  int64_t private_blocks = 0;
  for (const SequenceState& state : tables_) {
    if (!state.live) {
      if (state.tokens != 0 || state.offered != 0 || !state.indexed.empty()) {
        return false;
      }
      continue;
    }
    const int64_t indexed = static_cast<int64_t>(state.indexed.size());
    if (indexed > state.offered || state.offered > BlocksFor(state.tokens)) {
      return false;
    }
    ++live;
    private_blocks += BlocksFor(state.tokens) - indexed;
    for (uint64_t hash : state.indexed) {
      counted[hash] += 1;
    }
  }
  if (live != num_sequences_ || (!config_.enable_prefix_cache && !prefix_index_.empty())) {
    return false;
  }
  int64_t referenced = 0;
  int64_t shared = 0;
  int64_t retained = 0;
  for (const auto& [hash, block] : prefix_index_) {
    const auto it = counted.find(hash);
    if (block.refs != (it == counted.end() ? 0 : it->second)) {
      return false;
    }
    referenced += block.refs > 0 ? 1 : 0;
    shared += block.refs > 1 ? 1 : 0;
    if (block.refs == 0) {
      // A retained block sits in the LRU under its own hash.
      if (*block.lru != hash) {
        return false;
      }
      ++retained;
    }
  }
  // Every held hash is indexed, and the LRU holds exactly the retained
  // blocks (each names a distinct one, so equal sizes mean equal sets).
  if (referenced != static_cast<int64_t>(counted.size()) || retained != cached_blocks()) {
    return false;
  }
  if (used_blocks_ != referenced + private_blocks || shared_blocks_ != shared) {
    return false;
  }
  // Free + retained + referenced must partition the block space.
  return free_blocks_ >= 0 && free_blocks_ + retained + used_blocks_ == config_.num_blocks;
}

}  // namespace hybridflow
