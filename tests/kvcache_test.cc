#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "src/kvcache/block_manager.h"

namespace hybridflow {
namespace {

KvBlockConfig SmallConfig(int64_t blocks = 8, int64_t block_tokens = 4) {
  KvBlockConfig config;
  config.block_tokens = block_tokens;
  config.num_blocks = blocks;
  config.bytes_per_token = 100.0;
  return config;
}

TEST(KvBlockManagerTest, AddSequenceAllocatesCeilBlocks) {
  KvBlockManager manager(SmallConfig());
  ASSERT_TRUE(manager.AddSequence(1, 5));  // ceil(5/4) = 2 blocks.
  EXPECT_EQ(manager.used_blocks(), 2);
  EXPECT_EQ(manager.SequenceTokens(1), 5);
  EXPECT_EQ(manager.BlockTable(1).size(), 2u);
}

TEST(KvBlockManagerTest, AppendAllocatesAtBlockBoundary) {
  KvBlockManager manager(SmallConfig());
  ASSERT_TRUE(manager.AddSequence(1, 4));  // Exactly one full block.
  EXPECT_EQ(manager.used_blocks(), 1);
  ASSERT_TRUE(manager.AppendToken(1));  // Token 5 -> new block.
  EXPECT_EQ(manager.used_blocks(), 2);
  ASSERT_TRUE(manager.AppendToken(1));  // Token 6 -> same block.
  EXPECT_EQ(manager.used_blocks(), 2);
}

TEST(KvBlockManagerTest, ZeroTokenSequenceHoldsNoBlocks) {
  KvBlockManager manager(SmallConfig());
  ASSERT_TRUE(manager.AddSequence(1, 0));
  EXPECT_EQ(manager.used_blocks(), 0);
  ASSERT_TRUE(manager.AppendToken(1));  // First token allocates.
  EXPECT_EQ(manager.used_blocks(), 1);
}

TEST(KvBlockManagerTest, ExhaustionIsReportedNotFatal) {
  KvBlockManager manager(SmallConfig(/*blocks=*/2));
  ASSERT_TRUE(manager.AddSequence(1, 8));  // Uses both blocks.
  EXPECT_FALSE(manager.AddSequence(2, 1));
  EXPECT_FALSE(manager.HasSequence(2));  // Nothing leaked.
  EXPECT_FALSE(manager.AppendToken(1));  // Boundary, no block left.
  EXPECT_EQ(manager.SequenceTokens(1), 8);
}

TEST(KvBlockManagerTest, FreeRecyclesBlocks) {
  KvBlockManager manager(SmallConfig(/*blocks=*/2));
  ASSERT_TRUE(manager.AddSequence(1, 8));
  manager.FreeSequence(1);
  EXPECT_EQ(manager.free_blocks(), 2);
  ASSERT_TRUE(manager.AddSequence(2, 8));
}

TEST(KvBlockManagerTest, BlockTablesAreDisjointAcrossSequences) {
  KvBlockManager manager(SmallConfig(/*blocks=*/8));
  ASSERT_TRUE(manager.AddSequence(1, 8));
  ASSERT_TRUE(manager.AddSequence(2, 8));
  std::set<int64_t> blocks;
  for (int64_t block : manager.BlockTable(1)) {
    blocks.insert(block);
  }
  for (int64_t block : manager.BlockTable(2)) {
    EXPECT_EQ(blocks.count(block), 0u) << "block " << block << " double-allocated";
  }
}

TEST(KvBlockManagerTest, OccupancyReflectsFragmentation) {
  KvBlockManager manager(SmallConfig());
  ASSERT_TRUE(manager.AddSequence(1, 1));  // 1 token in a 4-token block.
  EXPECT_DOUBLE_EQ(manager.Occupancy(), 0.25);
  ASSERT_TRUE(manager.AppendToken(1));
  EXPECT_DOUBLE_EQ(manager.Occupancy(), 0.5);
}

TEST(KvBlockManagerTest, UsedBytesAndCapacity) {
  KvBlockManager manager(SmallConfig(/*blocks=*/8, /*block_tokens=*/4));
  ASSERT_TRUE(manager.AddSequence(1, 8));
  EXPECT_DOUBLE_EQ(manager.used_bytes(), 2 * 4 * 100.0);
  // 6 free blocks; sequences of 12 tokens need 3 blocks -> 2 fit.
  EXPECT_EQ(manager.CapacitySequences(12), 2);
}

TEST(KvBlockManagerTest, StaticCapacityMatchesAFreshManager) {
  // The closed form that pricing code uses must give exactly what an empty
  // manager answers, including a zero-block pool and one-token blocks.
  for (int64_t num_blocks : {0, 1, 7, 1024}) {
    for (int64_t block_tokens : {1, 4, 16}) {
      const KvBlockConfig config = SmallConfig(num_blocks, block_tokens);
      const KvBlockManager manager(config);
      for (int64_t tokens : {int64_t{1}, block_tokens - 1, block_tokens, block_tokens + 1,
                             int64_t{1000}}) {
        if (tokens < 1) {
          continue;  // Both forms reject an empty sequence.
        }
        EXPECT_EQ(KvBlockManager::CapacitySequences(config, tokens),
                  manager.CapacitySequences(tokens))
            << "num_blocks " << num_blocks << " block_tokens " << block_tokens << " tokens "
            << tokens;
      }
    }
  }
}

// --- Admission control & rollout extensions -----------------------------------

TEST(KvBlockManagerTest, CanAdmitMatchesBlockArithmetic) {
  KvBlockManager manager(SmallConfig(/*blocks=*/4, /*block_tokens=*/4));
  EXPECT_TRUE(manager.CanAdmit(/*prompt_tokens=*/16, /*reserve_tokens=*/0));   // Exactly 4.
  EXPECT_FALSE(manager.CanAdmit(/*prompt_tokens=*/16, /*reserve_tokens=*/1));  // 5th block.
  ASSERT_TRUE(manager.AddSequence(1, 8));  // 2 blocks used.
  EXPECT_TRUE(manager.CanAdmit(5, 3));     // ceil(8/4) = 2 <= 2 free.
  EXPECT_FALSE(manager.CanAdmit(9, 0));    // 3 blocks > 2 free.
  // Probing must not allocate anything.
  EXPECT_EQ(manager.used_blocks(), 2);
  EXPECT_EQ(manager.num_sequences(), 1);
}

TEST(KvBlockManagerTest, FreeSequencesReleasesInBulk) {
  KvBlockManager manager(SmallConfig(/*blocks=*/8));
  ASSERT_TRUE(manager.AddSequence(1, 8));
  ASSERT_TRUE(manager.AddSequence(2, 4));
  ASSERT_TRUE(manager.AddSequence(3, 4));
  manager.FreeSequences({1, 3});
  EXPECT_FALSE(manager.HasSequence(1));
  EXPECT_TRUE(manager.HasSequence(2));
  EXPECT_FALSE(manager.HasSequence(3));
  EXPECT_EQ(manager.used_blocks(), 1);
  EXPECT_EQ(manager.free_blocks(), 7);
}

TEST(KvBlockManagerTest, HighWaterTracksPeakNotCurrentUsage) {
  KvBlockManager manager(SmallConfig(/*blocks=*/8));
  EXPECT_EQ(manager.high_water_blocks(), 0);
  ASSERT_TRUE(manager.AddSequence(1, 8));  // 2 blocks.
  ASSERT_TRUE(manager.AddSequence(2, 8));  // 4 total.
  EXPECT_EQ(manager.high_water_blocks(), 4);
  manager.FreeSequence(1);
  EXPECT_EQ(manager.used_blocks(), 2);
  EXPECT_EQ(manager.high_water_blocks(), 4);  // Monotone.
  ASSERT_TRUE(manager.AddSequence(3, 4));     // Back to 3 used: no new peak.
  EXPECT_EQ(manager.high_water_blocks(), 4);
  ASSERT_TRUE(manager.AppendToken(3));  // 5th token -> new block -> 4 used.
  ASSERT_TRUE(manager.AddSequence(4, 4));
  EXPECT_EQ(manager.high_water_blocks(), 5);
}

TEST(KvBlockManagerTest, InternalFragmentationComplementsOccupancy) {
  KvBlockManager manager(SmallConfig());
  ASSERT_TRUE(manager.AddSequence(1, 1));  // 1 of 4 slots in its block.
  EXPECT_DOUBLE_EQ(manager.InternalFragmentation(), 0.75);
  ASSERT_TRUE(manager.AppendToken(1));
  EXPECT_DOUBLE_EQ(manager.InternalFragmentation(), 0.5);
}

// The rollout scheduler's exhaustion protocol: on a failed append, free a
// victim, requeue it, and later re-admit it at its full grown context.
TEST(KvBlockManagerTest, PreemptResumeCycleRecomputesAtFullContext) {
  KvBlockManager manager(SmallConfig(/*blocks=*/4, /*block_tokens=*/2));
  ASSERT_TRUE(manager.AddSequence(1, 4));  // 2 blocks.
  ASSERT_TRUE(manager.AddSequence(2, 4));  // 4 blocks: cache is full.
  EXPECT_FALSE(manager.AppendToken(1));    // Exhausted at the boundary.
  manager.FreeSequence(2);                 // Preempt the youngest.
  ASSERT_TRUE(manager.AppendToken(1));     // Victim's block is reusable.
  EXPECT_EQ(manager.SequenceTokens(1), 5);
  manager.FreeSequence(1);                 // Seq 1 finishes.
  // Resume: seq 2 re-admits with its grown context (4 prompt + 2 generated).
  ASSERT_TRUE(manager.CanAdmit(6, 0));
  ASSERT_TRUE(manager.AddSequence(2, 6));
  EXPECT_EQ(manager.SequenceTokens(2), 6);
  EXPECT_EQ(manager.used_blocks(), 3);
  EXPECT_EQ(manager.high_water_blocks(), 4);
}

TEST(DistributedKvManagerTest, CanAdmitAndBulkFreeStayInLockstep) {
  DistributedKvManager manager(2, SmallConfig(/*blocks=*/4));
  EXPECT_TRUE(manager.CanAdmit(16, 0));
  EXPECT_FALSE(manager.CanAdmit(16, 1));
  ASSERT_TRUE(manager.AddSequence(1, 8));
  ASSERT_TRUE(manager.AddSequence(2, 4));
  EXPECT_EQ(manager.high_water_blocks(), 3);
  manager.FreeSequences({1, 2});
  EXPECT_TRUE(manager.TablesInLockstep());
  EXPECT_EQ(manager.rank(0).used_blocks(), 0);
  EXPECT_EQ(manager.rank(1).used_blocks(), 0);
  EXPECT_EQ(manager.high_water_blocks(), 3);  // Peak survives the free.
}

// --- Distributed (TP-sharded) manager -----------------------------------------

TEST(DistributedKvManagerTest, RanksStayInLockstep) {
  DistributedKvManager manager(4, SmallConfig());
  ASSERT_TRUE(manager.AddSequence(1, 6));
  ASSERT_TRUE(manager.AppendToken(1));
  ASSERT_TRUE(manager.AddSequence(2, 3));
  EXPECT_TRUE(manager.TablesInLockstep());
  manager.FreeSequence(1);
  EXPECT_TRUE(manager.TablesInLockstep());
  EXPECT_EQ(manager.rank(0).num_sequences(), 1);
  EXPECT_EQ(manager.rank(3).num_sequences(), 1);
}

TEST(DistributedKvManagerTest, AllOrNothingOnExhaustion) {
  DistributedKvManager manager(2, SmallConfig(/*blocks=*/2));
  ASSERT_TRUE(manager.AddSequence(1, 8));
  EXPECT_FALSE(manager.AppendToken(1));
  EXPECT_TRUE(manager.TablesInLockstep());
  EXPECT_EQ(manager.rank(0).SequenceTokens(1), 8);
  EXPECT_EQ(manager.rank(1).SequenceTokens(1), 8);
}

TEST(DistributedKvManagerTest, BytesShardAcrossRanks) {
  KvBlockConfig config = SmallConfig();
  config.bytes_per_token = 50.0;  // Per-rank shard of a 200 B/token cache at t_g=4.
  DistributedKvManager manager(4, config);
  ASSERT_TRUE(manager.AddSequence(1, 4));
  EXPECT_DOUBLE_EQ(manager.total_used_bytes(), 4 * 4 * 50.0);
}

// Simulated generation loop: waves emerge from capacity, nothing leaks.
TEST(DistributedKvManagerTest, WaveSchedulingDrainsEverything) {
  DistributedKvManager manager(2, SmallConfig(/*blocks=*/16, /*block_tokens=*/4));
  const int64_t prompt = 8;
  const int64_t response = 8;
  int64_t next = 0;
  int64_t completed = 0;
  std::vector<int64_t> active;
  const int64_t total_sequences = 20;
  int waves = 0;
  const int64_t blocks_per_full_sequence = (prompt + response + 3) / 4;
  while (completed < total_sequences) {
    // Admit only sequences whose full length is guaranteed to fit, so the
    // decode loop never stalls mid-sequence (vLLM-style admission control).
    while (next < total_sequences &&
           (static_cast<int64_t>(active.size()) + 1) * blocks_per_full_sequence <=
               manager.rank(0).config().num_blocks &&
           manager.AddSequence(next, prompt)) {
      active.push_back(next);
      next += 1;
    }
    ASSERT_FALSE(active.empty()) << "deadlock: nothing admitted";
    waves += 1;
    // Decode all active sequences to completion.
    for (int64_t id : active) {
      for (int64_t step = 0; step < response; ++step) {
        ASSERT_TRUE(manager.AppendToken(id));
      }
      manager.FreeSequence(id);
      completed += 1;
    }
    active.clear();
  }
  EXPECT_GT(waves, 1);  // Capacity forced batching into waves.
  EXPECT_EQ(manager.rank(0).used_blocks(), 0);
  EXPECT_TRUE(manager.TablesInLockstep());
}

// --- Prefix-sharing cache (docs/KVCACHE.md) -----------------------------------
// Suites named KvCache* run under check.sh's TSan and schedule-fuzz ctest
// subsets in addition to the plain suite.

KvBlockConfig PrefixConfig(int64_t blocks, int64_t block_tokens = 4) {
  KvBlockConfig config = SmallConfig(blocks, block_tokens);
  config.enable_prefix_cache = true;
  return config;
}

TEST(KvCachePrefixTest, HashChainingSeparatesDivergentPrefixes) {
  const std::vector<uint64_t> a = PromptBlockHashes({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  const std::vector<uint64_t> b = PromptBlockHashes({1, 2, 3, 4, 9, 9, 9, 9}, 4);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(a[0], b[0]);  // Identical first block.
  EXPECT_NE(a[1], b[1]);  // Chained: divergence poisons every later hash.
  EXPECT_NE(a[0], 0u);
  EXPECT_NE(a[1], 0u);  // Zero is the unhashed sentinel, never produced.
  // Partial tail blocks are never hashed.
  EXPECT_EQ(PromptBlockHashes({1, 2, 3, 4, 5}, 4).size(), 1u);
}

TEST(KvCachePrefixTest, GroupHashNamespacesAreDisjoint) {
  // Count-based identity for the sim plane: equal groups hash equal;
  // distinct groups — including the negative per-sequence namespace the
  // timing simulator uses for unique prompts — never collide.
  EXPECT_EQ(GroupBlockHashes(3, 4), GroupBlockHashes(3, 4));
  EXPECT_NE(GroupBlockHashes(3, 4), GroupBlockHashes(4, 4));
  EXPECT_NE(GroupBlockHashes(-1, 4), GroupBlockHashes(0, 4));
  EXPECT_NE(GroupBlockHashes(-1, 4), GroupBlockHashes(-2, 4));
}

TEST(KvCachePrefixTest, IdenticalPromptsShareBlocksPhysically) {
  KvBlockManager manager(PrefixConfig(/*blocks=*/8));
  const std::vector<uint64_t> hashes = PromptBlockHashes({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  ASSERT_TRUE(manager.AddSequenceShared(1, 8, hashes));
  EXPECT_EQ(manager.used_blocks(), 2);
  ASSERT_TRUE(manager.AddSequenceShared(2, 8, hashes));
  EXPECT_EQ(manager.used_blocks(), 2);  // Shared, not re-allocated.
  EXPECT_EQ(manager.shared_blocks(), 2);
  EXPECT_EQ(manager.BlockTable(1), manager.BlockTable(2));
  EXPECT_EQ(manager.prefix_hit_tokens_total(), 8);
  // Physical occupancy counts a shared block's capacity and fill once.
  EXPECT_DOUBLE_EQ(manager.Occupancy(), 1.0);
  EXPECT_DOUBLE_EQ(manager.used_bytes(), 2 * 4 * 100.0);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvCachePrefixTest, RetentionServesLaterIdenticalPrompt) {
  KvBlockManager manager(PrefixConfig(/*blocks=*/4));
  const std::vector<uint64_t> hashes = PromptBlockHashes({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  ASSERT_TRUE(manager.AddSequenceShared(1, 8, hashes));
  manager.FreeSequence(1);
  // Unreferenced but retained: evictable, still indexed, still probe-able.
  EXPECT_EQ(manager.used_blocks(), 0);
  EXPECT_EQ(manager.cached_blocks(), 2);
  EXPECT_EQ(manager.free_blocks(), 2);
  EXPECT_EQ(manager.PrefixHitTokens(hashes), 8);
  EXPECT_EQ(manager.PrefixHitBlocksReferenced(hashes), 0);  // No live refs.
  // A later identical prompt revives both blocks instead of allocating.
  ASSERT_TRUE(manager.AddSequenceShared(2, 8, hashes));
  EXPECT_EQ(manager.used_blocks(), 2);
  EXPECT_EQ(manager.cached_blocks(), 0);
  EXPECT_EQ(manager.free_blocks(), 2);
  EXPECT_EQ(manager.prefix_hit_tokens_total(), 8);  // The revival's hits.
  EXPECT_EQ(manager.PrefixHitBlocksReferenced(hashes), 2);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvCachePrefixTest, LruEvictionReclaimsColdestAndPrunesIndex) {
  KvBlockManager manager(PrefixConfig(/*blocks=*/2));
  const std::vector<uint64_t> cold = PromptBlockHashes({1, 2, 3, 4}, 4);
  const std::vector<uint64_t> warm = PromptBlockHashes({5, 6, 7, 8}, 4);
  ASSERT_TRUE(manager.AddSequenceShared(1, 4, cold));
  manager.FreeSequence(1);
  ASSERT_TRUE(manager.AddSequenceShared(2, 4, warm));
  manager.FreeSequence(2);
  EXPECT_EQ(manager.cached_blocks(), 2);
  // A private allocation runs the pool dry: the LRU (cold) block is
  // evicted and its index entry pruned; the warm block survives.
  ASSERT_TRUE(manager.AddSequence(3, 4));
  EXPECT_EQ(manager.evictions_total(), 1);
  EXPECT_EQ(manager.PrefixHitTokens(cold), 0);
  EXPECT_EQ(manager.PrefixHitTokens(warm), 4);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvCachePrefixTest, EvictableHitsAreNotSpareCapacity) {
  // Regression: admission used to count evictable hit blocks as available
  // while also planning to re-reference them, so the fresh-block loop ran
  // the pool dry mid-admission (fatal) instead of returning false.
  KvBlockManager manager(PrefixConfig(/*blocks=*/4));
  const std::vector<int64_t> prompt = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const std::vector<uint64_t> hashes = PromptBlockHashes(prompt, 4);
  ASSERT_TRUE(manager.AddSequenceShared(1, 16, hashes));
  manager.FreeSequence(1);
  ASSERT_EQ(manager.free_blocks(), 0);
  ASSERT_EQ(manager.cached_blocks(), 4);
  // All four hits are evictable, so re-refing them leaves zero blocks for
  // the one fresh block 17..20 needs: the probe and the apply path must
  // both refuse, leaving the cache untouched.
  EXPECT_FALSE(manager.CanAdmitShared(/*resident_tokens=*/16, /*reserve_tokens=*/4, hashes));
  EXPECT_FALSE(manager.AddSequenceShared(2, 20, hashes));
  EXPECT_EQ(manager.used_blocks(), 0);
  EXPECT_EQ(manager.cached_blocks(), 4);
  // Without the extra fresh block the revival fits exactly.
  EXPECT_TRUE(manager.CanAdmitShared(/*resident_tokens=*/16, /*reserve_tokens=*/0, hashes));
  ASSERT_TRUE(manager.AddSequenceShared(3, 16, hashes));
  EXPECT_EQ(manager.used_blocks(), 4);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvCachePrefixTest, ReferencedHitsDoNotConsumeCapacity) {
  // Contrast with the evictable case: hits on blocks live sequences still
  // reference are genuinely free, so the same admission fits.
  KvBlockManager manager(PrefixConfig(/*blocks=*/5));
  const std::vector<int64_t> prompt = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const std::vector<uint64_t> hashes = PromptBlockHashes(prompt, 4);
  ASSERT_TRUE(manager.AddSequenceShared(1, 16, hashes));  // 4 blocks, live.
  EXPECT_EQ(manager.PrefixHitBlocksReferenced(hashes), 4);
  EXPECT_TRUE(manager.CanAdmitShared(/*resident_tokens=*/16, /*reserve_tokens=*/4, hashes));
  ASSERT_TRUE(manager.AddSequenceShared(2, 20, hashes));
  EXPECT_EQ(manager.used_blocks(), 5);
  EXPECT_EQ(manager.shared_blocks(), 4);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvCacheCowTest, ForkSharesEverythingAndSplitsOnFirstDivergentWrite) {
  KvBlockManager manager(PrefixConfig(/*blocks=*/8));
  ASSERT_TRUE(manager.AddSequence(1, 6));  // 2 blocks; tail holds 2 of 4.
  manager.Fork(1, 2);
  EXPECT_EQ(manager.used_blocks(), 2);  // The fork allocated nothing.
  EXPECT_EQ(manager.shared_blocks(), 2);
  EXPECT_EQ(manager.BlockTable(1), manager.BlockTable(2));
  EXPECT_EQ(manager.SequenceTokens(2), 6);
  // The child's first append writes into the shared partial tail: COW.
  ASSERT_TRUE(manager.AppendToken(2));
  EXPECT_EQ(manager.cow_splits_total(), 1);
  EXPECT_EQ(manager.used_blocks(), 3);
  EXPECT_EQ(manager.BlockTable(1)[0], manager.BlockTable(2)[0]);  // Prefix intact.
  EXPECT_NE(manager.BlockTable(1)[1], manager.BlockTable(2)[1]);  // Tail split.
  EXPECT_EQ(manager.SequenceTokens(1), 6);  // Reader undisturbed.
  EXPECT_EQ(manager.SequenceTokens(2), 7);
  // The parent's tail is exclusively owned again: no further split.
  ASSERT_TRUE(manager.AppendToken(1));
  EXPECT_EQ(manager.cow_splits_total(), 1);
  EXPECT_EQ(manager.used_blocks(), 3);
  EXPECT_EQ(manager.shared_blocks(), 1);
  EXPECT_TRUE(manager.RefcountsConsistent());
  manager.FreeSequence(1);
  manager.FreeSequence(2);
  EXPECT_EQ(manager.used_blocks(), 0);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvCacheCowTest, CowSplitFailsCleanlyWhenPoolIsDry) {
  KvBlockManager manager(PrefixConfig(/*blocks=*/2, /*block_tokens=*/4));
  ASSERT_TRUE(manager.AddSequence(1, 6));  // Both blocks taken.
  manager.Fork(1, 2);
  // The split needs a block and none is free or evictable.
  EXPECT_FALSE(manager.CanAppendTokens(2, 1));
  EXPECT_FALSE(manager.AppendToken(2));
  EXPECT_EQ(manager.SequenceTokens(2), 6);  // Unchanged on failure.
  EXPECT_EQ(manager.cow_splits_total(), 0);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvCacheLeakTest, SharedLifecyclesReturnEveryBlock) {
  // Interleaved shared admissions, forks, divergent appends, and frees in
  // varying orders: physical usage must return to zero and the refcount
  // audit must hold at every quiescent point.
  KvBlockManager manager(PrefixConfig(/*blocks=*/16, /*block_tokens=*/2));
  const std::vector<uint64_t> hashes = PromptBlockHashes({1, 2, 3, 4, 5, 6}, 2);
  ASSERT_TRUE(manager.AddSequenceShared(1, 6, hashes));
  ASSERT_TRUE(manager.AddSequenceShared(2, 6, hashes));
  manager.Fork(2, 3);
  ASSERT_TRUE(manager.AppendToken(1));  // New block (boundary).
  ASSERT_TRUE(manager.AppendToken(3));  // New block: 3 diverges from 2.
  ASSERT_TRUE(manager.RefcountsConsistent());
  manager.FreeSequence(2);  // Middle owner first: shared blocks survive.
  ASSERT_TRUE(manager.RefcountsConsistent());
  EXPECT_EQ(manager.SequenceTokens(1), 7);
  EXPECT_EQ(manager.SequenceTokens(3), 7);
  manager.FreeSequences({1, 3});
  EXPECT_EQ(manager.used_blocks(), 0);
  EXPECT_GT(manager.cached_blocks(), 0);  // Hashed blocks retained.
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvCacheLeakTest, RandomizedOpSoakHoldsInvariants) {
  // Property soak across seeds: random admits (shared and private), forks,
  // appends, and frees against a tiny pool. After every operation the
  // refcount/partition audit must hold; after the final drain nothing may
  // remain referenced.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    KvBlockManager manager(PrefixConfig(/*blocks=*/6, /*block_tokens=*/2));
    uint64_t state = seed * 2654435761ULL;
    const auto next = [&state]() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    std::vector<int64_t> live;
    int64_t next_id = 0;
    for (int op = 0; op < 200; ++op) {
      switch (next() % 4) {
        case 0: {  // Shared admit of one of two recurring prompts.
          const bool first = next() % 2 == 0;
          const std::vector<uint64_t> hashes =
              PromptBlockHashes(first ? std::vector<int64_t>{1, 2, 3, 4}
                                      : std::vector<int64_t>{9, 8, 7, 6},
                                2);
          if (manager.AddSequenceShared(next_id, 4, hashes)) {
            live.push_back(next_id++);
          }
          break;
        }
        case 1: {  // Fork a random live sequence.
          if (!live.empty()) {
            manager.Fork(live[next() % live.size()], next_id);
            live.push_back(next_id++);
          }
          break;
        }
        case 2: {  // Append (may COW-split or fail on exhaustion).
          if (!live.empty()) {
            manager.AppendToken(live[next() % live.size()]);
          }
          break;
        }
        default: {  // Free a random live sequence.
          if (!live.empty()) {
            const size_t victim = next() % live.size();
            manager.FreeSequence(live[victim]);
            live.erase(live.begin() + static_cast<int64_t>(victim));
          }
          break;
        }
      }
      ASSERT_TRUE(manager.RefcountsConsistent()) << "seed " << seed << " op " << op;
    }
    for (int64_t id : live) {
      manager.FreeSequence(id);
    }
    EXPECT_EQ(manager.used_blocks(), 0) << "seed " << seed;
    EXPECT_TRUE(manager.RefcountsConsistent()) << "seed " << seed;
  }
}

TEST(KvCacheDistributedTest, SharedAdmissionAndForkStayInLockstep) {
  DistributedKvManager manager(2, PrefixConfig(/*blocks=*/8));
  const std::vector<uint64_t> hashes = PromptBlockHashes({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  ASSERT_TRUE(manager.AddSequenceShared(1, 8, hashes));
  ASSERT_TRUE(manager.AddSequenceShared(2, 8, hashes));
  manager.Fork(2, 3);
  ASSERT_TRUE(manager.AppendToken(3));  // Boundary append, all ranks.
  EXPECT_TRUE(manager.TablesInLockstep());
  EXPECT_EQ(manager.rank(0).shared_blocks(), manager.rank(1).shared_blocks());
  manager.FreeSequences({1, 2, 3});
  EXPECT_TRUE(manager.TablesInLockstep());
  EXPECT_EQ(manager.rank(0).used_blocks(), 0);
  EXPECT_EQ(manager.rank(1).used_blocks(), 0);
  EXPECT_EQ(manager.rank(0).cached_blocks(), manager.rank(1).cached_blocks());
  EXPECT_TRUE(manager.rank(0).RefcountsConsistent());
  EXPECT_TRUE(manager.rank(1).RefcountsConsistent());
}


// Every observable of one rank that an append can change.
void ExpectSameRank(const KvBlockManager& bulk, const KvBlockManager& single,
                    const std::vector<int64_t>& ids) {
  for (int64_t id : ids) {
    ASSERT_EQ(bulk.HasSequence(id), single.HasSequence(id));
    if (bulk.HasSequence(id)) {
      EXPECT_EQ(bulk.BlockTable(id), single.BlockTable(id)) << "sequence " << id;
      EXPECT_EQ(bulk.SequenceTokens(id), single.SequenceTokens(id)) << "sequence " << id;
    }
  }
  EXPECT_EQ(bulk.used_blocks(), single.used_blocks());
  EXPECT_EQ(bulk.shared_blocks(), single.shared_blocks());
  EXPECT_EQ(bulk.cached_blocks(), single.cached_blocks());
  EXPECT_EQ(bulk.cow_splits_total(), single.cow_splits_total());
  EXPECT_EQ(bulk.high_water_blocks(), single.high_water_blocks());
  EXPECT_EQ(bulk.allocations_total(), single.allocations_total());
  EXPECT_DOUBLE_EQ(bulk.Occupancy(), single.Occupancy());
  EXPECT_TRUE(bulk.RefcountsConsistent());
  EXPECT_TRUE(single.RefcountsConsistent());
}

TEST(KvCacheBulkAppendTest, AppendTokensEqualsRepeatedAppendToken) {
  for (const int ranks : {1, 4}) {
    for (const bool prefix_cache : {false, true}) {
      SCOPED_TRACE(testing::Message() << ranks << " ranks, prefix cache " << prefix_cache);
      KvBlockConfig config = SmallConfig(/*blocks=*/32, /*block_tokens=*/4);
      config.enable_prefix_cache = prefix_cache;
      DistributedKvManager bulk(ranks, config);
      DistributedKvManager single(ranks, config);
      const std::vector<uint64_t> hashes = GroupBlockHashes(/*group=*/5, /*full_blocks=*/2);
      for (DistributedKvManager* manager : {&bulk, &single}) {
        ASSERT_TRUE(manager->AddSequenceShared(1, 6, hashes));  // Partial tail.
        manager->Fork(1, 2);                                    // Shared partial tail.
        ASSERT_TRUE(manager->AddSequenceShared(3, 8, hashes));  // Tail at a boundary.
        ASSERT_TRUE(manager->AddSequence(4, 0));                // Empty.
      }
      const std::vector<int64_t> ids = {1, 2, 3, 4};
      // (sequence, tokens): a COW split that fills the copy and crosses a
      // boundary, fills that stop short of, reach, and cross boundaries,
      // multi-block runs, and no-ops.
      const std::vector<std::pair<int64_t, int64_t>> appends = {
          {2, 3}, {1, 2}, {1, 1}, {2, 6}, {3, 4}, {3, 1}, {4, 9}, {1, 0}, {4, 3}, {3, 11}};
      for (const auto& [id, tokens] : appends) {
        SCOPED_TRACE(testing::Message() << "append " << tokens << " to " << id);
        ASSERT_TRUE(bulk.AppendTokens(id, tokens));
        for (int64_t i = 0; i < tokens; ++i) {
          ASSERT_TRUE(single.AppendToken(id));
        }
        ASSERT_TRUE(bulk.TablesInLockstep());
        for (int rank = 0; rank < ranks; ++rank) {
          ExpectSameRank(bulk.rank(rank), single.rank(rank), ids);
        }
      }
      EXPECT_EQ(bulk.rank(0).cow_splits_total(), 1);
      // All-or-nothing: an append the pool cannot hold changes nothing.
      const int64_t tokens = bulk.rank(0).SequenceTokens(4);
      const std::vector<int64_t> table = bulk.rank(0).BlockTable(4);
      EXPECT_FALSE(bulk.AppendTokens(4, 4 * config.num_blocks));
      EXPECT_EQ(bulk.rank(0).SequenceTokens(4), tokens);
      EXPECT_EQ(bulk.rank(0).BlockTable(4), table);
      ExpectSameRank(bulk.rank(0), single.rank(0), ids);
      bulk.FreeSequences(ids);
      EXPECT_EQ(bulk.rank(0).used_blocks(), 0);
      EXPECT_TRUE(bulk.rank(0).RefcountsConsistent());
    }
  }
}

}  // namespace
}  // namespace hybridflow
