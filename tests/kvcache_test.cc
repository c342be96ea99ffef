#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/kvcache/block_manager.h"

namespace hybridflow {
namespace {

KvBlockConfig SmallConfig(int64_t blocks = 8, int64_t block_tokens = 4) {
  KvBlockConfig config;
  config.block_tokens = block_tokens;
  config.num_blocks = blocks;
  return config;
}

TEST(KvBlockManagerTest, AddSequenceAllocatesCeilBlocks) {
  KvBlockManager manager(SmallConfig());
  ASSERT_TRUE(manager.AddSequence(1, 5));  // ceil(5/4) = 2 blocks.
  EXPECT_EQ(manager.used_blocks(), 2);
  EXPECT_EQ(manager.SequenceTokens(1), 5);
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

TEST(KvBlockManagerTest, PrivateBlocksAreNeverShared) {
  // Even with the prefix cache on, unhashed residency is never shared:
  // two sequences of 8 tokens hold 4 distinct blocks.
  KvBlockConfig config = SmallConfig(/*blocks=*/8);
  config.enable_prefix_cache = true;
  KvBlockManager manager(config);
  ASSERT_TRUE(manager.AddSequence(1, 8));
  ASSERT_TRUE(manager.AddSequence(2, 8));
  EXPECT_EQ(manager.used_blocks(), 4);
  EXPECT_EQ(manager.shared_blocks(), 0);
  EXPECT_EQ(manager.free_blocks(), 4);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvBlockManagerTest, CapacityCountsAvailableBlocks) {
  KvBlockManager manager(SmallConfig(/*blocks=*/8, /*block_tokens=*/4));
  ASSERT_TRUE(manager.AddSequence(1, 8));
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

TEST(KvBlockManagerTest, CanAdmitAndBulkFreeKeepThePeak) {
  KvBlockManager manager(SmallConfig(/*blocks=*/4));
  EXPECT_TRUE(manager.CanAdmit(16, 0));
  EXPECT_FALSE(manager.CanAdmit(16, 1));
  ASSERT_TRUE(manager.AddSequence(1, 8));
  ASSERT_TRUE(manager.AddSequence(2, 4));
  EXPECT_EQ(manager.high_water_blocks(), 3);
  manager.FreeSequences({1, 2});
  EXPECT_EQ(manager.used_blocks(), 0);
  EXPECT_EQ(manager.high_water_blocks(), 3);  // Peak survives the free.
}

// Simulated generation loop: waves emerge from capacity, nothing leaks.
TEST(KvBlockManagerTest, WaveSchedulingDrainsEverything) {
  KvBlockManager manager(SmallConfig(/*blocks=*/16, /*block_tokens=*/4));
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
               manager.config().num_blocks &&
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
  EXPECT_EQ(manager.used_blocks(), 0);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

// A failed append, extension or admission changes nothing: not the
// sequences, not the pool, not a counter.
TEST(KvBlockManagerTest, AllOrNothingOnExhaustion) {
  KvBlockManager manager(SmallConfig(/*blocks=*/4));
  ASSERT_TRUE(manager.AddSequence(1, 6));  // 2 blocks, tail half full.
  ASSERT_TRUE(manager.AddSequence(2, 4));  // 1 block: 1 left free.
  const auto snapshot = [&manager]() {
    return std::vector<int64_t>{manager.SequenceTokens(1),   manager.SequenceTokens(2),
                                manager.used_blocks(),       manager.free_blocks(),
                                manager.high_water_blocks(), manager.appends_total(),
                                manager.allocations_total(), manager.num_sequences()};
  };
  const std::vector<int64_t> before = snapshot();
  EXPECT_FALSE(manager.AppendTokens(1, 7));     // 13 tokens: 2 more blocks.
  EXPECT_FALSE(manager.ExtendSequence(2, 12));  // 3 blocks: 2 more.
  EXPECT_FALSE(manager.AddSequence(3, 5));      // 2 blocks.
  EXPECT_FALSE(manager.HasSequence(3));
  EXPECT_EQ(snapshot(), before);
  // The one free block is still there for an append that fits.
  ASSERT_TRUE(manager.AppendTokens(1, 6));  // 12 tokens: exactly 1 more block.
  EXPECT_EQ(manager.free_blocks(), 0);
  EXPECT_EQ(manager.allocations_total(), before[6] + 1);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

// Every Can* probe answers exactly what its operation then does, allocates
// nothing, and counts retained prefix hits as the capacity they are.
TEST(KvBlockManagerTest, ProbesPredictTheOperations) {
  for (const bool prefix_cache : {false, true}) {
    KvBlockConfig config = SmallConfig(/*blocks=*/6, /*block_tokens=*/4);
    config.enable_prefix_cache = prefix_cache;
    const std::vector<uint64_t> hashes = GroupBlockHashes(/*group=*/1, /*full_blocks=*/2);
    // 3 blocks used; with the prefix cache on, 2 of the 3 available are
    // seq 1's retained prompt blocks.
    const auto setup = [&hashes](KvBlockManager& manager) {
      ASSERT_TRUE(manager.AddSequenceShared(1, 8, hashes));
      ASSERT_TRUE(manager.AddSequence(2, 5));
      ASSERT_TRUE(manager.AddSequence(3, 1));
      manager.FreeSequence(1);
    };
    for (int64_t tokens = 0; tokens <= 20; ++tokens) {
      SCOPED_TRACE(testing::Message()
                   << "prefix cache " << prefix_cache << " tokens " << tokens);
      KvBlockManager append(config);
      KvBlockManager extend(config);
      KvBlockManager admit(config);
      KvBlockManager shared(config);
      for (KvBlockManager* manager : {&append, &extend, &admit, &shared}) {
        setup(*manager);
      }
      const bool can_append = append.CanAppendTokens(2, tokens);
      const bool can_extend = extend.CanExtendSequence(3, tokens);
      const bool can_admit = admit.CanAdmit(tokens, 0);
      const bool can_share = shared.CanAdmitShared(tokens, 0, hashes);
      for (KvBlockManager* manager : {&append, &extend, &admit, &shared}) {
        EXPECT_EQ(manager->used_blocks(), 3);
        EXPECT_EQ(manager->available_blocks(), 3);
      }
      EXPECT_EQ(append.AppendTokens(2, tokens), can_append);
      EXPECT_EQ(extend.ExtendSequence(3, tokens), can_extend);
      EXPECT_EQ(admit.AddSequence(4, tokens), can_admit);
      EXPECT_EQ(shared.AddSequenceShared(4, tokens, hashes), can_share);
      EXPECT_EQ(can_append, tokens <= 15);  // 5 + 15 tokens: 2 + 3 blocks.
      EXPECT_EQ(can_extend, tokens <= 16);  // 1 + 3 blocks.
      EXPECT_EQ(can_admit, tokens <= 12);   // 3 blocks.
      // With the prefix cache on, the 2 hits are retained blocks: sharing
      // them saves 2 allocations but spends 2 of the 3 available blocks,
      // so the same 12 tokens fit as without it.
      EXPECT_EQ(can_share, tokens <= 12);
      for (KvBlockManager* manager : {&append, &extend, &admit, &shared}) {
        EXPECT_TRUE(manager->RefcountsConsistent());
      }
    }
  }
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
  EXPECT_EQ(manager.free_blocks(), 6);  // Physical: a shared block counts once.
  EXPECT_EQ(manager.prefix_hit_tokens_total(), 8);
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

TEST(KvCachePrefixTest, FirstWriterWinsLeavesTheLoserPrivate) {
  // Two chunked prefills of one prompt race to fill block 1. The second
  // writer's copy is never indexed, so it frees like any private block,
  // while its later block 2 is still indexed: a sequence's indexed blocks
  // need not be a contiguous prefix of its residency.
  KvBlockManager manager(PrefixConfig(/*blocks=*/8, /*block_tokens=*/2));
  const std::vector<uint64_t> hashes = PromptBlockHashes({1, 2, 3, 4, 5, 6}, 2);
  ASSERT_TRUE(manager.AddSequenceShared(1, 2, hashes));  // Indexes block 0.
  ASSERT_TRUE(manager.AddSequenceShared(2, 4, hashes));  // Shares 0, indexes 1.
  EXPECT_EQ(manager.used_blocks(), 2);
  EXPECT_EQ(manager.shared_blocks(), 1);
  ASSERT_TRUE(manager.ExtendSequence(1, 6));  // Its block 1 loses; block 2 wins.
  EXPECT_EQ(manager.used_blocks(), 4);
  EXPECT_EQ(manager.PrefixHitTokens(hashes), 6);
  manager.FreeSequence(2);  // Retains the indexed block 1.
  EXPECT_EQ(manager.used_blocks(), 3);
  EXPECT_EQ(manager.cached_blocks(), 1);
  EXPECT_EQ(manager.PrefixHitBlocksReferenced(hashes), 2);  // Blocks 0 and 2.
  manager.FreeSequence(1);  // Retains blocks 0 and 2, frees the loser.
  EXPECT_EQ(manager.used_blocks(), 0);
  EXPECT_EQ(manager.cached_blocks(), 3);
  EXPECT_EQ(manager.free_blocks(), 5);
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

TEST(KvCachePrefixTest, FailedSharedAdmissionLeavesTheCacheAlone) {
  // The prompt's 2 blocks are retained and the pool is otherwise full: a
  // shared admission that needs one block more must fail without reviving,
  // evicting or counting a hit.
  KvBlockManager manager(PrefixConfig(/*blocks=*/4));
  const std::vector<uint64_t> hashes = PromptBlockHashes({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  ASSERT_TRUE(manager.AddSequenceShared(1, 8, hashes));
  manager.FreeSequence(1);
  ASSERT_TRUE(manager.AddSequence(2, 8));  // Takes the 2 free blocks.
  ASSERT_EQ(manager.cached_blocks(), 2);
  const int64_t hit_tokens = manager.prefix_hit_tokens_total();
  EXPECT_FALSE(manager.CanAdmitShared(/*resident_tokens=*/12, /*reserve_tokens=*/0, hashes));
  EXPECT_FALSE(manager.AddSequenceShared(3, 12, hashes));
  EXPECT_FALSE(manager.HasSequence(3));
  EXPECT_EQ(manager.used_blocks(), 2);
  EXPECT_EQ(manager.cached_blocks(), 2);
  EXPECT_EQ(manager.free_blocks(), 0);
  EXPECT_EQ(manager.evictions_total(), 0);
  EXPECT_EQ(manager.prefix_hit_tokens_total(), hit_tokens);
  EXPECT_EQ(manager.PrefixHitTokens(hashes), 8);
  EXPECT_EQ(manager.PrefixHitBlocksReferenced(hashes), 0);
  EXPECT_TRUE(manager.RefcountsConsistent());
  // Without the extra block it fits, on the retained blocks alone.
  ASSERT_TRUE(manager.AddSequenceShared(3, 8, hashes));
  EXPECT_EQ(manager.used_blocks(), 4);
  EXPECT_EQ(manager.cached_blocks(), 0);
  EXPECT_EQ(manager.evictions_total(), 0);
  EXPECT_EQ(manager.prefix_hit_tokens_total(), hit_tokens + 8);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvCachePrefixTest, AppendsAfterASharedPromptStayPrivate) {
  // Sharers of a full prompt diverge by appending: every generated token
  // lands in a private block, so no shared block is ever written and none
  // needs copying. Generated tokens never enter the prefix index.
  KvBlockManager manager(PrefixConfig(/*blocks=*/16));
  const std::vector<int64_t> prompt = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<uint64_t> hashes = PromptBlockHashes(prompt, 4);
  ASSERT_TRUE(manager.AddSequenceShared(1, 8, hashes));
  ASSERT_TRUE(manager.AddSequenceShared(2, 8, hashes));
  EXPECT_EQ(manager.allocations_total(), 2);
  ASSERT_TRUE(manager.AppendToken(1));
  ASSERT_TRUE(manager.AppendTokens(2, 3));
  EXPECT_EQ(manager.used_blocks(), 4);  // 2 shared + 1 private tail each.
  EXPECT_EQ(manager.shared_blocks(), 2);
  EXPECT_EQ(manager.allocations_total(), 4);
  EXPECT_EQ(manager.SequenceTokens(1), 9);
  EXPECT_EQ(manager.SequenceTokens(2), 11);
  std::vector<int64_t> longer = prompt;
  longer.insert(longer.end(), {9, 10, 11, 12});
  EXPECT_EQ(manager.PrefixHitTokens(PromptBlockHashes(longer, 4)), 8);
  manager.FreeSequence(1);  // The sharer's prompt blocks stay referenced.
  EXPECT_EQ(manager.used_blocks(), 3);
  EXPECT_EQ(manager.shared_blocks(), 0);
  EXPECT_EQ(manager.cached_blocks(), 0);
  EXPECT_EQ(manager.PrefixHitBlocksReferenced(hashes), 2);
  EXPECT_EQ(manager.SequenceTokens(2), 11);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvCachePrefixTest, PartialTailBlockIsNeverShared) {
  // A 6-token prompt in 4-token blocks: only its full first block is
  // hashed. Each sharer holds its own partial tail and fills it alone.
  KvBlockManager manager(PrefixConfig(/*blocks=*/8));
  const std::vector<uint64_t> hashes = PromptBlockHashes({1, 2, 3, 4, 5, 6}, 4);
  ASSERT_EQ(hashes.size(), 1u);
  ASSERT_TRUE(manager.AddSequenceShared(1, 6, hashes));
  ASSERT_TRUE(manager.AddSequenceShared(2, 6, hashes));
  EXPECT_EQ(manager.used_blocks(), 3);  // 1 shared + 2 private tails.
  EXPECT_EQ(manager.shared_blocks(), 1);
  EXPECT_EQ(manager.prefix_hit_tokens_total(), 4);
  ASSERT_TRUE(manager.AppendTokens(1, 2));  // Fills seq 1's tail: no block.
  EXPECT_EQ(manager.used_blocks(), 3);
  EXPECT_EQ(manager.SequenceTokens(1), 8);
  EXPECT_EQ(manager.SequenceTokens(2), 6);
  manager.FreeSequences({1, 2});
  EXPECT_EQ(manager.used_blocks(), 0);
  EXPECT_EQ(manager.cached_blocks(), 1);  // Only the hashed block is kept.
  EXPECT_EQ(manager.free_blocks(), 7);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvCachePrefixTest, ExtendIndexesBlocksAsTheyFill) {
  // Chunked prefill: a prompt block becomes hittable the moment its
  // sequence's residency fills it, not before.
  KvBlockManager manager(PrefixConfig(/*blocks=*/8));
  const std::vector<uint64_t> hashes =
      PromptBlockHashes({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 4);
  ASSERT_TRUE(manager.AddSequenceShared(1, 2, hashes));
  EXPECT_EQ(manager.PrefixHitTokens(hashes), 0);
  ASSERT_TRUE(manager.ExtendSequence(1, 4));
  EXPECT_EQ(manager.PrefixHitTokens(hashes), 4);
  ASSERT_TRUE(manager.ExtendSequence(1, 10));
  EXPECT_EQ(manager.PrefixHitTokens(hashes), 8);
  ASSERT_TRUE(manager.ExtendSequence(1, 12));
  EXPECT_EQ(manager.PrefixHitTokens(hashes), 12);
  EXPECT_EQ(manager.used_blocks(), 3);
  // A later admission shares all three, and sharing being free, its
  // residency covers every hit block even when it asks for less.
  ASSERT_TRUE(manager.AddSequenceShared(2, 2, hashes));
  EXPECT_EQ(manager.SequenceTokens(2), 12);
  EXPECT_EQ(manager.used_blocks(), 3);
  EXPECT_EQ(manager.shared_blocks(), 3);
  EXPECT_EQ(manager.prefix_hit_tokens_total(), 12);
  EXPECT_TRUE(manager.RefcountsConsistent());
}

TEST(KvCacheLeakTest, SharedLifecyclesReturnEveryBlock) {
  // Interleaved shared admissions, divergent appends, and frees in varying
  // orders: physical usage must return to zero and the refcount audit must
  // hold at every quiescent point.
  KvBlockManager manager(PrefixConfig(/*blocks=*/16, /*block_tokens=*/2));
  const std::vector<uint64_t> hashes = PromptBlockHashes({1, 2, 3, 4, 5, 6}, 2);
  ASSERT_TRUE(manager.AddSequenceShared(1, 6, hashes));
  ASSERT_TRUE(manager.AddSequenceShared(2, 6, hashes));
  ASSERT_TRUE(manager.AddSequenceShared(3, 6, hashes));
  EXPECT_EQ(manager.shared_blocks(), 3);
  ASSERT_TRUE(manager.AppendToken(1));  // New private block (boundary).
  ASSERT_TRUE(manager.AppendToken(3));  // Another: 3 diverges from 2.
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
  // Property soak across seeds: random admits (shared and private), appends,
  // and frees against a tiny pool. After every operation the
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
        case 1: {  // Private admit.
          if (manager.AddSequence(next_id, static_cast<int64_t>(next() % 5))) {
            live.push_back(next_id++);
          }
          break;
        }
        case 2: {  // Append (may fail on exhaustion).
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

// --- Seeded op-trace golden ---------------------------------------------------
// A seeded op mix over a tiny pool — shared and private admits of recurring
// prompts at partial residency, ExtendSequence, bulk AppendTokens, bulk
// frees, and eviction once the pool runs dry — with every observable
// recorded after every op. The trace is pinned by its FNV-1a hash, so any
// change to what a caller can see of the manager fails here.

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

std::string KvOpTrace(bool prefix_cache, uint64_t seed) {
  KvBlockConfig config;
  config.block_tokens = 2;
  config.num_blocks = 12;
  config.enable_prefix_cache = prefix_cache;
  KvBlockManager manager(config);
  // Three recurring prompts: 1 shares its first two blocks with 0.
  const std::vector<std::vector<int64_t>> prompts = {
      {1, 2, 3, 4, 5, 6, 7, 8}, {1, 2, 3, 4, 9, 9}, {5, 5, 5, 5, 5}};
  std::vector<std::vector<uint64_t>> hashes;
  for (const std::vector<int64_t>& prompt : prompts) {
    hashes.push_back(PromptBlockHashes(prompt, config.block_tokens));
  }
  uint64_t state = seed * 2654435761ULL;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<int64_t> live;
  int64_t next_id = 0;
  std::ostringstream trace;
  const auto record = [&](int op, const std::string& what, bool ok) {
    trace << op << ' ' << what << " -> " << ok << " | " << manager.used_blocks() << ' '
          << manager.available_blocks() << ' ' << manager.cached_blocks() << ' '
          << manager.free_blocks() << ' ' << manager.shared_blocks() << ' '
          << manager.num_sequences() << ' ' << manager.high_water_blocks() << ' '
          << manager.shared_blocks_high_water() << ' ' << manager.prefix_hit_tokens_total()
          << ' ' << manager.appends_total() << ' ' << manager.allocations_total() << ' '
          << manager.evictions_total() << " | " << manager.CanAdmit(3, 1);
    for (size_t p = 0; p < prompts.size(); ++p) {
      trace << ' ' << manager.PrefixHitTokens(hashes[p]) << ':'
            << manager.PrefixHitBlocksReferenced(hashes[p]) << ':'
            << manager.CanAdmitShared(static_cast<int64_t>(prompts[p].size()), 1, hashes[p]);
    }
    trace << " |";
    for (int64_t id : live) {
      const int64_t tokens = manager.SequenceTokens(id);
      trace << ' ' << id << ':' << tokens << ':' << manager.CanAppendTokens(id, 3) << ':'
            << manager.CanExtendSequence(id, tokens + 4);
    }
    trace << '\n';
  };
  for (int op = 0; op < 300; ++op) {
    std::ostringstream what;
    bool ok = true;
    const uint64_t kind = next() % 8;
    if (kind <= 1) {  // Shared admit of a recurring prompt, maybe partially resident.
      const size_t p = next() % prompts.size();
      const int64_t resident = static_cast<int64_t>(next() % (prompts[p].size() + 1));
      ok = manager.AddSequenceShared(next_id, resident, hashes[p]);
      what << "shared " << next_id << ' ' << p << ' ' << resident;
      if (ok) {
        live.push_back(next_id++);
      }
    } else if (kind == 2) {  // Private admit.
      const int64_t tokens = static_cast<int64_t>(next() % 7);
      ok = manager.AddSequence(next_id, tokens);
      what << "private " << next_id << ' ' << tokens;
      if (ok) {
        live.push_back(next_id++);
      }
    } else if (live.empty()) {
      what << "idle";
    } else if (kind == 3) {  // Grow residency (chunked prefill).
      const int64_t id = live[next() % live.size()];
      const int64_t target = manager.SequenceTokens(id) + static_cast<int64_t>(next() % 5);
      ok = manager.ExtendSequence(id, target);
      what << "extend " << id << ' ' << target;
    } else if (kind <= 5) {  // Bulk append, single-token decode included.
      const int64_t id = live[next() % live.size()];
      const int64_t tokens = kind == 4 ? static_cast<int64_t>(next() % 5) : 1;
      ok = manager.AppendTokens(id, tokens);
      what << "append " << id << ' ' << tokens;
    } else {  // Free one or two live sequences in one call (kinds 6 and 7).
      std::vector<int64_t> victims;
      const size_t count = std::min<size_t>(live.size(), 1 + next() % 2);
      for (size_t i = 0; i < count; ++i) {
        const size_t at = next() % live.size();
        victims.push_back(live[at]);
        live.erase(live.begin() + static_cast<int64_t>(at));
      }
      manager.FreeSequences(victims);
      what << "free";
      for (int64_t id : victims) {
        what << ' ' << id;
      }
    }
    record(op, what.str(), ok);
    EXPECT_TRUE(manager.RefcountsConsistent()) << "op " << op;
  }
  manager.FreeSequences(live);
  live.clear();
  record(300, "drain", true);
  EXPECT_EQ(manager.used_blocks(), 0);
  EXPECT_TRUE(manager.RefcountsConsistent());
  return trace.str();
}

TEST(KvCacheTraceTest, SeededOpTraceMatchesGolden) {
  struct Golden {
    bool prefix_cache;
    uint64_t seed;
    uint64_t hash;
  };
  const std::vector<Golden> goldens = {
      {false, 1, 0x45dfbaa74fdf732dULL}, {false, 2, 0xd8715a9c77441488ULL},
      {false, 3, 0xa4a9c536078d1da9ULL}, {true, 1, 0x855fef4f1bbc6b0aULL},
      {true, 2, 0x86d2034130098a72ULL},  {true, 3, 0xd31a734fa40365ffULL},
  };
  for (const Golden& golden : goldens) {
    const std::string trace = KvOpTrace(golden.prefix_cache, golden.seed);
    EXPECT_EQ(Fnv1a(trace), golden.hash)
        << std::hex << "prefix cache " << golden.prefix_cache << " seed " << golden.seed
        << ": hash 0x" << Fnv1a(trace) << "\n"
        << trace;
  }
}

// Every observable of a manager that an append can change.
void ExpectSameManager(const KvBlockManager& bulk, const KvBlockManager& single,
                       const std::vector<int64_t>& ids) {
  for (int64_t id : ids) {
    ASSERT_EQ(bulk.HasSequence(id), single.HasSequence(id));
    if (bulk.HasSequence(id)) {
      EXPECT_EQ(bulk.SequenceTokens(id), single.SequenceTokens(id)) << "sequence " << id;
    }
  }
  EXPECT_EQ(bulk.used_blocks(), single.used_blocks());
  EXPECT_EQ(bulk.free_blocks(), single.free_blocks());
  EXPECT_EQ(bulk.shared_blocks(), single.shared_blocks());
  EXPECT_EQ(bulk.cached_blocks(), single.cached_blocks());
  EXPECT_EQ(bulk.high_water_blocks(), single.high_water_blocks());
  EXPECT_EQ(bulk.allocations_total(), single.allocations_total());
  EXPECT_TRUE(bulk.RefcountsConsistent());
  EXPECT_TRUE(single.RefcountsConsistent());
}

TEST(KvCacheBulkAppendTest, AppendTokensEqualsRepeatedAppendToken) {
  for (const bool prefix_cache : {false, true}) {
    SCOPED_TRACE(testing::Message() << "prefix cache " << prefix_cache);
    KvBlockConfig config = SmallConfig(/*blocks=*/32, /*block_tokens=*/4);
    config.enable_prefix_cache = prefix_cache;
    KvBlockManager bulk(config);
    KvBlockManager single(config);
    const std::vector<uint64_t> hashes = GroupBlockHashes(/*group=*/5, /*full_blocks=*/2);
    for (KvBlockManager* manager : {&bulk, &single}) {
      ASSERT_TRUE(manager->AddSequenceShared(1, 6, hashes));  // Partial tail.
      ASSERT_TRUE(manager->AddSequenceShared(2, 6, hashes));  // Shares the full block.
      ASSERT_TRUE(manager->AddSequenceShared(3, 8, hashes));  // Tail at a boundary.
      ASSERT_TRUE(manager->AddSequence(4, 0));                // Empty.
    }
    const std::vector<int64_t> ids = {1, 2, 3, 4};
    // (sequence, tokens): fills that stop short of, reach, and cross
    // boundaries, multi-block runs, and no-ops.
    const std::vector<std::pair<int64_t, int64_t>> appends = {
        {2, 3}, {1, 2}, {1, 1}, {2, 6}, {3, 4}, {3, 1}, {4, 9}, {1, 0}, {4, 3}, {3, 11}};
    for (const auto& [id, tokens] : appends) {
      SCOPED_TRACE(testing::Message() << "append " << tokens << " to " << id);
      ASSERT_TRUE(bulk.AppendTokens(id, tokens));
      for (int64_t i = 0; i < tokens; ++i) {
        ASSERT_TRUE(single.AppendToken(id));
      }
      ExpectSameManager(bulk, single, ids);
    }
    // All-or-nothing: an append the pool cannot hold changes nothing.
    const int64_t tokens = bulk.SequenceTokens(4);
    const int64_t used = bulk.used_blocks();
    EXPECT_FALSE(bulk.AppendTokens(4, 4 * config.num_blocks));
    EXPECT_EQ(bulk.SequenceTokens(4), tokens);
    EXPECT_EQ(bulk.used_blocks(), used);
    ExpectSameManager(bulk, single, ids);
    bulk.FreeSequences(ids);
    EXPECT_EQ(bulk.used_blocks(), 0);
    EXPECT_TRUE(bulk.RefcountsConsistent());
  }
}

}  // namespace
}  // namespace hybridflow
