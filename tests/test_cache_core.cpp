// The unified cache core as the simulator uses it: single-thread cores
// without enforcement (private L1s and private-L2 slices) and multi-thread
// shared cores under the §V way-partitioning-by-eviction-control mechanism
// — the hardware substrate the whole paper rests on — and its flush-
// reconfiguration alternative.
#include "src/mem/cache_core.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.hpp"
#include "tests/expect_config_error.hpp"

namespace capart::mem {
namespace {

/// A private cache: one thread, no partition enforcement.
CacheCore private_core(const CacheGeometry& g) {
  return CacheCore(g, 1, PartitionEnforcement::kNone);
}

// Tiny cache for precise behaviour checks: 4 sets x 2 ways x 64 B lines.
CacheGeometry tiny() { return {.sets = 4, .ways = 2, .line_bytes = 64}; }

/// Address of block `b` mapping to set (b % 4).
Addr blk(std::uint64_t b) { return b * 64; }

TEST(PrivateCore, MissThenHit) {
  CacheCore c = private_core(tiny());
  EXPECT_FALSE(c.access(0, blk(0), AccessType::kRead).hit);
  EXPECT_TRUE(c.access(0, blk(0), AccessType::kRead).hit);
  EXPECT_EQ(c.stats().thread(0).accesses, 2u);
  EXPECT_EQ(c.stats().thread(0).hits, 1u);
  EXPECT_EQ(c.stats().thread(0).misses, 1u);
}

TEST(PrivateCore, SameLineDifferentOffsetHits) {
  CacheCore c = private_core(tiny());
  c.access(0, 0, AccessType::kRead);
  EXPECT_TRUE(c.access(0, 63, AccessType::kRead).hit);   // same 64 B line
  EXPECT_FALSE(c.access(0, 64, AccessType::kRead).hit);  // next line
}

TEST(PrivateCore, LruEvictionWithinSet) {
  CacheCore c = private_core(tiny());
  // Blocks 0, 4, 8 all map to set 0; associativity 2.
  c.access(0, blk(0), AccessType::kRead);
  c.access(0, blk(4), AccessType::kRead);
  c.access(0, blk(0), AccessType::kRead);  // 0 is now MRU
  c.access(0, blk(8), AccessType::kRead);  // evicts 4 (LRU)
  EXPECT_TRUE(c.contains(blk(0)));
  EXPECT_FALSE(c.contains(blk(4)));
  EXPECT_TRUE(c.contains(blk(8)));
}

TEST(PrivateCore, DistinctSetsDoNotConflict) {
  CacheCore c = private_core(tiny());
  for (std::uint64_t b = 0; b < 8; ++b) {
    c.access(0, blk(b), AccessType::kRead);
  }
  // 8 blocks over 4 sets x 2 ways fill the cache exactly; all resident.
  for (std::uint64_t b = 0; b < 8; ++b) {
    EXPECT_TRUE(c.contains(blk(b))) << "block " << b;
  }
}

TEST(PrivateCore, WritesAllocateLikeReads) {
  CacheCore c = private_core(tiny());
  EXPECT_FALSE(c.access(0, blk(3), AccessType::kWrite).hit);
  EXPECT_TRUE(c.access(0, blk(3), AccessType::kRead).hit);
}

TEST(PrivateCore, FlushDropsContentsKeepsStats) {
  CacheCore c = private_core(tiny());
  c.access(0, blk(1), AccessType::kRead);
  c.access(0, blk(1), AccessType::kRead);
  c.flush();
  EXPECT_FALSE(c.contains(blk(1)));
  EXPECT_EQ(c.stats().thread(0).accesses, 2u);
  EXPECT_EQ(c.stats().thread(0).hits, 1u);
  EXPECT_FALSE(c.access(0, blk(1), AccessType::kRead).hit);
}

TEST(PrivateCore, FullAssociativitySweep) {
  // 1 set x 8 ways: behaves as a fully associative LRU of capacity 8.
  CacheCore c = private_core({.sets = 1, .ways = 8, .line_bytes = 64});
  for (std::uint64_t b = 0; b < 8; ++b) c.access(0, blk(b), AccessType::kRead);
  for (std::uint64_t b = 0; b < 8; ++b) {
    EXPECT_TRUE(c.access(0, blk(b), AccessType::kRead).hit);
  }
  c.access(0, blk(100), AccessType::kRead);  // evicts block 0 (LRU)
  EXPECT_FALSE(c.contains(blk(0)));
  EXPECT_TRUE(c.contains(blk(1)));
}

TEST(PrivateCore, CyclicSweepOverCapacityAlwaysMisses) {
  // Classic LRU pathology: looping over capacity+1 blocks never hits.
  CacheCore c = private_core({.sets = 1, .ways = 4, .line_bytes = 64});
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t b = 0; b < 5; ++b) {
      c.access(0, blk(b), AccessType::kRead);
    }
  }
  EXPECT_EQ(c.stats().thread(0).hits, 0u);
}

TEST(PrivateCore, GeometryValidation) {
  EXPECT_CONFIG_ERROR(private_core({.sets = 3, .ways = 2, .line_bytes = 64}),
                      "power of two");
  EXPECT_CONFIG_ERROR(private_core({.sets = 4, .ways = 0, .line_bytes = 64}),
                      "at least one way");
  EXPECT_CONFIG_ERROR(private_core({.sets = 4, .ways = 2, .line_bytes = 48}),
                      "power of two");
}

TEST(PrivateCore, GeometryHelpers) {
  const CacheGeometry g = {.sets = 256, .ways = 64, .line_bytes = 64};
  EXPECT_EQ(g.size_bytes(), 1024u * 1024u);
  EXPECT_EQ(g.block_of(0), 0u);
  EXPECT_EQ(g.block_of(64), 1u);
  EXPECT_EQ(g.set_of_block(256), 0u);
  EXPECT_EQ(g.set_of_block(257), 1u);
}

// --- Shared cores: per-thread ownership and way enforcement ---------------

// 1 set x 4 ways keeps victim choice fully observable.
CacheGeometry one_set() { return {.sets = 1, .ways = 4, .line_bytes = 64}; }

TEST(SharedCore, HitAfterFill) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  EXPECT_FALSE(c.access(0, blk(1), AccessType::kRead).hit);
  EXPECT_TRUE(c.access(0, blk(1), AccessType::kRead).hit);
}

TEST(SharedCore, InitialTargetsAreEqualSplit) {
  CacheCore c({.sets = 4, .ways = 64, .line_bytes = 64}, 4,
              PartitionEnforcement::kWayEvictionControl);
  const auto t = c.targets();
  EXPECT_EQ(t.size(), 4u);
  for (std::uint32_t w : t) EXPECT_EQ(w, 16u);
}

TEST(SharedCore, BelowTargetThreadEvictsForeignLine) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  // Thread 0 fills all four ways.
  for (std::uint64_t b = 0; b < 4; ++b) c.access(0, blk(b), AccessType::kRead);
  EXPECT_EQ(c.owned_in_set(0, 0), 4u);
  // Thread 1 misses; it is below target (0 < 2), so it must evict one of
  // thread 0's lines — specifically the LRU one (block 0).
  const auto r = c.access(1, blk(10), AccessType::kRead);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.inter_thread_eviction);
  EXPECT_FALSE(c.contains(blk(0)));
  EXPECT_TRUE(c.contains(blk(1)));
  EXPECT_EQ(c.owned_in_set(0, 0), 3u);
  EXPECT_EQ(c.owned_in_set(0, 1), 1u);
}

TEST(SharedCore, AtTargetThreadEvictsOwnLine) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  // Fill: thread 0 gets blocks 0,1; thread 1 gets 10,11. Both at target.
  c.access(0, blk(0), AccessType::kRead);
  c.access(0, blk(1), AccessType::kRead);
  c.access(1, blk(10), AccessType::kRead);
  c.access(1, blk(11), AccessType::kRead);
  // Thread 0 misses at target: must evict its own LRU (block 0), leaving
  // thread 1's lines untouched.
  const auto r = c.access(0, blk(2), AccessType::kRead);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.inter_thread_eviction);
  EXPECT_FALSE(c.contains(blk(0)));
  EXPECT_TRUE(c.contains(blk(10)));
  EXPECT_TRUE(c.contains(blk(11)));
  EXPECT_EQ(c.owned_in_set(0, 0), 2u);
  EXPECT_EQ(c.owned_in_set(0, 1), 2u);
}

TEST(SharedCore, HitsAreUnrestrictedAcrossPartitions) {
  // Constructive sharing (§IV-A2): thread 1 may hit on thread 0's line even
  // when thread 1 holds zero ways of its own.
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  c.set_targets(std::vector<std::uint32_t>{3, 1});
  c.access(0, blk(5), AccessType::kRead);
  const auto r = c.access(1, blk(5), AccessType::kRead);
  EXPECT_TRUE(r.hit);
  EXPECT_TRUE(r.inter_thread_hit);
  EXPECT_EQ(c.stats().thread(1).inter_thread_hits, 1u);
  // Ownership does not change on a hit.
  EXPECT_EQ(c.owned_in_set(0, 0), 1u);
  EXPECT_EQ(c.owned_in_set(0, 1), 0u);
}

TEST(SharedCore, PartitionConvergesTowardTargets) {
  // Under sustained misses from both threads the per-set ownership converges
  // to the target split, gradually, through replacements (§V: no flush).
  CacheCore c({.sets = 4, .ways = 8, .line_bytes = 64}, 2,
              PartitionEnforcement::kWayEvictionControl);
  c.set_targets(std::vector<std::uint32_t>{6, 2});
  Rng rng(1);
  std::uint64_t next0 = 0, next1 = 1'000'000;
  for (int i = 0; i < 20'000; ++i) {
    if (rng.chance(0.5)) {
      c.access(0, blk(next0++), AccessType::kRead);
    } else {
      c.access(1, blk(next1++), AccessType::kRead);
    }
  }
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(c.owned_in_set(s, 0), 6u) << "set " << s;
    EXPECT_EQ(c.owned_in_set(s, 1), 2u) << "set " << s;
  }
  EXPECT_EQ(c.owned_total(0), 24u);
  EXPECT_EQ(c.owned_total(1), 8u);
}

TEST(SharedCore, RetargetingMovesOwnershipGradually) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  c.access(0, blk(0), AccessType::kRead);
  c.access(0, blk(1), AccessType::kRead);
  c.access(1, blk(10), AccessType::kRead);
  c.access(1, blk(11), AccessType::kRead);
  // Shrink thread 0 to one way. Nothing moves yet (no reconfiguration).
  c.set_targets(std::vector<std::uint32_t>{1, 3});
  EXPECT_EQ(c.owned_in_set(0, 0), 2u);
  // Thread 1's next miss takes a way from thread 0.
  c.access(1, blk(12), AccessType::kRead);
  EXPECT_EQ(c.owned_in_set(0, 0), 1u);
  EXPECT_EQ(c.owned_in_set(0, 1), 3u);
  // Thread 0's next miss replaces its own single line (at target).
  c.access(0, blk(2), AccessType::kRead);
  EXPECT_EQ(c.owned_in_set(0, 0), 1u);
}

TEST(SharedCore, UnpartitionedModeIsGlobalLru) {
  // Against a plain LRU reference: identical hit/miss stream.
  const CacheGeometry g = {.sets = 8, .ways = 4, .line_bytes = 64};
  CacheCore c(g, 2, PartitionEnforcement::kNone);
  CacheCore ref = private_core(g);
  Rng rng(3);
  for (int i = 0; i < 20'000; ++i) {
    const Addr a = blk(rng.below(200));
    const auto t = static_cast<ThreadId>(rng.below(2));
    EXPECT_EQ(c.access(t, a, AccessType::kRead).hit,
              ref.access(0, a, AccessType::kRead).hit)
        << "diverged at access " << i;
  }
}

TEST(SharedCore, DestructiveEvictionAttribution) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kNone);
  for (std::uint64_t b = 0; b < 4; ++b) c.access(0, blk(b), AccessType::kRead);
  c.access(1, blk(20), AccessType::kRead);  // evicts thread 0's LRU line
  EXPECT_EQ(c.stats().thread(1).inter_thread_evictions_caused, 1u);
  EXPECT_EQ(c.stats().thread(0).inter_thread_evictions_suffered, 1u);
  EXPECT_EQ(c.stats().thread(1).intra_thread_evictions, 0u);
}

TEST(SharedCore, IntraThreadEvictionAttribution) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kNone);
  for (std::uint64_t b = 0; b < 5; ++b) c.access(0, blk(b), AccessType::kRead);
  EXPECT_EQ(c.stats().thread(0).intra_thread_evictions, 1u);
  EXPECT_EQ(c.stats().thread(0).inter_thread_evictions_caused, 0u);
}

TEST(SharedCore, LastAccessorGovernsInteraction) {
  // Thread 0 inserts, thread 1 touches (constructive), thread 0 touching
  // again is another inter-thread interaction even though it owns the line.
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  c.access(0, blk(7), AccessType::kRead);
  EXPECT_TRUE(c.access(1, blk(7), AccessType::kRead).inter_thread_hit);
  EXPECT_TRUE(c.access(0, blk(7), AccessType::kRead).inter_thread_hit);
  EXPECT_FALSE(c.access(0, blk(7), AccessType::kRead).inter_thread_hit);
}

TEST(SharedCore, FlushReconfigureRemovesWaysImmediately) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayFlushReconfigure);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  c.access(0, blk(0), AccessType::kRead);
  c.access(0, blk(1), AccessType::kRead);
  c.access(1, blk(10), AccessType::kRead);
  c.access(1, blk(11), AccessType::kRead);
  // Shrink thread 0 from 2 ways to 1: its LRU line (block 0) is flushed
  // immediately, the line within the kept way (block 1) survives, and
  // thread 1's lines (growing) are untouched.
  c.set_targets(std::vector<std::uint32_t>{1, 3});
  EXPECT_EQ(c.flushed_on_last_retarget(), 1u);
  EXPECT_FALSE(c.contains(blk(0)));
  EXPECT_TRUE(c.contains(blk(1)));
  EXPECT_TRUE(c.contains(blk(10)));
  EXPECT_TRUE(c.contains(blk(11)));
  EXPECT_EQ(c.owned_in_set(0, 0), 1u);
  EXPECT_EQ(c.owned_in_set(0, 1), 2u);
}

TEST(SharedCore, FlushReconfigureNoOpRetargetFlushesNothing) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayFlushReconfigure);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  c.access(0, blk(0), AccessType::kRead);
  c.set_targets(std::vector<std::uint32_t>{2, 2});
  EXPECT_EQ(c.flushed_on_last_retarget(), 0u);
  EXPECT_TRUE(c.contains(blk(0)));
}

TEST(SharedCore, EvictionControlNeverFlushesOnRetarget) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  c.access(0, blk(0), AccessType::kRead);
  c.set_targets(std::vector<std::uint32_t>{1, 3});
  EXPECT_EQ(c.flushed_on_last_retarget(), 0u);
  EXPECT_TRUE(c.contains(blk(0)));
}

TEST(SharedCore, DirtyEvictionsCountAsWritebacks) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kNone);
  c.access(0, blk(0), AccessType::kWrite);  // dirty
  c.access(0, blk(1), AccessType::kRead);   // clean
  c.access(0, blk(2), AccessType::kRead);
  c.access(0, blk(3), AccessType::kRead);
  // Evict block 0 (LRU, dirty): one writeback charged to the evictor.
  c.access(1, blk(10), AccessType::kRead);
  EXPECT_EQ(c.stats().thread(1).writebacks, 1u);
  // Evict block 1 (clean): no writeback.
  c.access(1, blk(11), AccessType::kRead);
  EXPECT_EQ(c.stats().thread(1).writebacks, 1u);
}

TEST(SharedCore, WriteHitDirtiesTheLine) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kNone);
  c.access(0, blk(0), AccessType::kRead);   // clean fill
  c.access(0, blk(0), AccessType::kWrite);  // dirtied by the hit
  for (std::uint64_t b = 1; b < 4; ++b) c.access(0, blk(b), AccessType::kRead);
  c.access(0, blk(5), AccessType::kRead);  // evicts block 0
  EXPECT_EQ(c.stats().thread(0).writebacks, 1u);
}

TEST(SharedCore, TargetValidation) {
  CacheCore c(one_set(), 2, PartitionEnforcement::kWayEvictionControl);
  EXPECT_DEATH(c.set_targets(std::vector<std::uint32_t>{4, 1}), "sum");
  EXPECT_DEATH(c.set_targets(std::vector<std::uint32_t>{4, 0}),
               "at least one way");
  EXPECT_DEATH(c.set_targets(std::vector<std::uint32_t>{4}), "per thread");
  CacheCore u(one_set(), 2, PartitionEnforcement::kNone);
  EXPECT_DEATH(u.set_targets(std::vector<std::uint32_t>{2, 2}),
               "eviction control");
}

/// Property sweep: under random traffic and random (valid) retargeting, the
/// per-set ownership counters always sum to the number of valid lines and
/// never go negative, and cumulative stats stay consistent.
class SharedCoreProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SharedCoreProperty, OwnershipAccounting) {
  Rng rng(GetParam());
  const CacheGeometry g = {.sets = 4, .ways = 8, .line_bytes = 64};
  const ThreadId n = 4;
  CacheCore c(g, n, PartitionEnforcement::kWayEvictionControl);
  for (int i = 0; i < 5'000; ++i) {
    if (i % 512 == 0) {
      // Random valid retarget.
      std::vector<std::uint32_t> t(n, 1);
      std::uint32_t left = g.ways - n;
      while (left > 0) {
        t[rng.below(n)] += 1;
        --left;
      }
      c.set_targets(t);
    }
    const auto tid = static_cast<ThreadId>(rng.below(n));
    c.access(tid, blk(rng.below(300)), AccessType::kRead);
    if (i % 97 == 0) {
      for (std::uint32_t s = 0; s < g.sets; ++s) {
        std::uint32_t owned = 0;
        for (ThreadId t = 0; t < n; ++t) owned += c.owned_in_set(s, t);
        EXPECT_LE(owned, g.ways);
      }
    }
  }
  // Global stats consistency: hits + misses == accesses per thread.
  for (ThreadId t = 0; t < n; ++t) {
    const auto& s = c.stats().thread(t);
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    EXPECT_LE(s.inter_thread_hits, s.hits);
    EXPECT_LE(s.inter_thread_evictions_caused + s.intra_thread_evictions,
              s.misses);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTraffic, SharedCoreProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace capart::mem
