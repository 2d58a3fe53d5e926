// Tests for the page-coloring (set-partitioning) mechanism extension.
#include "src/mem/set_partitioned_cache.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/rng.hpp"
#include "src/mem/l2_organization.hpp"

namespace capart::mem {
namespace {

// 16 sets x 2 ways, 4 colors of 4 sets, 4-block (256 B) pages: small enough
// to reason about exactly.
CacheGeometry tiny() { return {.sets = 16, .ways = 2, .line_bytes = 64}; }

SetPartitionedCache make_tiny(ThreadId threads) {
  return SetPartitionedCache(tiny(), threads, /*colors=*/4,
                             /*page_bytes=*/256);
}

Addr blk(std::uint64_t b) { return b * 64; }

TEST(SetPartitionedCache, HitAfterFill) {
  SetPartitionedCache c = make_tiny(2);
  EXPECT_FALSE(c.access(0, blk(0), AccessType::kRead));
  EXPECT_TRUE(c.access(0, blk(0), AccessType::kRead));
}

TEST(SetPartitionedCache, InitialColorSplitIsEqual) {
  SetPartitionedCache c = make_tiny(2);
  EXPECT_EQ(c.colors_of(0).size(), 2u);
  EXPECT_EQ(c.colors_of(1).size(), 2u);
}

TEST(SetPartitionedCache, FirstTouchAssignsPagesToTheTouchersColors) {
  SetPartitionedCache c = make_tiny(2);
  // Thread 1 touches pages 0 and 1 first; pages get thread 1's colors
  // (2, 3), so thread 0's colors (0, 1) stay untouched: thread 0 filling
  // its own pages afterwards cannot evict thread 1's lines.
  c.access(1, blk(0), AccessType::kRead);   // page 0
  c.access(1, blk(4), AccessType::kRead);   // page 1
  // Thread 0 streams through many of its own pages.
  for (std::uint64_t b = 100; b < 200; b += 4) {
    c.access(0, blk(b), AccessType::kRead);
  }
  EXPECT_TRUE(c.contains(blk(0)));
  EXPECT_TRUE(c.contains(blk(4)));
}

TEST(SetPartitionedCache, SharedPagesBreakIsolation) {
  // The page-coloring weakness: a page first touched by thread 0 lives in
  // thread 0's colors, so thread 1's accesses to it consume — and can evict
  // from — thread 0's partition.
  SetPartitionedCache c = make_tiny(2);
  c.access(0, blk(0), AccessType::kRead);  // page 0 -> thread 0's colors
  EXPECT_TRUE(c.access(1, blk(0), AccessType::kRead));
  // Constructive sharing still works: the hit is on thread 0's line.
  EXPECT_EQ(c.stats().thread(1).inter_thread_hits, 1u);
  // Thread 1's own first-touch pages flood the same color only if they land
  // there; pages it first-touches go to ITS colors, so the destructive path
  // runs through shared pages: thread 1 touching many blocks of page 0's
  // color-set region owned by thread 0.
  for (std::uint64_t b = 0; b < 32; b += 4) {
    c.access(0, blk(b), AccessType::kRead);  // thread 0 claims pages 0..7
  }
  // Thread 1 hammers those shared pages, evicting thread 0's lines.
  std::uint64_t evictions_before =
      c.stats().thread(1).inter_thread_evictions_caused;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t b = 0; b < 32; b += 1) {
      c.access(1, blk(b), AccessType::kRead);
    }
  }
  EXPECT_GT(c.stats().thread(1).inter_thread_evictions_caused,
            evictions_before);
}

TEST(SetPartitionedCache, RetargetingMovesColors) {
  SetPartitionedCache c = make_tiny(2);
  c.set_targets(std::vector<std::uint32_t>{3, 1});
  EXPECT_EQ(c.colors_of(0).size(), 3u);
  EXPECT_EQ(c.colors_of(1).size(), 1u);
}

TEST(SetPartitionedCache, RecoloringStrandsCachedLines) {
  SetPartitionedCache c = make_tiny(2);
  // Thread 1's first page (page 5) lands on its first color (color 2).
  c.access(1, blk(20), AccessType::kRead);
  EXPECT_TRUE(c.contains(blk(20)));
  // Shrinking thread 1 to one color (color 3) recolors page 5; the cached
  // line is stranded in color 2's sets and no longer reachable.
  c.set_targets(std::vector<std::uint32_t>{3, 1});
  EXPECT_FALSE(c.contains(blk(20)));
  // The next access misses (the recoloring cost) and refills at color 3.
  EXPECT_FALSE(c.access(1, blk(20), AccessType::kRead));
  EXPECT_TRUE(c.contains(blk(20)));
}

TEST(SetPartitionedCache, TargetValidation) {
  SetPartitionedCache c = make_tiny(2);
  EXPECT_DEATH(c.set_targets(std::vector<std::uint32_t>{4, 1}), "sum");
  EXPECT_DEATH(c.set_targets(std::vector<std::uint32_t>{4, 0}),
               "at least one color");
  EXPECT_DEATH(c.set_targets(std::vector<std::uint32_t>{4}), "per thread");
}

TEST(SetPartitionedCache, GeometryValidation) {
  EXPECT_DEATH(SetPartitionedCache(tiny(), 2, /*colors=*/5, 256),
               "divide the set count");
  EXPECT_DEATH(SetPartitionedCache(tiny(), 5, /*colors=*/4, 256),
               "one color per thread");
  EXPECT_DEATH(SetPartitionedCache(tiny(), 2, 4, /*page_bytes=*/96),
               "multiple of the line size");
}

TEST(SetPartitionedCache, ReportsColorsAsWays) {
  // The coloring mode's organization is the cache itself. The default
  // 256-set/64-way geometry pairs one color per way, so the policies'
  // target arithmetic carries over.
  auto l2 = make_l2(L2Mode::kSetPartitionedShared, kDefaultL2, 4);
  EXPECT_NE(dynamic_cast<SetPartitionedCache*>(l2.get()), nullptr);
  EXPECT_TRUE(l2->partitionable());
  EXPECT_EQ(l2->total_ways(), 64u);
  EXPECT_EQ(l2->mode(), L2Mode::kSetPartitionedShared);
  const std::vector<std::uint32_t> targets = {40, 10, 8, 6};
  l2->set_targets(targets);
  EXPECT_EQ(l2->current_targets(), targets);
}

/// Property: under random traffic and random valid retargets, per-thread
/// stats stay consistent and every resident block is found where its
/// current coloring says it should be.
class SetPartitionProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SetPartitionProperty, StatsStayConsistent) {
  SetPartitionedCache c(tiny(), 2, 4, 256);
  Rng rng(GetParam());
  for (int i = 0; i < 4'000; ++i) {
    if (i % 512 == 511) {
      std::vector<std::uint32_t> t = {1, 1};
      t[rng.below(2)] += 2;
      c.set_targets(t);
    }
    const auto tid = static_cast<ThreadId>(rng.below(2));
    c.access(tid, blk(rng.below(128)), AccessType::kRead);
  }
  for (ThreadId t = 0; t < 2; ++t) {
    const auto& s = c.stats().thread(t);
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    EXPECT_LE(s.inter_thread_hits, s.hits);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTraffic, SetPartitionProperty,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace capart::mem
