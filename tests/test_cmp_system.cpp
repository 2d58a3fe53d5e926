#include "src/sim/cmp_system.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"

namespace capart::sim {
namespace {

SystemConfig small_config() {
  SystemConfig c;
  c.num_threads = 2;
  c.l1 = {.sets = 4, .ways = 2, .line_bytes = 64};
  c.l2 = {.sets = 8, .ways = 4, .line_bytes = 64};
  c.l2_mode = mem::L2Mode::kPartitionedShared;
  return c;
}

TEST(CmpSystem, ColdAccessReachesMemory) {
  CmpSystem sys(small_config());
  const Cycles cost = sys.memory_access(0, 0, AccessType::kRead);
  EXPECT_EQ(cost, 1u + 200u);
  const auto& c = sys.counters().thread(0);
  EXPECT_EQ(c.instructions, 1u);
  EXPECT_EQ(c.l1_accesses, 1u);
  EXPECT_EQ(c.l1_misses, 1u);
  EXPECT_EQ(c.l2_accesses, 1u);
  EXPECT_EQ(c.l2_misses, 1u);
  EXPECT_EQ(c.l2_hits, 0u);
  EXPECT_EQ(c.exec_cycles, cost);
}

TEST(CmpSystem, SecondAccessHitsL1) {
  CmpSystem sys(small_config());
  sys.memory_access(0, 0, AccessType::kRead);
  const Cycles cost = sys.memory_access(0, 0, AccessType::kRead);
  EXPECT_EQ(cost, 1u);
  EXPECT_EQ(sys.counters().thread(0).l1_misses, 1u);  // unchanged
}

TEST(CmpSystem, L2HitAfterL1Eviction) {
  CmpSystem sys(small_config());
  // Fill L1 set 0 (2 ways) with three conflicting lines: 0, 256*?? — L1 has
  // 4 sets, so blocks 0, 4, 8 conflict in L1 set 0. In L2 (8 sets) they land
  // in sets 0, 4, 0 — no eviction there (4 ways).
  sys.memory_access(0, 0 * 64, AccessType::kRead);
  sys.memory_access(0, 4 * 64, AccessType::kRead);
  sys.memory_access(0, 8 * 64, AccessType::kRead);  // evicts block 0 from L1
  const Cycles cost = sys.memory_access(0, 0 * 64, AccessType::kRead);
  EXPECT_EQ(cost, 1u + 12u);  // L1 miss, L2 hit
  EXPECT_EQ(sys.counters().thread(0).l2_hits, 1u);
}

TEST(CmpSystem, PrefetchableMissPaysReducedPenalty) {
  CmpSystem sys(small_config());
  const Cycles cost =
      sys.memory_access(0, 64 * 100, AccessType::kRead, /*prefetchable=*/true);
  EXPECT_EQ(cost, 1u + 40u);
}

TEST(CmpSystem, NonMemoryAdvancesCountersOnly) {
  CmpSystem sys(small_config());
  const Cycles cost = sys.non_memory(1, 500);
  EXPECT_EQ(cost, 500u);
  EXPECT_EQ(sys.counters().thread(1).instructions, 500u);
  EXPECT_EQ(sys.counters().thread(1).l1_accesses, 0u);
}

TEST(CmpSystem, L1sArePrivatePerCore) {
  CmpSystem sys(small_config());
  sys.memory_access(0, 0, AccessType::kRead);
  // Thread 1 misses its own L1 but hits the shared L2.
  const Cycles cost = sys.memory_access(1, 0, AccessType::kRead);
  EXPECT_EQ(cost, 1u + 12u);
}

TEST(CmpSystem, DefaultBindingIsIdentity) {
  CmpSystem sys(small_config());
  EXPECT_EQ(sys.core_of(0), 0u);
  EXPECT_EQ(sys.core_of(1), 1u);
}

TEST(CmpSystem, MigrationColdStartsTheNewL1) {
  CmpSystem sys(small_config());
  sys.memory_access(0, 0, AccessType::kRead);
  EXPECT_EQ(sys.memory_access(0, 0, AccessType::kRead), 1u);  // warm L1
  // Migrate thread 0 to core 1: its next access misses the (cold) L1 of
  // core 1 but still hits L2.
  sys.bind(0, 1);
  EXPECT_EQ(sys.memory_access(0, 0, AccessType::kRead), 1u + 12u);
}

TEST(CmpSystem, L2OwnershipFollowsThreadNotCore) {
  CmpSystem sys(small_config());
  sys.bind(0, 1);
  sys.bind(1, 0);
  sys.memory_access(0, 0, AccessType::kRead);
  // The L2 attributes the fill to thread 0 regardless of core binding.
  const auto& stats = sys.l2().stats();
  EXPECT_EQ(stats.thread(0).misses, 1u);
  EXPECT_EQ(stats.thread(1).accesses, 0u);
}

TEST(CmpSystem, CountersMatchL2Stats) {
  CmpSystem sys(small_config());
  // Drive a little traffic and verify the two accounting paths agree on L2
  // events (the PMU view and the cache's own view).
  for (std::uint64_t i = 0; i < 500; ++i) {
    sys.memory_access(i % 2, (i * 37 % 64) * 64, AccessType::kRead);
  }
  for (ThreadId t = 0; t < 2; ++t) {
    const auto& pmu = sys.counters().thread(t);
    const auto& l2 = sys.l2().stats().thread(t);
    EXPECT_EQ(pmu.l2_accesses, l2.accesses);
    EXPECT_EQ(pmu.l2_hits, l2.hits);
    EXPECT_EQ(pmu.l2_misses, l2.misses);
  }
}

TEST(CmpSystem, ThreeLevelHierarchyChargesEachLevel) {
  SystemConfig cfg = small_config();
  cfg.enable_private_l2 = true;
  cfg.private_l2 = {.sets = 4, .ways = 2, .line_bytes = 64};
  CmpSystem sys(cfg);
  // Cold: misses L1, private L2 and the shared cache.
  EXPECT_EQ(sys.memory_access(0, 0, AccessType::kRead), 1u + 200u);
  const auto& c = sys.counters().thread(0);
  EXPECT_EQ(c.private_l2_accesses, 1u);
  EXPECT_EQ(c.private_l2_misses, 1u);
  EXPECT_EQ(c.l2_accesses, 1u);  // the shared cache saw it too
  // Warm in L1: base cost.
  EXPECT_EQ(sys.memory_access(0, 0, AccessType::kRead), 1u);
}

TEST(CmpSystem, PrivateL2HitShieldsTheSharedCache) {
  SystemConfig cfg = small_config();
  cfg.enable_private_l2 = true;
  cfg.private_l2 = {.sets = 8, .ways = 2, .line_bytes = 64};
  CmpSystem sys(cfg);
  // Blocks 0, 4, 8 conflict in the 4-set L1 (block 0 gets evicted there)
  // but spread over the 8-set private L2 (set 0 holds {0, 8}, set 4 holds
  // {4}): re-touching block 0 misses L1, hits the private L2, and never
  // reaches the shared cache.
  sys.memory_access(0, 0 * 64, AccessType::kRead);
  sys.memory_access(0, 4 * 64, AccessType::kRead);
  sys.memory_access(0, 8 * 64, AccessType::kRead);
  const auto before = sys.counters().thread(0).l2_accesses;
  const Cycles cost = sys.memory_access(0, 0 * 64, AccessType::kRead);
  EXPECT_EQ(cost, 1u + 8u);  // private L2 hit penalty
  EXPECT_EQ(sys.counters().thread(0).private_l2_hits, 1u);
  EXPECT_EQ(sys.counters().thread(0).l2_accesses, before);
}

TEST(CmpSystem, TwoLevelModeHasNoPrivateL2Traffic) {
  CmpSystem sys(small_config());
  sys.memory_access(0, 0, AccessType::kRead);
  EXPECT_EQ(sys.counters().thread(0).private_l2_accesses, 0u);
}

TEST(CmpSystem, BankContentionSerializesSameBankAccesses) {
  SystemConfig cfg = small_config();
  cfg.l2_banks = 2;
  cfg.l2_bank_service_cycles = 10;
  CmpSystem sys(cfg);
  // Two cold accesses to blocks 0 and 2 (both map to bank 0 of 2) issued at
  // the same clock: the second waits a full service slot.
  const Cycles first = sys.memory_access(0, 0 * 64, AccessType::kRead,
                                         false, /*now=*/100);
  const Cycles second = sys.memory_access(1, 2 * 64, AccessType::kRead,
                                          false, /*now=*/100);
  EXPECT_EQ(first, 1u + 200u);
  EXPECT_EQ(second, 1u + 200u + 10u);
  EXPECT_EQ(sys.counters().thread(1).contention_wait_cycles, 10u);
  EXPECT_EQ(sys.counters().thread(0).contention_wait_cycles, 0u);
}

TEST(CmpSystem, DifferentBanksDoNotContend) {
  SystemConfig cfg = small_config();
  cfg.l2_banks = 2;
  cfg.l2_bank_service_cycles = 10;
  CmpSystem sys(cfg);
  sys.memory_access(0, 0 * 64, AccessType::kRead, false, 100);  // bank 0
  const Cycles other = sys.memory_access(1, 1 * 64, AccessType::kRead,
                                         false, 100);  // bank 1
  EXPECT_EQ(other, 1u + 200u);
}

TEST(CmpSystem, BankFreesUpOverTime) {
  SystemConfig cfg = small_config();
  cfg.l2_banks = 1;
  cfg.l2_bank_service_cycles = 10;
  CmpSystem sys(cfg);
  sys.memory_access(0, 0 * 64, AccessType::kRead, false, 100);
  // Issued after the bank went idle: no wait.
  const Cycles later = sys.memory_access(1, 2 * 64, AccessType::kRead,
                                         false, 200);
  EXPECT_EQ(later, 1u + 200u);
}

TEST(CmpSystem, EveryAddressMapsToExactlyOneBank) {
  // The bank-select bits are the low block bits: consecutive blocks rotate
  // through the banks, and each shared access is counted by one bank only.
  SystemConfig cfg = small_config();
  cfg.l2_banks = 4;
  CmpSystem sys(cfg);
  ASSERT_EQ(sys.bank_contention().size(), 4u);
  for (std::uint64_t block = 0; block < 64; ++block) {
    std::vector<std::uint64_t> before;
    for (const BankContention& bc : sys.bank_contention()) {
      before.push_back(bc.accesses);
    }
    // Cold, distinct blocks: every access misses the L1 and reaches a bank.
    sys.memory_access(0, block * 64, AccessType::kRead, false, block * 1000);
    for (std::uint32_t b = 0; b < 4; ++b) {
      EXPECT_EQ(sys.bank_contention()[b].accesses - before[b],
                b == block % 4 ? 1u : 0u)
          << "block " << block << ", bank " << b;
    }
  }
  for (const BankContention& bc : sys.bank_contention()) {
    EXPECT_EQ(bc.accesses, 16u);
    EXPECT_EQ(bc.conflicts, 0u);  // issued far apart: no bank was busy
  }
  EXPECT_EQ(sys.counters().thread(0).l2_accesses, 64u);
}

TEST(CmpSystem, BankCountNeverChangesSharedCacheResults) {
  // 8 threads on a 4-way shared L2 build at any bank count, and the same
  // access order leaves identical shared-cache results: banks add
  // contention cycles, never structure.
  SystemConfig c = small_config();
  c.num_threads = 8;
  c.l2 = {.sets = 16, .ways = 4, .line_bytes = 64};
  c.l2_mode = mem::L2Mode::kSharedUnpartitioned;
  SystemConfig banked_config = c;
  banked_config.l2_banks = 2;
  CmpSystem monolithic(c);
  CmpSystem banked(banked_config);
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    const auto t = static_cast<ThreadId>(rng.below(8));
    const Addr addr = rng.below(128) * 64;
    const AccessType type =
        rng.below(4) == 0 ? AccessType::kWrite : AccessType::kRead;
    monolithic.memory_access(t, addr, type);
    banked.memory_access(t, addr, type);
  }
  EXPECT_GT(banked.bank_contention()[0].conflicts, 0u);
  const mem::CacheStats& a = monolithic.l2().stats();
  const mem::CacheStats& b = banked.l2().stats();
  for (ThreadId t = 0; t < 8; ++t) {
    EXPECT_GT(a.thread(t).hits, 0u) << "thread " << t;
    EXPECT_EQ(a.thread(t).accesses, b.thread(t).accesses) << "thread " << t;
    EXPECT_EQ(a.thread(t).hits, b.thread(t).hits) << "thread " << t;
    EXPECT_EQ(a.thread(t).inter_thread_hits, b.thread(t).inter_thread_hits)
        << "thread " << t;
    EXPECT_EQ(a.thread(t).inter_thread_evictions_caused,
              b.thread(t).inter_thread_evictions_caused)
        << "thread " << t;
    EXPECT_EQ(a.thread(t).intra_thread_evictions,
              b.thread(t).intra_thread_evictions)
        << "thread " << t;
    EXPECT_EQ(a.thread(t).writebacks, b.thread(t).writebacks)
        << "thread " << t;
  }
  EXPECT_EQ(monolithic.l2().current_targets(), banked.l2().current_targets());
}

TEST(CmpSystem, ContentionDisabledByDefault) {
  CmpSystem sys(small_config());
  sys.memory_access(0, 0, AccessType::kRead, false, 100);
  const Cycles second = sys.memory_access(1, 256 * 64, AccessType::kRead,
                                          false, 100);
  EXPECT_EQ(second, 1u + 200u);
  EXPECT_EQ(sys.counters().thread(1).contention_wait_cycles, 0u);
}

TEST(CmpSystem, RejectsOutOfRangeThread) {
  CmpSystem sys(small_config());
  EXPECT_DEATH(sys.memory_access(2, 0, AccessType::kRead), "out of range");
  EXPECT_DEATH(sys.non_memory(2, 1), "out of range");
  EXPECT_DEATH(sys.bind(0, 2), "out of range");
}

}  // namespace
}  // namespace capart::sim
