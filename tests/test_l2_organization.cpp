#include "src/mem/l2_organization.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "expect_config_error.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace capart::mem {
namespace {

CacheGeometry small() { return {.sets = 4, .ways = 8, .line_bytes = 64}; }

Addr blk(std::uint64_t b) { return b * 64; }

TEST(L2Organization, FactoryProducesRequestedModes) {
  for (L2Mode mode : {L2Mode::kSharedUnpartitioned, L2Mode::kPartitionedShared,
                      L2Mode::kPrivatePerThread}) {
    auto l2 = make_l2(mode, small(), 2);
    EXPECT_EQ(l2->mode(), mode);
    EXPECT_EQ(l2->num_threads(), 2u);
    EXPECT_EQ(l2->total_ways(), 8u);
  }
}

TEST(L2Organization, OnlyPartitionedSharedIsPartitionable) {
  EXPECT_FALSE(
      make_l2(L2Mode::kSharedUnpartitioned, small(), 2)->partitionable());
  EXPECT_TRUE(
      make_l2(L2Mode::kPartitionedShared, small(), 2)->partitionable());
  EXPECT_FALSE(
      make_l2(L2Mode::kPrivatePerThread, small(), 2)->partitionable());
}

TEST(L2Organization, SetTargetsIsNoOpWhereNotApplicable) {
  const std::vector<std::uint32_t> targets = {6, 2};
  auto shared = make_l2(L2Mode::kSharedUnpartitioned, small(), 2);
  shared->set_targets(targets);  // must not abort
  auto priv = make_l2(L2Mode::kPrivatePerThread, small(), 2);
  priv->set_targets(targets);  // must not abort
  auto part = make_l2(L2Mode::kPartitionedShared, small(), 2);
  part->set_targets(targets);
  EXPECT_EQ(part->current_targets(), targets);
}

TEST(L2Organization, PrivateTargetsReportSliceWays) {
  auto priv = make_l2(L2Mode::kPrivatePerThread, small(), 2);
  EXPECT_EQ(priv->current_targets(), (std::vector<std::uint32_t>{4, 4}));
}

TEST(PrivateL2, ThreadsAreFullyIsolated) {
  auto priv = make_l2(L2Mode::kPrivatePerThread, small(), 2);
  EXPECT_FALSE(priv->access(0, blk(3), AccessType::kRead));
  EXPECT_TRUE(priv->access(0, blk(3), AccessType::kRead));
  // Thread 1 cannot see thread 0's copy: no constructive sharing, data is
  // replicated (the private-cache drawback the paper highlights).
  EXPECT_FALSE(priv->access(1, blk(3), AccessType::kRead));
  EXPECT_TRUE(priv->access(1, blk(3), AccessType::kRead));
  EXPECT_EQ(priv->stats().thread(0).inter_thread_hits, 0u);
  EXPECT_EQ(priv->stats().thread(1).inter_thread_hits, 0u);
}

TEST(PrivateL2, SliceCapacityIsTotalOverThreads) {
  // Two threads, 8 total ways -> 4-way slices over the full set count.
  auto priv = make_l2(L2Mode::kPrivatePerThread, small(), 2);
  // Thread 0 loops over 5 blocks of one set: slice associativity 4 -> misses.
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t b = 0; b < 5; ++b) {
      priv->access(0, blk(b * 4), AccessType::kRead);  // same set (4 sets)
    }
  }
  EXPECT_EQ(priv->stats().thread(0).hits, 0u);
}

TEST(PrivateL2, StatsPerThread) {
  auto priv = make_l2(L2Mode::kPrivatePerThread, small(), 2);
  priv->access(0, blk(1), AccessType::kRead);
  priv->access(0, blk(1), AccessType::kRead);
  priv->access(1, blk(2), AccessType::kRead);
  EXPECT_EQ(priv->stats().thread(0).accesses, 2u);
  EXPECT_EQ(priv->stats().thread(0).hits, 1u);
  EXPECT_EQ(priv->stats().thread(1).accesses, 1u);
  EXPECT_EQ(priv->stats().thread(1).misses, 1u);
}

TEST(SharedL2, CrossThreadHitsWork) {
  auto shared = make_l2(L2Mode::kSharedUnpartitioned, small(), 2);
  shared->access(0, blk(9), AccessType::kRead);
  EXPECT_TRUE(shared->access(1, blk(9), AccessType::kRead));
  EXPECT_EQ(shared->stats().thread(1).inter_thread_hits, 1u);
}

TEST(SharedL2, FactoryIgnoresBankCount) {
  const CacheGeometry g = {.sets = 16, .ways = 4, .line_bytes = 64};
  const L2BuildOptions opts{.banks = 4};
  // Shared modes get the one SharedL2 organization; private and coloring
  // modes keep theirs. Banks only feed CmpSystem's contention model.
  for (L2Mode mode : {L2Mode::kSharedUnpartitioned, L2Mode::kPartitionedShared,
                      L2Mode::kFlushReconfigureShared}) {
    auto l2 = make_l2(mode, g, 2, opts);
    EXPECT_NE(dynamic_cast<SharedL2*>(l2.get()), nullptr);
    EXPECT_EQ(l2->mode(), mode);
  }
  EXPECT_TRUE(make_l2(L2Mode::kPartitionedShared, g, 2, opts)
                  ->partitionable());
  auto priv = make_l2(L2Mode::kPrivatePerThread, g, 2, opts);
  EXPECT_EQ(dynamic_cast<SharedL2*>(priv.get()), nullptr);
  auto colored = make_l2(L2Mode::kSetPartitionedShared, g, 2, opts);
  EXPECT_EQ(dynamic_cast<SharedL2*>(colored.get()), nullptr);
}

/// A deterministic access stream with enough reuse to produce hits: thread,
/// block drawn from a small footprint.
struct Access {
  ThreadId thread;
  Addr addr;
  AccessType type;
};

std::vector<Access> make_stream(ThreadId threads, std::size_t n) {
  Rng rng(12345);
  std::vector<Access> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<ThreadId>(rng.below(threads));
    const std::uint64_t block = rng.below(256);
    const AccessType type =
        rng.below(4) == 0 ? AccessType::kWrite : AccessType::kRead;
    stream.push_back({t, blk(block), type});
  }
  return stream;
}

void expect_same_stats(const CacheStats& a, const CacheStats& b) {
  ASSERT_EQ(a.num_threads(), b.num_threads());
  for (ThreadId t = 0; t < a.num_threads(); ++t) {
    EXPECT_EQ(a.thread(t).accesses, b.thread(t).accesses);
    EXPECT_EQ(a.thread(t).hits, b.thread(t).hits);
    EXPECT_EQ(a.thread(t).misses, b.thread(t).misses);
    EXPECT_EQ(a.thread(t).inter_thread_hits, b.thread(t).inter_thread_hits);
    EXPECT_EQ(a.thread(t).inter_thread_evictions_caused,
              b.thread(t).inter_thread_evictions_caused);
    EXPECT_EQ(a.thread(t).inter_thread_evictions_suffered,
              b.thread(t).inter_thread_evictions_suffered);
    EXPECT_EQ(a.thread(t).intra_thread_evictions,
              b.thread(t).intra_thread_evictions);
    EXPECT_EQ(a.thread(t).writebacks, b.thread(t).writebacks);
  }
}

/// Runs the same stream (with a mid-stream retarget where partitionable)
/// through make_l2 without banks and with `banks` banks, asserting the
/// per-access results never diverge: the bank count is timing only.
void expect_bank_count_ignored(L2Mode mode, std::uint32_t banks) {
  const CacheGeometry g = {.sets = 16, .ways = 4, .line_bytes = 64};
  auto plain = make_l2(mode, g, 3, {.banks = 0, .clos_budget = 2});
  auto banked = make_l2(mode, g, 3, {.banks = banks, .clos_budget = 2});
  const std::vector<Access> stream = make_stream(3, 4000);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i == 1700 && mode == L2Mode::kClosShared) {
      const std::vector<std::uint32_t> shares = {2, 1, 1};
      const std::vector<std::uint32_t> clos_of = {0, 1, 1};
      const ClosPlan plan = build_clos_plan(shares, clos_of, 4, 2);
      EXPECT_EQ(banked->apply_clos_plan(plan), plain->apply_clos_plan(plan));
      EXPECT_EQ(banked->current_targets(), plain->current_targets());
    } else if (i == 1700 && plain->partitionable()) {
      const std::vector<std::uint32_t> targets = {2, 1, 1};
      plain->set_targets(targets);
      banked->set_targets(targets);
      EXPECT_EQ(banked->flushed_on_last_retarget(),
                plain->flushed_on_last_retarget());
      EXPECT_EQ(banked->current_targets(), plain->current_targets());
    }
    const bool hit_plain =
        plain->access(stream[i].thread, stream[i].addr, stream[i].type);
    const bool hit_banked =
        banked->access(stream[i].thread, stream[i].addr, stream[i].type);
    ASSERT_EQ(hit_banked, hit_plain)
        << "diverged at access " << i << " with " << banks << " banks";
  }
  EXPECT_GT(plain->stats().total().hits, 0u);
  expect_same_stats(banked->stats(), plain->stats());
}

TEST(SharedL2, OneBankMatchesNoBanksShared) {
  expect_bank_count_ignored(L2Mode::kSharedUnpartitioned, 1);
}

TEST(SharedL2, ManyBanksMatchNoBanksShared) {
  expect_bank_count_ignored(L2Mode::kSharedUnpartitioned, 4);
  expect_bank_count_ignored(L2Mode::kSharedUnpartitioned, 16);
}

TEST(SharedL2, ManyBanksMatchNoBanksPartitioned) {
  expect_bank_count_ignored(L2Mode::kPartitionedShared, 1);
  expect_bank_count_ignored(L2Mode::kPartitionedShared, 2);
  expect_bank_count_ignored(L2Mode::kPartitionedShared, 8);
}

TEST(SharedL2, ManyBanksMatchNoBanksFlushReconfigure) {
  expect_bank_count_ignored(L2Mode::kFlushReconfigureShared, 4);
}

TEST(SharedL2, ManyBanksMatchNoBanksClos) {
  expect_bank_count_ignored(L2Mode::kClosShared, 4);
}

TEST(SharedL2, UnpartitionedAcceptsMoreThreadsThanWays) {
  // No enforcement keeps no per-thread targets, so 6 threads share 4 ways
  // at any bank count, and each still sees the others' lines.
  const CacheGeometry g = {.sets = 16, .ways = 4, .line_bytes = 64};
  for (std::uint32_t banks : {0u, 2u}) {
    auto l2 = make_l2(L2Mode::kSharedUnpartitioned, g, 6, {.banks = banks});
    EXPECT_FALSE(l2->partitionable());
    EXPECT_EQ(l2->num_threads(), 6u);
    for (const Access& a : make_stream(6, 2000)) {
      l2->access(a.thread, a.addr, a.type);
    }
    for (ThreadId t = 0; t < 6; ++t) {
      EXPECT_GT(l2->stats().thread(t).hits, 0u) << "thread " << t;
    }
    EXPECT_FALSE(l2->access(5, blk(1000), AccessType::kRead));
    const std::uint64_t shared_hits = l2->stats().thread(0).inter_thread_hits;
    EXPECT_TRUE(l2->access(0, blk(1000), AccessType::kRead));
    EXPECT_EQ(l2->stats().thread(0).inter_thread_hits, shared_hits + 1);
  }
}

TEST(SharedL2, MoreThreadsThanWaysRejectedUnderTargets) {
  // Recoverable misconfiguration, not an abort: the message points at the
  // CLOS enforcement mode, which is the configuration that can serve it.
  for (L2Mode mode :
       {L2Mode::kPartitionedShared, L2Mode::kFlushReconfigureShared}) {
    try {
      SharedL2 l2({.sets = 1, .ways = 2, .line_bytes = 64}, 3, mode);
      FAIL() << "3 threads on 2 ways must be rejected in "
             << to_string(mode);
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("more threads"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("clos"), std::string::npos);
    }
  }
}

/// Enough sets for one page color per way, so every mode can be built.
CacheGeometry colorable() { return {.sets = 16, .ways = 8, .line_bytes = 64}; }

TEST(L2Organization, PerThreadStatsSumToTotal) {
  // Every organization counts each access exactly once, in the issuing
  // thread's counters.
  for (L2Mode mode : {L2Mode::kSharedUnpartitioned, L2Mode::kPartitionedShared,
                      L2Mode::kPrivatePerThread,
                      L2Mode::kFlushReconfigureShared,
                      L2Mode::kSetPartitionedShared}) {
    auto l2 = make_l2(mode, colorable(), 2);
    const std::vector<Access> stream = make_stream(2, 2000);
    std::vector<std::uint64_t> issued(2, 0);
    for (const Access& a : stream) {
      l2->access(a.thread, a.addr, a.type);
      ++issued[a.thread];
    }
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    for (ThreadId t = 0; t < 2; ++t) {
      const ThreadCacheCounters& c = l2->stats().thread(t);
      EXPECT_EQ(c.accesses, issued[t]) << to_string(mode);
      EXPECT_EQ(c.hits + c.misses, c.accesses) << to_string(mode);
      accesses += c.accesses;
      hits += c.hits;
    }
    EXPECT_EQ(l2->stats().total().accesses, accesses) << to_string(mode);
    EXPECT_EQ(l2->stats().total().hits, hits) << to_string(mode);
    EXPECT_EQ(accesses, stream.size()) << to_string(mode);
    EXPECT_GT(hits, 0u) << to_string(mode);
  }
}

TEST(L2Organization, StatsReadsAreRepeatable) {
  // Reading stats() twice, or after more traffic, never double-counts.
  for (L2Mode mode : {L2Mode::kSharedUnpartitioned, L2Mode::kPartitionedShared,
                      L2Mode::kPrivatePerThread,
                      L2Mode::kFlushReconfigureShared,
                      L2Mode::kSetPartitionedShared}) {
    auto l2 = make_l2(mode, colorable(), 2);
    const std::vector<Access> stream = make_stream(2, 100);
    for (const Access& a : stream) l2->access(a.thread, a.addr, a.type);
    EXPECT_EQ(l2->stats().total().accesses, 100u) << to_string(mode);
    EXPECT_EQ(l2->stats().total().accesses, 100u) << to_string(mode);
    for (const Access& a : stream) l2->access(a.thread, a.addr, a.type);
    EXPECT_EQ(l2->stats().total().accesses, 200u) << to_string(mode);
  }
}

TEST(SharedL2, FactoryClosUsesSharedOrganization) {
  const L2BuildOptions opts{.banks = 1, .clos_budget = 2};
  // CLOS enforcement supports more threads than ways — 6 threads on 4 ways.
  auto l2 = make_l2(L2Mode::kClosShared,
                    {.sets = 16, .ways = 4, .line_bytes = 64}, 6, opts);
  EXPECT_NE(dynamic_cast<SharedL2*>(l2.get()), nullptr);
  EXPECT_EQ(l2->mode(), L2Mode::kClosShared);
  EXPECT_TRUE(l2->partitionable());
  ASSERT_NE(l2->clos_plan(), nullptr);
  EXPECT_EQ(l2->clos_plan()->masks.size(), 2u);
  Rng rng(12345);
  for (int i = 0; i < 2000; ++i) {
    const auto t = static_cast<ThreadId>(rng.below(6));
    const std::uint64_t block = rng.below(256);
    const AccessType type =
        rng.below(4) == 0 ? AccessType::kWrite : AccessType::kRead;
    l2->access(t, blk(block), type);
  }
  EXPECT_GT(l2->stats().total().hits, 0u);
}

TEST(L2Organization, ModeNames) {
  EXPECT_EQ(to_string(L2Mode::kSharedUnpartitioned), "shared-unpartitioned");
  EXPECT_EQ(to_string(L2Mode::kPartitionedShared), "partitioned-shared");
  EXPECT_EQ(to_string(L2Mode::kPrivatePerThread), "private-per-thread");
  EXPECT_EQ(to_string(L2Mode::kClosShared), "clos-shared");
}

TEST(L2Organization, ParsesCanonicalAndShortModeNames) {
  const std::pair<const char*, L2Mode> kShort[] = {
      {"shared", L2Mode::kSharedUnpartitioned},
      {"partitioned", L2Mode::kPartitionedShared},
      {"private", L2Mode::kPrivatePerThread},
      {"coloring", L2Mode::kSetPartitionedShared},
      {"flush", L2Mode::kFlushReconfigureShared},
      {"clos", L2Mode::kClosShared},
  };
  for (const auto& [name, mode] : kShort) {
    L2Mode parsed{};
    ASSERT_TRUE(parse_l2_mode(name, parsed)) << name;
    EXPECT_EQ(parsed, mode) << name;
    ASSERT_TRUE(parse_l2_mode(to_string(mode), parsed)) << to_string(mode);
    EXPECT_EQ(parsed, mode) << to_string(mode);
  }
  L2Mode untouched = L2Mode::kPrivatePerThread;
  EXPECT_FALSE(parse_l2_mode("sharedish", untouched));
  EXPECT_FALSE(parse_l2_mode("", untouched));
  EXPECT_EQ(untouched, L2Mode::kPrivatePerThread);
}

TEST(L2Organization, EnforceAliasFoldsIntoTheMode) {
  EXPECT_EQ(fold_l2_enforce(L2Mode::kFlushReconfigureShared, "default"),
            L2Mode::kFlushReconfigureShared);
  EXPECT_EQ(fold_l2_enforce(L2Mode::kPartitionedShared, "eviction-control"),
            L2Mode::kPartitionedShared);
  EXPECT_EQ(fold_l2_enforce(L2Mode::kPartitionedShared, "clos"),
            L2Mode::kClosShared);
  EXPECT_CONFIG_ERROR(fold_l2_enforce(L2Mode::kPartitionedShared, "msr"),
                      "default, eviction-control or clos");
  // Every other pair is a contradiction that names both flags.
  for (L2Mode mode :
       {L2Mode::kSharedUnpartitioned, L2Mode::kPrivatePerThread,
        L2Mode::kFlushReconfigureShared, L2Mode::kSetPartitionedShared,
        L2Mode::kClosShared}) {
    for (const char* alias : {"eviction-control", "clos"}) {
      EXPECT_CONFIG_ERROR(fold_l2_enforce(mode, alias), "l2-mode=");
      EXPECT_CONFIG_ERROR(fold_l2_enforce(mode, alias), "l2-enforce=");
    }
  }
}

TEST(PrivateL2, RejectsMoreThreadsThanWays) {
  EXPECT_DEATH(make_l2(L2Mode::kPrivatePerThread,
                       {.sets = 4, .ways = 2, .line_bytes = 64}, 3),
               "fewer ways than threads");
}

}  // namespace
}  // namespace capart::mem
