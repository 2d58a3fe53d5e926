// CAT-style CLOS layer: way-mask/plan invariants (src/mem/clos), the
// thread->CLOS clustering policies (src/core/clos_mapper), and the
// kClosWayMask enforcement semantics — fills and victims stay within the
// thread's mask, hits are unrestricted, and mask changes never flush.
#include "src/mem/clos.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "expect_config_error.hpp"
#include "src/core/clos_mapper.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/mem/cache_core.hpp"
#include "src/mem/l2_organization.hpp"
#include "src/sim/experiment.hpp"

namespace capart {
namespace {

using mem::CacheCore;
using mem::CacheGeometry;
using mem::ClosPlan;
using mem::WayMask;

CacheGeometry geom(std::uint32_t sets, std::uint32_t ways) {
  return {.sets = sets, .ways = ways, .line_bytes = 64};
}

/// Address of block `b` mapping to set `set` of `g` (block = set + k*sets).
Addr addr_in_set(const CacheGeometry& g, std::uint32_t set, std::uint64_t k) {
  return (set + k * g.sets) * g.line_bytes;
}

/// EXPECT-based version of mem::validate_clos_plan (which CHECK-aborts):
/// asserts the satellite properties — masks contiguous and tiling
/// [0, total_ways) in CLOS order, budget respected, every thread on exactly
/// one CLOS with >= 1 way.
void expect_valid_plan(const ClosPlan& plan, std::uint32_t total_ways,
                       ThreadId num_threads, std::uint32_t budget) {
  ASSERT_EQ(plan.masks.size(), budget);
  std::uint32_t offset = 0;
  for (const WayMask& mask : plan.masks) {
    EXPECT_EQ(mask.low_way, offset) << "masks must be contiguous in CLOS order";
    offset += mask.nr_ways;
  }
  EXPECT_EQ(offset, total_ways) << "masks must tile all ways exactly";
  ASSERT_EQ(plan.clos_of.size(), num_threads);
  for (ThreadId t = 0; t < num_threads; ++t) {
    ASSERT_LT(plan.clos_of[t], budget);
    EXPECT_GE(plan.masks[plan.clos_of[t]].nr_ways, 1u)
        << "thread " << t << " mapped to an empty CLOS";
  }
}

TEST(WayMask, ContainsAndBounds) {
  const WayMask m{.low_way = 2, .nr_ways = 3};
  EXPECT_EQ(m.high_way(), 5u);
  EXPECT_FALSE(m.contains(1));
  EXPECT_TRUE(m.contains(2));
  EXPECT_TRUE(m.contains(4));
  EXPECT_FALSE(m.contains(5));
  EXPECT_EQ(m, (WayMask{.low_way = 2, .nr_ways = 3}));
  EXPECT_NE(m, (WayMask{.low_way = 2, .nr_ways = 4}));
}

TEST(ClosPlan, InitialPlanRoundRobinsAndTiles) {
  const ClosPlan plan = mem::initial_clos_plan(16, 10, 4);
  expect_valid_plan(plan, 16, 10, 4);
  for (ThreadId t = 0; t < 10; ++t) {
    EXPECT_EQ(plan.clos_of[t], t % 4);
  }
  // Ways are apportioned by CLOS membership: classes 0-1 hold three threads
  // each, classes 2-3 two -> 16 ways split {5, 5, 3, 3}.
  EXPECT_EQ(plan.masks[0].nr_ways, 5u);
  EXPECT_EQ(plan.masks[1].nr_ways, 5u);
  EXPECT_EQ(plan.masks[2].nr_ways, 3u);
  EXPECT_EQ(plan.masks[3].nr_ways, 3u);
}

TEST(ClosPlan, InitialPlanLeavesExcessClosesEmpty) {
  // 3 threads under a budget of 8: only CLOSes 0-2 have members; ways are
  // not wasted on the empty classes.
  const ClosPlan plan = mem::initial_clos_plan(8, 3, 8);
  expect_valid_plan(plan, 8, 3, 8);
  for (std::uint32_t c = 0; c < 3; ++c) {
    EXPECT_GE(plan.masks[c].nr_ways, 1u);
  }
  for (std::uint32_t c = 3; c < 8; ++c) {
    EXPECT_EQ(plan.masks[c].nr_ways, 0u);
  }
}

TEST(ClosPlan, BuildApportionsByClusterShare) {
  // Cluster 0 holds one thread of share 8, cluster 1 four threads of share 1
  // each: weights 8 vs 4 over 16 ways -> largest remainder gives 11 vs 5.
  const std::vector<std::uint32_t> shares = {8, 1, 1, 1, 1};
  const std::vector<std::uint32_t> clos_of = {0, 1, 1, 1, 1};
  const ClosPlan plan = mem::build_clos_plan(shares, clos_of, 16, 2);
  expect_valid_plan(plan, 16, 5, 2);
  EXPECT_EQ(plan.masks[0].nr_ways, 11u);
  EXPECT_EQ(plan.masks[1].nr_ways, 5u);
}

TEST(ClosPlan, GridInvariantsUnderEveryMapper) {
  // Satellite property sweep: for a grid of thread counts (including far
  // beyond the way count), budgets and every mapper kind, the built plan
  // keeps all structural invariants.
  for (const ThreadId threads : {ThreadId{1}, ThreadId{3}, ThreadId{8},
                                 ThreadId{17}, ThreadId{64}, ThreadId{128}}) {
    for (const std::uint32_t ways : {8u, 16u}) {
      // Virtual way space: policies emit shares over max(ways, threads).
      const std::uint32_t virtual_ways = std::max(ways, threads);
      std::vector<std::uint32_t> shares(threads);
      std::uint32_t assigned = 0;
      for (ThreadId t = 0; t < threads; ++t) {
        shares[t] = (t * 7) % 5 + 1;
        assigned += shares[t];
      }
      // Top up thread 0 so the shares sum to the virtual space, as policy
      // outputs do.
      if (assigned < virtual_ways) shares[0] += virtual_ways - assigned;
      for (const std::uint32_t budget : {1u, 2u, 4u, 8u, 16u}) {
        if (budget > ways) continue;
        for (const core::ClosMapperKind kind : core::kAllClosMapperKinds) {
          const auto mapper = core::make_clos_mapper(kind);
          const std::vector<std::uint32_t> clos_of =
              mapper->cluster(shares, budget);
          ASSERT_EQ(clos_of.size(), threads);
          // Determinism: same input -> same clustering.
          EXPECT_EQ(mapper->cluster(shares, budget), clos_of);
          const ClosPlan plan =
              mem::build_clos_plan(shares, clos_of, ways, budget);
          expect_valid_plan(plan, ways, threads, budget);
        }
      }
    }
  }
}

TEST(ClosMapper, NoneIsRoundRobin) {
  const auto mapper = core::make_clos_mapper(core::ClosMapperKind::kNone);
  const std::vector<std::uint32_t> shares = {9, 1, 5, 3, 7};
  EXPECT_EQ(mapper->cluster(shares, 2),
            (std::vector<std::uint32_t>{0, 1, 0, 1, 0}));
}

TEST(ClosMapper, NearestGroupsSimilarDemand) {
  const auto mapper = core::make_clos_mapper(core::ClosMapperKind::kNearest);
  // Alternating light/heavy threads: nearest must put the three light
  // threads in one CLOS and the three heavy ones in the other.
  const std::vector<std::uint32_t> shares = {1, 9, 1, 9, 1, 9};
  const std::vector<std::uint32_t> clos_of = mapper->cluster(shares, 2);
  EXPECT_EQ(clos_of[0], clos_of[2]);
  EXPECT_EQ(clos_of[0], clos_of[4]);
  EXPECT_EQ(clos_of[1], clos_of[3]);
  EXPECT_EQ(clos_of[1], clos_of[5]);
  EXPECT_NE(clos_of[0], clos_of[1]);
}

TEST(ClosMapper, MinMaxBalancesClusterWeight) {
  const auto mapper = core::make_clos_mapper(core::ClosMapperKind::kMinMax);
  // LPT greedy: 9 -> c0, 8 -> c1, 2 -> lighter c1, 1 -> lighter c0;
  // both clusters end at weight 10.
  const std::vector<std::uint32_t> shares = {9, 8, 2, 1};
  EXPECT_EQ(mapper->cluster(shares, 2),
            (std::vector<std::uint32_t>{0, 1, 1, 0}));
}

TEST(ClosMapper, LfocWithoutClassesFallsBackToNearest) {
  const auto lfoc = core::make_clos_mapper(core::ClosMapperKind::kLfoc);
  const auto nearest = core::make_clos_mapper(core::ClosMapperKind::kNearest);
  const std::vector<std::uint32_t> shares = {1, 9, 1, 9, 1, 9};
  EXPECT_TRUE(lfoc->wants_classes());
  EXPECT_EQ(lfoc->cluster(shares, 2), nearest->cluster(shares, 2));
  // The ClusterContext overload without classes is the same fallback.
  EXPECT_EQ(lfoc->cluster(core::ClusterContext{.shares = shares}, 2),
            nearest->cluster(shares, 2));
}

TEST(ClosMapper, LfocSegregatesClassesIntoDedicatedClos) {
  const auto lfoc = core::make_clos_mapper(core::ClosMapperKind::kLfoc);
  const std::vector<std::uint32_t> shares = {1, 2, 10, 9, 1, 2};
  const std::vector<core::CacheClass> classes = {
      core::CacheClass::kLight,          core::CacheClass::kStreaming,
      core::CacheClass::kCacheSensitive, core::CacheClass::kCacheSensitive,
      core::CacheClass::kLight,          core::CacheClass::kStreaming};
  const auto clos_of = lfoc->cluster(
      core::ClusterContext{.shares = shares, .classes = classes}, 4);
  ASSERT_EQ(clos_of.size(), shares.size());
  // Same class -> same CLOS; different classes never share one.
  EXPECT_EQ(clos_of[0], clos_of[4]);  // both light
  EXPECT_EQ(clos_of[1], clos_of[5]);  // both streaming
  EXPECT_NE(clos_of[0], clos_of[1]);
  EXPECT_NE(clos_of[0], clos_of[2]);
  EXPECT_NE(clos_of[1], clos_of[2]);
  // Deterministic.
  EXPECT_EQ(lfoc->cluster(
                core::ClusterContext{.shares = shares, .classes = classes}, 4),
            clos_of);
}

TEST(ClosMapper, LfocTightBudgetFallsBackGracefully) {
  // Budget too small to give each class its own CLOS: the mapper must still
  // produce a valid clustering (nearest fallback).
  const auto lfoc = core::make_clos_mapper(core::ClosMapperKind::kLfoc);
  const std::vector<std::uint32_t> shares = {1, 10, 5};
  const std::vector<core::CacheClass> classes = {
      core::CacheClass::kLight, core::CacheClass::kCacheSensitive,
      core::CacheClass::kStreaming};
  const auto clos_of = lfoc->cluster(
      core::ClusterContext{.shares = shares, .classes = classes}, 1);
  ASSERT_EQ(clos_of.size(), 3u);
  for (const std::uint32_t c : clos_of) EXPECT_EQ(c, 0u);
}

TEST(ClosMapper, ParseAndNames) {
  for (const core::ClosMapperKind kind : core::kAllClosMapperKinds) {
    core::ClosMapperKind parsed{};
    ASSERT_TRUE(core::parse_clos_mapper(core::to_string(kind), parsed));
    EXPECT_EQ(parsed, kind);
    EXPECT_EQ(core::make_clos_mapper(kind)->kind(), kind);
  }
  core::ClosMapperKind out{};
  EXPECT_FALSE(core::parse_clos_mapper("bogus", out));
}

TEST(ClosEnforcement, FillsStayWithinMask) {
  CacheCore cache(geom(4, 8), 2, mem::PartitionEnforcement::kClosWayMask);
  const std::vector<WayMask> masks = {{.low_way = 0, .nr_ways = 4},
                                      {.low_way = 4, .nr_ways = 4}};
  cache.set_way_ranges(masks);
  // Each thread streams 16 distinct blocks through one set; with a 4-way
  // mask it can never own more than 4 lines there.
  const CacheGeometry g = geom(4, 8);
  for (std::uint64_t k = 0; k < 16; ++k) {
    cache.access(0, addr_in_set(g, 0, 2 * k), AccessType::kRead);
    cache.access(1, addr_in_set(g, 0, 2 * k + 1), AccessType::kRead);
  }
  EXPECT_EQ(cache.owned_in_set(0, 0), 4u);
  EXPECT_EQ(cache.owned_in_set(0, 1), 4u);
}

TEST(ClosEnforcement, MaskChangeNeverFlushes) {
  const CacheGeometry g = geom(4, 8);
  CacheCore cache(g, 2, mem::PartitionEnforcement::kClosWayMask);
  // Thread 0 starts with the whole cache and fills all 8 ways of set 0.
  cache.set_way_ranges(std::vector<WayMask>{{.low_way = 0, .nr_ways = 8},
                                            {.low_way = 0, .nr_ways = 8}});
  for (std::uint64_t k = 0; k < 8; ++k) {
    cache.access(0, addr_in_set(g, 0, k), AccessType::kRead);
  }
  EXPECT_EQ(cache.owned_in_set(0, 0), 8u);
  // Shrink thread 0 to ways [0,4): nothing is flushed — the lines outside
  // the new mask stay resident and hittable (CAT semantics).
  cache.set_way_ranges(std::vector<WayMask>{{.low_way = 0, .nr_ways = 4},
                                            {.low_way = 4, .nr_ways = 4}});
  EXPECT_EQ(cache.owned_in_set(0, 0), 8u);
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_TRUE(cache.access(0, addr_in_set(g, 0, k), AccessType::kRead).hit);
  }
  // Thread 1's fills victimize only within its mask [4,8): thread 0 keeps
  // the four lines that landed in [0,4).
  for (std::uint64_t k = 100; k < 104; ++k) {
    cache.access(1, addr_in_set(g, 0, k), AccessType::kRead);
  }
  EXPECT_EQ(cache.owned_in_set(0, 0), 4u);
  EXPECT_EQ(cache.owned_in_set(0, 1), 4u);
}

TEST(SharedL2, ApplyPlanCountsChangedMasksOnly) {
  mem::SharedL2 l2(geom(8, 8), 4, mem::L2Mode::kClosShared,
                   /*clos_budget=*/4);
  ASSERT_EQ(l2.mode(), mem::L2Mode::kClosShared);
  ASSERT_NE(l2.clos_plan(), nullptr);
  // Re-applying the plan in force changes nothing -> no mask-update cost.
  EXPECT_EQ(l2.apply_clos_plan(*l2.clos_plan()), 0u);
  // Skew the shares: every mask moves or resizes except none stay put; the
  // count is exactly the number of differing masks.
  const ClosPlan before = *l2.clos_plan();
  const std::vector<std::uint32_t> shares = {5, 1, 1, 1};
  const std::vector<std::uint32_t> clos_of = {0, 1, 2, 3};
  const ClosPlan next = mem::build_clos_plan(shares, clos_of, 8, 4);
  std::uint32_t expected = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    if (next.masks[c] != before.masks[c]) ++expected;
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(l2.apply_clos_plan(next), expected);
  EXPECT_EQ(l2.apply_clos_plan(next), 0u);
  // Effective per-thread allocation reports the mask widths.
  const std::vector<std::uint32_t> targets = l2.current_targets();
  for (ThreadId t = 0; t < 4; ++t) {
    EXPECT_EQ(targets[t], next.masks[next.clos_of[t]].nr_ways);
  }
}

TEST(ClosConfig, NonClosModesRejectMoreThreadsThanWaysRecoverably) {
  // Satellite: the historical CHECK-abort is now a recoverable ConfigError
  // naming the flag and pointing at the CLOS escape hatch.
  EXPECT_CONFIG_ERROR(
      mem::SharedL2(geom(16, 4), 6, mem::L2Mode::kPartitionedShared),
      "more threads");
  EXPECT_CONFIG_ERROR(
      mem::SharedL2(geom(16, 4), 6, mem::L2Mode::kPartitionedShared),
      "--l2-mode=clos");
  EXPECT_CONFIG_ERROR(
      mem::SharedL2(geom(16, 4), 6, mem::L2Mode::kFlushReconfigureShared),
      "more threads");
  sim::ExperimentConfig config;
  config.num_threads = 16;
  config.l2 = geom(64, 8);
  EXPECT_CONFIG_ERROR(config.validate(), "--l2-mode=clos");
  // The same configuration under CLOS enforcement validates.
  config.l2_mode = mem::L2Mode::kClosShared;
  config.clos_budget = 8;
  EXPECT_NO_THROW(config.validate());
}

TEST(ClosConfig, BudgetMustFitTheWays) {
  sim::ExperimentConfig config;
  config.l2_mode = mem::L2Mode::kClosShared;
  config.clos_budget = config.l2.ways + 1;
  EXPECT_CONFIG_ERROR(config.validate(), "clos budget must be in");
  config.clos_budget = 0;
  EXPECT_CONFIG_ERROR(config.validate(), "clos budget must be in");
  config.clos_budget = 4;
  EXPECT_NO_THROW(config.validate());
}

TEST(ClosConfig, FlushWithEvictionControlIsRefused) {
  // The enforcement alias once ran this pair as plain flush
  // reconfiguration; folding it into the mode refuses it, naming both flags.
  sim::ExperimentConfig config;
  config.l2_mode = mem::L2Mode::kFlushReconfigureShared;
  EXPECT_CONFIG_ERROR(
      config.l2_mode = mem::fold_l2_enforce(config.l2_mode, "eviction-control"),
      "l2-mode=flush-reconfigure-shared");
  EXPECT_CONFIG_ERROR(
      config.l2_mode = mem::fold_l2_enforce(config.l2_mode, "eviction-control"),
      "l2-enforce=eviction-control");
  EXPECT_EQ(config.l2_mode, mem::L2Mode::kFlushReconfigureShared);
}

TEST(ClosExperiment, EveryPolicyRunsWithMoreThreadsThanWays) {
  // The clustering layer keeps all policies running unmodified when threads
  // far exceed the physical ways (16 threads on an 8-way L2, budget 4).
  // Sweeping the registry means every future partitioner is covered too.
  for (const std::string& name : core::registry().names()) {
    sim::ExperimentConfig config;
    config.num_threads = 16;
    config.l2 = geom(64, 8);
    config.num_intervals = 3;
    config.interval_instructions = 16'000;
    config.policy = name;
    config.l2_mode = mem::L2Mode::kClosShared;
    config.clos_budget = 4;
    const sim::ExperimentResult result = sim::run_experiment(config);
    EXPECT_EQ(result.outcome.intervals_completed, 3u) << "policy " << name;
    EXPECT_GT(result.l2_stats.total().accesses, 0u);
  }
}

TEST(ClosExperiment, LfocMapperRunsUnderEveryPolicy) {
  // The class-aware mapper must work whether or not the active policy
  // publishes cache classes (only lfoc-classing does).
  for (const char* name : {"lfoc-classing", "model-based", "static-equal"}) {
    sim::ExperimentConfig config;
    config.num_threads = 16;
    config.l2 = geom(64, 8);
    config.num_intervals = 3;
    config.interval_instructions = 16'000;
    config.policy = name;
    config.l2_mode = mem::L2Mode::kClosShared;
    config.clos_budget = 4;
    config.clos_mapper = core::ClosMapperKind::kLfoc;
    const sim::ExperimentResult result = sim::run_experiment(config);
    EXPECT_EQ(result.outcome.intervals_completed, 3u) << "policy " << name;
    EXPECT_GT(result.l2_stats.total().accesses, 0u);
  }
}

}  // namespace
}  // namespace capart
