// Differential tests for the vectorized set probe (src/mem/simd.hpp).
//
// The SIMD find_tag is the one routine the scan-index hot path trusts for
// correctness-by-construction: every backend (AVX2/SSE2/NEON) must return
// exactly the scalar loop's first-match-or-ways answer for every tag array,
// width and needle — including the kInvalidTag sentinel that encodes
// emptiness and duplicate tags where "first" matters. Two layers pin it:
//
//   * a randomized fuzz of find_tag against find_tag_scalar over widths
//     1..48 (covering every partial-vector tail of every backend), sentinel
//     density and duplicate placement;
//   * an end-to-end differential: full experiments under the scan index
//     (which probes through find_tag) must be bit-identical to the hash
//     index (an independent lookup mechanism that never touches the SIMD
//     path), across replacement policies x enforcement modes on random
//     seeds. A probe bug that somehow survived the fuzz would desynchronize
//     hits/misses here.
//
// The scalar build (-DCAPART_DISABLE_SIMD=ON) runs the same suite with
// find_tag aliased to the scalar loop, keeping the fallback honest too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "src/mem/l2_organization.hpp"
#include "src/mem/replacement.hpp"
#include "src/mem/simd.hpp"
#include "src/sim/experiment.hpp"

namespace capart {
namespace {

TEST(SimdDifferential, BackendIsCompiledIn) {
  // Not an assertion on which backend — just surface it in the test log so
  // a CI run shows what was actually exercised.
  std::printf("simd backend: %s\n",
              std::string(mem::simd::backend_name()).c_str());
  EXPECT_FALSE(mem::simd::backend_name().empty());
}

TEST(SimdDifferential, FindTagMatchesScalarOnRandomArrays) {
  const std::uint64_t base_seed = std::random_device{}();
  std::printf("simd fuzz base_seed=%llu\n",
              static_cast<unsigned long long>(base_seed));
  std::mt19937_64 rng(base_seed);

  for (std::uint32_t ways = 1; ways <= 48; ++ways) {
    for (int round = 0; round < 200; ++round) {
      // A small tag alphabet forces duplicates (first-match order matters)
      // and a tunable sentinel density covers mostly-empty through full
      // sets; occasional raw 64-bit tags cover the high-bit lanes the
      // vector compares must not truncate.
      std::vector<std::uint64_t> tags(ways);
      const std::uint32_t alphabet = 1 + static_cast<std::uint32_t>(rng() % 8);
      for (std::uint64_t& tag : tags) {
        const std::uint64_t roll = rng() % 10;
        if (roll < 3) {
          tag = mem::kInvalidTag;
        } else if (roll < 9) {
          tag = 0x1000 + rng() % alphabet;
        } else {
          tag = rng();
        }
      }
      // Needles: present values, absent values, and the sentinel itself
      // (the probe's callers never search for it, but the routine must
      // still answer consistently).
      for (int n = 0; n < 8; ++n) {
        std::uint64_t needle;
        switch (n % 4) {
          case 0:
            needle = tags[rng() % ways];
            break;
          case 1:
            needle = 0x1000 + rng() % alphabet;
            break;
          case 2:
            needle = rng();
            break;
          default:
            needle = mem::kInvalidTag;
            break;
        }
        const std::uint32_t simd =
            mem::simd::find_tag(tags.data(), ways, needle);
        const std::uint32_t scalar =
            mem::simd::find_tag_scalar(tags.data(), ways, needle);
        ASSERT_EQ(simd, scalar)
            << "ways=" << ways << " needle=" << needle
            << " base_seed=" << base_seed;
      }
    }
  }
}

TEST(SimdDifferential, FindTagEdgeWidths) {
  // Deterministic spot checks at the vector-width boundaries: match in the
  // last lane of a full vector, match in a one-element tail, no match at
  // all, and first-of-duplicates.
  std::vector<std::uint64_t> tags(9, mem::kInvalidTag);
  tags[3] = 7;
  tags[4] = 7;  // duplicate: find_tag must return 3, not 4
  tags[8] = 42;  // the scalar tail after two SSE2 (or one AVX2) vectors
  EXPECT_EQ(mem::simd::find_tag(tags.data(), 9, 7), 3u);
  EXPECT_EQ(mem::simd::find_tag(tags.data(), 9, 42), 8u);
  EXPECT_EQ(mem::simd::find_tag(tags.data(), 9, 43), 9u);
  EXPECT_EQ(mem::simd::find_tag(tags.data(), 1, 42), 1u);
  EXPECT_EQ(mem::simd::find_tag(tags.data(), 0, 42), 0u);
}

// The three enforcement strategies a partitioned run can be under: §V
// eviction control, CAT-style CLOS way masks, and flush reconfiguration.
const mem::L2Mode kModes[] = {mem::L2Mode::kPartitionedShared,
                              mem::L2Mode::kClosShared,
                              mem::L2Mode::kFlushReconfigureShared};

void expect_identical(const sim::ExperimentResult& a,
                      const sim::ExperimentResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.outcome.total_cycles, b.outcome.total_cycles) << what;
  EXPECT_EQ(a.outcome.instructions_retired, b.outcome.instructions_retired)
      << what;
  const mem::ThreadCacheCounters ta = a.l2_stats.total();
  const mem::ThreadCacheCounters tb = b.l2_stats.total();
  EXPECT_EQ(ta.accesses, tb.accesses) << what;
  EXPECT_EQ(ta.hits, tb.hits) << what;
  EXPECT_EQ(ta.misses, tb.misses) << what;
  EXPECT_EQ(ta.writebacks, tb.writebacks) << what;
}

TEST(SimdDifferential, ScanProbeMatchesHashIndexAcrossTheMatrix) {
  const std::uint64_t base_seed = std::random_device{}();
  std::printf("simd experiment differential base_seed=%llu\n",
              static_cast<unsigned long long>(base_seed));
  std::mt19937_64 mix(base_seed);

  const char* policies[] = {"ucp", "model-based", "static-equal"};
  for (const char* policy : policies) {
    for (const mem::L2Mode mode : kModes) {
      sim::ExperimentConfig cfg;
      cfg.profile = "cg";
      cfg.num_threads = 4;
      cfg.num_intervals = 5;
      cfg.interval_instructions = 24'000;
      cfg.policy = policy;
      cfg.seed = mix();
      cfg.l2_mode = mode;

      const std::string what = std::string(policy) + "/" +
                               std::string(mem::to_string(mode)) +
                               " seed=" + std::to_string(cfg.seed);
      sim::ExperimentConfig scan = cfg;
      scan.l2.index = mem::IndexKind::kScan;
      sim::ExperimentConfig hash = cfg;
      hash.l2.index = mem::IndexKind::kHash;
      expect_identical(sim::run_experiment(scan), sim::run_experiment(hash),
                       what);
    }
  }
}

}  // namespace
}  // namespace capart
