// Golden result digests: every arm's per-interval, per-thread counters and
// way targets are hashed (FNV-1a64) and compared against committed files, so
// any change to simulated results fails here instead of relying on a manual
// "byte-identical" check. Two arm sets are pinned:
//   fig19_21.digests  the fig 19-21 arm union (9 profiles x model-based /
//                     static-equal / shared / throughput-oriented, 4 threads)
//   umon_zoo.digests  the UMON-fed partitioners (ucp-lookahead,
//                     umon-critical-path, lfoc-classing) on cg and equake at
//                     16 threads with an 8-bank shared L2
// Each arm runs on live generators and again through a fresh trace-spool
// directory; both runs must match the same committed digest. Regenerate
// (only when a change to simulated results is intended) with
//   CAPART_REGEN_GOLDEN=1 ./build/tests/capart_tests --gtest_filter='Golden*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/partitioner_registry.hpp"
#include "src/sim/experiment.hpp"
#include "src/trace/benchmarks.hpp"

namespace capart::sim {
namespace {

using Arms = std::vector<std::pair<std::string, ExperimentConfig>>;
using Digests = std::map<std::string, std::string>;

std::string digest(const ExperimentResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const IntervalRecord& rec : result.intervals) {
    feed(rec.index);
    for (const ThreadIntervalRecord& t : rec.threads) {
      feed(t.instructions);
      feed(t.exec_cycles);
      feed(t.stall_cycles);
      feed(t.l1_misses);
      feed(t.l2_accesses);
      feed(t.l2_hits);
      feed(t.l2_misses);
      feed(t.ways);
    }
  }
  feed(result.outcome.total_cycles);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

ExperimentConfig base(const std::string& profile, ThreadId threads,
                      std::uint32_t intervals) {
  ExperimentConfig c;
  c.profile = profile;
  c.num_threads = threads;
  c.num_intervals = intervals;
  c.interval_instructions = 60'000ULL * threads;
  c.seed = 42;
  return c;
}

ExperimentConfig partitioned(ExperimentConfig c, const char* policy) {
  c.l2_mode = mem::L2Mode::kPartitionedShared;
  c.policy = policy;
  return c;
}

Arms fig_union_arms() {
  Arms arms;
  for (const std::string& profile : trace::benchmark_names()) {
    const ExperimentConfig b = base(profile, 4, 6);
    arms.emplace_back(profile + "/model", partitioned(b, "model-based"));
    arms.emplace_back(profile + "/static_equal",
                      partitioned(b, "static-equal"));
    ExperimentConfig shared = b;
    shared.l2_mode = mem::L2Mode::kSharedUnpartitioned;
    shared.policy = std::string(core::kNoPolicyName);
    arms.emplace_back(profile + "/shared", shared);
    arms.emplace_back(profile + "/throughput",
                      partitioned(b, "throughput-oriented"));
  }
  return arms;
}

Arms umon_zoo_arms() {
  Arms arms;
  for (const char* profile : {"cg", "equake"}) {
    ExperimentConfig b = base(profile, 16, 3);
    b.l2_banks = 8;
    for (const char* policy :
         {"ucp-lookahead", "umon-critical-path", "lfoc-classing"}) {
      arms.emplace_back(std::string(profile) + "/" + policy,
                        partitioned(b, policy));
    }
  }
  return arms;
}

std::string golden_path(const std::string& name) {
  return std::string(CAPART_GOLDEN_DIR) + "/" + name + ".digests";
}

/// One "arm digest" line per arm, in arm order.
std::string format(const Arms& arms, const Digests& digests) {
  std::ostringstream out;
  for (const auto& [arm, cfg] : arms) {
    out << arm << ' ' << digests.at(arm) << '\n';
  }
  return out.str();
}

Digests run_all(const Arms& arms, const std::string& spool_dir) {
  Digests out;
  for (auto [arm, cfg] : arms) {
    cfg.trace_spool_dir = spool_dir;
    out[arm] = digest(run_experiment(cfg));
  }
  return out;
}

void check_golden(const std::string& name, const Arms& arms) {
  const Digests live = run_all(arms, "");
  if (std::getenv("CAPART_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(name));
    ASSERT_TRUE(out.is_open()) << golden_path(name);
    out << format(arms, live);
    GTEST_SKIP() << "regenerated " << golden_path(name);
  }
  std::ifstream in(golden_path(name));
  ASSERT_TRUE(in.is_open())
      << golden_path(name) << " missing; regenerate with CAPART_REGEN_GOLDEN=1";
  Digests golden;
  std::string arm, hex;
  while (in >> arm >> hex) golden[arm] = hex;
  ASSERT_EQ(golden.size(), arms.size()) << golden_path(name);

  const std::string dir = ::testing::TempDir() + "/capart_golden_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Digests spooled = run_all(arms, dir);
  for (const auto& [a, cfg] : arms) {
    EXPECT_EQ(live.at(a), golden[a]) << name << " live " << a;
    EXPECT_EQ(spooled.at(a), golden[a]) << name << " spooled " << a;
  }
  std::filesystem::remove_all(dir);
}

TEST(GoldenDigests, FigureUnionMatchesLiveAndSpooled) {
  check_golden("fig19_21", fig_union_arms());
}

TEST(GoldenDigests, UmonPartitionersMatchLiveAndSpooled) {
  check_golden("umon_zoo", umon_zoo_arms());
}

}  // namespace
}  // namespace capart::sim
