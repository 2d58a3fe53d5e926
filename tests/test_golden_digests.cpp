// Golden result digests: every arm's per-interval, per-thread counters and
// way targets are hashed (FNV-1a64) and compared against committed files, so
// any change to simulated results fails here instead of relying on a manual
// "byte-identical" check. Three arm sets are pinned:
//   fig19_21.digests      the fig 19-21 arm union (9 profiles x model-based /
//                         static-equal / shared / throughput-oriented,
//                         4 threads)
//   umon_zoo.digests      the UMON-fed partitioners (ucp-lookahead,
//                         umon-critical-path, lfoc-classing) on cg and equake
//                         at 16 threads with an 8-bank shared L2
//   driver_edges.digests  the driver's scheduling edge cases: private-L2
//                         hits, 4'000-instruction intervals (boundaries land
//                         between a thread's private hits), a migration
//                         schedule, a co-scheduled pair (barrier groups) and
//                         8-thread heap-scheduled arms under plru and srrip;
//                         these digests also cover every thread's cumulative
//                         counters (L1 accesses, private-L2 hits/misses)
//   l2_modes.digests      every L2 organization: shared, partitioned,
//                         flush-reconfigure, private and coloring on cg and
//                         mgrid at 4 threads, plus CLOS way masks at 16
//                         threads (lfoc-classing, lfoc mapper) and at 64
//                         threads over 4 banks (model-based, minmax mapper)
// Each arm runs on live generators and again through a fresh trace-spool
// directory; both runs must match the same committed digest. Arms the spool
// cannot serve (migration schedules, co-scheduled pairs) run live only.
// Regenerate
// (only when a change to simulated results is intended) with
//   CAPART_REGEN_GOLDEN=1 ./build/tests/capart_tests --gtest_filter='Golden*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/partitioner_registry.hpp"
#include "src/sim/coschedule.hpp"
#include "src/sim/experiment.hpp"
#include "src/trace/benchmarks.hpp"

namespace capart::sim {
namespace {

using Arms = std::vector<std::pair<std::string, ExperimentConfig>>;
/// Arms that run on live generators only, each yielding its digest.
using LiveArms =
    std::vector<std::pair<std::string, std::function<std::string()>>>;
using Digests = std::map<std::string, std::string>;

class Fnv64 {
 public:
  void feed(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void feed_intervals(Fnv64& h, const std::vector<IntervalRecord>& intervals) {
  for (const IntervalRecord& rec : intervals) {
    h.feed(rec.index);
    for (const ThreadIntervalRecord& t : rec.threads) {
      h.feed(t.instructions);
      h.feed(t.exec_cycles);
      h.feed(t.stall_cycles);
      h.feed(t.l1_misses);
      h.feed(t.l2_accesses);
      h.feed(t.l2_hits);
      h.feed(t.l2_misses);
      h.feed(t.ways);
    }
  }
}

/// Digest of the per-interval records and the run's wall clock; with
/// `totals`, also of every thread's cumulative counter block.
std::string digest(const ExperimentResult& result, bool totals) {
  Fnv64 h;
  feed_intervals(h, result.intervals);
  if (totals) {
    for (const cpu::CounterBlock& c : result.thread_totals) {
      for (const std::uint64_t v :
           {c.instructions, c.exec_cycles, c.stall_cycles, c.l1_accesses,
            c.l1_misses, c.private_l2_accesses, c.private_l2_hits,
            c.private_l2_misses, c.l2_accesses, c.l2_hits, c.l2_misses,
            c.contention_wait_cycles}) {
        h.feed(v);
      }
    }
  }
  h.feed(result.outcome.total_cycles);
  return h.hex();
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

Arms driver_edge_arms() {
  Arms arms;
  for (const char* profile : {"cg", "mgrid"}) {
    ExperimentConfig b = base(profile, 4, 6);
    b.enable_private_l2 = true;
    arms.emplace_back(std::string(profile) + "/private_l2",
                      partitioned(b, "model-based"));
  }
  for (const char* profile : {"cg", "swim", "mgrid"}) {
    ExperimentConfig b = base(profile, 4, 300);
    b.interval_instructions = 4'000;
    const std::string p = std::string(profile) + "/short_interval/";
    arms.emplace_back(p + "model", partitioned(b, "model-based"));
    arms.emplace_back(p + "static_equal", partitioned(b, "static-equal"));
    ExperimentConfig shared = b;
    shared.l2_mode = mem::L2Mode::kSharedUnpartitioned;
    shared.policy = std::string(core::kNoPolicyName);
    arms.emplace_back(p + "shared", shared);
    arms.emplace_back(p + "throughput",
                      partitioned(b, "throughput-oriented"));
  }
  for (const mem::ReplacementKind repl :
       {mem::ReplacementKind::kTreePlru, mem::ReplacementKind::kSrrip}) {
    ExperimentConfig b = base("equake", 8, 4);
    b.l2.repl = repl;
    arms.emplace_back("equake/heap8/" + std::string(mem::to_string(repl)),
                      partitioned(b, "model-based"));
  }
  return arms;
}

Arms l2_mode_arms() {
  Arms arms;
  for (const char* profile : {"cg", "mgrid"}) {
    const ExperimentConfig b = base(profile, 4, 6);
    const std::string p = std::string(profile) + "/";
    ExperimentConfig shared = b;
    shared.l2_mode = mem::L2Mode::kSharedUnpartitioned;
    shared.policy = std::string(core::kNoPolicyName);
    arms.emplace_back(p + "shared", shared);
    arms.emplace_back(p + "partitioned", partitioned(b, "model-based"));
    ExperimentConfig flush = partitioned(b, "model-based");
    flush.l2_mode = mem::L2Mode::kFlushReconfigureShared;
    arms.emplace_back(p + "flush", flush);
    ExperimentConfig priv = shared;
    priv.l2_mode = mem::L2Mode::kPrivatePerThread;
    arms.emplace_back(p + "private", priv);
    ExperimentConfig coloring = partitioned(b, "model-based");
    coloring.l2_mode = mem::L2Mode::kSetPartitionedShared;
    arms.emplace_back(p + "coloring", coloring);
  }
  ExperimentConfig clos16 = partitioned(base("cg", 16, 6), "lfoc-classing");
  clos16.interval_instructions = 240'000;
  clos16.l2_mode = mem::L2Mode::kClosShared;
  clos16.clos_mapper = core::ClosMapperKind::kLfoc;
  arms.emplace_back("cg/clos16_lfoc", clos16);
  ExperimentConfig clos64 = partitioned(base("cg", 64, 6), "model-based");
  clos64.interval_instructions = 240'000;
  clos64.l2_banks = 4;
  clos64.l2_mode = mem::L2Mode::kClosShared;
  clos64.clos_mapper = core::ClosMapperKind::kMinMax;
  arms.emplace_back("cg/clos64_minmax", clos64);
  return arms;
}

LiveArms driver_edge_live_arms() {
  LiveArms arms;
  arms.emplace_back("cg/migrations", [] {
    // A swap at every boundary of short intervals, alternating core pairs:
    // ops resolved against a core's L1 before a swap would be caught here.
    ExperimentConfig c = partitioned(base("cg", 4, 300), "model-based");
    c.interval_instructions = 4'000;
    for (std::uint64_t i = 1; i < 300; ++i) {
      const auto a = static_cast<ThreadId>(i % 2 * 2);
      c.migrations.push_back(
          {.interval = i, .a = a, .b = static_cast<ThreadId>(a + 1)});
    }
    return digest(run_experiment(c), true);
  });
  arms.emplace_back("coscheduled/cg+lu", [] {
    CoScheduleConfig c;
    c.apps = {CoScheduledApp{.profile = "cg", .num_threads = 2},
              CoScheduledApp{.profile = "lu", .num_threads = 2}};
    c.num_intervals = 6;
    c.interval_instructions = 80'000;
    const CoScheduleResult r = run_coscheduled(c);
    Fnv64 h;
    feed_intervals(h, r.intervals);
    for (const Cycles cycles : r.app_cycles) h.feed(cycles);
    for (const std::uint32_t share : r.final_app_shares) h.feed(share);
    h.feed(r.outcome.total_cycles);
    return h.hex();
  });
  return arms;
}

std::string golden_path(const std::string& name) {
  return std::string(CAPART_GOLDEN_DIR) + "/" + name + ".digests";
}

/// One "arm digest" line per arm, in arm order (spoolable arms first).
std::string format(const Arms& arms, const LiveArms& live_arms,
                   const Digests& digests) {
  std::ostringstream out;
  for (const auto& [arm, cfg] : arms) {
    out << arm << ' ' << digests.at(arm) << '\n';
  }
  for (const auto& [arm, run] : live_arms) {
    out << arm << ' ' << digests.at(arm) << '\n';
  }
  return out.str();
}

Digests run_all(const Arms& arms, const std::string& spool_dir,
                bool totals) {
  Digests out;
  for (auto [arm, cfg] : arms) {
    cfg.trace_spool_dir = spool_dir;
    out[arm] = digest(run_experiment(cfg), totals);
  }
  return out;
}

void check_golden(const std::string& name, const Arms& arms,
                  const LiveArms& live_arms = {}, bool totals = false) {
  Digests live = run_all(arms, "", totals);
  for (const auto& [arm, run] : live_arms) live[arm] = run();
  if (std::getenv("CAPART_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(name));
    ASSERT_TRUE(out.is_open()) << golden_path(name);
    out << format(arms, live_arms, live);
    GTEST_SKIP() << "regenerated " << golden_path(name);
  }
  std::ifstream in(golden_path(name));
  ASSERT_TRUE(in.is_open())
      << golden_path(name) << " missing; regenerate with CAPART_REGEN_GOLDEN=1";
  Digests golden;
  std::string arm, hex;
  while (in >> arm >> hex) golden[arm] = hex;
  ASSERT_EQ(golden.size(), arms.size() + live_arms.size())
      << golden_path(name);

  const std::string dir = ::testing::TempDir() + "/capart_golden_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Digests spooled = run_all(arms, dir, totals);
  for (const auto& [a, cfg] : arms) {
    EXPECT_EQ(live.at(a), golden[a]) << name << " live " << a;
    EXPECT_EQ(spooled.at(a), golden[a]) << name << " spooled " << a;
  }
  for (const auto& [a, run] : live_arms) {
    EXPECT_EQ(live.at(a), golden[a]) << name << " live " << a;
  }
  std::filesystem::remove_all(dir);
}

TEST(GoldenDigests, FigureUnionMatchesLiveAndSpooled) {
  check_golden("fig19_21", fig_union_arms());
}

TEST(GoldenDigests, UmonPartitionersMatchLiveAndSpooled) {
  check_golden("umon_zoo", umon_zoo_arms());
}

TEST(GoldenDigests, DriverEdgeCasesMatchLiveAndSpooled) {
  check_golden("driver_edges", driver_edge_arms(), driver_edge_live_arms(),
               /*totals=*/true);
}

TEST(GoldenDigests, L2ModesMatchLiveAndSpooled) {
  check_golden("l2_modes", l2_mode_arms());
}

}  // namespace
}  // namespace capart::sim
