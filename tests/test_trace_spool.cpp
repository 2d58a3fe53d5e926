// Trace-spool contract tests: spooled replay is bit-identical to the live
// generator+private-hierarchy path (across every replacement policy x
// enforcement mode), spool keys include exactly what shapes a thread's
// resolved stream, and the in-process registry shares one mapping across
// arms.
#include "src/sim/trace_spool.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/mem/cache_stats.hpp"
#include "src/mem/l2_organization.hpp"
#include "src/mem/replacement.hpp"
#include "src/sim/experiment.hpp"
#include "src/trace/trace_io.hpp"

namespace capart::sim {
namespace {

ExperimentConfig small_config(const std::string& dir) {
  ExperimentConfig c;
  c.profile = "cg";
  c.num_threads = 4;
  c.num_intervals = 8;
  c.interval_instructions = 48'000;
  c.policy = "static-equal";
  c.seed = 11;
  c.trace_spool_dir = dir;
  return c;
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b,
                      const std::string& what = "") {
  EXPECT_EQ(a.outcome.total_cycles, b.outcome.total_cycles) << what;
  EXPECT_EQ(a.outcome.instructions_retired, b.outcome.instructions_retired)
      << what;
  const mem::ThreadCacheCounters ta = a.l2_stats.total();
  const mem::ThreadCacheCounters tb = b.l2_stats.total();
  EXPECT_EQ(ta.accesses, tb.accesses) << what;
  EXPECT_EQ(ta.hits, tb.hits) << what;
  EXPECT_EQ(ta.misses, tb.misses) << what;
  EXPECT_EQ(ta.writebacks, tb.writebacks) << what;
  ASSERT_EQ(a.intervals.size(), b.intervals.size()) << what;
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    ASSERT_EQ(a.intervals[i].threads.size(), b.intervals[i].threads.size());
    for (std::size_t t = 0; t < a.intervals[i].threads.size(); ++t) {
      EXPECT_EQ(a.intervals[i].threads[t].exec_cycles,
                b.intervals[i].threads[t].exec_cycles)
          << what << " interval " << i << " thread " << t;
      EXPECT_EQ(a.intervals[i].threads[t].l2_misses,
                b.intervals[i].threads[t].l2_misses)
          << what << " interval " << i << " thread " << t;
    }
  }
  ASSERT_EQ(a.thread_totals.size(), b.thread_totals.size()) << what;
  for (std::size_t t = 0; t < a.thread_totals.size(); ++t) {
    EXPECT_EQ(a.thread_totals[t].instructions, b.thread_totals[t].instructions)
        << what;
    EXPECT_EQ(a.thread_totals[t].exec_cycles, b.thread_totals[t].exec_cycles)
        << what;
    EXPECT_EQ(a.thread_totals[t].l1_accesses, b.thread_totals[t].l1_accesses)
        << what;
    EXPECT_EQ(a.thread_totals[t].l1_misses, b.thread_totals[t].l1_misses)
        << what;
    EXPECT_EQ(a.thread_totals[t].l2_accesses, b.thread_totals[t].l2_accesses)
        << what;
    EXPECT_EQ(a.thread_totals[t].l2_misses, b.thread_totals[t].l2_misses)
        << what;
  }
}

/// Threads of `config`'s spool whose last op never executes: the thread's
/// budget ends inside that op's gap, so the resolve pass leaves it
/// kUnresolved.
std::size_t unexecuted_tails(const ExperimentConfig& config) {
  const Instructions per_thread = config.interval_instructions *
                                  config.num_intervals / config.num_threads;
  std::size_t tails = 0;
  for (ThreadId t = 0; t < config.num_threads; ++t) {
    const std::string key = spool_key(config, per_thread, t);
    const auto file = trace::MmapTraceFile::open(
        spool_path(config.trace_spool_dir, key), key);
    EXPECT_NE(file, nullptr) << "thread " << t;
    if (file == nullptr || file->ops().empty()) continue;
    const trace::NextOp last = trace::unpack_op(file->ops().back());
    if (last.resolved == trace::ResolvedLevel::kUnresolved) ++tails;
  }
  return tails;
}

// The three enforcement strategies a partitioned run can be under: §V
// eviction control, CAT-style CLOS way masks, and flush reconfiguration.
const mem::L2Mode kModes[] = {mem::L2Mode::kPartitionedShared,
                              mem::L2Mode::kClosShared,
                              mem::L2Mode::kFlushReconfigureShared};

const mem::ReplacementKind kRepls[] = {mem::ReplacementKind::kTrueLru,
                                       mem::ReplacementKind::kTreePlru,
                                       mem::ReplacementKind::kSrrip};

TEST(TraceSpool, SpooledRunIsBitIdenticalToLive) {
  const std::string dir = fresh_dir("capart_spool_ident");
  ExperimentConfig live = small_config("");
  ExperimentConfig spooled = small_config(dir);
  const ExperimentResult a = run_experiment(live);
  // First spooled run resolves and writes the files, second replays them
  // from the in-process registry: all three must agree exactly.
  const ExperimentResult b = run_experiment(spooled);
  const ExperimentResult c = run_experiment(spooled);
  expect_identical(a, b);
  expect_identical(a, c);
  // The comparison covers budgets that end inside an op's gap: that op is
  // pulled but never executed, live or spooled.
  EXPECT_GT(unexecuted_tails(spooled), 0u);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 4u);  // one resolved stream per thread
}

TEST(TraceSpool, PrivateL2RunsSpoolAndMatchToo) {
  const std::string dir = fresh_dir("capart_spool_pl2");
  ExperimentConfig live = small_config("");
  live.enable_private_l2 = true;
  ExperimentConfig spooled = live;
  spooled.trace_spool_dir = dir;
  expect_identical(run_experiment(live), run_experiment(spooled));
}

TEST(TraceSpool, KeyCoversStreamIdentityAndNothingElse) {
  const ExperimentConfig base = small_config("/tmp");
  const Instructions per_thread = 1000;
  const std::string key = spool_key(base, per_thread, 0);

  // Arms differing only in shared-cache organization or execution knobs
  // share spool entries — that sharing is the whole point of the spool.
  ExperimentConfig arm = base;
  arm.policy = "model-based";
  arm.l2.index = mem::IndexKind::kHash;
  arm.l2_banks = 4;
  arm.l2_mode = mem::L2Mode::kClosShared;
  EXPECT_EQ(spool_key(arm, per_thread, 0), key);

  // Anything shaping the generated stream or its private-hierarchy resolve
  // must change the key.
  ExperimentConfig other = base;
  other.seed = 12;
  EXPECT_NE(spool_key(other, per_thread, 0), key);
  other = base;
  other.profile = "ft";
  EXPECT_NE(spool_key(other, per_thread, 0), key);
  other = base;
  other.l1.ways *= 2;
  EXPECT_NE(spool_key(other, per_thread, 0), key);
  other = base;
  other.enable_private_l2 = true;
  EXPECT_NE(spool_key(other, per_thread, 0), key);
  EXPECT_NE(spool_key(base, per_thread + 1, 0), key);
  EXPECT_NE(spool_key(base, per_thread, 1), key);
}

TEST(TraceSpool, MigrationRunsAreIneligible) {
  ExperimentConfig cfg = small_config(fresh_dir("capart_spool_mig"));
  cfg.migrations.push_back({.interval = 2, .a = 0, .b = 1});
  // Migrations rebind threads to foreign L1s mid-run; a resolved trace bakes
  // in the static binding, so such runs must fall back to live simulation.
  EXPECT_TRUE(spool_sources(cfg, 1000).empty());
}

TEST(TraceSpool, SpooledMatchesLiveAcrossTheMatrix) {
  // Every replacement policy x enforcement mode under UCP (which also feeds
  // the utility monitor's shadow tags), on randomized seeds: a fresh base
  // seed each run, printed so any failure is reproducible by pinning it.
  const std::uint64_t base_seed = std::random_device{}();
  std::printf("spool matrix base_seed=%llu\n",
              static_cast<unsigned long long>(base_seed));
  const std::string dir = fresh_dir("capart_spool_matrix");
  std::mt19937_64 mix(base_seed);
  for (const mem::ReplacementKind repl : kRepls) {
    for (const mem::L2Mode mode : kModes) {
      ExperimentConfig cfg;
      cfg.profile = "cg";
      cfg.num_threads = 4;
      cfg.num_intervals = 6;
      cfg.interval_instructions = 24'000;
      cfg.policy = "ucp";
      cfg.seed = mix();
      cfg.l2_mode = mode;
      cfg.l2.repl = repl;

      const std::string what = std::string(mem::to_string(repl)) + "/" +
                               std::string(mem::to_string(mode)) +
                               " seed=" + std::to_string(cfg.seed);
      const ExperimentResult live = run_experiment(cfg);
      ExperimentConfig spooled = cfg;
      spooled.trace_spool_dir = dir;
      expect_identical(live, run_experiment(spooled), what);
    }
  }
}

TEST(TraceSpool, CallerSuppliedSourcesMatchLive) {
  // PreparedExperiment's caller-supplied sources (what a caller timing the
  // source construction passes in) replay exactly what the config's own
  // sources do.
  const std::string dir = fresh_dir("capart_spool_supplied");
  ExperimentConfig cfg = small_config(dir);
  cfg.seed = 21;
  ExperimentConfig live = cfg;
  live.trace_spool_dir.clear();
  const Instructions per_thread =
      cfg.interval_instructions * cfg.num_intervals / cfg.num_threads;
  auto sources = spool_sources(cfg, per_thread);
  ASSERT_EQ(sources.size(), cfg.num_threads);
  PreparedExperiment prepared(cfg, std::move(sources));
  while (prepared.advance_interval()) {
  }
  expect_identical(run_experiment(live), prepared.finalize());
}

/// Writes a spool-shaped decoy (capart_*.trc) of `bytes` zeros with an mtime
/// `age_rank` steps in the past, so GC order is deterministic.
std::filesystem::path plant_spool_decoy(const std::string& dir,
                                        const std::string& stem,
                                        std::size_t bytes, int age_rank) {
  const std::filesystem::path path =
      std::filesystem::path(dir) / ("capart_" + stem + ".trc");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << std::string(bytes, '\0');
  }
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now() -
                std::chrono::hours(age_rank));
  return path;
}

TEST(TraceSpool, GcEvictsOldestFirstDownToTheCap) {
  const std::string dir = fresh_dir("capart_spool_gc");
  const auto oldest = plant_spool_decoy(dir, "a", 1000, 3);
  const auto middle = plant_spool_decoy(dir, "b", 1000, 2);
  const auto newest = plant_spool_decoy(dir, "c", 1000, 1);
  // Non-spool files are never GC candidates, whatever their age.
  const std::filesystem::path bystander =
      std::filesystem::path(dir) / "notes.txt";
  { std::ofstream(bystander) << "keep me"; }

  // Cap admits two spool files: the oldest one goes, exactly.
  EXPECT_EQ(spool_gc(dir, 2000), 1000u);
  EXPECT_FALSE(std::filesystem::exists(oldest));
  EXPECT_TRUE(std::filesystem::exists(middle));
  EXPECT_TRUE(std::filesystem::exists(newest));
  EXPECT_TRUE(std::filesystem::exists(bystander));

  // Already under the cap: no-op. max_bytes == 0 disables entirely.
  EXPECT_EQ(spool_gc(dir, 2000), 0u);
  EXPECT_EQ(spool_gc(dir, 0), 0u);
  EXPECT_TRUE(std::filesystem::exists(middle));

  // Cap below everything: both remaining decoys go.
  EXPECT_EQ(spool_gc(dir, 500), 2000u);
  EXPECT_FALSE(std::filesystem::exists(middle));
  EXPECT_FALSE(std::filesystem::exists(newest));
}

TEST(TraceSpool, GcSkipsEntriesHeldByThisProcess) {
  // A spooled run leaves its files in the in-process registry; a cap that
  // would evict everything must still keep them (deleting a held entry
  // would force a pointless regenerate) while unheld decoys are collected.
  const std::string dir = fresh_dir("capart_spool_gc_held");
  ExperimentConfig cfg = small_config(dir);
  cfg.seed = 22;
  (void)run_experiment(cfg);
  const auto decoy = plant_spool_decoy(dir, "stale", 4096, 5);

  (void)spool_gc(dir, 1);
  EXPECT_FALSE(std::filesystem::exists(decoy));
  std::size_t spool_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++spool_files;
  }
  EXPECT_EQ(spool_files, 4u);  // the held per-thread streams survive

  // The config knob routes through the same GC after each acquisition:
  // a stale decoy disappears during a capped spooled run, and the run
  // itself stays bit-identical.
  const auto decoy2 = plant_spool_decoy(dir, "stale2", 4096, 5);
  ExperimentConfig capped = cfg;
  capped.trace_spool_max_bytes = 1;
  expect_identical(run_experiment(cfg), run_experiment(capped));
  EXPECT_FALSE(std::filesystem::exists(decoy2));
}

TEST(TraceSpool, StreamReadFallbackIsBitIdenticalToMmap) {
  // Force the no-mmap path: opens go through the stream reader, the file
  // reports streamed(), and a full spooled run still matches live exactly.
  const std::string dir = fresh_dir("capart_spool_stream");
  ExperimentConfig cfg = small_config(dir);
  cfg.seed = 23;  // fresh identity: earlier tests' mappings stay cached
  ExperimentConfig live = cfg;
  live.trace_spool_dir.clear();

  trace::MmapTraceFile::force_stream_io_for_testing(true);
  const ExperimentResult streamed = run_experiment(cfg);

  const Instructions per_thread =
      cfg.interval_instructions * cfg.num_intervals / cfg.num_threads;
  const std::string key = spool_key(cfg, per_thread, 0);
  const auto file = trace::MmapTraceFile::open(spool_path(dir, key), key);
  ASSERT_NE(file, nullptr);
  EXPECT_TRUE(file->streamed());
  EXPECT_EQ(file->key(), key);
  trace::MmapTraceFile::force_stream_io_for_testing(false);

  const auto mapped = trace::MmapTraceFile::open(spool_path(dir, key), key);
  ASSERT_NE(mapped, nullptr);
  EXPECT_FALSE(mapped->streamed());
  ASSERT_EQ(file->ops().size(), mapped->ops().size());
  for (std::size_t i = 0; i < file->ops().size(); ++i) {
    EXPECT_EQ(std::memcmp(&file->ops()[i], &mapped->ops()[i],
                          sizeof(trace::PackedOp)),
              0)
        << "record " << i;
  }

  expect_identical(run_experiment(live), streamed);
}

TEST(TraceSpool, RejectsARecordCountWhoseByteSizeOverflows) {
  // A 2-record file whose header count is patched to 2^60 + 2: the count's
  // byte size, (2^60 + 2) * 16, wraps to the 32 bytes the file does hold.
  // Both the mmap and the stream-read path must reject it as truncated
  // rather than serve 2^60 + 2 records out of a 2-record file.
  const std::string dir = fresh_dir("capart_spool_overflow");
  const std::string path = dir + "/overflow.trc";
  const std::string key = "overflow-key";
  std::vector<trace::PackedOp> ops(2);
  trace::write_packed_trace_file(path, key, ops);
  {
    const std::uint64_t count = (std::uint64_t{1} << 60) + 2;
    static_assert(sizeof(trace::PackedOp) * ((std::uint64_t{1} << 60) + 2) ==
                  2 * sizeof(trace::PackedOp));
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(16);  // PackedHeader::count, after magic[8], version, key_bytes
    f.write(reinterpret_cast<const char*>(&count), sizeof(count));
    ASSERT_TRUE(f.good());
  }
  EXPECT_THROW(trace::MmapTraceFile::open(path, key), Error);
  trace::MmapTraceFile::force_stream_io_for_testing(true);
  EXPECT_THROW(trace::MmapTraceFile::open(path, key), Error);
  trace::MmapTraceFile::force_stream_io_for_testing(false);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace capart::sim
