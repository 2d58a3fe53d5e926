#include "src/sim/driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/sim/program.hpp"
#include "src/trace/phase.hpp"
#include "src/trace/trace_io.hpp"

namespace capart::sim {
namespace {

SystemConfig config(ThreadId threads) {
  SystemConfig c;
  c.num_threads = threads;
  c.l1 = {.sets = 4, .ways = 2, .line_bytes = 64};
  c.l2 = {.sets = 16, .ways = 8, .line_bytes = 64};
  c.l2_mode = mem::L2Mode::kPartitionedShared;
  return c;
}

sim::DriverConfig driver_config(Instructions interval_instructions) {
  sim::DriverConfig dc;
  dc.interval_instructions = interval_instructions;
  return dc;
}

std::unique_ptr<trace::OpSource> generator(ThreadId t, double mem_ratio,
                                           std::uint32_t ws = 64) {
  trace::Phase phase;
  phase.params.mem_ratio = mem_ratio;
  phase.params.working_set_blocks = ws;
  phase.params.share_fraction = 0.0;
  phase.duration = 1'000'000;
  return std::make_unique<trace::PhasedGenerator>(
      trace::PhaseSchedule({phase}), Rng(100 + t), (Addr{t} + 1) << 40,
      Addr{1} << 50);
}

using Sources = std::vector<std::unique_ptr<trace::OpSource>>;

TEST(Driver, RetiresExactlyTheProgrammedInstructions) {
  CmpSystem sys(config(2));
  Sources gens;
  gens.push_back(generator(0, 0.3));
  gens.push_back(generator(1, 0.3));
  Driver driver(sys, make_uniform_program(2, 4, 10'000), std::move(gens),
                driver_config(5'000));
  const RunOutcome out = driver.run();
  EXPECT_EQ(out.instructions_retired, 20'000u);
  EXPECT_EQ(sys.counters().thread(0).instructions, 10'000u);
  EXPECT_EQ(sys.counters().thread(1).instructions, 10'000u);
  EXPECT_GT(out.total_cycles, 20'000u / 2);
}

TEST(Driver, IntervalCallbackFiresOncePerBoundary) {
  CmpSystem sys(config(2));
  Sources gens;
  gens.push_back(generator(0, 0.3));
  gens.push_back(generator(1, 0.3));
  Driver driver(sys, make_uniform_program(2, 2, 10'000), std::move(gens),
                driver_config(4'000));
  std::vector<std::uint64_t> fired;
  driver.set_interval_callback([&](std::uint64_t idx) -> Cycles {
    fired.push_back(idx);
    return 0;
  });
  const RunOutcome out = driver.run();
  // 20'000 aggregate instructions / 4'000 = 5 boundaries.
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(out.intervals_completed, 5u);
}

TEST(Driver, CallbackOverheadSlowsEveryThread) {
  auto run_with_overhead = [&](Cycles overhead) {
    CmpSystem sys(config(2));
    Sources gens;
    gens.push_back(generator(0, 0.3));
    gens.push_back(generator(1, 0.3));
    Driver driver(sys, make_uniform_program(2, 2, 10'000), std::move(gens),
                  driver_config(4'000));
    driver.set_interval_callback(
        [overhead](std::uint64_t) -> Cycles { return overhead; });
    return driver.run().total_cycles;
  };
  const Cycles base = run_with_overhead(0);
  const Cycles loaded = run_with_overhead(1'000);
  EXPECT_GE(loaded, base + 4'000);  // ~5 boundaries x 1000 cycles
}

TEST(Driver, FastThreadStallsAtBarriers) {
  CmpSystem sys(config(2));
  // Thread 1 is much more memory-intensive (slower).
  Sources gens;
  gens.push_back(generator(0, 0.05));
  gens.push_back(generator(1, 0.6, 4'096));
  Driver driver(sys, make_uniform_program(2, 5, 20'000), std::move(gens),
                driver_config(100'000));
  driver.run();
  const auto& fast = sys.counters().thread(0);
  const auto& slow = sys.counters().thread(1);
  EXPECT_GT(fast.stall_cycles, slow.stall_cycles * 5);
  EXPECT_LT(fast.exec_cycles, slow.exec_cycles);
}

TEST(Driver, TotalCyclesIsTheSlowestThreadWallClock) {
  CmpSystem sys(config(2));
  Sources gens;
  gens.push_back(generator(0, 0.05));
  gens.push_back(generator(1, 0.5, 4'096));
  Driver driver(sys, make_uniform_program(2, 3, 9'000), std::move(gens), {});
  const RunOutcome out = driver.run();
  // Barriers synchronize: both threads end at the same wall clock, which is
  // exec + stall for each.
  const auto& c0 = sys.counters().thread(0);
  const auto& c1 = sys.counters().thread(1);
  EXPECT_EQ(c0.exec_cycles + c0.stall_cycles, out.total_cycles);
  EXPECT_EQ(c1.exec_cycles + c1.stall_cycles, out.total_cycles);
}

TEST(Driver, BarrierGroupsSynchronizeIndependently) {
  CmpSystem sys(config(4));
  // Group 0 = {0 fast, 1 very slow}; group 1 = {2, 3} evenly matched.
  Sources gens;
  gens.push_back(generator(0, 0.05));
  gens.push_back(generator(1, 0.6, 4'096));
  gens.push_back(generator(2, 0.2));
  gens.push_back(generator(3, 0.2));
  DriverConfig dc;
  dc.barrier_group = {0, 0, 1, 1};
  Driver driver(sys, make_uniform_program(4, 5, 20'000), std::move(gens), dc);
  driver.run();
  // Thread 0 pays for thread 1; threads 2/3 only pay for each other.
  EXPECT_GT(sys.counters().thread(0).stall_cycles,
            10 * sys.counters().thread(2).stall_cycles);
  // Group 1 members end synchronized with each other.
  const auto& c2 = sys.counters().thread(2);
  const auto& c3 = sys.counters().thread(3);
  EXPECT_EQ(c2.exec_cycles + c2.stall_cycles, c3.exec_cycles + c3.stall_cycles);
}

TEST(Driver, ZeroWorkSectionsDoNotHang) {
  CmpSystem sys(config(2));
  Sources gens;
  gens.push_back(generator(0, 0.3));
  gens.push_back(generator(1, 0.3));
  Program p;
  p.sections.push_back({.work = {1'000, 0}});  // sequential on thread 0
  p.sections.push_back({.work = {0, 0}});      // empty barrier
  p.sections.push_back({.work = {0, 1'000}});  // sequential on thread 1
  Driver driver(sys, p, std::move(gens), {});
  const RunOutcome out = driver.run();
  EXPECT_EQ(out.instructions_retired, 2'000u);
}

TEST(Driver, ScheduledMigrationSwapsCoreBindings) {
  CmpSystem sys(config(2));
  Sources gens;
  gens.push_back(generator(0, 0.3));
  gens.push_back(generator(1, 0.3));
  Driver driver(sys, make_uniform_program(2, 2, 10'000), std::move(gens),
                driver_config(5'000));
  driver.schedule_migration(1, 0, 1);
  driver.run();
  EXPECT_EQ(sys.core_of(0), 1u);
  EXPECT_EQ(sys.core_of(1), 0u);
}

TEST(Driver, BarrierReleaseCostIsCharged) {
  auto run_with_cost = [&](Cycles cost) {
    CmpSystem sys(config(2));
    Sources gens;
    gens.push_back(generator(0, 0.3));
    gens.push_back(generator(1, 0.3));
    DriverConfig dc;
    dc.barrier_release_cost = cost;
    Driver driver(sys, make_uniform_program(2, 10, 5'000), std::move(gens),
                  dc);
    return driver.run().total_cycles;
  };
  EXPECT_GE(run_with_cost(1'000), run_with_cost(0) + 10 * 1'000);
}

// The heap scheduler must be a pure data-structure swap: same thread picked
// at every step as the scan, hence bit-identical outcomes and counters. Runs
// a deliberately uneven 8-thread workload (mixed memory intensity, two
// barrier groups, interval-callback overhead, one migration) under both
// schedulers and compares everything observable.
TEST(Driver, HeapSchedulerIsBitIdenticalToScan) {
  struct Result {
    RunOutcome outcome;
    std::vector<cpu::CounterBlock> counters;
  };
  const auto run_with = [](SchedulerKind scheduler) {
    const ThreadId n = 8;
    CmpSystem sys(config(n));
    Sources gens;
    for (ThreadId t = 0; t < n; ++t) {
      // Alternate fast compute-bound and slow memory-bound threads so clock
      // ties and barrier stalls both occur.
      gens.push_back(t % 2 == 0 ? generator(t, 0.05)
                                : generator(t, 0.5, 2'048));
    }
    DriverConfig dc;
    dc.interval_instructions = 20'000;
    dc.scheduler = scheduler;
    dc.barrier_group = {0, 0, 0, 0, 1, 1, 1, 1};
    Driver driver(sys, make_uniform_program(n, 6, 15'000), std::move(gens),
                  dc);
    driver.set_interval_callback([](std::uint64_t) -> Cycles { return 250; });
    driver.schedule_migration(2, 0, 1);
    Result r;
    r.outcome = driver.run();
    for (ThreadId t = 0; t < n; ++t) {
      r.counters.push_back(sys.counters().thread(t));
    }
    return r;
  };
  const Result scan = run_with(SchedulerKind::kScan);
  const Result heap = run_with(SchedulerKind::kHeap);
  EXPECT_EQ(scan.outcome.total_cycles, heap.outcome.total_cycles);
  EXPECT_EQ(scan.outcome.intervals_completed, heap.outcome.intervals_completed);
  EXPECT_EQ(scan.outcome.instructions_retired,
            heap.outcome.instructions_retired);
  ASSERT_EQ(scan.counters.size(), heap.counters.size());
  for (std::size_t t = 0; t < scan.counters.size(); ++t) {
    const cpu::CounterBlock& a = scan.counters[t];
    const cpu::CounterBlock& b = heap.counters[t];
    EXPECT_EQ(a.instructions, b.instructions) << "thread " << t;
    EXPECT_EQ(a.exec_cycles, b.exec_cycles) << "thread " << t;
    EXPECT_EQ(a.stall_cycles, b.stall_cycles) << "thread " << t;
    EXPECT_EQ(a.l1_accesses, b.l1_accesses) << "thread " << t;
    EXPECT_EQ(a.l1_misses, b.l1_misses) << "thread " << t;
    EXPECT_EQ(a.l2_accesses, b.l2_accesses) << "thread " << t;
    EXPECT_EQ(a.l2_hits, b.l2_hits) << "thread " << t;
    EXPECT_EQ(a.l2_misses, b.l2_misses) << "thread " << t;
  }
}

TEST(Driver, AutoSchedulerMatchesScanAtSmallThreadCounts) {
  // kAuto stays on the scan for <= 4 threads and must equal an explicit
  // kHeap run regardless (the dispatch is outcome-invariant either way).
  const auto total = [](SchedulerKind scheduler) {
    CmpSystem sys(config(2));
    Sources gens;
    gens.push_back(generator(0, 0.3));
    gens.push_back(generator(1, 0.4));
    DriverConfig dc;
    dc.scheduler = scheduler;
    Driver driver(sys, make_uniform_program(2, 3, 8'000), std::move(gens),
                  dc);
    return driver.run().total_cycles;
  };
  const Cycles auto_cycles = total(SchedulerKind::kAuto);
  EXPECT_EQ(auto_cycles, total(SchedulerKind::kScan));
  EXPECT_EQ(auto_cycles, total(SchedulerKind::kHeap));
}

// ---- Folded scheduling against a naive op-by-op reference ---------------

using Streams = std::vector<std::vector<trace::NextOp>>;

/// A resolved stream for thread `t`: mostly L1 hits, some private-L2 hits
/// and shared accesses, short gaps with an occasional long one, so sections
/// end mid-gap and interval boundaries land inside runs of private hits.
std::vector<trace::NextOp> resolved_stream(ThreadId t, std::size_t n) {
  Rng rng(900 + t);
  std::vector<trace::NextOp> ops(n);
  for (trace::NextOp& op : ops) {
    op.gap = rng.chance(0.02) ? 200 + rng.below(1'500) : rng.below(4);
    const std::uint64_t level = rng.below(100);
    op.resolved = level < 60   ? trace::ResolvedLevel::kL1Hit
                  : level < 75 ? trace::ResolvedLevel::kPrivateL2Hit
                               : trace::ResolvedLevel::kShared;
    op.addr = ((Addr{t} + 1) << 40) + rng.below(256) * 64;
    op.type = rng.chance(0.3) ? AccessType::kWrite : AccessType::kRead;
    op.prefetchable = rng.chance(0.1);
  }
  return ops;
}

struct Trace {
  std::vector<std::vector<cpu::CounterBlock>> boundaries;  ///< per boundary
  Cycles total_cycles = 0;
};

/// One op per step, always the runnable thread with the smallest clock
/// (lowest tid on ties), one barrier group: the schedule the folded driver
/// must reproduce exactly.
Trace step_per_op(const SystemConfig& sc, const Program& program,
                  const Streams& streams, Instructions interval,
                  Cycles overhead, Cycles release_cost) {
  CmpSystem sys(sc);
  const ThreadId n = program.num_threads();
  struct T {
    Cycles clock = 0;
    Instructions left = 0, gap = 0;
    std::size_t pos = 0;
    bool started = false;
  };
  std::vector<T> ts(n);
  std::size_t section = 0;
  for (ThreadId t = 0; t < n; ++t) ts[t].left = program.sections[0].work[t];
  const auto release = [&] {  // false once the last section is done
    if (section == program.sections.size()) return false;
    const auto at_barrier = [](const T& x) { return x.left == 0; };
    while (std::all_of(ts.begin(), ts.end(), at_barrier)) {
      Cycles latest = 0;
      for (const T& x : ts) latest = std::max(latest, x.clock);
      latest += release_cost;
      for (ThreadId t = 0; t < n; ++t) {
        sys.counters().thread(t).stall_cycles += latest - ts[t].clock;
        ts[t].clock = latest;
      }
      if (++section == program.sections.size()) return false;
      for (ThreadId t = 0; t < n; ++t) {
        ts[t].left = program.sections[section].work[t];
      }
    }
    return true;
  };
  Trace trace;
  Instructions aggregate = 0;
  Instructions next_boundary = interval;
  while (release()) {
    ThreadId c = n;
    for (ThreadId t = 0; t < n; ++t) {
      if (ts[t].left > 0 && (c == n || ts[t].clock < ts[c].clock)) c = t;
    }
    T& x = ts[c];
    const trace::NextOp& op = streams[c][x.pos % streams[c].size()];
    if (!x.started) x.gap = op.gap;
    x.started = true;
    const Instructions chunk = std::min(x.gap, x.left);
    x.clock += sys.non_memory(c, chunk);
    x.gap -= chunk;
    x.left -= chunk;
    aggregate += chunk;
    if (x.left > 0) {
      x.clock += sys.memory_access_resolved(c, op.addr, op.type,
                                            op.prefetchable, op.resolved,
                                            x.clock);
      --x.left;
      ++aggregate;
      ++x.pos;
      x.started = false;
    }
    if (aggregate >= next_boundary) {
      const bool live = release();
      trace.boundaries.emplace_back();
      for (ThreadId t = 0; t < n; ++t) {
        trace.boundaries.back().push_back(sys.counters().thread(t));
        if (!live) continue;
        ts[t].clock += overhead;
        sys.counters().thread(t).exec_cycles += overhead;
      }
      next_boundary += interval;
    }
  }
  for (const T& x : ts) {
    trace.total_cycles = std::max(trace.total_cycles, x.clock);
  }
  return trace;
}

void expect_same_counters(const cpu::CounterBlock& a,
                          const cpu::CounterBlock& b,
                          const std::string& where) {
  EXPECT_EQ(a.instructions, b.instructions) << where;
  EXPECT_EQ(a.exec_cycles, b.exec_cycles) << where;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << where;
  EXPECT_EQ(a.l1_accesses, b.l1_accesses) << where;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << where;
  EXPECT_EQ(a.private_l2_accesses, b.private_l2_accesses) << where;
  EXPECT_EQ(a.private_l2_hits, b.private_l2_hits) << where;
  EXPECT_EQ(a.private_l2_misses, b.private_l2_misses) << where;
  EXPECT_EQ(a.l2_accesses, b.l2_accesses) << where;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << where;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << where;
}

// Folding private-level runs must be invisible: every boundary's counter
// snapshot and the total cycles equal the op-by-op reference, under both
// schedulers and at interval lengths from much shorter than a run to longer
// than a section.
TEST(Driver, FoldedRunsMatchOpByOpStepping) {
  SystemConfig sc = config(3);
  sc.enable_private_l2 = true;
  const Program program{{Section{{5'000, 3'000, 7'000}},
                         Section{{2'500, 6'000, 1'000}},
                         Section{{4'000, 4'000, 4'000}},
                         Section{{100, 9'000, 3'000}}}};
  Streams streams;
  for (ThreadId t = 0; t < 3; ++t) streams.push_back(resolved_stream(t, 3'000));
  const Cycles overhead = 37;
  for (const Instructions interval : {Instructions{1}, Instructions{997},
                                      Instructions{6'000}}) {
    const Trace ref = step_per_op(sc, program, streams, interval, overhead,
                                  DriverConfig{}.barrier_release_cost);
    for (const SchedulerKind kind :
         {SchedulerKind::kScan, SchedulerKind::kHeap}) {
      CmpSystem sys(sc);
      Sources sources;
      for (const auto& ops : streams) {
        sources.push_back(std::make_unique<trace::TraceReplay>(ops));
      }
      DriverConfig dc = driver_config(interval);
      dc.scheduler = kind;
      Driver driver(sys, program, std::move(sources), dc);
      std::vector<std::vector<cpu::CounterBlock>> boundaries;
      driver.set_interval_callback([&](std::uint64_t) -> Cycles {
        boundaries.emplace_back();
        for (ThreadId t = 0; t < 3; ++t) {
          boundaries.back().push_back(sys.counters().thread(t));
        }
        return overhead;
      });
      const RunOutcome out = driver.run();
      const std::string run =
          "interval " + std::to_string(interval) +
          (kind == SchedulerKind::kHeap ? " heap" : " scan");
      EXPECT_EQ(out.total_cycles, ref.total_cycles) << run;
      ASSERT_EQ(boundaries.size(), ref.boundaries.size()) << run;
      for (std::size_t b = 0; b < boundaries.size(); ++b) {
        for (ThreadId t = 0; t < 3; ++t) {
          expect_same_counters(boundaries[b][t], ref.boundaries[b][t],
                               run + " boundary " + std::to_string(b) +
                                   " thread " + std::to_string(t));
        }
      }
      std::uint64_t ops = 0;
      std::uint64_t shared = 0;
      for (ThreadId t = 0; t < 3; ++t) {
        ops += sys.counters().thread(t).l1_accesses;
        shared += sys.counters().thread(t).l2_accesses;
      }
      // Folding only happens away from boundaries: at interval 1 every op
      // is its own step; at the longer intervals far fewer steps than ops.
      EXPECT_GE(out.events, interval == 1 ? ops : shared) << run;
      if (interval > 1) {
        EXPECT_LT(out.events, ops / 2) << run;
      }
    }
  }
}

TEST(Driver, RejectsMismatchedConfiguration) {
  CmpSystem sys(config(2));
  Sources one;
  one.push_back(generator(0, 0.3));
  EXPECT_DEATH(Driver(sys, make_uniform_program(2, 2, 100), std::move(one),
                      {}),
               "one op source per thread");
  Sources three;
  three.push_back(generator(0, 0.3));
  three.push_back(generator(1, 0.3));
  three.push_back(generator(2, 0.3));
  EXPECT_DEATH(Driver(sys, make_uniform_program(3, 2, 100), std::move(three),
                      {}),
               "match the system");
}

}  // namespace
}  // namespace capart::sim
