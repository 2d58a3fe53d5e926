// Multi-thread interleaving execution driver.
//
// Threads advance on private cycle clocks. Threads interact only through the
// shared cache, so the driver schedules at shared-access granularity: each
// runnable thread carries a pending *run* — its next resolved L1 and
// private-L2 hits, gaps included, up to its next *event* (a shared access, an
// op whose level is not yet known, the op that ends its section, or the end
// of its op ring). The thread whose event starts earliest (clock + run
// cycles; lowest tid on ties) goes next: its run is added to its counters
// and clock in one step, then the event executes. Shared accesses therefore
// reach the shared cache in the same order, at the same clocks, as with
// one-op-at-a-time min-clock stepping. Live ops are resolved through the
// private caches ahead of time (CmpSystem::resolve_private) unless a
// migration is scheduled.
//
// Barrier-delimited sections implement the parallel-program structure of
// paper §III-B: threads that finish a section stall (stall cycles are
// accounted separately from execution cycles) until the critical-path thread
// arrives.
//
// Execution intervals (paper §VI) are delimited by aggregate retired
// instructions; at each boundary an optional callback runs — this is where
// the runtime system samples counters and repartitions the cache — and may
// charge a per-thread overhead, modeling the cost of the runtime itself. The
// callback sees exactly the counters of op-by-op stepping: runs are folded
// only while every pending run plus the next event stays short of the
// boundary; past that point every run is empty (op-by-op stepping) until the
// boundary fires.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/cancel.hpp"
#include "src/common/types.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/cmp_system.hpp"
#include "src/sim/program.hpp"
#include "src/trace/op_source.hpp"

namespace capart::sim {

class FaultInjector;

/// How Driver::run() picks the next runnable thread (always the one whose
/// next event starts earliest, lowest tid on ties — the choice of structure
/// never changes the outcome, only the cost of finding the minimum).
enum class SchedulerKind : std::uint8_t {
  /// Linear scan for <= 4 threads, binary heap above (the scan's better
  /// constant wins at small counts; the heap's O(log n) wins at scale).
  kAuto,
  kScan,  ///< O(threads) scan for the minimum key per event
  kHeap,  ///< binary min-heap keyed by (event start clock, tid)
};

struct DriverConfig {
  /// Aggregate retired instructions per execution interval.
  Instructions interval_instructions = 240'000;
  /// Runnable-thread selection structure; outcome-invariant (see
  /// SchedulerKind).
  SchedulerKind scheduler = SchedulerKind::kAuto;
  /// Fixed cycles added to every thread at each barrier release (the cost of
  /// the synchronization construct itself).
  Cycles barrier_release_cost = 100;
  /// Barrier domain of each thread; empty means all threads share one
  /// barrier (the single-application case). In hierarchical mode (paper
  /// Fig 16) each co-scheduled application is its own group: its threads
  /// synchronize with one another only.
  std::vector<std::uint32_t> barrier_group;
  /// Observability attachment (barrier-stall/migration events, driver
  /// counters); disabled by default.
  obs::ObsConfig obs;
  /// Cooperative cancellation (non-owning). When set, the driver polls the
  /// token at every interval boundary and stops the run by throwing
  /// capart::CancelledError — the BatchRunner's deadline and fail-fast
  /// mechanisms. Runs always stop at boundary granularity, never mid-access.
  const CancelToken* cancel = nullptr;
  /// Test-only fault-injection hook (non-owning); fired at every interval
  /// boundary before the cancellation poll so injected stalls can drive a
  /// deadline expiry at the same boundary.
  FaultInjector* fault = nullptr;
};

/// Invoked at each interval boundary; returns per-thread overhead cycles the
/// driver charges to every live thread (0 when no runtime is attached).
using IntervalCallback = std::function<Cycles(std::uint64_t interval_index)>;

struct RunOutcome {
  /// Wall-clock of the run: when the last thread finished the last section.
  Cycles total_cycles = 0;
  std::uint64_t intervals_completed = 0;
  Instructions instructions_retired = 0;
  /// Scheduling steps taken: one per event (a folded run and the op after
  /// it), one per op where the driver stepped op by op near an interval
  /// boundary. Deterministic; also published as the driver/events metric.
  std::uint64_t events = 0;
};

class Driver {
 public:
  /// `sources` supplies one op stream per program thread — live synthetic
  /// generators (trace::PhasedGenerator), trace replays (trace::TraceReplay),
  /// or any other trace::OpSource implementation.
  Driver(CmpSystem& system, Program program,
         std::vector<std::unique_ptr<trace::OpSource>> sources,
         DriverConfig config);

  void set_interval_callback(IntervalCallback callback) {
    callback_ = std::move(callback);
  }

  /// Schedules a swap of the core bindings of threads `a` and `b` at the
  /// given interval boundary (thread-migration ablation).
  void schedule_migration(std::uint64_t interval_index, ThreadId a,
                          ThreadId b);

  /// Runs the program to completion: begin() + advance_interval() until
  /// exhausted + finalize(), in one call.
  RunOutcome run();

  // Sliced execution: the run loop is also exposed in three stages, so
  // PreparedExperiment can drive (and callers can time) a run one interval
  // at a time. run() composes exactly these, and a sliced run is
  // bit-identical to a monolithic one: a boundary always fires while every
  // run is empty, and the pick order is a pure function of the (key, tid)
  // total order over the runnable set, so rebuilding runs and the heap at
  // each slice entry reproduces the uninterrupted sequence.

  /// Opens the first sections and releases any zero-work barriers. Call
  /// once, before the first advance_interval().
  void begin();

  /// Runs until one interval boundary fires (inclusive) or every thread
  /// finishes. Returns true when live threads remain — call again; false
  /// means the program completed. CancelledError propagates from the
  /// boundary's cancellation poll (the caller may abandon the driver).
  bool advance_interval();

  /// Collects the outcome after advance_interval() returned false.
  RunOutcome finalize();

 private:
  /// Ops per thread pulled ahead through OpSource::fill (the refill batch and
  /// ring capacity). Generation is execution-independent — a source's stream
  /// never depends on simulation state — so batching is outcome-invariant;
  /// it exists to amortize the per-op virtual dispatch and, for packed trace
  /// replays, to unpack straight out of the mapped file in runs.
  static constexpr std::size_t kRingCapacity = 256;

  struct ThreadState {
    Cycles clock = 0;
    std::size_t section = 0;
    Instructions remaining = 0;  ///< instructions left in current section
    Instructions gap_left = 0;
    std::uint32_t ring_pos = 0;    ///< current op index into `ring`
    std::uint32_t ring_count = 0;  ///< valid ops in `ring`
    /// One past the pending run's last op: the run is ring[ring_pos,
    /// run_end), and ring[run_end] (when run_end < ring_count) is the event.
    /// Valid while queued (build_run sets it; step() does not).
    std::uint32_t run_end = 0;
    /// Current op started (its gap is being consumed); cleared when its
    /// access retires. A section/barrier break mid-gap leaves it set, so the
    /// op carries over — same semantics as the old single pending slot.
    bool op_in_flight = false;
    bool waiting = false;  ///< at the current section's barrier
    bool done = false;     ///< finished the last section
    bool queued = false;   ///< a scheduling candidate: runnable, run built
    PrivateRun run;        ///< sums over ring[ring_pos, run_end)
    std::vector<trace::NextOp> ring;  ///< kRingCapacity slots
  };

  struct Migration {
    std::uint64_t interval_index;
    ThreadId a;
    ThreadId b;
  };

  void enter_section(ThreadState& ts, ThreadId t);
  /// Releases `group`'s barrier as long as all its live members are waiting
  /// (several times in a row for zero-work sections).
  void maybe_release_group(std::uint32_t group);
  void release_group_once(std::uint32_t group);
  bool group_fully_waiting(std::uint32_t group) const;
  void refill(ThreadState& ts, ThreadId t);
  /// Executes one op (or the part of its gap the section has room for).
  void step(ThreadId t);
  void on_interval_boundary();

  /// Scheduling key: the clock at which `t`'s event starts.
  Cycles key(ThreadId t) const noexcept {
    return threads_[t].clock + threads_[t].run.cycles;
  }
  /// Heap order: true when `a`'s event comes after `b`'s. Keys of queued
  /// threads change only at boundaries and at the switch to op-by-op
  /// stepping, and the heap is rebuilt at both; barrier releases touch only
  /// waiting threads, which are never queued.
  struct Later {
    const Driver* driver;
    bool operator()(ThreadId a, ThreadId b) const noexcept {
      const Cycles ka = driver->key(a);
      const Cycles kb = driver->key(b);
      return ka != kb ? ka > kb : a > b;
    }
  };
  /// Rebuilds `t`'s pending run from its ring (empty while not folding).
  void build_run(ThreadState& ts, ThreadId t);
  /// Adds the pending run to counters, clock and aggregate in one step.
  void retire_run(ThreadState& ts, ThreadId t);
  /// Upper bound on the instructions the event after `ts`'s run retires.
  Instructions event_instructions(const ThreadState& ts) const noexcept;
  /// Builds `t`'s run and makes it a candidate if it is runnable.
  void enqueue(ThreadId t);
  /// Rebuilds every runnable thread's run and the candidate set.
  void requeue_all();
  /// Removes and returns the candidate with the smallest (key, tid), or
  /// kNoThread when there is none.
  ThreadId pick();

  CmpSystem& system_;
  Program program_;
  std::vector<std::unique_ptr<trace::OpSource>> sources_;
  DriverConfig config_;
  IntervalCallback callback_;
  std::vector<ThreadState> threads_;
  std::vector<std::uint32_t> group_of_;
  std::vector<Migration> migrations_;
  std::vector<ThreadId> heap_;  ///< candidates, when use_heap_
  Instructions aggregate_instructions_ = 0;
  /// Σ run.instructions over all threads.
  Instructions pending_instructions_ = 0;
  Instructions next_boundary_ = 0;
  std::uint64_t interval_index_ = 0;
  std::uint64_t events_ = 0;
  bool begun_ = false;
  bool use_heap_ = false;
  /// False from the event that could reach the next boundary until the
  /// boundary fires; runs stay empty meanwhile.
  bool folding_ = true;
  /// Whether live ops may be resolved before their turn (not under a
  /// migration schedule, which rebinds private caches at boundaries).
  bool resolve_ahead_ = true;
};

}  // namespace capart::sim
