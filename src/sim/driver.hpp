// Multi-thread interleaving execution driver.
//
// Threads advance on private cycle clocks; at each step the runnable thread
// with the smallest clock executes its next unit (a non-memory run and/or one
// memory access), so cache accesses from different cores interleave in
// timestamp order. Barrier-delimited sections implement the parallel-program
// structure of paper §III-B: threads that finish a section stall (stall
// cycles are accounted separately from execution cycles) until the
// critical-path thread arrives.
//
// Execution intervals (paper §VI) are delimited by aggregate retired
// instructions; at each boundary an optional callback runs — this is where
// the runtime system samples counters and repartitions the cache — and may
// charge a per-thread overhead, modeling the cost of the runtime itself.
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

/// How Driver::run() picks the next runnable thread (always the one with the
/// smallest clock, lowest tid on ties — the choice of structure never changes
/// the outcome, only the cost of finding the minimum).
enum class SchedulerKind : std::uint8_t {
  /// Linear scan for <= 4 threads, binary heap above (the scan's better
  /// constant wins at small counts; the heap's O(log n) wins at scale).
  kAuto,
  kScan,  ///< O(threads) min-clock scan per step
  kHeap,  ///< binary min-heap keyed by (clock, tid)
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
  // bit-identical to a monolithic one: the scan scheduler re-derives its
  // choice from thread state every step anyway, and the heap scheduler's
  // pop order is a pure function of the (clock, tid) total order over the
  // runnable set, so rebuilding the heap at each slice entry reproduces the
  // uninterrupted pop sequence.

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
    /// Current op started (its gap is being consumed); cleared when its
    /// access retires. A section/barrier break mid-gap leaves it set, so the
    /// op carries over — same semantics as the old single pending slot.
    bool op_in_flight = false;
    bool waiting = false;  ///< at the current section's barrier
    bool done = false;     ///< finished the last section
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
  void step(ThreadId t);
  void on_interval_boundary();

  /// advance_interval() bodies per scheduler; same contract.
  bool advance_scan();
  bool advance_heap();

  CmpSystem& system_;
  Program program_;
  std::vector<std::unique_ptr<trace::OpSource>> sources_;
  DriverConfig config_;
  IntervalCallback callback_;
  std::vector<ThreadState> threads_;
  std::vector<std::uint32_t> group_of_;
  std::vector<Migration> migrations_;
  Instructions aggregate_instructions_ = 0;
  Instructions next_boundary_ = 0;
  std::uint64_t interval_index_ = 0;
  bool begun_ = false;
  bool use_heap_ = false;
};

}  // namespace capart::sim
