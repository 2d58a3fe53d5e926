// The simulated chip multiprocessor: per-core private L1s, one L2
// organization, the timing model, and the performance-counter file
// (paper §III-A / Fig 2).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/common/types.hpp"
#include "src/cpu/perf_counters.hpp"
#include "src/cpu/timing_model.hpp"
#include "src/mem/cache_config.hpp"
#include "src/mem/cache_core.hpp"
#include "src/mem/l2_organization.hpp"
#include "src/mem/utility_monitor.hpp"
#include "src/trace/access.hpp"

namespace capart::sim {

/// Hardware configuration (defaults mirror the paper's Fig 2).
struct SystemConfig {
  ThreadId num_threads = 4;
  mem::CacheGeometry l1 = mem::kDefaultL1;
  mem::CacheGeometry l2 = mem::kDefaultL2;
  mem::L2Mode l2_mode = mem::L2Mode::kPartitionedShared;
  cpu::TimingParams timing{};
  /// Instantiates the shadow-tag utility monitor on the L2 (required by the
  /// measured-curve policies; extra hardware, so off by default).
  bool enable_utility_monitor = false;
  std::uint32_t umon_sampling_shift = 3;
  /// Inserts a private per-core L2 between the L1 and the shared cache, so
  /// the partitionable shared component becomes an L3 (Dunnington-style;
  /// paper footnote 1 — "our work can target any shared cache component").
  bool enable_private_l2 = false;
  /// Geometry of each private L2 slice (default 64 KB, 8-way).
  mem::CacheGeometry private_l2 = mem::kDefaultPrivateL2;
  /// Banks of the shared cache, timing only; 0 means no contention
  /// (infinite bandwidth, the default). With N banks, concurrent accesses
  /// to the same address-interleaved bank serialize `l2_bank_service_cycles`
  /// apart, with the waiting time charged to the requester. Cache contents
  /// never depend on the bank count.
  std::uint32_t l2_banks = 0;
  Cycles l2_bank_service_cycles = 4;
  /// Classes of service of the CLOS mode (L2Mode::kClosShared).
  std::uint32_t clos_budget = 8;
};

/// Probes one core's private hierarchy for an access — its L1, then, on a
/// miss, its private L2 when there is one — and returns the level that
/// satisfies it (kShared when neither does). Updates the caches' contents,
/// no counters. CmpSystem::resolve_private and the trace spool's resolve
/// pass both go through here, so live and spooled runs agree by
/// construction.
inline trace::ResolvedLevel resolve_private(mem::CacheCore& l1,
                                            mem::CacheCore* private_l2,
                                            Addr addr, AccessType type) {
  if (l1.access(0, addr, type).hit) return trace::ResolvedLevel::kL1Hit;
  if (private_l2 != nullptr && private_l2->access(0, addr, type).hit) {
    return trace::ResolvedLevel::kPrivateL2Hit;
  }
  return trace::ResolvedLevel::kShared;
}

/// Counter and cycle sums of a run of private-level ops: L1 and private-L2
/// hits together with the non-memory gaps before them. Such ops touch only
/// their own thread's counters and clock, so the driver folds a run with
/// CmpSystem::add_to_run and applies it with retire_private_run in one step.
struct PrivateRun {
  Instructions instructions = 0;
  Cycles cycles = 0;
  std::uint64_t accesses = 0;  ///< memory ops; each hits L1 or the private L2
  std::uint64_t private_l2_hits = 0;
};

/// Per-bank contention telemetry of the shared cache (the timing model's
/// queueing view; banks keep no hit/miss stats of their own).
struct BankContention {
  std::uint64_t accesses = 0;
  /// Accesses that found the bank busy and had to wait.
  std::uint64_t conflicts = 0;
  Cycles wait_cycles = 0;
};

class CmpSystem {
 public:
  explicit CmpSystem(const SystemConfig& config);

  /// Executes one memory instruction from `thread` and returns its cycle
  /// cost. Updates counters and cache state. The access goes through the L1
  /// of the core the thread is currently bound to, then (on L1 miss) the L2.
  /// `prefetchable` marks sequential-streaming accesses whose DRAM latency
  /// the prefetchers mostly hide (see cpu::TimingParams). `now` is the
  /// issuing thread's cycle clock, used only by the bank-contention model
  /// (pass 0 when contention is disabled). Equivalent to resolve_private
  /// followed by memory_access_resolved.
  Cycles memory_access(ThreadId thread, Addr addr, AccessType type,
                       bool prefetchable = false, Cycles now = 0);

  /// Runs the private half of `thread`'s next access — the L1 of the core
  /// it is bound to, then that core's private L2 — and returns the level
  /// reached, without touching counters or the shared cache. The caller
  /// completes the access with memory_access_resolved (or, for a private
  /// hit, add_to_run + retire_private_run). A core's private caches see
  /// only its own thread's stream, so the driver may resolve a thread's
  /// accesses ahead of the global interleaving, as long as the binding does
  /// not change in between.
  trace::ResolvedLevel resolve_private(ThreadId thread, Addr addr,
                                       AccessType type);

  /// Completes an access whose private-level outcome (`level` = L1 hit /
  /// private-L2 hit / reaches the shared cache) is already known: from
  /// resolve_private, or from a trace-spool resolve pass over the identical
  /// private hierarchy. The private caches are not probed again — only
  /// their counters are updated — and a kShared access goes through the
  /// shared cache. A spool-resolved level is valid only while threads stay
  /// on their initial 1:1 core binding (the spool refuses migration
  /// schedules).
  Cycles memory_access_resolved(ThreadId thread, Addr addr, AccessType type,
                                bool prefetchable,
                                trace::ResolvedLevel level, Cycles now);

  /// Executes `count` non-memory instructions from `thread`.
  Cycles non_memory(ThreadId thread, Instructions count);

  /// Appends one private-level op — `gap` non-memory instructions, then an
  /// access resolved to kL1Hit or kPrivateL2Hit — to `run`, with the cost
  /// non_memory and memory_access_resolved would charge it.
  void add_to_run(PrivateRun& run, Instructions gap,
                  trace::ResolvedLevel level) const noexcept {
    const bool private_l2 = level == trace::ResolvedLevel::kPrivateL2Hit;
    run.instructions += gap + 1;
    run.cycles += timing_.non_memory_cost(gap) +
                  timing_.memory_cost(private_l2 ? cpu::MemoryLevel::kPrivateL2
                                                 : cpu::MemoryLevel::kL1);
    run.accesses += 1;
    run.private_l2_hits += private_l2 ? 1 : 0;
  }

  /// Adds `run` to `thread`'s counters: the same effect as executing its
  /// ops one by one through non_memory and memory_access_resolved.
  void retire_private_run(ThreadId thread, const PrivateRun& run);

  /// Rebinds `thread` to `core` (thread-migration ablation; paper §VII notes
  /// its scheme tolerates rare migrations). Threads start bound 1:1.
  void bind(ThreadId thread, ThreadId core);

  ThreadId core_of(ThreadId thread) const;

  cpu::PerfCounters& counters() noexcept { return counters_; }
  const cpu::PerfCounters& counters() const noexcept { return counters_; }
  mem::L2Organization& l2() noexcept { return *l2_; }
  const mem::L2Organization& l2() const noexcept { return *l2_; }
  const SystemConfig& config() const noexcept { return config_; }
  const cpu::TimingModel& timing() const noexcept { return timing_; }

  /// Null unless SystemConfig::enable_utility_monitor was set.
  mem::UtilityMonitor* utility_monitor() noexcept { return umon_.get(); }
  const mem::UtilityMonitor* utility_monitor() const noexcept {
    return umon_.get();
  }

  /// Per-bank contention counters; empty when l2_banks == 0.
  std::span<const BankContention> bank_contention() const noexcept {
    return bank_contention_;
  }

 private:
  /// The shared-cache leg common to memory_access and its resolved variant:
  /// bank contention, monitor feed, L2 lookup. Returns the level reached and
  /// adds any bank wait to `contention_wait`.
  cpu::MemoryLevel shared_access(ThreadId thread, Addr addr, AccessType type,
                                 Cycles now, cpu::CounterBlock& c,
                                 Cycles& contention_wait);

  SystemConfig config_;
  cpu::TimingModel timing_;
  // One per core, single-thread without enforcement.
  std::vector<mem::CacheCore> l1s_;
  std::vector<mem::CacheCore> private_l2s_;  // optional
  std::unique_ptr<mem::L2Organization> l2_;
  std::unique_ptr<mem::UtilityMonitor> umon_;
  std::vector<Cycles> bank_busy_until_;
  std::vector<BankContention> bank_contention_;
  cpu::PerfCounters counters_;
  std::vector<ThreadId> core_of_;
};

}  // namespace capart::sim
