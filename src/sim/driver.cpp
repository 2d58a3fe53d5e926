#include "src/sim/driver.hpp"

#include <algorithm>

#include "src/common/check.hpp"
#include "src/common/error.hpp"
#include "src/obs/events.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/fault_injector.hpp"

namespace capart::sim {

Driver::Driver(CmpSystem& system, Program program,
               std::vector<std::unique_ptr<trace::OpSource>> sources,
               DriverConfig config)
    : system_(system),
      program_(std::move(program)),
      sources_(std::move(sources)),
      config_(config) {
  program_.validate();
  CAPART_CHECK(program_.num_threads() == system_.config().num_threads,
               "program thread count must match the system");
  CAPART_CHECK(sources_.size() == program_.num_threads(),
               "one op source per thread required");
  for (const auto& source : sources_) {
    CAPART_CHECK(source != nullptr, "op sources must be non-null");
  }
  CAPART_CHECK(config_.interval_instructions > 0,
               "interval length must be positive");
  threads_.resize(program_.num_threads());
  for (ThreadState& ts : threads_) ts.ring.resize(kRingCapacity);
  if (config_.barrier_group.empty()) {
    group_of_.assign(program_.num_threads(), 0);
  } else {
    CAPART_CHECK(config_.barrier_group.size() == program_.num_threads(),
                 "barrier_group must cover every thread");
    group_of_ = config_.barrier_group;
  }
  next_boundary_ = config_.interval_instructions;
}

void Driver::schedule_migration(std::uint64_t interval_index, ThreadId a,
                                ThreadId b) {
  CAPART_CHECK(a < threads_.size() && b < threads_.size(),
               "migration: thread out of range");
  migrations_.push_back({interval_index, a, b});
}

void Driver::enter_section(ThreadState& ts, ThreadId t) {
  ts.remaining = program_.sections[ts.section].work[t];
  ts.waiting = (ts.remaining == 0);
}

bool Driver::group_fully_waiting(std::uint32_t group) const {
  bool any_live = false;
  for (ThreadId t = 0; t < threads_.size(); ++t) {
    if (group_of_[t] != group || threads_[t].done) continue;
    any_live = true;
    if (!threads_[t].waiting) return false;
  }
  return any_live;
}

void Driver::release_group_once(std::uint32_t group) {
  // All live members of the group are waiting: synchronize their clocks to
  // the slowest (charging the difference as stall time) and open the next
  // section. Members of one group sit in the same section by construction —
  // they can only pass a barrier together.
  Cycles latest = 0;
  std::size_t next_section = 0;
  for (ThreadId t = 0; t < threads_.size(); ++t) {
    const ThreadState& ts = threads_[t];
    if (group_of_[t] != group || ts.done) continue;
    latest = std::max(latest, ts.clock);
    next_section = ts.section + 1;
  }
  latest += config_.barrier_release_cost;
  // The event (with its per-thread stall vector) is only materialized when a
  // sink will consume it; the metrics rollup needs just the cycle total.
  const bool want_event = config_.obs.sink != nullptr;
  obs::BarrierStallEvent event;
  if (want_event) {
    event.run = config_.obs.run_name;
    event.group = group;
    event.section = next_section - 1;
    event.release_cycle = latest;
  }
  Cycles total_stall = 0;
  for (ThreadId t = 0; t < threads_.size(); ++t) {
    ThreadState& ts = threads_[t];
    if (group_of_[t] != group || ts.done) continue;
    const Cycles stall = latest - ts.clock;
    system_.counters().thread(t).stall_cycles += stall;
    total_stall += stall;
    if (want_event) event.stalls.emplace_back(t, stall);
    ts.clock = latest;
    ts.section = next_section;
    if (ts.section >= program_.sections.size()) {
      ts.done = true;
    } else {
      enter_section(ts, t);
    }
  }
  if (want_event) config_.obs.sink->on_barrier_stall(event);
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->add("driver/barrier_releases");
    config_.obs.metrics->add("driver/barrier_stall_cycles", total_stall);
  }
}

void Driver::maybe_release_group(std::uint32_t group) {
  // Zero-work sections resolve to immediate barriers, so keep releasing
  // until someone has work or the group finishes.
  while (group_fully_waiting(group)) release_group_once(group);
}

void Driver::step(ThreadId t) {
  ThreadState& ts = threads_[t];
  if (!ts.op_in_flight) {
    if (ts.ring_pos >= ts.ring_count) {
      // Ring empty: refill in one batched pull (fill returns >= 1; bounded
      // sources may come back short near their end).
      ts.ring_count = static_cast<std::uint32_t>(
          sources_[t]->fill(ts.ring.data(), kRingCapacity));
      ts.ring_pos = 0;
    }
    ts.gap_left = ts.ring[ts.ring_pos].gap;
    ts.op_in_flight = true;
  }
  if (ts.gap_left > 0) {
    const Instructions chunk = std::min(ts.gap_left, ts.remaining);
    if (chunk > 0) {
      ts.clock += system_.non_memory(t, chunk);
      ts.gap_left -= chunk;
      ts.remaining -= chunk;
      aggregate_instructions_ += chunk;
    }
    if (ts.remaining == 0) {
      // Section ended inside the gap; the in-flight access carries over.
      ts.waiting = true;
      return;
    }
  }
  // Gap exhausted and work remains: perform the memory access. Pre-resolved
  // ops (spooled traces) skip the private hierarchy; live ops simulate it.
  const trace::NextOp& op = ts.ring[ts.ring_pos];
  if (op.resolved == trace::ResolvedLevel::kUnresolved) {
    ts.clock += system_.memory_access(t, op.addr, op.type, op.prefetchable,
                                      ts.clock);
  } else {
    ts.clock += system_.memory_access_resolved(t, op.addr, op.type,
                                               op.prefetchable, op.resolved,
                                               ts.clock);
  }
  ts.remaining -= 1;
  aggregate_instructions_ += 1;
  ++ts.ring_pos;
  ts.op_in_flight = false;
  if (ts.remaining == 0) ts.waiting = true;
}

void Driver::on_interval_boundary() {
  if (config_.fault != nullptr) {
    config_.fault->on_interval(config_.obs.run_name, interval_index_);
  }
  if (config_.cancel != nullptr && config_.cancel->should_stop()) {
    const bool deadline = config_.cancel->deadline_expired();
    throw CancelledError(
        std::string(deadline ? "deadline expired" : "cancelled") +
            " at interval " + std::to_string(interval_index_),
        deadline);
  }
  const Cycles overhead = callback_ ? callback_(interval_index_) : 0;
  if (overhead > 0) {
    for (ThreadId t = 0; t < threads_.size(); ++t) {
      if (threads_[t].done) continue;
      threads_[t].clock += overhead;
      system_.counters().thread(t).exec_cycles += overhead;
    }
  }
  for (const Migration& m : migrations_) {
    if (m.interval_index == interval_index_) {
      const ThreadId core_a = system_.core_of(m.a);
      const ThreadId core_b = system_.core_of(m.b);
      system_.bind(m.a, core_b);
      system_.bind(m.b, core_a);
      if (config_.obs.sink != nullptr) {
        config_.obs.sink->on_migration(
            {config_.obs.run_name, interval_index_, m.a, m.b});
      }
      if (config_.obs.metrics != nullptr) {
        config_.obs.metrics->add("driver/migrations");
      }
    }
  }
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->add("driver/intervals");
  }
  ++interval_index_;
  next_boundary_ += config_.interval_instructions;
}

RunOutcome Driver::run() {
  begin();
  while (advance_interval()) {
  }
  return finalize();
}

void Driver::begin() {
  CAPART_CHECK(!begun_, "driver: begin() called twice");
  begun_ = true;
  for (ThreadId t = 0; t < threads_.size(); ++t) {
    enter_section(threads_[t], t);
  }
  // Zero-work opening sections may leave whole groups waiting already.
  for (ThreadId t = 0; t < threads_.size(); ++t) {
    maybe_release_group(group_of_[t]);
  }
  use_heap_ = config_.scheduler == SchedulerKind::kHeap ||
              (config_.scheduler == SchedulerKind::kAuto &&
               threads_.size() > 4);
}

bool Driver::advance_interval() {
  CAPART_CHECK(begun_, "driver: advance_interval() before begin()");
  return use_heap_ ? advance_heap() : advance_scan();
}

bool Driver::advance_scan() {
  for (;;) {
    // Pick the runnable thread with the smallest clock.
    ThreadId chosen = kNoThread;
    bool any_live = false;
    for (ThreadId t = 0; t < threads_.size(); ++t) {
      const ThreadState& ts = threads_[t];
      if (ts.done) continue;
      any_live = true;
      if (ts.waiting) continue;
      if (chosen == kNoThread || ts.clock < threads_[chosen].clock) {
        chosen = t;
      }
    }
    if (!any_live) return false;
    CAPART_CHECK(chosen != kNoThread,
                 "deadlock: live threads exist but none are runnable");
    step(chosen);
    if (threads_[chosen].waiting) {
      maybe_release_group(group_of_[chosen]);
    }
    if (aggregate_instructions_ >= next_boundary_) {
      on_interval_boundary();
      return true;
    }
  }
}

bool Driver::advance_heap() {
  // Binary min-heap of runnable threads keyed by (clock, tid) — the same
  // total order the scan's strict-< scan induces (lowest tid wins clock
  // ties), so both schedulers pick identical threads and produce identical
  // outcomes. Clock mutations outside pop/push are always uniform across
  // every live thread (interval-boundary overhead), which preserves the heap
  // invariant in place; barrier releases only touch waiting threads, which
  // are never in the heap. The heap is rebuilt from thread state at every
  // slice entry — at any boundary it holds exactly the runnable threads, and
  // pop order depends only on the (clock, tid) total order, never on the
  // heap's internal array layout, so slicing cannot change the schedule.
  const auto later = [this](ThreadId a, ThreadId b) noexcept {
    const Cycles ca = threads_[a].clock;
    const Cycles cb = threads_[b].clock;
    return ca != cb ? ca > cb : a > b;
  };
  std::vector<ThreadId> heap;
  heap.reserve(threads_.size());
  std::vector<std::uint8_t> in_heap(threads_.size(), 0);
  const auto push_runnable = [&](ThreadId t) {
    const ThreadState& ts = threads_[t];
    if (ts.done || ts.waiting || in_heap[t] != 0) return;
    in_heap[t] = 1;
    heap.push_back(t);
    std::push_heap(heap.begin(), heap.end(), later);
  };
  for (ThreadId t = 0; t < threads_.size(); ++t) push_runnable(t);

  for (;;) {
    if (heap.empty()) {
      bool any_live = false;
      for (const ThreadState& ts : threads_) any_live = any_live || !ts.done;
      if (!any_live) return false;
      CAPART_CHECK(false,
                   "deadlock: live threads exist but none are runnable");
    }
    std::pop_heap(heap.begin(), heap.end(), later);
    const ThreadId chosen = heap.back();
    heap.pop_back();
    in_heap[chosen] = 0;
    step(chosen);
    if (threads_[chosen].waiting) {
      maybe_release_group(group_of_[chosen]);
      // A release wakes whole groups at once (rare next to steps, so the
      // scan over members is cheap); re-admit everyone now runnable —
      // including `chosen` if its barrier already resolved.
      for (ThreadId t = 0; t < threads_.size(); ++t) push_runnable(t);
    } else {
      push_runnable(chosen);
    }
    if (aggregate_instructions_ >= next_boundary_) {
      on_interval_boundary();
      return true;
    }
  }
}

RunOutcome Driver::finalize() {
  RunOutcome outcome;
  for (const ThreadState& ts : threads_) {
    outcome.total_cycles = std::max(outcome.total_cycles, ts.clock);
  }
  outcome.intervals_completed = interval_index_;
  outcome.instructions_retired = aggregate_instructions_;
  return outcome;
}

}  // namespace capart::sim
