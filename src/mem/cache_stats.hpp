// Per-thread cache event counters, including the inter-thread interaction
// taxonomy of paper §IV-A2.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/types.hpp"

namespace capart::mem {

/// Cumulative event counts attributed to one thread at one cache.
///
/// Interaction taxonomy (paper §IV-A2): an access is an *inter-thread
/// interaction* when the previous touch of the same cache line came from a
/// different thread. A *constructive* interaction is an inter-thread hit
/// (data brought in by one thread reused by another); a *destructive*
/// interaction is an inter-thread eviction (one thread displacing a line
/// another thread touched last).
struct ThreadCacheCounters {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Hits on lines last touched by a different thread (constructive).
  std::uint64_t inter_thread_hits = 0;
  /// Evictions this thread performed on lines last touched by another thread
  /// (destructive, attributed to the evictor).
  std::uint64_t inter_thread_evictions_caused = 0;
  /// Evictions of this thread's last-touched lines performed by others.
  std::uint64_t inter_thread_evictions_suffered = 0;
  /// Evictions of a thread's own lines (normal capacity churn).
  std::uint64_t intra_thread_evictions = 0;
  /// Dirty lines written back to memory on eviction (attributed to the
  /// evicting thread; bandwidth cost, not timed by the blocking core model).
  std::uint64_t writebacks = 0;

  ThreadCacheCounters& operator+=(const ThreadCacheCounters& o) noexcept;

  /// All inter-thread interaction events attributed to this thread.
  std::uint64_t inter_thread_interactions() const noexcept {
    return inter_thread_hits + inter_thread_evictions_caused;
  }
};

/// Counters for every thread sharing one cache.
class CacheStats {
 public:
  explicit CacheStats(ThreadId num_threads)
      : per_thread_(num_threads) {}

  // Accessed multiple times per cache access; the range check is debug-only
  // (callers validate thread ids at their cold boundaries).
  ThreadCacheCounters& thread(ThreadId t) {
    CAPART_DCHECK(t < per_thread_.size(), "thread id out of range");
    return per_thread_[t];
  }
  const ThreadCacheCounters& thread(ThreadId t) const {
    CAPART_DCHECK(t < per_thread_.size(), "thread id out of range");
    return per_thread_[t];
  }

  ThreadId num_threads() const noexcept {
    return static_cast<ThreadId>(per_thread_.size());
  }

  /// Sum over all threads.
  ThreadCacheCounters total() const noexcept;

  /// Fraction of all accesses that are inter-thread interactions (Fig 8).
  double inter_thread_fraction() const noexcept;

  /// Fraction of inter-thread interactions that are constructive (Fig 9).
  double constructive_fraction() const noexcept;

 private:
  std::vector<ThreadCacheCounters> per_thread_;
};

}  // namespace capart::mem
