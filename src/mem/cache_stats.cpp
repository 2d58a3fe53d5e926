#include "src/mem/cache_stats.hpp"

namespace capart::mem {

ThreadCacheCounters& ThreadCacheCounters::operator+=(
    const ThreadCacheCounters& o) noexcept {
  accesses += o.accesses;
  hits += o.hits;
  misses += o.misses;
  inter_thread_hits += o.inter_thread_hits;
  inter_thread_evictions_caused += o.inter_thread_evictions_caused;
  inter_thread_evictions_suffered += o.inter_thread_evictions_suffered;
  intra_thread_evictions += o.intra_thread_evictions;
  writebacks += o.writebacks;
  return *this;
}

ThreadCacheCounters CacheStats::total() const noexcept {
  ThreadCacheCounters sum;
  for (const auto& c : per_thread_) sum += c;
  return sum;
}

double CacheStats::inter_thread_fraction() const noexcept {
  const ThreadCacheCounters sum = total();
  if (sum.accesses == 0) return 0.0;
  return static_cast<double>(sum.inter_thread_interactions()) /
         static_cast<double>(sum.accesses);
}

double CacheStats::constructive_fraction() const noexcept {
  const ThreadCacheCounters sum = total();
  const std::uint64_t inter = sum.inter_thread_interactions();
  if (inter == 0) return 0.0;
  return static_cast<double>(sum.inter_thread_hits) /
         static_cast<double>(inter);
}

}  // namespace capart::mem
