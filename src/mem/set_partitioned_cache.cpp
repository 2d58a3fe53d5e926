#include "src/mem/set_partitioned_cache.hpp"

#include <algorithm>

#include "src/common/check.hpp"

namespace capart::mem {

namespace {

const CacheGeometry& checked(const CacheGeometry& geometry,
                             ThreadId num_threads, std::uint32_t colors,
                             std::uint32_t page_bytes) {
  geometry.validate();
  CAPART_CHECK(num_threads >= 1, "set-partitioned cache needs >= 1 thread");
  CAPART_CHECK(colors >= num_threads, "need at least one color per thread");
  CAPART_CHECK(colors <= geometry.sets && geometry.sets % colors == 0,
               "colors must divide the set count");
  CAPART_CHECK(page_bytes >= geometry.line_bytes &&
                   page_bytes % geometry.line_bytes == 0,
               "page size must be a multiple of the line size");
  return geometry;
}

}  // namespace

SetPartitionedCache::SetPartitionedCache(const CacheGeometry& geometry,
                                         ThreadId num_threads,
                                         std::uint32_t colors,
                                         std::uint32_t page_bytes)
    : num_threads_(num_threads),
      colors_(colors),
      sets_per_color_(geometry.sets / colors),
      blocks_per_page_(page_bytes / geometry.line_bytes),
      core_(checked(geometry, num_threads, colors, page_bytes), num_threads,
            PartitionEnforcement::kSetColoring) {
  next_color_slot_.assign(num_threads_, 0);
  // Equal initial split, like the way-partitioned cache.
  targets_.assign(num_threads_, colors_ / num_threads_);
  for (std::uint32_t t = 0; t < colors_ % num_threads_; ++t) targets_[t] += 1;
  assign_colors();
}

void SetPartitionedCache::assign_colors() {
  color_owner_.assign(colors_, 0);
  thread_colors_.assign(num_threads_, {});
  std::uint32_t next = 0;
  for (ThreadId t = 0; t < num_threads_; ++t) {
    for (std::uint32_t c = 0; c < targets_[t]; ++c) {
      color_owner_[next] = t;
      thread_colors_[t].push_back(next);
      ++next;
    }
  }
  CAPART_CHECK(next == colors_, "color assignment must cover all colors");
  // Lazy page migration (Lin et al.): a page keeps its color as long as its
  // owner still holds that color; only pages sitting on *revoked* colors
  // remap. Their cached lines are stranded in the old sets and age out —
  // the recoloring cost, paid only for the colors that actually moved.
  for (auto& [page, info] : pages_) {
    if (color_owner_[info.color] == info.owner) continue;
    const auto& own = thread_colors_[info.owner];
    info.color = own[page % own.size()];
  }
}

void SetPartitionedCache::set_targets(
    std::span<const std::uint32_t> targets) {
  CAPART_CHECK(targets.size() == num_threads_,
               "one color target per thread required");
  std::uint32_t sum = 0;
  for (std::uint32_t t : targets) {
    CAPART_CHECK(t >= 1, "every thread must keep at least one color");
    sum += t;
  }
  CAPART_CHECK(sum == colors_, "color targets must sum to the color count");
  const bool changed = !std::equal(targets.begin(), targets.end(),
                                   targets_.begin());
  targets_.assign(targets.begin(), targets.end());
  if (changed) assign_colors();
}

SetPartitionedCache::PageInfo& SetPartitionedCache::page_of(
    ThreadId toucher, std::uint64_t block) {
  const std::uint64_t page = block / blocks_per_page_;
  auto [it, inserted] = pages_.try_emplace(page);
  if (inserted) {
    // First-touch placement: the page belongs to the first thread that
    // touches it and gets the next of that thread's colors, round-robin.
    PageInfo& info = it->second;
    info.owner = toucher;
    const auto& own = thread_colors_[toucher];
    info.color = own[next_color_slot_[toucher] % own.size()];
    next_color_slot_[toucher] += 1;
  }
  return it->second;
}

std::uint32_t SetPartitionedCache::set_of(std::uint64_t block,
                                          const PageInfo& info) const {
  return info.color * sets_per_color_ +
         static_cast<std::uint32_t>(block % sets_per_color_);
}

bool SetPartitionedCache::access(ThreadId thread, Addr addr,
                                 AccessType type) {
  CAPART_CHECK(thread < num_threads_, "thread id out of range");
  const std::uint64_t block = geometry().block_of(addr);
  const PageInfo& info = page_of(thread, block);
  return core_.access_in_set(thread, block, set_of(block, info), type).hit;
}

std::vector<std::uint32_t> SetPartitionedCache::colors_of(
    ThreadId thread) const {
  CAPART_CHECK(thread < num_threads_, "colors_of: thread out of range");
  return thread_colors_[thread];
}

bool SetPartitionedCache::contains(Addr addr) const {
  const std::uint64_t block = geometry().block_of(addr);
  const auto it = pages_.find(block / blocks_per_page_);
  if (it == pages_.end()) return false;
  return core_.contains_block_in_set(block, set_of(block, it->second));
}

}  // namespace capart::mem
