#include "src/mem/l2_organization.hpp"

#include <string>

#include "src/common/check.hpp"
#include "src/common/error.hpp"
#include "src/mem/set_partitioned_cache.hpp"

namespace capart::mem {

namespace {

struct ModeName {
  L2Mode mode;
  std::string_view canonical;
  std::string_view short_name;  ///< the --l2-mode spelling
};

constexpr ModeName kModeNames[] = {
    {L2Mode::kSharedUnpartitioned, "shared-unpartitioned", "shared"},
    {L2Mode::kPartitionedShared, "partitioned-shared", "partitioned"},
    {L2Mode::kPrivatePerThread, "private-per-thread", "private"},
    {L2Mode::kSetPartitionedShared, "set-partitioned-shared", "coloring"},
    {L2Mode::kFlushReconfigureShared, "flush-reconfigure-shared", "flush"},
    {L2Mode::kClosShared, "clos-shared", "clos"},
};

}  // namespace

std::string_view to_string(L2Mode mode) noexcept {
  for (const ModeName& m : kModeNames) {
    if (m.mode == mode) return m.canonical;
  }
  return "unknown";
}

bool parse_l2_mode(std::string_view name, L2Mode& out) noexcept {
  for (const ModeName& m : kModeNames) {
    if (name == m.canonical || name == m.short_name) {
      out = m.mode;
      return true;
    }
  }
  return false;
}

L2Mode fold_l2_enforce(L2Mode mode, std::string_view enforce) {
  if (enforce == "default") return mode;
  const bool clos = enforce == "clos" || enforce == "clos-way-mask";
  if (!clos && enforce != "eviction-control" && enforce != "eviction") {
    throw ConfigError("l2-enforce",
                      "unknown l2-enforce '" + std::string(enforce) +
                          "' (expected default, eviction-control or clos)");
  }
  if (mode != L2Mode::kPartitionedShared) {
    throw ConfigError(
        "l2-enforce",
        "l2-enforce=" + std::string(enforce) +
            " applies only to l2-mode=partitioned-shared (got l2-mode=" +
            std::string(to_string(mode)) +
            "); l2-enforce is an alias, so choose the organization with "
            "l2-mode alone");
  }
  return clos ? L2Mode::kClosShared : mode;
}

std::uint32_t L2Organization::apply_clos_plan(const ClosPlan& /*plan*/) {
  CAPART_CHECK(false, "apply_clos_plan on an organization without CLOS "
                      "enforcement");
}

std::unique_ptr<L2Organization> make_l2(L2Mode mode,
                                        const CacheGeometry& geometry,
                                        ThreadId num_threads,
                                        const L2BuildOptions& opts) {
  switch (mode) {
    case L2Mode::kPrivatePerThread:
      return std::make_unique<PrivateL2>(geometry, num_threads);
    case L2Mode::kSetPartitionedShared:
      // One color per way keeps the policies' [1, ways] target range
      // intact; with the default 256-set, 64-way cache that is 64 colors of
      // 4 sets.
      return std::make_unique<SetPartitionedCache>(geometry, num_threads,
                                                   /*colors=*/geometry.ways);
    case L2Mode::kSharedUnpartitioned:
    case L2Mode::kPartitionedShared:
    case L2Mode::kFlushReconfigureShared:
    case L2Mode::kClosShared:
      return std::make_unique<SharedL2>(geometry, num_threads, mode,
                                        opts.clos_budget);
  }
  CAPART_CHECK(false, "unreachable L2 mode");
}

namespace {

/// The core enforcement of a SharedL2's mode. Per-thread way targets keep
/// >= 1 way per thread, so eviction control and flush reconfiguration
/// refuse more threads than ways; the thread count is user-reachable
/// (--threads beyond --l2-ways), hence a recoverable ConfigError.
PartitionEnforcement shared_enforcement(const CacheGeometry& geometry,
                                        ThreadId num_threads, L2Mode mode) {
  PartitionEnforcement enforcement{};
  switch (mode) {
    case L2Mode::kSharedUnpartitioned: return PartitionEnforcement::kNone;
    case L2Mode::kClosShared: return PartitionEnforcement::kClosWayMask;
    case L2Mode::kPartitionedShared:
      enforcement = PartitionEnforcement::kWayEvictionControl;
      break;
    case L2Mode::kFlushReconfigureShared:
      enforcement = PartitionEnforcement::kWayFlushReconfigure;
      break;
    case L2Mode::kPrivatePerThread:
    case L2Mode::kSetPartitionedShared:
      CAPART_CHECK(false, "shared L2: not a shared way-granular mode");
  }
  if (num_threads > geometry.ways) {
    throw ConfigError(
        "l2-ways",
        "more threads (" + std::to_string(num_threads) + ") than ways (" +
            std::to_string(geometry.ways) +
            "): per-thread way targets keep >= 1 way per thread; use "
            "--l2-mode=clos to cluster threads onto CLOS way masks");
  }
  return enforcement;
}

}  // namespace

SharedL2::SharedL2(const CacheGeometry& geometry, ThreadId num_threads,
                   L2Mode mode, std::uint32_t clos_budget)
    : mode_(mode),
      core_(geometry, num_threads,
            shared_enforcement(geometry, num_threads, mode)) {
  if (mode_ == L2Mode::kClosShared) {
    CAPART_CHECK(clos_budget >= 1 && clos_budget <= geometry.ways,
                 "clos budget must be in [1, ways]");
    plan_ = initial_clos_plan(geometry.ways, num_threads, clos_budget);
    install_masks();
  }
}

void SharedL2::set_targets(std::span<const std::uint32_t> targets) {
  CAPART_CHECK(mode_ != L2Mode::kClosShared,
               "set_targets on a CLOS-enforced L2; use apply_clos_plan");
  if (partitionable()) core_.set_targets(targets);
}

std::vector<std::uint32_t> SharedL2::current_targets() const {
  if (mode_ == L2Mode::kClosShared) {
    // A thread's effective allocation is the width of its CLOS's mask.
    std::vector<std::uint32_t> widths(num_threads());
    for (ThreadId t = 0; t < widths.size(); ++t) {
      widths[t] = plan_.masks[plan_.clos_of[t]].nr_ways;
    }
    return widths;
  }
  return {core_.targets().begin(), core_.targets().end()};
}

std::uint32_t SharedL2::apply_clos_plan(const ClosPlan& plan) {
  CAPART_CHECK(mode_ == L2Mode::kClosShared,
               "apply_clos_plan without CLOS enforcement");
  validate_clos_plan(plan, total_ways(), num_threads());
  CAPART_CHECK(plan.masks.size() == plan_.masks.size(),
               "clos plan changes the CLOS budget");
  std::uint32_t changed = 0;
  for (std::size_t c = 0; c < plan.masks.size(); ++c) {
    if (plan.masks[c] != plan_.masks[c]) ++changed;
  }
  plan_ = plan;
  install_masks();
  return changed;
}

void SharedL2::install_masks() {
  std::vector<WayMask> per_thread(num_threads());
  for (ThreadId t = 0; t < per_thread.size(); ++t) {
    per_thread[t] = plan_.masks[plan_.clos_of[t]];
  }
  core_.set_way_ranges(per_thread);
}

PrivateL2::PrivateL2(const CacheGeometry& geometry, ThreadId num_threads)
    : stats_(num_threads), total_ways_(geometry.ways) {
  CAPART_CHECK(num_threads > 0, "private L2 needs >= 1 thread");
  CAPART_CHECK(geometry.ways >= num_threads,
               "private L2: fewer ways than threads");
  CacheGeometry slice = geometry;
  slice.ways = geometry.ways / num_threads;
  slices_.reserve(num_threads);
  for (ThreadId t = 0; t < num_threads; ++t) {
    slices_.emplace_back(slice, 1, PartitionEnforcement::kNone);
  }
}

bool PrivateL2::access(ThreadId thread, Addr addr, AccessType type) {
  CAPART_CHECK(thread < slices_.size(), "private L2: thread out of range");
  const bool hit = slices_[thread].access(0, addr, type).hit;
  ThreadCacheCounters& c = stats_.thread(thread);
  ++c.accesses;
  if (hit) {
    ++c.hits;
  } else {
    ++c.misses;
  }
  return hit;
}

void PrivateL2::set_targets(std::span<const std::uint32_t> /*targets*/) {
  // Private slices are fixed hardware structures; nothing to reconfigure.
}

std::vector<std::uint32_t> PrivateL2::current_targets() const {
  return std::vector<std::uint32_t>(
      slices_.size(), slices_.empty() ? 0 : slices_.front().geometry().ways);
}

}  // namespace capart::mem
