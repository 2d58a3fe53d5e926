#include "src/mem/l2_organization.hpp"

#include <string>

#include "src/common/check.hpp"
#include "src/common/error.hpp"

namespace capart::mem {

std::string_view to_string(L2Mode mode) noexcept {
  switch (mode) {
    case L2Mode::kSharedUnpartitioned: return "shared-unpartitioned";
    case L2Mode::kPartitionedShared: return "partitioned-shared";
    case L2Mode::kPrivatePerThread: return "private-per-thread";
    case L2Mode::kSetPartitionedShared: return "set-partitioned-shared";
    case L2Mode::kFlushReconfigureShared: return "flush-reconfigure-shared";
  }
  return "unknown";
}

std::string_view to_string(L2Enforce enforce) noexcept {
  switch (enforce) {
    case L2Enforce::kModeDefault: return "default";
    case L2Enforce::kEvictionControl: return "eviction-control";
    case L2Enforce::kClosWayMask: return "clos";
  }
  return "unknown";
}

bool parse_l2_enforce(std::string_view name, L2Enforce& out) noexcept {
  if (name == "default") {
    out = L2Enforce::kModeDefault;
  } else if (name == "eviction-control" || name == "eviction") {
    out = L2Enforce::kEvictionControl;
  } else if (name == "clos" || name == "clos-way-mask") {
    out = L2Enforce::kClosWayMask;
  } else {
    return false;
  }
  return true;
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
      return std::make_unique<SetPartitionedL2>(geometry, num_threads);
    case L2Mode::kSharedUnpartitioned:
    case L2Mode::kPartitionedShared:
    case L2Mode::kFlushReconfigureShared:
      return std::make_unique<SharedL2>(geometry, num_threads, mode,
                                        opts.enforce, opts.clos_budget);
  }
  CAPART_CHECK(false, "unreachable L2 mode");
}

namespace {

/// The core enforcement of a SharedL2. Per-thread way targets keep >= 1
/// way per thread, so eviction control and flush reconfiguration refuse
/// more threads than ways; the thread count is user-reachable (--threads
/// beyond --l2-ways), hence a recoverable ConfigError.
PartitionEnforcement shared_enforcement(const CacheGeometry& geometry,
                                        ThreadId num_threads, L2Mode mode,
                                        L2Enforce enforce) {
  if (enforce == L2Enforce::kClosWayMask) {
    // The mode restriction is validated with ConfigError at the config
    // layer, so a violation here is a bug.
    CAPART_CHECK(mode == L2Mode::kPartitionedShared,
                 "clos enforcement requires the partitioned shared mode");
    return PartitionEnforcement::kClosWayMask;
  }
  if (mode == L2Mode::kSharedUnpartitioned) return PartitionEnforcement::kNone;
  CAPART_CHECK(mode == L2Mode::kPartitionedShared ||
                   mode == L2Mode::kFlushReconfigureShared,
               "shared L2: not a shared way-granular mode");
  if (num_threads > geometry.ways) {
    throw ConfigError(
        "l2-ways",
        "more threads (" + std::to_string(num_threads) + ") than ways (" +
            std::to_string(geometry.ways) +
            "): per-thread way targets keep >= 1 way per thread; use "
            "--l2-enforce=clos to cluster threads onto CLOS way masks");
  }
  return mode == L2Mode::kPartitionedShared
             ? PartitionEnforcement::kWayEvictionControl
             : PartitionEnforcement::kWayFlushReconfigure;
}

}  // namespace

SharedL2::SharedL2(const CacheGeometry& geometry, ThreadId num_threads,
                   L2Mode mode, L2Enforce enforce, std::uint32_t clos_budget)
    : mode_(mode),
      core_(geometry, num_threads,
            shared_enforcement(geometry, num_threads, mode, enforce)) {
  if (clos_enforced()) {
    CAPART_CHECK(clos_budget >= 1 && clos_budget <= geometry.ways,
                 "clos budget must be in [1, ways]");
    plan_ = initial_clos_plan(geometry.ways, num_threads, clos_budget);
    install_masks();
  }
}

void SharedL2::set_targets(std::span<const std::uint32_t> targets) {
  CAPART_CHECK(!clos_enforced(),
               "set_targets on a CLOS-enforced L2; use apply_clos_plan");
  if (partitionable()) core_.set_targets(targets);
}

std::vector<std::uint32_t> SharedL2::current_targets() const {
  if (clos_enforced()) {
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
  CAPART_CHECK(clos_enforced(), "apply_clos_plan without CLOS enforcement");
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

SetPartitionedL2::SetPartitionedL2(const CacheGeometry& geometry,
                                   ThreadId num_threads)
    // One color per way keeps the policies' [1, ways] target range intact;
    // with the default 256-set, 64-way cache that is 64 colors of 4 sets.
    : cache_(geometry, num_threads, /*colors=*/geometry.ways) {}

bool SetPartitionedL2::access(ThreadId thread, Addr addr, AccessType type) {
  return cache_.access(thread, addr, type).hit;
}

void SetPartitionedL2::set_targets(std::span<const std::uint32_t> targets) {
  cache_.set_targets(targets);
}

std::vector<std::uint32_t> SetPartitionedL2::current_targets() const {
  return {cache_.targets().begin(), cache_.targets().end()};
}

std::vector<std::uint32_t> PrivateL2::current_targets() const {
  return std::vector<std::uint32_t>(
      slices_.size(), slices_.empty() ? 0 : slices_.front().geometry().ways);
}

}  // namespace capart::mem
