// The L2 organizations behind every L2 mode, each over `CacheCore`s:
//
//   * SharedL2            — one shared cache whose enforcement follows the
//                           mode: none (the paper's unpartitioned baseline),
//                           §V way partitioning by eviction control
//                           (runtime-controllable targets), flush
//                           reconfiguration, or CAT-style CLOS way masks;
//   * PrivateL2           — per-thread slices of ways/num_threads ways each
//                           (no sharing, data replication across slices;
//                           also the paper's stand-in for fairness-optimal
//                           schemes);
//   * SetPartitionedCache — page coloring over one set-partitioned cache
//                           (src/mem/set_partitioned_cache.hpp).
//
// Bank count is timing only: CmpSystem's contention model serializes
// same-bank accesses, and no organization is built per bank.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/types.hpp"
#include "src/mem/cache_config.hpp"
#include "src/mem/cache_core.hpp"
#include "src/mem/cache_stats.hpp"
#include "src/mem/clos.hpp"

namespace capart::mem {

/// The L2 organization of a run: the one axis that picks both the cache
/// structure and how a partition is enforced.
enum class L2Mode : std::uint8_t {
  kSharedUnpartitioned,
  /// Way partitioning by eviction control (paper §V).
  kPartitionedShared,
  kPrivatePerThread,
  /// Way partitioning by flush-reconfiguration — the hardware alternative
  /// paper §V rejects; exists to quantify that argument (abl_reconfigure).
  kFlushReconfigureShared,
  /// Set partitioning via OS page coloring (related-work mechanism, Lin et
  /// al.); targets are counted in colors, one color per way by default so
  /// the partitioning policies apply unchanged.
  kSetPartitionedShared,
  /// CAT-style CLOS way masks: a small budget of contiguous way masks that
  /// threads are clustered onto — the commodity-hardware enforcement
  /// (Intel RDT semantics; see src/mem/clos.hpp). Supports more threads
  /// than ways.
  kClosShared,
};

/// Canonical name ("partitioned-shared", "clos-shared", ...).
std::string_view to_string(L2Mode mode) noexcept;

/// Parses a canonical mode name or its command-line short name (shared
/// partitioned private coloring flush clos); returns false otherwise.
bool parse_l2_mode(std::string_view name, L2Mode& out) noexcept;

/// Folds the enforcement alias (--l2-enforce, and the spec field of the
/// same name) into `mode`, once all input has been read: "default" keeps
/// the mode, "eviction-control" is accepted only with the partitioned mode,
/// and "clos" turns the partitioned mode into the CLOS mode. Any other pair
/// throws a ConfigError naming both l2-mode and l2-enforce, and an unknown
/// alias throws one too.
L2Mode fold_l2_enforce(L2Mode mode, std::string_view enforce);

/// Uniform interface the CMP system and the runtime use for the L2 level.
class L2Organization {
 public:
  virtual ~L2Organization() = default;

  /// One access by `thread`; returns true on hit (fills on miss).
  virtual bool access(ThreadId thread, Addr addr, AccessType type) = 0;

  /// Whether set_targets() has any effect.
  virtual bool partitionable() const noexcept = 0;

  /// Installs per-thread way targets; no-op for non-partitionable modes.
  virtual void set_targets(std::span<const std::uint32_t> targets) = 0;

  /// Current per-thread way targets (fixed equal split where not applicable).
  virtual std::vector<std::uint32_t> current_targets() const = 0;

  virtual const CacheStats& stats() const noexcept = 0;
  virtual std::uint32_t total_ways() const noexcept = 0;
  virtual ThreadId num_threads() const noexcept = 0;
  virtual L2Mode mode() const noexcept = 0;

  /// Lines invalidated by the most recent set_targets (nonzero only for the
  /// flush-reconfiguring organization; the runtime charges stall for them).
  virtual std::uint64_t flushed_on_last_retarget() const noexcept {
    return 0;
  }

  /// Tag-lookup telemetry of the organization's cache structures (summed
  /// over private slices); published as the l2/lookup_* metrics.
  virtual CacheCore::LookupStats lookup_stats() const noexcept = 0;

  /// Installs a CLOS configuration and returns how many CLOS masks actually
  /// changed (the runtime charges the mask-update cost once per changed
  /// mask). In the CLOS mode the runtime reconfigures through this instead
  /// of set_targets; aborts on every other organization.
  virtual std::uint32_t apply_clos_plan(const ClosPlan& plan);

  /// The CLOS configuration in force, or nullptr without CLOS enforcement.
  virtual const ClosPlan* clos_plan() const noexcept { return nullptr; }
};

/// Options for make_l2 beyond the mode.
struct L2BuildOptions {
  /// Ignored by make_l2: banks only drive CmpSystem's contention model
  /// (SystemConfig::l2_banks). Kept for callers that still set it.
  std::uint32_t banks = 1;
  /// Number of CLOSes in the CLOS mode.
  std::uint32_t clos_budget = 8;
};

/// Factory for the mode requested by an experiment configuration.
std::unique_ptr<L2Organization> make_l2(L2Mode mode,
                                        const CacheGeometry& geometry,
                                        ThreadId num_threads,
                                        const L2BuildOptions& opts = {});

/// The shared L2 of the shared, partitioned, flush-reconfigure and CLOS
/// modes: one CacheCore whose enforcement the mode picks (none, eviction
/// control, flush reconfiguration, CLOS way masks). The CLOS mode replaces
/// per-thread targets with a CLOS plan of contiguous way masks.
class SharedL2 final : public L2Organization {
 public:
  /// Throws ConfigError for more threads than ways under eviction control
  /// or flush reconfiguration (per-thread targets keep >= 1 way each); no
  /// enforcement and CLOS masks accept any thread count.
  SharedL2(const CacheGeometry& geometry, ThreadId num_threads, L2Mode mode,
           std::uint32_t clos_budget = 8);

  bool access(ThreadId thread, Addr addr, AccessType type) override {
    return core_.access(thread, addr, type).hit;
  }
  bool partitionable() const noexcept override {
    return core_.enforcement() != PartitionEnforcement::kNone;
  }
  void set_targets(std::span<const std::uint32_t> targets) override;
  std::vector<std::uint32_t> current_targets() const override;
  const CacheStats& stats() const noexcept override { return core_.stats(); }
  std::uint32_t total_ways() const noexcept override {
    return core_.geometry().ways;
  }
  ThreadId num_threads() const noexcept override {
    return core_.num_threads();
  }
  L2Mode mode() const noexcept override { return mode_; }

  std::uint64_t flushed_on_last_retarget() const noexcept override {
    return core_.flushed_on_last_retarget();
  }

  CacheCore::LookupStats lookup_stats() const noexcept override {
    return core_.lookup_stats();
  }

  std::uint32_t apply_clos_plan(const ClosPlan& plan) override;
  const ClosPlan* clos_plan() const noexcept override {
    return mode_ == L2Mode::kClosShared ? &plan_ : nullptr;
  }

 private:
  /// Installs plan_'s masks into the core (no update accounting).
  void install_masks();

  L2Mode mode_;
  CacheCore core_;
  ClosPlan plan_;  ///< meaningful only under CLOS enforcement
};

/// Private per-thread L2 slices (ways split equally; each slice keeps the
/// full set count, mirroring the paper's ways-only capacity scaling).
class PrivateL2 final : public L2Organization {
 public:
  PrivateL2(const CacheGeometry& geometry, ThreadId num_threads);

  bool access(ThreadId thread, Addr addr, AccessType type) override;
  bool partitionable() const noexcept override { return false; }
  void set_targets(std::span<const std::uint32_t> targets) override;
  std::vector<std::uint32_t> current_targets() const override;
  const CacheStats& stats() const noexcept override { return stats_; }
  std::uint32_t total_ways() const noexcept override { return total_ways_; }
  ThreadId num_threads() const noexcept override {
    return static_cast<ThreadId>(slices_.size());
  }
  L2Mode mode() const noexcept override { return L2Mode::kPrivatePerThread; }

  CacheCore::LookupStats lookup_stats() const noexcept override {
    CacheCore::LookupStats total;
    for (const CacheCore& slice : slices_) total += slice.lookup_stats();
    return total;
  }

 private:
  std::vector<CacheCore> slices_;  ///< single-thread, no enforcement
  CacheStats stats_;
  std::uint32_t total_ways_;
};

}  // namespace capart::mem
