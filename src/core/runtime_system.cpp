#include "src/core/runtime_system.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/common/check.hpp"
#include "src/core/model_based_policy.hpp"
#include "src/obs/events.hpp"
#include "src/obs/metrics.hpp"

namespace capart::core {

RuntimeSystem::RuntimeSystem(sim::CmpSystem& system,
                             std::unique_ptr<PartitionPolicy> policy,
                             Cycles overhead_cycles,
                             Cycles flush_cost_per_line, obs::ObsConfig obs,
                             ClosRuntimeConfig clos,
                             std::vector<ThreadSharing> sharing)
    : system_(system),
      policy_(std::move(policy)),
      overhead_cycles_(overhead_cycles),
      flush_cost_per_line_(flush_cost_per_line),
      obs_(std::move(obs)),
      clos_(std::move(clos)),
      sharing_(std::move(sharing)),
      current_targets_(system.l2().current_targets()) {
  CAPART_CHECK(sharing_.empty() ||
                   sharing_.size() == system_.config().num_threads,
               "sharing profile must cover every thread (or be empty)");
  if (clos_.mapper != nullptr) {
    CAPART_CHECK(system_.l2().clos_enforced(),
                 "CLOS runtime config on an L2 without CLOS enforcement");
    CAPART_CHECK(clos_.budget >= 1, "clos budget must be >= 1");
    // The virtual way space: large enough that every policy's
    // one-way-per-thread contract holds whatever the thread count.
    const ThreadId n = system_.config().num_threads;
    virtual_ways_ = std::max(system_.l2().total_ways(), n);
    current_targets_ = equal_split(virtual_ways_, n);
  }
}

std::uint32_t RuntimeSystem::policy_ways() const noexcept {
  return virtual_ways_ != 0 ? virtual_ways_ : system_.l2().total_ways();
}

Cycles RuntimeSystem::on_interval(std::uint64_t interval_index) {
  // Monitor: read and rebase the performance counters.
  const auto deltas = system_.counters().sample_interval();
  history_.push_back(
      sim::make_interval_record(interval_index, deltas, current_targets_));
  if (obs_.sink != nullptr) {
    obs_.sink->on_interval({obs_.run_name, history_.back()});
  }
  if (obs_.metrics != nullptr) {
    obs_.metrics->add("runtime/intervals_observed");
  }

  if (policy_ == nullptr) return 0;

  // Partition engine. Under CLOS enforcement the policy runs in the virtual
  // way space (>= one way per thread even with threads > physical ways); the
  // decision is quantized onto the CLOS budget below.
  const PartitionContext ctx{
      .total_ways = policy_ways(),
      .num_threads = system_.config().num_threads,
      .utility_monitor = system_.utility_monitor(),
      .memory_penalty = system_.timing().params().memory_penalty,
      .l2_sets = system_.config().l2.sets,
      .sharing = sharing_,
  };
  std::vector<std::uint32_t> next =
      policy_->repartition(history_.back(), ctx);
  // The monitor's counters are per-interval, mirroring the PMU rebase.
  if (system_.utility_monitor() != nullptr) {
    system_.utility_monitor()->reset_interval();
  }

  // Configuration unit: validate and apply.
  CAPART_CHECK(next.size() == ctx.num_threads,
               "policy returned wrong allocation size");
  std::uint32_t sum = 0;
  for (std::uint32_t w : next) {
    CAPART_CHECK(w >= 1, "policy allocated zero ways to a thread");
    sum += w;
  }
  CAPART_CHECK(sum == ctx.total_ways,
               "policy allocation does not sum to total ways");

  if (obs_.sink != nullptr) {
    obs::RepartitionEvent event;
    event.run = obs_.run_name;
    event.interval = interval_index;
    event.policy = std::string(policy_->name());
    event.old_ways = current_targets_;
    event.new_ways = next;
    // The model-based policy can explain its decision: predicted CPI of
    // every thread at the allocation it just chose.
    if (const auto* model = dynamic_cast<const ModelBasedPolicy*>(
            policy_.get())) {
      event.predicted_cpi.reserve(next.size());
      for (ThreadId t = 0; t < next.size(); ++t) {
        event.predicted_cpi.push_back(model->predict(t, next[t]));
      }
    }
    obs_.sink->on_repartition(event);
  }
  if (obs_.metrics != nullptr) {
    std::uint64_t moved = 0;
    for (std::size_t t = 0; t < next.size() && t < current_targets_.size();
         ++t) {
      moved += next[t] > current_targets_[t] ? next[t] - current_targets_[t]
                                             : current_targets_[t] - next[t];
    }
    if (policy_->is_dynamic()) obs_.metrics->add("runtime/repartitions");
    obs_.metrics->add("runtime/ways_moved", moved / 2);
  }

  Cycles overhead = policy_->is_dynamic() ? overhead_cycles_ : 0;
  if (clos_.mapper != nullptr) {
    // Configuration unit, CAT flavor: cluster the threads onto the CLOS
    // budget, apportion the physical ways over the clusters, install the
    // masks, and pay the per-mask-update cost (one MSR write per changed
    // mask on real hardware) — charged exactly once per changed mask.
    ClusterContext cluster_ctx{.shares = next};
    if (clos_.mapper->wants_classes()) {
      // Classifying policies publish per-thread cache classes; a class-aware
      // mapper clusters on them (demand-only mappers never pay the cast).
      if (const auto* source =
              dynamic_cast<const CacheClassSource*>(policy_.get())) {
        cluster_ctx.classes = source->cache_classes();
      }
    }
    const std::vector<std::uint32_t> clos_of =
        clos_.mapper->cluster(cluster_ctx, clos_.budget);
    const mem::ClosPlan plan = mem::build_clos_plan(
        next, clos_of, system_.l2().total_ways(), clos_.budget);
    const std::uint32_t changed = system_.l2().apply_clos_plan(plan);
    overhead += clos_.mask_update_cycles * changed;
    if (obs_.metrics != nullptr && changed > 0) {
      obs_.metrics->add("clos/mask_updates", changed);
    }
    current_targets_ = std::move(next);
  } else {
    system_.l2().set_targets(next);
    if (system_.l2().partitionable()) {
      current_targets_ = std::move(next);
    }
  }

  // Reconfiguration stall: flushing is not free (§V's argument) — writing
  // back and refetching the discarded lines stalls every core.
  const std::uint64_t flushed = system_.l2().flushed_on_last_retarget();
  overhead += flush_cost_per_line_ * flushed;
  if (obs_.metrics != nullptr) {
    if (flushed > 0) obs_.metrics->add("runtime/flushed_lines", flushed);
    if (overhead > 0) obs_.metrics->add("runtime/overhead_cycles", overhead);
  }
  return overhead;
}

sim::IntervalCallback RuntimeSystem::callback() {
  return [this](std::uint64_t idx) { return on_interval(idx); };
}

}  // namespace capart::core
