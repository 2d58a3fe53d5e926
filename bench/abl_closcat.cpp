// Ablation: CAT-style CLOS enforcement at many-core scale. The paper's §V
// eviction control gives every thread its own partition, which commodity
// hardware (Intel RDT) cannot: it offers a small budget of contiguous way
// masks (CLOSes) that threads must be clustered onto. This study scales the
// thread count far past the way count (threads in {8,32,64,128} on a 64-way
// L2 with 8-bank contention) and sweeps the CLOS budget and the thread->CLOS
// mapper, with the per-thread eviction-control organization as the
// reference wherever it is still feasible (threads <= ways).
#include <cstdint>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "src/report/table.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::banner("Ablation: CLOS way-mask scaling (threads x budget x mapper)",
                opt);

  constexpr std::uint32_t kThreads[] = {8, 32, 64, 128};
  constexpr std::uint32_t kBudgets[] = {4, 8, 16};
  constexpr const char* kApp = "cg";
  // The mapper sweep runs at the largest scale with the middle budget.
  constexpr std::uint32_t kMapperThreads = 64;
  constexpr std::uint32_t kMapperBudget = 8;

  // Work scales with the thread count (constant per-thread work) unless the
  // interval length was pinned explicitly.
  auto scaled_base = [&](std::uint32_t threads) {
    sim::ExperimentConfig base = bench::base_config(opt, kApp);
    base.num_threads = threads;
    if (opt.interval_instructions == 0) {
      base.interval_instructions = Instructions{60'000} * threads;
    }
    // Many-core cache: 8 address-interleaved banks unless overridden.
    if (opt.l2_banks == 0) base.l2_banks = 8;
    return base;
  };
  auto clos_config = [&](std::uint32_t threads, std::uint32_t budget,
                         core::ClosMapperKind mapper) {
    sim::ExperimentConfig cfg = bench::model_arm(scaled_base(threads));
    cfg.l2_mode = mem::L2Mode::kClosShared;
    cfg.clos_budget = budget;
    cfg.clos_mapper = mapper;
    return cfg;
  };
  auto grid_key = [](std::uint32_t threads, std::uint32_t budget) {
    return "t" + std::to_string(threads) + "/clos" + std::to_string(budget);
  };
  auto mapper_key = [](core::ClosMapperKind kind) {
    return std::string("mapper/") + std::string(core::to_string(kind));
  };
  auto evict_key = [](std::uint32_t threads) {
    return "t" + std::to_string(threads) + "/evict";
  };

  sim::ExperimentSpec spec;
  spec.name = "abl_closcat";
  for (const std::uint32_t threads : kThreads) {
    for (const std::uint32_t budget : kBudgets) {
      spec.add(grid_key(threads, budget),
               clos_config(threads, budget, opt.clos_mapper));
    }
    // Per-thread eviction control only exists up to one way per thread.
    if (threads <= mem::kDefaultL2.ways) {
      sim::ExperimentConfig evict = bench::model_arm(scaled_base(threads));
      evict.l2_mode = mem::L2Mode::kPartitionedShared;
      spec.add(evict_key(threads), evict);
    }
  }
  for (const core::ClosMapperKind kind : core::kAllClosMapperKinds) {
    spec.add(mapper_key(kind),
             clos_config(kMapperThreads, kMapperBudget, kind));
  }
  const sim::BatchResult batch = bench::run_spec(spec, opt);

  report::Table grid({"threads", "clos4", "clos8", "clos16",
                      "per-thread evict", "clos8 vs evict"});
  for (const std::uint32_t threads : kThreads) {
    std::vector<std::string> row = {std::to_string(threads)};
    for (const std::uint32_t budget : kBudgets) {
      row.push_back(std::to_string(
          batch.at(grid_key(threads, budget)).outcome.total_cycles));
    }
    if (threads <= mem::kDefaultL2.ways) {
      const auto& evict = batch.at(evict_key(threads));
      row.push_back(std::to_string(evict.outcome.total_cycles));
      row.push_back(report::fmt_pct(
          sim::improvement(batch.at(grid_key(threads, 8)), evict), 1));
    } else {
      row.push_back("n/a");
      row.push_back("n/a");
    }
    grid.add_row(row);
  }
  grid.print(std::cout);
  std::cout << "\n(cycles to completion, " << kApp
            << " profile, model-based policy, 8-bank 64-way L2; per-thread "
               "eviction control is infeasible past 64 threads)\n\n";

  report::Table mappers({"mapper", "cycles", "vs none"});
  const auto& none = batch.at(mapper_key(core::ClosMapperKind::kNone));
  for (const core::ClosMapperKind kind : core::kAllClosMapperKinds) {
    const auto& run = batch.at(mapper_key(kind));
    mappers.add_row({std::string(core::to_string(kind)),
                     std::to_string(run.outcome.total_cycles),
                     report::fmt_pct(sim::improvement(run, none), 1)});
  }
  mappers.print(std::cout);
  std::cout << "\n(thread->CLOS clustering at " << kMapperThreads
            << " threads, budget " << kMapperBudget
            << "; none = static round-robin)\n";
  return bench::exit_status();
}
