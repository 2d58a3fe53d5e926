// Partitioner zoo: every partitioner in core::registry() against the shared
// LRU baseline over the full workload suite. The table is the registry-wide
// competitor comparison for EXPERIMENTS.md — the paper's model-based scheme
// next to UCP-style lookahead, LFOC-style classing, the reuse/sharing-aware
// partitioner and the simpler heuristics. New registry policies appear in
// the sweep automatically.
//
// A second, smaller study exercises the LFOC cache classes end to end on the
// heterogeneous profiles: the lfoc-classing policy under CLOS way-mask
// enforcement with more threads than classes, clustered by the class-blind
// nearest mapper vs the class-driven lfoc mapper (--clos-mapper=lfoc).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::banner("Partitioner zoo: every registered partitioner vs shared LRU",
                opt);

  const auto profiles = bench::profiles_or(opt, trace::benchmark_names());

  // One arm per registered partitioner (under the short bench spellings the
  // arm registry derives), plus the shared-LRU reference.
  std::vector<std::string> policy_arms;
  for (const core::Partitioner* p : core::registry().describe()) {
    policy_arms.push_back(bench::bench_arm_name(*p));
  }
  std::vector<std::string> arms = {"shared"};
  arms.insert(arms.end(), policy_arms.begin(), policy_arms.end());

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, profiles, arms, "abl_partitioner_zoo"), opt);

  std::vector<std::string> header = {"app"};
  header.insert(header.end(), policy_arms.begin(), policy_arms.end());
  report::Table table(header);
  std::vector<double> totals(policy_arms.size(), 0.0);
  for (const std::string& app : profiles) {
    const auto& shared = batch.at(bench::arm_key(app, "shared"));
    std::vector<std::string> row = {app};
    for (std::size_t i = 0; i < policy_arms.size(); ++i) {
      const double imp = sim::improvement(
          batch.at(bench::arm_key(app, policy_arms[i])), shared);
      totals[i] += imp;
      row.push_back(report::fmt_pct(imp, 1));
    }
    table.add_row(row);
  }
  std::vector<std::string> avg = {"average"};
  for (const double total : totals) {
    avg.push_back(
        report::fmt_pct(total / static_cast<double>(profiles.size()), 1));
  }
  table.add_row(avg);
  table.print(std::cout);
  std::cout << "\n(improvement vs the shared unpartitioned LRU baseline; "
               "positive = the partitioner helps)\n";

  // Classing study: does the lfoc mapper's class-aware clustering beat the
  // class-blind nearest grouping when threads outnumber CLOS way masks?
  std::vector<std::string> hetero;
  for (const char* app : {"cg", "mg", "mgrid", "equake"}) {
    for (const std::string& p : profiles) {
      if (p == app) hetero.push_back(p);
    }
  }
  if (!hetero.empty()) {
    constexpr std::uint32_t kThreads = 8;
    constexpr std::uint32_t kBudget = 4;
    auto clos_config = [&](const std::string& app,
                           core::ClosMapperKind mapper) {
      sim::ExperimentConfig cfg =
          bench::make_arm("lfoc", bench::base_config(opt, app));
      cfg.num_threads = kThreads;
      if (opt.interval_instructions == 0) {
        cfg.interval_instructions = Instructions{60'000} * kThreads;
      }
      cfg.l2_mode = mem::L2Mode::kClosShared;
      cfg.clos_budget = kBudget;
      cfg.clos_mapper = mapper;
      return cfg;
    };
    sim::ExperimentSpec spec;
    spec.name = "abl_partitioner_zoo_classing";
    for (const std::string& app : hetero) {
      spec.add(app + "/lfoc_clos_nearest",
               clos_config(app, core::ClosMapperKind::kNearest));
      spec.add(app + "/lfoc_clos_lfoc",
               clos_config(app, core::ClosMapperKind::kLfoc));
    }
    const sim::BatchResult classing = bench::run_spec(spec, opt);

    std::cout << "\nLFOC classing study: lfoc-classing policy, " << kThreads
              << " threads on " << kBudget
              << " CLOS way masks, class-driven vs nearest clustering\n";
    report::Table classing_table({"app", "lfoc mapper vs nearest"});
    double classing_total = 0.0;
    for (const std::string& app : hetero) {
      const double imp =
          sim::improvement(classing.at(app + "/lfoc_clos_lfoc"),
                           classing.at(app + "/lfoc_clos_nearest"));
      classing_total += imp;
      classing_table.add_row({app, report::fmt_pct(imp, 1)});
    }
    classing_table.add_row(
        {"average",
         report::fmt_pct(
             classing_total / static_cast<double>(hetero.size()), 1)});
    classing_table.print(std::cout);
    std::cout << "(positive = segregating light/streaming threads into "
                 "dedicated classes beats share-nearest grouping)\n";
  }
  return bench::exit_status();
}
