// Ablation: §V's mechanism choice. The paper rejects reconfigurable caches
// ("considerable loss of data during the reconfiguration... the cache
// remains unavailable") in favour of implicit partitioning via the
// replacement policy. This bench runs the same model-based policy over both
// mechanisms and quantifies that argument.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner(
      "Ablation: eviction-control vs flush-reconfiguration partitioning",
      opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"model", "flush", "shared"},
                           "abl_reconfigure"),
      opt);

  report::Table table({"app", "eviction-control vs shared",
                       "flush-reconfigure vs shared",
                       "eviction-control vs flush"});
  for (const std::string& app : apps) {
    const auto& gradual = batch.at(bench::arm_key(app, "model"));
    const auto& flush = batch.at(bench::arm_key(app, "flush"));
    const auto& shared = batch.at(bench::arm_key(app, "shared"));
    table.add_row({app,
                   report::fmt_pct(sim::improvement(gradual, shared), 1),
                   report::fmt_pct(sim::improvement(flush, shared), 1),
                   report::fmt_pct(sim::improvement(gradual, flush), 1)});
  }
  table.print(std::cout);
  std::cout << "\n(paper §V: the replacement-policy approach \"does away "
               "with problems of cache unavailability during "
               "reconfiguration\" — the flush variant pays for every "
               "repartition in lost data and stall)\n";
  return bench::exit_status();
}
