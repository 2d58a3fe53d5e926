// Fig 21: performance improvement of dynamic model-based partitioning over a
// throughput-oriented partitioner (greedy marginal-miss-utility, the
// objective of the prior schemes in paper §IV-B). (Paper: up to 20 %,
// positive for every application tested.)
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner("Fig 21: dynamic partitioning vs throughput-oriented scheme",
                opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"model", "throughput"}, "fig21"), opt);

  report::Table table({"app", "improvement"});
  double total = 0.0;
  for (const std::string& app : apps) {
    const double imp =
        sim::improvement(batch.at(bench::arm_key(app, "model")),
                         batch.at(bench::arm_key(app, "throughput")));
    total += imp;
    table.add_row({app, report::fmt_pct(imp, 1)});
  }
  table.add_row(
      {"average",
       report::fmt_pct(total / static_cast<double>(apps.size()), 1)});
  table.print(std::cout);
  std::cout << "\n(paper: over 20% at best; the throughput scheme speeds up "
               "whichever thread buys the most misses, not the critical "
               "path)\n";
  return bench::exit_status();
}
