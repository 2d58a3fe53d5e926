// Fig 19: performance improvement of dynamic model-based partitioning over
// the statically partitioned cache with equal partitions — the paper
// identifies this baseline with a private L2 and with fairness-oriented
// schemes. (Paper: up to 23 %, ~11 % on average.)
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner(
      "Fig 19: dynamic partitioning vs statically partitioned (private) "
      "cache",
      opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"model", "static_equal"}, "fig19"), opt);

  report::Table table({"app", "improvement"});
  double total = 0.0;
  for (const std::string& app : apps) {
    const double imp =
        sim::improvement(batch.at(bench::arm_key(app, "model")),
                         batch.at(bench::arm_key(app, "static_equal")));
    total += imp;
    table.add_row({app, report::fmt_pct(imp, 1)});
  }
  table.add_row(
      {"average",
       report::fmt_pct(total / static_cast<double>(apps.size()), 1)});
  table.print(std::cout);
  std::cout << "\n(paper: up to 23% improvement, about 11% on average)\n";
  return bench::exit_status();
}
