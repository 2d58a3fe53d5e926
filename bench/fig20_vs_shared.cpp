// Fig 20: performance improvement of dynamic model-based partitioning over
// the shared unpartitioned cache. (Paper: up to 15 %, ~9 % on average; three
// small-working-set applications show only a small benefit.)
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner("Fig 20: dynamic partitioning vs shared unpartitioned cache",
                opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"model", "shared"}, "fig20"), opt);

  report::Table table({"app", "improvement"});
  double total = 0.0;
  for (const std::string& app : apps) {
    const double imp = sim::improvement(batch.at(bench::arm_key(app, "model")),
                                        batch.at(bench::arm_key(app, "shared")));
    total += imp;
    table.add_row({app, report::fmt_pct(imp, 1)});
  }
  table.add_row(
      {"average",
       report::fmt_pct(total / static_cast<double>(apps.size()), 1)});
  table.print(std::cout);
  std::cout << "\n(paper: up to 15% improvement, about 9% on average; ft, "
               "lu, bt gain little due to small working sets)\n";
  return bench::exit_status();
}
