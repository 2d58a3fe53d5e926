// Fig 8: percentage of all cache interactions that are inter-thread (a
// previous touch of the same line came from a different thread), per app,
// under a shared unpartitioned L2 (paper: ~11.5 % on average).
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner("Fig 8: inter-thread share of L2 cache interactions", opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"shared"}, "fig08"), opt);

  report::Table table({"app", "inter-thread interactions"});
  double total = 0.0;
  for (const std::string& app : apps) {
    const sim::ExperimentResult& r = batch.at(bench::arm_key(app, "shared"));
    const double frac = r.l2_stats.inter_thread_fraction();
    total += frac;
    table.add_row({app, report::fmt_pct(frac, 1)});
  }
  table.add_row(
      {"average",
       report::fmt_pct(total / static_cast<double>(apps.size()), 1)});
  table.print(std::cout);
  std::cout << "\n(paper: considerable inter-thread interaction, averaging "
               "about 11.5% of all cache interactions)\n";
  return bench::exit_status();
}
