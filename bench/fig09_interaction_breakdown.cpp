// Fig 9: breakdown of inter-thread interactions into constructive
// (inter-thread hits: data one thread brought in is reused by another) and
// destructive (inter-thread evictions), per application, shared L2.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner("Fig 9: constructive vs destructive inter-thread interaction",
                opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"shared"}, "fig09"), opt);

  report::Table table(
      {"app", "constructive (hits)", "destructive (evictions)"});
  for (const std::string& app : apps) {
    const sim::ExperimentResult& r = batch.at(bench::arm_key(app, "shared"));
    const double constructive = r.l2_stats.constructive_fraction();
    table.add_row({app, report::fmt_pct(constructive, 1),
                   report::fmt_pct(1.0 - constructive, 1)});
  }
  table.print(std::cout);
  std::cout << "\n(paper: not all inter-thread interactions are "
               "constructive; a significant eviction share exists.\n"
               " A partitioned shared cache keeps the constructive hits and "
               "suppresses the destructive evictions.)\n";
  return bench::exit_status();
}
