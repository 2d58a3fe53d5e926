// Fig 22: sensitivity to core count — the same nine applications run with 8
// threads on an 8-core CMP sharing the same 1 MB L2; improvement of dynamic
// partitioning over both the private (static equal) and shared baselines.
// (Paper: gains similar to the 4-core case.)
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  bench::BenchOptions opt = bench::parse_options(argc, argv);
  if (opt.threads == 4) opt.threads = 8;  // the figure's configuration
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner("Fig 22: 8-core CMP sensitivity study", opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"model", "static_equal", "shared"},
                           "fig22"),
      opt);

  report::Table table({"app", "vs private", "vs shared"});
  double total_priv = 0.0, total_shared = 0.0;
  for (const std::string& app : apps) {
    const sim::ExperimentResult& dynamic =
        batch.at(bench::arm_key(app, "model"));
    const double ip = sim::improvement(
        dynamic, batch.at(bench::arm_key(app, "static_equal")));
    const double is =
        sim::improvement(dynamic, batch.at(bench::arm_key(app, "shared")));
    total_priv += ip;
    total_shared += is;
    table.add_row({app, report::fmt_pct(ip, 1), report::fmt_pct(is, 1)});
  }
  const auto n = static_cast<double>(apps.size());
  table.add_row({"average", report::fmt_pct(total_priv / n, 1),
                 report::fmt_pct(total_shared / n, 1)});
  table.print(std::cout);
  std::cout << "\n(paper: performance gains similar to the 4-core case)\n";
  return bench::exit_status();
}
