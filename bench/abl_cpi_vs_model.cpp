// Ablation: simple CPI-proportional partitioning (paper §VI-A) vs the
// model-based scheme (§VI-B). The paper evaluates only the model-based
// variant "since it outperforms the simple CPI based scheme in all of the
// cases we tested" — this bench reproduces that claim.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner("Ablation: CPI-proportional vs model-based partitioning",
                opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"model", "cpi", "shared"},
                           "abl_cpi_vs_model"),
      opt);

  report::Table table({"app", "model vs cpi-proportional", "model vs shared",
                       "cpi-prop vs shared"});
  for (const std::string& app : apps) {
    const auto& model = batch.at(bench::arm_key(app, "model"));
    const auto& cpi = batch.at(bench::arm_key(app, "cpi"));
    const auto& shared = batch.at(bench::arm_key(app, "shared"));
    table.add_row({app, report::fmt_pct(sim::improvement(model, cpi), 1),
                   report::fmt_pct(sim::improvement(model, shared), 1),
                   report::fmt_pct(sim::improvement(cpi, shared), 1)});
  }
  table.print(std::cout);
  std::cout << "\n(paper §VII: the curve-fitting scheme outperforms the "
               "simple CPI-based scheme in all tested cases — the CPI scheme "
               "is blind to cache sensitivity)\n";
  return bench::exit_status();
}
