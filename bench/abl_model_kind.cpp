// Ablation: cubic-spline vs piecewise-linear runtime CPI models. Paper
// §VI-B: "The choice of the curve fitting algorithm used is independent of
// the partitioning scheme, and therefore, any other algorithm could also be
// used." This bench quantifies how much the curve family matters.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner("Ablation: spline vs piecewise-linear CPI models", opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"model", "linear_model", "shared"},
                           "abl_model_kind"),
      opt);

  report::Table table(
      {"app", "spline vs shared", "linear vs shared", "spline vs linear"});
  for (const std::string& app : apps) {
    const auto& spline = batch.at(bench::arm_key(app, "model"));
    const auto& linear = batch.at(bench::arm_key(app, "linear_model"));
    const auto& shared = batch.at(bench::arm_key(app, "shared"));
    table.add_row({app, report::fmt_pct(sim::improvement(spline, shared), 1),
                   report::fmt_pct(sim::improvement(linear, shared), 1),
                   report::fmt_pct(sim::improvement(spline, linear), 1)});
  }
  table.print(std::cout);
  std::cout << "\n(paper: the fitting algorithm is interchangeable; both "
               "families should land close)\n";
  return bench::exit_status();
}
