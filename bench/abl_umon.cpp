// Ablation: learned vs measured cache models. The paper's runtime *learns*
// CPI-vs-ways curves from the allocations it has visited (software only);
// the monitoring hardware of its refs [28]/[29] *measures* the whole
// miss-vs-ways curve every interval (shadow tags on sampled sets). Both
// drive the same critical-path objective here.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner(
      "Ablation: learned (model-based) vs measured (UMON) cache curves", opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"model", "umon", "shared"},
                           "abl_umon"),
      opt);

  report::Table table({"app", "model-based vs shared", "umon vs shared",
                       "umon vs model-based"});
  for (const std::string& app : apps) {
    const auto& model = batch.at(bench::arm_key(app, "model"));
    const auto& umon = batch.at(bench::arm_key(app, "umon"));
    const auto& shared = batch.at(bench::arm_key(app, "shared"));
    table.add_row({app, report::fmt_pct(sim::improvement(model, shared), 1),
                   report::fmt_pct(sim::improvement(umon, shared), 1),
                   report::fmt_pct(sim::improvement(umon, model), 1)});
  }
  table.print(std::cout);
  std::cout << "\n(measured curves need no exploration and see phase changes "
               "immediately; the software-only scheme needs none of the "
               "shadow-tag hardware — the gap is the price of staying "
               "software-only)\n";
  return bench::exit_status();
}
