// Ablation: partitioning mechanism — §V's way partitioning by eviction
// control vs set partitioning by OS page coloring (related work: Lin et al.,
// Zhang et al.). Both run the same model-based policy; the differences are
// structural: coloring keeps full associativity per thread but leaks through
// shared pages and pays a recoloring (stranded-lines) cost on every
// repartition, while way partitioning shares capacity gracefully and moves
// gradually for free.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner(
      "Ablation: way partitioning (paper §V) vs page-coloring set "
      "partitioning",
      opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"model", "coloring", "shared"},
                           "abl_mechanism"),
      opt);

  report::Table table({"app", "ways vs shared", "colors vs shared",
                       "ways vs colors"});
  for (const std::string& app : apps) {
    const auto& ways = batch.at(bench::arm_key(app, "model"));
    const auto& colors = batch.at(bench::arm_key(app, "coloring"));
    const auto& shared = batch.at(bench::arm_key(app, "shared"));
    table.add_row({app, report::fmt_pct(sim::improvement(ways, shared), 1),
                   report::fmt_pct(sim::improvement(colors, shared), 1),
                   report::fmt_pct(sim::improvement(ways, colors), 1)});
  }
  table.print(std::cout);
  std::cout << "\n(the paper chose way partitioning for its gradual, "
               "flush-free transitions; coloring pays for every repartition "
               "in stranded lines and leaks isolation through shared "
               "pages)\n";
  return bench::exit_status();
}
