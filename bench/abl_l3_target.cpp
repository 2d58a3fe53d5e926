// Ablation: targeting a shared L3 instead of a shared L2. Paper footnote 1:
// "A number of commercial CMPs such as Intel Dunnington have a shared L3
// cache as well. Our work can target any shared cache component in the
// chip." This configuration inserts 64 KB private per-core L2s between the
// L1s and the shared 1 MB cache (now an L3 with a higher hit latency) and
// re-runs the headline comparison there.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

namespace {

capart::sim::ExperimentConfig three_level(capart::sim::ExperimentConfig cfg) {
  cfg.enable_private_l2 = true;
  cfg.timing.l2_hit_penalty = 25;  // L3 is farther than the paper's L2
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner(
      "Ablation: partitioning a shared L3 behind private per-core L2s", opt);

  sim::ExperimentSpec spec;
  spec.name = "abl_l3_target";
  for (const std::string& app : apps) {
    const sim::ExperimentConfig base =
        three_level(bench::base_config(opt, app));
    spec.add(bench::arm_key(app, "model"), bench::model_arm(base));
    spec.add(bench::arm_key(app, "shared"), bench::shared_arm(base));
    spec.add(bench::arm_key(app, "static_equal"),
             bench::static_equal_arm(base));
  }
  const sim::BatchResult batch = bench::run_spec(spec, opt);

  report::Table table({"app", "vs shared L3", "vs static-equal L3"});
  double total_shared = 0.0, total_equal = 0.0;
  for (const std::string& app : apps) {
    const auto& dynamic = batch.at(bench::arm_key(app, "model"));
    const auto& shared = batch.at(bench::arm_key(app, "shared"));
    const auto& equal = batch.at(bench::arm_key(app, "static_equal"));
    const double is = sim::improvement(dynamic, shared);
    const double ie = sim::improvement(dynamic, equal);
    total_shared += is;
    total_equal += ie;
    table.add_row({app, report::fmt_pct(is, 1), report::fmt_pct(ie, 1)});
  }
  const auto n = static_cast<double>(apps.size());
  table.add_row({"average", report::fmt_pct(total_shared / n, 1),
                 report::fmt_pct(total_equal / n, 1)});
  table.print(std::cout);
  std::cout << "\n(the private L2s filter locality, so absolute gains "
               "shrink, but the critical-path scheme still wins at the "
               "shared L3)\n";
  return bench::exit_status();
}
