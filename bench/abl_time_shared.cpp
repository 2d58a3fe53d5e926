// Ablation: the fairness/QoS comparator — a Chang & Sohi-style time-shared
// partition where a rotating thread holds a large share for a fixed quantum
// (paper §II/§IV-B). Fair time-averaged allocations do not target the
// critical path, so the model-based scheme should win.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner("Ablation: model-based vs time-shared (fairness) partitioning",
                opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps,
                           {"model", "time_shared", "fair", "static_equal"},
                           "abl_time_shared"),
      opt);

  report::Table table({"app", "model vs time-shared",
                       "model vs fair-slowdown",
                       "time-shared vs static equal"});
  for (const std::string& app : apps) {
    const auto& model = batch.at(bench::arm_key(app, "model"));
    const auto& shared_time = batch.at(bench::arm_key(app, "time_shared"));
    const auto& fair = batch.at(bench::arm_key(app, "fair"));
    const auto& equal = batch.at(bench::arm_key(app, "static_equal"));
    table.add_row(
        {app, report::fmt_pct(sim::improvement(model, shared_time), 1),
         report::fmt_pct(sim::improvement(model, fair), 1),
         report::fmt_pct(sim::improvement(shared_time, equal), 1)});
  }
  table.print(std::cout);
  std::cout << "\n(time sharing gives every thread the big partition in "
               "turn; only the critical thread's turns help the application, "
               "so the targeted scheme wins)\n";
  return bench::exit_status();
}
