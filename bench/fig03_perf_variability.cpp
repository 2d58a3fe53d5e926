// Fig 3: per-thread performance (inverse of execution time), normalized to
// the fastest thread, for all nine applications under a shared unpartitioned
// L2. The lowest bar per app is the critical-path thread.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner(
      "Fig 3: normalized per-thread performance (shared unpartitioned L2)",
      opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"shared"}, "fig03"), opt);

  std::vector<std::string> headers = {"app"};
  for (ThreadId t = 0; t < opt.threads; ++t) {
    headers.push_back("thread " + std::to_string(t + 1));
  }
  headers.push_back("critical");
  report::Table table(headers);

  for (const std::string& app : apps) {
    const sim::ExperimentResult& r = batch.at(bench::arm_key(app, "shared"));
    // Performance of a thread = 1 / execution (non-stall) cycles; all
    // threads retire equal work, so this is 1/exec_cycles up to a constant.
    std::vector<double> perf;
    double best = 0.0;
    for (const auto& tb : r.thread_totals) {
      perf.push_back(1.0 / static_cast<double>(tb.exec_cycles));
      best = std::max(best, perf.back());
    }
    std::vector<std::string> row = {app};
    std::size_t critical = 0;
    for (std::size_t t = 0; t < perf.size(); ++t) {
      row.push_back(report::fmt(perf[t] / best, 3));
      if (perf[t] < perf[critical]) critical = t;
    }
    row.push_back("thread " + std::to_string(critical + 1));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(paper: wide variability; the lowest bar per app "
               "determines application performance)\n";
  return bench::exit_status();
}
