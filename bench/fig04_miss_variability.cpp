// Fig 4: per-thread L2 misses, normalized to the thread with the most
// misses, for all nine applications under a shared unpartitioned L2.
// Mirrors Fig 3: slow threads are the high-miss threads.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner("Fig 4: normalized per-thread L2 misses (shared L2)", opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"shared"}, "fig04"), opt);

  std::vector<std::string> headers = {"app"};
  for (ThreadId t = 0; t < opt.threads; ++t) {
    headers.push_back("thread " + std::to_string(t + 1));
  }
  headers.push_back("max-miss thread");
  report::Table table(headers);

  for (const std::string& app : apps) {
    const sim::ExperimentResult& r = batch.at(bench::arm_key(app, "shared"));
    std::uint64_t most = 1;
    std::size_t most_idx = 0;
    for (std::size_t t = 0; t < r.thread_totals.size(); ++t) {
      if (r.thread_totals[t].l2_misses > most) {
        most = r.thread_totals[t].l2_misses;
        most_idx = t;
      }
    }
    std::vector<std::string> row = {app};
    for (const auto& tb : r.thread_totals) {
      row.push_back(report::fmt(
          static_cast<double>(tb.l2_misses) / static_cast<double>(most), 3));
    }
    row.push_back("thread " + std::to_string(most_idx + 1));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(paper: miss variability mirrors the performance "
               "variability of Fig 3)\n";
  return bench::exit_status();
}
