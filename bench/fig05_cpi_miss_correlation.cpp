// Fig 5: Pearson correlation between per-interval CPI and per-interval L2
// misses, per application (paper: strong linear dependence, average ~0.97).
// The correlation is computed per thread over the interval series and
// averaged across threads.
#include <iostream>

#include "bench_common.hpp"
#include "src/math/stats.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, trace::benchmark_names());
  bench::banner("Fig 5: correlation of interval CPI vs interval L2 misses",
                opt);

  const sim::BatchResult batch = bench::run_spec(
      bench::profile_sweep(opt, apps, {"shared"}, "fig05"), opt);

  report::Table table({"app", "correlation coefficient"});
  double total = 0.0;
  for (const std::string& app : apps) {
    const sim::ExperimentResult& r = batch.at(bench::arm_key(app, "shared"));
    double corr_sum = 0.0;
    int threads_counted = 0;
    for (ThreadId t = 0; t < opt.threads; ++t) {
      std::vector<double> cpis, misses;
      for (const auto& rec : r.intervals) {
        if (rec.threads[t].instructions == 0) continue;  // full-stall interval
        cpis.push_back(rec.threads[t].cpi());
        // Misses per instruction: interval instruction counts vary with
        // barrier stalls here (the paper's intervals are fixed-length per
        // thread), so raw counts would alias progress into the series.
        misses.push_back(static_cast<double>(rec.threads[t].l2_misses) /
                         static_cast<double>(rec.threads[t].instructions));
      }
      if (cpis.size() < 3) continue;
      corr_sum += math::pearson(cpis, misses);
      ++threads_counted;
    }
    const double corr = threads_counted > 0 ? corr_sum / threads_counted : 0.0;
    total += corr;
    table.add_row({app, report::fmt(corr, 3)});
  }
  table.add_row({"average",
                 report::fmt(total / static_cast<double>(apps.size()), 3)});
  table.print(std::cout);
  std::cout << "\n(paper: average correlation coefficient ~0.97)\n";
  return bench::exit_status();
}
