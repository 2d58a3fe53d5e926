// Ablation: runtime overhead charge. The paper reports the dynamic scheme's
// overhead at under 1.5 % of execution time, included in all results. This
// sweep shows how the net gain decays as the per-interval repartition cost
// grows.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, {"cg", "mgrid"});
  bench::banner("Ablation: runtime repartition overhead sweep", opt);

  const auto overheads = {Cycles{0}, Cycles{800}, Cycles{2'000}, Cycles{5'000},
                          Cycles{20'000}};
  auto key = [](const std::string& app, Cycles overhead, const char* arm) {
    return app + "/oh" + std::to_string(overhead) + "/" + arm;
  };
  sim::ExperimentSpec spec;
  spec.name = "abl_overhead";
  for (const Cycles overhead : overheads) {
    for (const std::string& app : apps) {
      sim::ExperimentConfig cfg = bench::base_config(opt, app);
      cfg.runtime_overhead_cycles = overhead;
      spec.add(key(app, overhead, "model"), bench::model_arm(cfg));
      spec.add(key(app, overhead, "shared"), bench::shared_arm(cfg));
    }
  }
  const sim::BatchResult batch = bench::run_spec(spec, opt);

  report::Table table({"overhead cycles/interval", "overhead share",
                       "cg improvement vs shared",
                       "mgrid improvement vs shared"});
  for (const Cycles overhead : overheads) {
    std::vector<std::string> row = {std::to_string(overhead)};
    bool first = true;
    for (const std::string& app : apps) {
      const auto& dynamic = batch.at(key(app, overhead, "model"));
      const auto& shared = batch.at(key(app, overhead, "shared"));
      if (first) {
        const double share =
            static_cast<double>(overhead) * opt.intervals /
            static_cast<double>(dynamic.outcome.total_cycles);
        row.push_back(report::fmt_pct(share, 2));
        first = false;
      }
      row.push_back(report::fmt_pct(sim::improvement(dynamic, shared), 1));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(paper: overhead below 1.5% of execution time, already "
               "included in the reported gains)\n";
  return bench::exit_status();
}
