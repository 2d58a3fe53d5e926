// Ablation: shared-cache bandwidth. The paper's full-system simulation
// carries port contention implicitly; here it is explicit and tunable. As
// banks get scarcer, queueing at the shared cache grows and the partitioning
// gains shift: confining the polluter also relieves bank pressure for
// everyone, so the scheme's edge should hold or grow under contention.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, {"cg", "mgrid"});
  bench::banner("Ablation: shared-cache bank contention sweep", opt);

  sim::ExperimentSpec spec;
  spec.name = "abl_bandwidth";
  auto key = [](const std::string& app, std::uint32_t banks, const char* arm) {
    return app + "/banks" + std::to_string(banks) + "/" + arm;
  };
  for (const std::string& app : apps) {
    for (const std::uint32_t banks : {0u, 8u, 4u, 2u}) {
      sim::ExperimentConfig base = bench::base_config(opt, app);
      base.l2_banks = banks;
      spec.add(key(app, banks, "model"), bench::model_arm(base));
      spec.add(key(app, banks, "shared"), bench::shared_arm(base));
    }
  }
  const sim::BatchResult batch = bench::run_spec(spec, opt);

  report::Table table({"app", "banks", "model vs shared",
                       "model cycles", "shared cycles"});
  for (const std::string& app : apps) {
    for (const std::uint32_t banks : {0u, 8u, 4u, 2u}) {
      const auto& model = batch.at(key(app, banks, "model"));
      const auto& shared = batch.at(key(app, banks, "shared"));
      table.add_row({app, banks == 0 ? "inf" : std::to_string(banks),
                     report::fmt_pct(sim::improvement(model, shared), 1),
                     std::to_string(model.outcome.total_cycles),
                     std::to_string(shared.outcome.total_cycles)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(banks=inf reproduces the paper's infinite-bandwidth "
               "setup; fewer banks add queueing on top of capacity "
               "contention)\n";
  return bench::exit_status();
}
