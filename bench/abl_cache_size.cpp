// Ablation: total L2 size. The paper's §IV-A3 sensitivity study grows the
// cache from 32 KB to 1 MB by adding ways (sets fixed at 256). This sweep
// shows how the dynamic scheme's gain over shared/static-equal baselines
// varies with total capacity: small caches leave nothing to reallocate,
// very large caches fit everyone, and the gains peak in between.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, {"cg", "mgrid"});
  bench::banner("Ablation: total L2 ways (capacity) sweep", opt);

  sim::ExperimentSpec spec;
  spec.name = "abl_cache_size";
  auto key = [](const std::string& app, std::uint32_t ways, const char* arm) {
    return app + "/" + std::to_string(ways) + "w/" + arm;
  };
  for (const std::string& app : apps) {
    for (const std::uint32_t ways : {8u, 16u, 32u, 64u, 96u}) {
      sim::ExperimentConfig base = bench::base_config(opt, app);
      base.l2.ways = ways;
      spec.add(key(app, ways, "model"), bench::model_arm(base));
      spec.add(key(app, ways, "shared"), bench::shared_arm(base));
      spec.add(key(app, ways, "static_equal"), bench::static_equal_arm(base));
    }
  }
  const sim::BatchResult batch = bench::run_spec(spec, opt);

  report::Table table({"app", "L2 ways", "L2 size", "vs shared",
                       "vs static equal"});
  for (const std::string& app : apps) {
    for (const std::uint32_t ways : {8u, 16u, 32u, 64u, 96u}) {
      sim::ExperimentConfig base = bench::base_config(opt, app);
      base.l2.ways = ways;
      const auto& dynamic = batch.at(key(app, ways, "model"));
      const auto& shared = batch.at(key(app, ways, "shared"));
      const auto& equal = batch.at(key(app, ways, "static_equal"));
      table.add_row({app, std::to_string(ways),
                     std::to_string(base.l2.size_bytes() / 1024) + " KB",
                     report::fmt_pct(sim::improvement(dynamic, shared), 1),
                     report::fmt_pct(sim::improvement(dynamic, equal), 1)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(gains should peak where the critical thread's working "
               "set fits a large share but not an equal share)\n";
  return bench::exit_status();
}
