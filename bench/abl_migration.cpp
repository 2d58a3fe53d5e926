// Ablation: thread-migration resilience. Paper §VII: runs without pinning
// showed similar results; when migrations occurred, predictions were briefly
// suboptimal and the scheme "quickly adapted to the new thread-mapping".
// This bench injects core swaps mid-run and measures the residual gain.
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, {"cg", "mgrid", "equake"});
  bench::banner("Ablation: thread-migration resilience", opt);

  auto key = [](const std::string& app, int migrations, const char* arm) {
    return app + "/mig" + std::to_string(migrations) + "/" + arm;
  };
  sim::ExperimentSpec spec;
  spec.name = "abl_migration";
  for (const std::string& app : apps) {
    for (const int migrations : {0, 1, 3}) {
      sim::ExperimentConfig cfg = bench::model_arm(bench::base_config(opt, app));
      for (int m = 0; m < migrations; ++m) {
        // Spread swaps across the run; rotate the pairs involved.
        cfg.migrations.push_back(
            {.interval = (opt.intervals / 4) * static_cast<std::uint64_t>(m + 1),
             .a = static_cast<ThreadId>(m) % cfg.num_threads,
             .b = (static_cast<ThreadId>(m) + 1) % cfg.num_threads});
      }
      sim::ExperimentConfig shared_cfg = bench::shared_arm(bench::base_config(opt, app));
      shared_cfg.migrations = cfg.migrations;  // baseline migrates too
      spec.add(key(app, migrations, "model"), std::move(cfg));
      spec.add(key(app, migrations, "shared"), std::move(shared_cfg));
    }
  }
  const sim::BatchResult batch = bench::run_spec(spec, opt);

  report::Table table({"app", "migrations", "improvement vs shared"});
  for (const std::string& app : apps) {
    for (const int migrations : {0, 1, 3}) {
      const auto& dynamic = batch.at(key(app, migrations, "model"));
      const auto& shared = batch.at(key(app, migrations, "shared"));
      table.add_row({app, std::to_string(migrations),
                     report::fmt_pct(sim::improvement(dynamic, shared), 1)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(paper: the approach is quite resistant to thread "
               "migrations — gains should degrade only mildly)\n";
  return bench::exit_status();
}
