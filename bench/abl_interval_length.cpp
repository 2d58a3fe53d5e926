// Ablation: sensitivity to the execution-interval length. The paper used
// 15 M instructions and reports "little variation across the results when
// the execution interval was either increased or decreased" (§VII).
#include <iostream>

#include "bench_common.hpp"
#include "src/report/table.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const auto apps = bench::profiles_or(opt, {"cg", "swim", "mgrid"});
  bench::banner("Ablation: execution-interval length sensitivity", opt);

  const Instructions base_len = bench::resolved_interval_instructions(opt);
  auto scaled = [&](const std::string& app, double scale) {
    sim::ExperimentConfig cfg = bench::base_config(opt, app);
    cfg.interval_instructions =
        static_cast<Instructions>(static_cast<double>(base_len) * scale);
    // Hold total work constant so runs stay comparable.
    cfg.num_intervals = static_cast<std::uint32_t>(
        static_cast<double>(opt.intervals) / scale);
    return cfg;
  };
  auto key = [&](const std::string& app, double scale, const char* arm) {
    return app + "/" +
           std::to_string(scaled(app, scale).interval_instructions) + "i/" +
           arm;
  };

  sim::ExperimentSpec spec;
  spec.name = "abl_interval_length";
  for (const std::string& app : apps) {
    for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
      const sim::ExperimentConfig cfg = scaled(app, scale);
      spec.add(key(app, scale, "model"), bench::model_arm(cfg));
      spec.add(key(app, scale, "shared"), bench::shared_arm(cfg));
    }
  }
  const sim::BatchResult batch = bench::run_spec(spec, opt);

  report::Table table({"app", "interval instr", "improvement vs shared"});
  for (const std::string& app : apps) {
    for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
      const auto& dynamic = batch.at(key(app, scale, "model"));
      const auto& shared = batch.at(key(app, scale, "shared"));
      table.add_row(
          {app, std::to_string(scaled(app, scale).interval_instructions),
           report::fmt_pct(sim::improvement(dynamic, shared), 1)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(paper: little variation when the interval is increased "
               "or decreased)\n";
  return bench::exit_status();
}
