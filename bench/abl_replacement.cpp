// Ablation: does intra-application partitioning survive realistic
// replacement? The paper's §V mechanism assumes a true-LRU 64-way L2 —
// realistic in Simics, but no shipping CMP implements true LRU at that
// associativity. This bench reruns the fig19/20/21 comparisons (model-based
// dynamic partitioning vs the private, shared and throughput-oriented
// baselines, plus the static equal split) under each replacement policy the
// unified cache core offers: true LRU, tree-PLRU and SRRIP.
//
// Arms are keyed "profile/arm@repl" so one batch carries the full
// policy x organization x profile cross product; @ stays file-name-safe for
// the per-arm CSV/trace outputs.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/mem/replacement.hpp"
#include "src/report/table.hpp"
#include "src/trace/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace capart;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::banner(
      "Ablation: partitioning gains under LRU / tree-PLRU / SRRIP replacement",
      opt);

  const std::vector<std::string> arms = {"shared", "private", "static_equal",
                                         "model", "throughput"};
  const auto profiles = bench::profiles_or(opt, trace::benchmark_names());

  sim::ExperimentSpec spec;
  spec.name = "abl_replacement";
  for (const mem::ReplacementKind repl : mem::kAllReplacementKinds) {
    for (const std::string& profile : profiles) {
      for (const std::string& arm : arms) {
        sim::ExperimentConfig cfg =
            bench::make_arm(arm, bench::base_config(opt, profile));
        cfg.l2.repl = repl;
        spec.add(bench::arm_key(profile, arm) + "@" +
                     std::string(mem::to_string(repl)),
                 std::move(cfg));
      }
    }
  }
  const sim::BatchResult batch = bench::run_spec(spec, opt);

  const auto at = [&](const std::string& profile, const std::string& arm,
                      mem::ReplacementKind repl) -> const auto& {
    return batch.at(bench::arm_key(profile, arm) + "@" +
                    std::string(mem::to_string(repl)));
  };

  for (const mem::ReplacementKind repl : mem::kAllReplacementKinds) {
    report::Table table(
        {"app", "vs shared", "vs static_equal", "vs throughput"});
    double vs_shared = 0.0, vs_static = 0.0, vs_throughput = 0.0;
    for (const std::string& app : profiles) {
      const auto& model = at(app, "model", repl);
      const double s = sim::improvement(model, at(app, "shared", repl));
      const double e = sim::improvement(model, at(app, "static_equal", repl));
      const double t = sim::improvement(model, at(app, "throughput", repl));
      vs_shared += s;
      vs_static += e;
      vs_throughput += t;
      table.add_row({app, report::fmt_pct(s, 1), report::fmt_pct(e, 1),
                     report::fmt_pct(t, 1)});
    }
    const double n = static_cast<double>(profiles.size());
    table.add_row({"average", report::fmt_pct(vs_shared / n, 1),
                   report::fmt_pct(vs_static / n, 1),
                   report::fmt_pct(vs_throughput / n, 1)});
    std::cout << "== model-based dynamic partitioning under "
              << mem::to_string(repl) << " ==\n";
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "(paper figs 19-21 assume true LRU; the plru/srrip sections "
               "test whether the\n partitioning gains persist under the "
               "replacement policies hardware ships)\n";
  return bench::exit_status();
}
