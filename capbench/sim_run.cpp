// `capbench_harness sim`: the simulator workloads' measured run.
//
// Set-up is timed several times: a cold spool build into an empty directory
// for figs-spooled, up front; otherwise the summed PreparedExperiment
// construction of every arm, before each measured pass, so its samples span
// the run as the passes do. Measured passes run the workload's arms through a
// BatchRunner of fixed width until --seconds have elapsed (at least three
// passes). Every pass must reproduce the first pass's per-arm digests; with
// --trace 1 a serial untraced pass and a traced pass follow, and the traced
// digests must match too. Prints one JSON object on stdout.
#include <algorithm>
#include <filesystem>
#include <iostream>

#include "harness.hpp"
#include "src/common/error.hpp"
#include "src/sim/trace_spool.hpp"
#include "src/trace/benchmarks.hpp"

namespace capbench {

using namespace capart;
namespace fs = std::filesystem;

namespace {

// A cold spool build takes about a second. Summed arm construction takes
// about a millisecond, within reach of a single preemption, so each of its
// samples sums every arm's fastest of several constructions. The host's
// speed drifts over seconds, so these samples are spread over the run.
constexpr int kSpoolSetupReps = 3;
constexpr int kPrepareRounds = 200;
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 200;

/// figs-spooled set-up: a cold resolve of every profile into `dir`.
double cold_spool_build(const Workload& w, const std::string& dir) {
  fs::create_directories(dir);
  const auto start = Clock::now();
  for (sim::ExperimentConfig cfg : spool_identities(w)) {
    cfg.trace_spool_dir = dir;
    (void)sim::spool_sources(cfg, per_thread_budget(cfg));
  }
  return seconds_since(start);
}

/// Live set-up: the summed construction time of every arm, each arm's the
/// minimum over kPrepareRounds rounds.
double summed_prepare(const Workload& w) {
  std::vector<double> fastest(w.arms.size(), 1e300);
  for (int round = 0; round < kPrepareRounds; ++round) {
    for (std::size_t i = 0; i < w.arms.size(); ++i) {
      const auto start = Clock::now();
      sim::PreparedExperiment prepared(w.arms[i].config);
      fastest[i] = std::min(fastest[i], seconds_since(start));
    }
  }
  double total = 0.0;
  for (double f : fastest) total += f;
  return total;
}

struct PassStats {
  double wall = 0.0;
  double cpu = 0.0;
  double serial = 0.0;
  std::uint64_t accesses = 0;
  std::vector<double> arm_walls;
};

}  // namespace

int run_digests_command(const std::map<std::string, std::string>& args) {
  const std::uint64_t seed = std::stoull(arg_or(args, "seed", "42"));
  const std::string workdir = arg_or(args, "workdir", "");
  if (workdir.empty()) throw Error("digests: --workdir is required");
  Workload w = make_workload(arg_or(args, "workload", ""), seed);
  const std::string spool_dir = workdir + "/spool_digests";
  if (w.spooled) {
    cold_spool_build(w, spool_dir);
    for (sim::ExperimentArm& arm : w.arms) {
      arm.config.trace_spool_dir = spool_dir;
    }
  }
  sim::ExperimentSpec spec;
  spec.name = w.name;
  spec.arms = w.arms;
  const sim::BatchResult batch =
      sim::BatchRunner(w.jobs, sim::BatchPolicy{}).run(spec);
  obs::JsonWriter out;
  out.begin_object().key("digests").begin_object();
  for (const sim::ArmOutcome& arm : batch.arms) {
    out.key(arm.name).value(arm.ok() ? hex64(result_digest(arm.result))
                                     : "failed: " + arm.error);
  }
  out.end_object().end_object();
  std::cout << out.str() << std::endl;
  fs::remove_all(spool_dir);
  return 0;
}

int run_sim_command(const std::map<std::string, std::string>& args) {
  const std::string name = arg_or(args, "workload", "");
  const std::uint64_t seed = std::stoull(arg_or(args, "seed", "42"));
  const double seconds = std::stod(arg_or(args, "seconds", "10"));
  const bool traced = arg_or(args, "trace", "0") == "1";
  const std::string workdir = arg_or(args, "workdir", "");
  if (workdir.empty()) throw Error("sim: --workdir is required");
  fs::create_directories(workdir);

  Workload w = make_workload(name, seed);
  std::vector<std::string> errors;

  // Set-up, timed several times; the median is the reported setup_s.
  std::vector<double> setup_samples;
  std::string spool_dir;
  for (int rep = 0; w.spooled && rep < kSpoolSetupReps; ++rep) {
    const std::string dir = workdir + "/spool_setup_" + std::to_string(rep);
    setup_samples.push_back(cold_spool_build(w, dir));
    if (!spool_dir.empty()) fs::remove_all(spool_dir);
    spool_dir = dir;
  }
  for (sim::ExperimentArm& arm : w.arms) arm.config.trace_spool_dir = spool_dir;

  sim::ExperimentSpec spec;
  spec.name = w.name;
  spec.arms = w.arms;
  const sim::BatchRunner runner(w.jobs, sim::BatchPolicy{});

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> digests;
  // Records one batch's digests; the first batch defines them, every later
  // one must reproduce them exactly.
  auto check_batch = [&](const sim::BatchResult& batch, const char* what) {
    for (const sim::ArmOutcome& arm : batch.arms) {
      ++attempted;
      if (!arm.ok()) {
        ++failed;
        errors.push_back(std::string(what) + ": arm " + arm.name +
                         " failed: " + arm.error);
        continue;
      }
      const std::uint64_t d = result_digest(arm.result);
      const auto [it, fresh] = digests.emplace(arm.name, d);
      if (!fresh && it->second != d) {
        ++failed;
        errors.push_back(std::string(what) + ": arm " + arm.name +
                         " digest " + hex64(d) + " != " + hex64(it->second));
      }
    }
  };

  // One warm-up pass (spool pages, allocator, branch predictors), unmeasured
  // but digest-checked; then the measured passes.
  check_batch(runner.run(spec), "warm-up pass");
  std::vector<PassStats> passes;
  sim::BatchResult first_measured;
  const auto measure_start = Clock::now();
  while (passes.size() < static_cast<std::size_t>(kMaxPasses) &&
         (passes.size() < static_cast<std::size_t>(kMinPasses) ||
          seconds_since(measure_start) < seconds)) {
    if (!w.spooled) setup_samples.push_back(summed_prepare(w));
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    sim::BatchResult batch = runner.run(spec);
    PassStats p;
    p.wall = seconds_since(start);
    p.cpu = process_cpu_seconds() - cpu0;
    p.serial = batch.serial_seconds();
    for (const sim::ArmOutcome& arm : batch.arms) {
      p.arm_walls.push_back(arm.wall_seconds);
      if (arm.ok()) p.accesses += arm.result.l2_stats.total().accesses;
    }
    check_batch(batch, "measured pass");
    if (passes.empty()) first_measured = std::move(batch);
    passes.push_back(std::move(p));
  }

  // The spool fast path against its oracle: one arm, chosen by the seed,
  // re-run on live generators must reproduce its spooled digest.
  std::string cross_check;
  if (w.spooled) {
    sim::ExperimentArm arm = w.arms[seed % w.arms.size()];
    arm.config.trace_spool_dir.clear();
    ++attempted;
    const std::uint64_t live = result_digest(sim::run_experiment(arm.config));
    cross_check = arm.name;
    if (digests.count(arm.name) == 0 || digests[arm.name] != live) {
      ++failed;
      errors.push_back("live re-run of " + arm.name + " digest " +
                       hex64(live) + " does not match the spooled run");
    }
  }

  // Per-pass figures; the reported numbers are medians over passes.
  std::vector<double> rates, cpus, walls, serial_over_wall, all_arm_walls,
      max_arm_walls;
  std::map<std::string, std::vector<double>> per_arm_walls;
  for (const PassStats& p : passes) {
    rates.push_back(static_cast<double>(p.accesses) / p.wall);
    cpus.push_back(p.cpu);
    walls.push_back(p.wall);
    serial_over_wall.push_back(p.serial / p.wall);
    all_arm_walls.insert(all_arm_walls.end(), p.arm_walls.begin(),
                         p.arm_walls.end());
    max_arm_walls.push_back(quantile(p.arm_walls, 1.0));
    for (std::size_t i = 0; i < p.arm_walls.size(); ++i) {
      per_arm_walls[w.arms[i].name].push_back(p.arm_walls[i]);
    }
  }
  // The slowest arm, by its median over passes.
  double slowest_arm = 0.0;
  std::string slowest_name;
  for (const auto& [arm_name, samples] : per_arm_walls) {
    const double m = median(samples);
    if (m > slowest_arm) {
      slowest_arm = m;
      slowest_name = arm_name;
    }
  }

  // Simulated result (deterministic): the mean improvement of the model arm
  // over the shared arm across profiles, when the workload has both.
  double gain_sum = 0.0;
  int gain_n = 0;
  if (first_measured.all_ok()) {
    for (const std::string& profile : trace::benchmark_names()) {
      const std::string model = profile + "/model";
      const std::string shared = profile + "/shared";
      if (spec.contains(model) && spec.contains(shared)) {
        gain_sum += sim::improvement(first_measured.at(model),
                                     first_measured.at(shared));
        ++gain_n;
      }
    }
  }

  obs::JsonWriter out;
  out.begin_object();
  out.key("workload").value(w.name);
  out.key("seed").value(seed);
  out.key("arms").value(w.arms.size());
  out.key("jobs").value(w.jobs);
  out.key("passes").value(passes.size());
  out.key("setup_samples_s").begin_array();
  for (double s : setup_samples) out.value(s);
  out.end_array();
  out.key("setup_s").value(median(setup_samples));
  out.key("shared_accesses_per_s").value(median(rates));
  out.key("cpu_s").value(median(cpus));
  out.key("pass_wall_s").value(median(walls));
  out.key("arm_wall_p50_s").value(median(all_arm_walls));
  out.key("arm_wall_max_s").value(median(max_arm_walls));
  out.key("slowest_arm").value(slowest_name);
  out.key("slowest_arm_wall_s").value(slowest_arm);
  out.key("serial_over_wall").value(median(serial_over_wall));
  out.key("pass_accesses_per_s").begin_array();
  for (double r : rates) out.value(r);
  out.end_array();
  out.key("accesses_per_pass").value(
      passes.empty() ? 0 : passes.front().accesses);
  if (gain_n > 0) {
    out.key("sim_gain_model_vs_shared_pct")
        .value(100.0 * gain_sum / gain_n);
  }
  out.key("cross_check_arm").value(cross_check);

  if (traced) {
    // Serial untraced reference for the tracing overhead, then the traced
    // pass; both must reproduce the digests.
    const sim::BatchRunner serial(1, sim::BatchPolicy{});
    const sim::BatchResult reference = serial.run(spec);
    check_batch(reference, "serial reference pass");
    TracedPass tp = run_traced_pass(w, workdir);
    attempted += w.arms.size();
    failed += tp.failed_arms;
    for (const auto& [arm_name, d] : tp.digests) {
      if (digests.count(arm_name) == 0 || digests[arm_name] != d) {
        ++failed;
        errors.push_back("traced pass: arm " + arm_name + " digest " +
                         hex64(d) + " does not match the untraced run");
      }
    }
    tp.metrics["obs.trace_overhead_frac"] =
        tp.serial_seconds / reference.serial_seconds() - 1.0;
    out.key("layers").begin_object();
    for (const auto& [metric, value] : tp.metrics) out.key(metric).value(value);
    out.end_object();
    out.key("notes").begin_array();
    for (const std::string& note : tp.notes) out.value(note);
    out.end_array();
  }

  out.key("digests").begin_object();
  for (const auto& [arm_name, d] : digests) out.key(arm_name).value(hex64(d));
  out.end_object();
  out.key("peak_rss_mb").value(peak_rss_mb());
  out.key("attempted").value(attempted);
  out.key("failed").value(failed);
  out.key("errors").begin_array();
  for (const std::string& e : errors) out.value(e);
  out.end_array();
  out.end_object();
  std::cout << out.str() << std::endl;

  // The run's own spool goes with it.
  if (!spool_dir.empty()) fs::remove_all(spool_dir);
  return 0;
}

}  // namespace capbench
