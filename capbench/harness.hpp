// Shared pieces of the capbench harness: workload definitions, the result
// digest, small statistics and timing helpers. See capbench/README.md for
// what each workload stresses and how to read the output.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/experiment.hpp"

namespace capbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process CPU seconds (user + system) consumed so far.
double process_cpu_seconds();

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb();

/// Sorted-copy quantile with linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// A named benchmark workload: the arms it simulates and how it runs them.
struct Workload {
  std::string name;
  std::vector<capart::sim::ExperimentArm> arms;
  /// Arms replay a resolved-trace spool (figs-spooled only).
  bool spooled = false;
  /// BatchRunner width of a measured pass.
  unsigned jobs = 1;
};

/// The simulator-side definition of `name` ("figs-spooled", "zoo-live" or
/// "serve-mixed"; the latter are the configs its HTTP requests carry) for
/// workload seed `seed`. Throws capart::Error on an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed);

/// The hot (repeated) and cold (unique) request configs of serve-mixed.
std::vector<capart::sim::ExperimentConfig> serve_hot_configs(
    std::uint64_t seed);
capart::sim::ExperimentConfig serve_cold_config(std::uint64_t seed,
                                                std::uint64_t index);

/// Per-thread instruction budget of an arm (what the driver and the spool
/// resolve pass give each thread).
capart::Instructions per_thread_budget(
    const capart::sim::ExperimentConfig& config);

/// One config per distinct resolved-trace spool identity among the arms.
std::vector<capart::sim::ExperimentConfig> spool_identities(
    const Workload& workload);

/// FNV-1a 64 over every interval's per-thread counters and way targets,
/// then the run's total cycles — the identity of a simulated result.
std::uint64_t result_digest(const capart::sim::ExperimentResult& result);
std::string hex64(std::uint64_t value);

/// Builds `{"name":..., "config": <config>}`, the body of a POST /run.
std::string spec_body(const std::string& name,
                      const capart::sim::ExperimentConfig& config);

/// Command entry points, given the parsed `--key value` arguments.
int run_sim_command(const std::map<std::string, std::string>& args);
int run_load_command(const std::map<std::string, std::string>& args);
/// Runs a workload's arms once and prints their digests (the golden check).
int run_digests_command(const std::map<std::string, std::string>& args);

/// Result of the traced pass over a workload (layers.cpp): per-layer
/// metrics by name, the traced arms' digests, human-readable notes, and the
/// traced serial seconds (every arm's prepare + advance + finalize).
struct TracedPass {
  std::map<std::string, double> metrics;
  std::map<std::string, std::uint64_t> digests;
  std::vector<std::string> notes;
  double serial_seconds = 0.0;
  std::uint64_t failed_arms = 0;
};
TracedPass run_traced_pass(const Workload& workload,
                           const std::string& workdir);

/// Parses argument pairs `--key value` into a map; throws on a dangling key.
std::map<std::string, std::string> parse_args(int argc, char** argv,
                                              int first);
std::string arg_or(const std::map<std::string, std::string>& args,
                   const std::string& key, const std::string& fallback);

}  // namespace capbench
