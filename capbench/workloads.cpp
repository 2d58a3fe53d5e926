#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "harness.hpp"
#include "src/common/error.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/serve/spec_json.hpp"
#include "src/sim/trace_spool.hpp"
#include "src/trace/benchmarks.hpp"

namespace capbench {

using namespace capart;

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

// Sizes, scaled down from the benches' 40 intervals so that one measured
// pass takes one to three seconds on a 4-CPU x86 host and a 20-second run
// holds several passes. README.md says why each workload has its arm mix.
constexpr std::uint32_t kFigsIntervals = 10;
constexpr capart::ThreadId kFigsThreads = 4;
constexpr std::uint32_t kZooIntervals = 6;
constexpr capart::Instructions kZooIntervalInstructions = 480'000;
constexpr capart::ThreadId kZooThreads = 16;
constexpr std::uint32_t kZooBanks = 8;
constexpr std::uint32_t kServeHotIntervals = 8;
constexpr std::uint32_t kServeColdIntervals = 2;
// Served specs use short intervals (capart_load's size), so a cold request
// costs milliseconds and the daemon's own layers are a visible share.
constexpr capart::Instructions kServeIntervalInstructions = 60'000;

sim::ExperimentConfig base_config(const std::string& profile,
                                  ThreadId threads, std::uint32_t intervals,
                                  std::uint64_t seed) {
  sim::ExperimentConfig cfg;
  cfg.profile = profile;
  cfg.num_threads = threads;
  cfg.num_intervals = intervals;
  cfg.interval_instructions = 60'000ULL * threads;  // the benches' default
  cfg.seed = seed;
  return cfg;
}

sim::ExperimentConfig partitioned(sim::ExperimentConfig cfg,
                                  std::string policy) {
  cfg.l2_mode = mem::L2Mode::kPartitionedShared;
  cfg.policy = std::move(policy);
  return cfg;
}

sim::ExperimentConfig shared(sim::ExperimentConfig cfg) {
  cfg.l2_mode = mem::L2Mode::kSharedUnpartitioned;
  cfg.policy = std::string(core::kNoPolicyName);
  return cfg;
}

unsigned batch_width() {
  // Fixed at two workers, never more than the host has.
  return std::min(2u, sim::default_jobs());
}

/// splitmix64's finalizer: spreads (seed, request index) over the seed space.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<sim::ExperimentConfig> serve_hot_configs(std::uint64_t seed) {
  std::vector<sim::ExperimentConfig> hot;
  for (const char* profile : {"cg", "mg", "swim", "equake"}) {
    sim::ExperimentConfig cfg =
        base_config(profile, 4, kServeHotIntervals, seed);
    cfg.interval_instructions = kServeIntervalInstructions;
    hot.push_back(partitioned(cfg, "model-based"));
  }
  return hot;
}

sim::ExperimentConfig serve_cold_config(std::uint64_t seed,
                                        std::uint64_t index) {
  const std::vector<std::string>& names = trace::benchmark_names();
  const std::string& profile = names[index % names.size()];
  // Unique per (run seed, request): the daemon must execute every one.
  const std::uint64_t request_seed = mix64(seed * 1'000'003ULL + index) >> 16;
  sim::ExperimentConfig cfg =
      base_config(profile, 4, kServeColdIntervals, request_seed);
  cfg.interval_instructions = kServeIntervalInstructions;
  return partitioned(cfg, "model-based");
}

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.jobs = batch_width();
  if (name == "figs-spooled") {
    // The fig 19-21 arm union: every profile x {model, static_equal,
    // shared, throughput}, 4 simulated threads, warm resolved-trace spool.
    w.spooled = true;
    for (const std::string& profile : trace::benchmark_names()) {
      const sim::ExperimentConfig base =
          base_config(profile, kFigsThreads, kFigsIntervals, seed);
      w.arms.push_back({profile + "/model", partitioned(base, "model-based")});
      w.arms.push_back(
          {profile + "/static_equal", partitioned(base, "static-equal")});
      w.arms.push_back({profile + "/shared", shared(base)});
      w.arms.push_back(
          {profile + "/throughput", partitioned(base, "throughput-oriented")});
    }
  } else if (name == "zoo-live") {
    // Live generators, 16 threads (heap scheduler), banked shared L2, and
    // the dynamic registry partitioners the figure set never runs.
    for (const char* profile : {"cg", "equake"}) {
      sim::ExperimentConfig base =
          base_config(profile, kZooThreads, kZooIntervals, seed);
      base.interval_instructions = kZooIntervalInstructions;
      base.l2_banks = kZooBanks;
      for (const char* policy : {"ucp-lookahead", "umon-critical-path",
                                 "lfoc-classing", "reuse-aware"}) {
        w.arms.push_back(
            {std::string(profile) + "/" + policy, partitioned(base, policy)});
      }
    }
  } else if (name == "serve-mixed") {
    // The configs serve-mixed requests carry: the hot set plus the first
    // cold requests (the traced run measures the simulator layers on them).
    const std::vector<sim::ExperimentConfig> hot = serve_hot_configs(seed);
    for (std::size_t i = 0; i < hot.size(); ++i) {
      w.arms.push_back({"hot" + std::to_string(i) + "/" + hot[i].profile,
                        hot[i]});
    }
    for (std::uint64_t i = 0; i < 8; ++i) {
      const sim::ExperimentConfig cold = serve_cold_config(seed, i);
      w.arms.push_back(
          {"cold" + std::to_string(i) + "/" + cold.profile, cold});
    }
  } else {
    throw Error("unknown workload '" + std::string(name) + "'");
  }
  return w;
}

Instructions per_thread_budget(const sim::ExperimentConfig& config) {
  return config.interval_instructions * config.num_intervals /
         config.num_threads;
}

std::vector<sim::ExperimentConfig> spool_identities(const Workload& workload) {
  std::vector<sim::ExperimentConfig> out;
  std::set<std::string> seen;
  for (const sim::ExperimentArm& arm : workload.arms) {
    if (seen.insert(sim::spool_key(arm.config,
                                   per_thread_budget(arm.config), 0))
            .second) {
      out.push_back(arm.config);
    }
  }
  return out;
}

std::uint64_t result_digest(const sim::ExperimentResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const sim::IntervalRecord& rec : result.intervals) {
    feed(rec.index);
    for (const sim::ThreadIntervalRecord& t : rec.threads) {
      feed(t.instructions);
      feed(t.exec_cycles);
      feed(t.stall_cycles);
      feed(t.l1_misses);
      feed(t.l2_accesses);
      feed(t.l2_hits);
      feed(t.l2_misses);
      feed(t.ways);
    }
  }
  feed(result.outcome.total_cycles);
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string spec_body(const std::string& name,
                      const sim::ExperimentConfig& config) {
  obs::JsonWriter w;
  w.begin_object().key("name").value(name).key("config").raw(
      serve::config_to_json(config));
  w.end_object();
  return w.str();
}

std::map<std::string, std::string> parse_args(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> args;
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw Error("expected --key value pairs, got '" + key + "'");
    }
    args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::string arg_or(const std::map<std::string, std::string>& args,
                   const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

}  // namespace capbench
