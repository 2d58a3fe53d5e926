// The traced pass: per-layer metrics measured from outside the program, by
// timing calls into each layer's public functions on the workload's own
// inputs. Nothing here changes what the simulator computes — the decorators
// forward every op unchanged and the sink only reads events — and the
// caller checks that the traced digests equal the untraced ones.
//
//   trace        live PhasedGenerator::fill, through a counting decorator
//   sim.trace_spool  cold spool_sources, replay fill through the decorator
//   sim.experiment   PreparedExperiment construct / advance / finalize
//   sim.driver       ops per shared access, residual self time, obs counters
//   mem              the resolved shared-access stream into make_l2()
//   mem.utility_monitor  the same stream into UtilityMonitor::observe
//   core             EventSink stamps on_interval -> on_repartition
//   serve            parse_spec_request on the workload's request bodies
//
// The layer a workload's arms do not run (the spool for live workloads,
// live generation for the spooled one) is measured standalone on the same
// streams, so every workload reports every layer.
#include <filesystem>
#include <memory>

#include "harness.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/mem/l2_organization.hpp"
#include "src/mem/utility_monitor.hpp"
#include "src/obs/events.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/spec_json.hpp"
#include "src/sim/trace_spool.hpp"
#include "src/trace/benchmarks.hpp"
#include "src/trace/phase.hpp"
#include "src/trace/trace_io.hpp"

namespace capbench {

using namespace capart;
namespace fs = std::filesystem;

namespace {

/// Time and op counts of one layer's fill calls.
struct FillStats {
  double seconds = 0.0;
  std::uint64_t pulled = 0;
  /// Ops the driver executes: pulled while the thread's cumulative
  /// instructions were still under its budget (the resolve pass's rule);
  /// excludes the ring buffer's read-ahead past the end of a live stream.
  std::uint64_t executed = 0;
};

/// Forwards every op of `inner` unchanged, timing each fill().
class CountingSource final : public trace::OpSource {
 public:
  CountingSource(std::unique_ptr<trace::OpSource> inner, Instructions budget,
                 FillStats& stats)
      : inner_(std::move(inner)), budget_(budget), stats_(stats) {}

  trace::NextOp next() override {
    trace::NextOp op;
    fill(&op, 1);
    return op;
  }

  std::size_t fill(trace::NextOp* out, std::size_t n) override {
    const auto start = Clock::now();
    const std::size_t got = inner_->fill(out, n);
    stats_.seconds += seconds_since(start);
    stats_.pulled += got;
    for (std::size_t i = 0; i < got; ++i) {
      if (cum_ < budget_) ++stats_.executed;
      cum_ += out[i].gap + 1;
    }
    return got;
  }

 private:
  std::unique_ptr<trace::OpSource> inner_;
  Instructions budget_;
  Instructions cum_ = 0;
  FillStats& stats_;
};

/// Live generators exactly as PreparedExperiment builds them.
std::vector<std::unique_ptr<trace::OpSource>> live_sources(
    const sim::ExperimentConfig& cfg) {
  const trace::BenchmarkProfile profile =
      trace::make_profile(cfg.profile, cfg.num_threads);
  const Rng root(cfg.seed);
  std::vector<std::unique_ptr<trace::OpSource>> out;
  for (ThreadId t = 0; t < cfg.num_threads; ++t) {
    out.push_back(std::make_unique<trace::PhasedGenerator>(
        trace::PhaseSchedule(profile.threads[t].phases), root.fork(t),
        sim::private_region_base(t), sim::shared_region_base()));
  }
  return out;
}

/// Stamps on_interval -> on_repartition: the policy decision of one
/// interval boundary (runtime bookkeeping between the two included).
class TimingSink final : public obs::EventSink {
 public:
  void on_manifest(const obs::ManifestEvent&) override {}
  void on_interval(const obs::IntervalEvent&) override {
    interval_at_ = Clock::now();
  }
  void on_repartition(const obs::RepartitionEvent& event) override {
    const double s = seconds_since(interval_at_);
    samples_[event.policy].push_back(s);
    total_ += s;
  }
  void on_barrier_stall(const obs::BarrierStallEvent&) override {}
  void on_migration(const obs::ThreadMigrationEvent&) override {}
  void on_run_end(const obs::RunEndEvent&) override {}

  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }
  double total_seconds() const { return total_; }

 private:
  Clock::time_point interval_at_{};
  std::map<std::string, std::vector<double>> samples_;
  double total_ = 0.0;
};

struct SharedAccess {
  ThreadId thread;
  Addr addr;
  AccessType type;
};

/// The shared-level accesses of one resolved identity, in thread
/// round-robin order (not the simulator's min-clock order).
std::vector<SharedAccess> shared_stream(
    const std::vector<std::unique_ptr<trace::MmapTraceFile>>& files) {
  std::vector<std::vector<SharedAccess>> per_thread(files.size());
  for (std::size_t t = 0; t < files.size(); ++t) {
    for (const trace::PackedOp& packed : files[t]->ops()) {
      const trace::NextOp op = trace::unpack_op(packed);
      if (op.resolved == trace::ResolvedLevel::kShared) {
        per_thread[t].push_back(
            {static_cast<ThreadId>(t), op.addr, op.type});
      }
    }
  }
  std::vector<SharedAccess> out;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& stream : per_thread) {
      if (i < stream.size()) {
        out.push_back(stream[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

}  // namespace

TracedPass run_traced_pass(const Workload& workload,
                           const std::string& workdir) {
  TracedPass tp;
  auto& m = tp.metrics;

  // --- sim.trace_spool: cold resolve of every identity into a fresh dir.
  const std::string dir = workdir + "/traced_spool";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<sim::ExperimentConfig> identities = spool_identities(workload);
  for (sim::ExperimentConfig& cfg : identities) cfg.trace_spool_dir = dir;
  const auto resolve_start = Clock::now();
  for (const sim::ExperimentConfig& cfg : identities) {
    (void)sim::spool_sources(cfg, per_thread_budget(cfg));
  }
  m["spool.resolve_s"] = seconds_since(resolve_start);
  std::uint64_t bytes = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  m["spool.bytes"] = static_cast<double>(bytes);

  // --- The arms, serially, with decorated sources, the timing sink and a
  // metrics registry attached.
  FillStats fill;
  TimingSink sink;
  obs::MetricsRegistry registry;
  std::vector<double> prepare_s, finalize_s;
  double advance_s = 0.0;
  std::uint64_t shared_accesses = 0;
  std::uint64_t l2_hits = 0;
  for (const sim::ExperimentArm& arm : workload.arms) {
    sim::ExperimentConfig cfg = arm.config;
    if (workload.spooled) cfg.trace_spool_dir = dir;
    cfg.obs.sink = &sink;
    cfg.obs.metrics = &registry;
    cfg.obs.run_name = arm.name;
    const Instructions budget = per_thread_budget(cfg);
    try {
      std::vector<std::unique_ptr<trace::OpSource>> inner =
          workload.spooled ? sim::spool_sources(cfg, budget)
                           : live_sources(cfg);
      std::vector<std::unique_ptr<trace::OpSource>> sources;
      for (auto& src : inner) {
        sources.push_back(
            std::make_unique<CountingSource>(std::move(src), budget, fill));
      }
      auto start = Clock::now();
      sim::PreparedExperiment prepared(cfg, std::move(sources));
      prepare_s.push_back(seconds_since(start));
      start = Clock::now();
      while (prepared.advance_interval()) {
      }
      advance_s += seconds_since(start);
      start = Clock::now();
      const sim::ExperimentResult result = prepared.finalize();
      finalize_s.push_back(seconds_since(start));
      tp.digests[arm.name] = result_digest(result);
      shared_accesses += result.l2_stats.total().accesses;
      l2_hits += result.l2_stats.total().hits;
    } catch (const std::exception& e) {
      ++tp.failed_arms;
      tp.notes.push_back("traced arm " + arm.name + " failed: " + e.what());
    }
  }
  double prepare_total = 0.0, finalize_total = 0.0;
  for (double s : prepare_s) prepare_total += s;
  for (double s : finalize_s) finalize_total += s;
  tp.serial_seconds = prepare_total + advance_s + finalize_total;

  const char* in_situ = workload.spooled ? "spool" : "trace";
  m[std::string(in_situ) + ".ops"] = static_cast<double>(fill.executed);
  m[std::string(in_situ) + ".fill_ns_per_op"] =
      1e9 * fill.seconds / static_cast<double>(std::max<std::uint64_t>(
                               fill.pulled, 1));
  m["experiment.prepare_ms_p50"] = 1e3 * median(prepare_s);
  m["experiment.advance_s"] = advance_s;
  m["experiment.finalize_ms_p50"] = 1e3 * median(finalize_s);
  const double ops = static_cast<double>(std::max<std::uint64_t>(
      fill.executed, 1));
  m["driver.ops_per_shared_access"] =
      static_cast<double>(fill.executed) /
      static_cast<double>(std::max<std::uint64_t>(shared_accesses, 1));
  m["driver.self_ns_per_op"] =
      1e9 * (advance_s - fill.seconds - sink.total_seconds()) / ops;
  m["driver.intervals"] =
      static_cast<double>(registry.counter("driver/intervals"));
  m["driver.barrier_releases"] =
      static_cast<double>(registry.counter("driver/barrier_releases"));
  const std::uint64_t lookups = registry.counter("l2/lookups");
  m["mem.lookups"] = static_cast<double>(lookups);
  m["mem.probe_len_mean"] =
      static_cast<double>(registry.counter("l2/lookup_probe_len_total")) /
      static_cast<double>(std::max<std::uint64_t>(lookups, 1));
  m["mem.hit_rate"] =
      static_cast<double>(l2_hits) /
      static_cast<double>(std::max<std::uint64_t>(shared_accesses, 1));
  m["mem.bank_conflicts"] =
      static_cast<double>(registry.counter("l2/bank_conflicts"));
  m["runtime.repartitions"] =
      static_cast<double>(registry.counter("runtime/repartitions"));
  m["runtime.ways_moved"] =
      static_cast<double>(registry.counter("runtime/ways_moved"));

  std::vector<double> all_policy;
  for (const auto& [policy, samples] : sink.samples()) {
    all_policy.insert(all_policy.end(), samples.begin(), samples.end());
    tp.notes.push_back(
        "policy." + policy + ".repartition_us p50=" +
        std::to_string(1e6 * quantile(samples, 0.5)) + " p99=" +
        std::to_string(1e6 * quantile(samples, 0.99)) +
        " n=" + std::to_string(samples.size()));
  }
  m["policy.repartition_us_p50"] = 1e6 * quantile(all_policy, 0.5);
  m["policy.repartition_us_p99"] = 1e6 * quantile(all_policy, 0.99);
  tp.notes.push_back("policy.repartition_us over " +
                     std::to_string(all_policy.size()) + " decisions");

  // --- Standalone layers on the resolved streams of every identity.
  FillStats other;  // the op-source layer the arms did not run
  double mem_s = 0.0, umon_s = 0.0;
  std::uint64_t replayed = 0;
  for (const sim::ExperimentConfig& cfg : identities) {
    const Instructions budget = per_thread_budget(cfg);
    std::vector<std::unique_ptr<trace::MmapTraceFile>> files;
    for (ThreadId t = 0; t < cfg.num_threads; ++t) {
      const std::string key = sim::spool_key(cfg, budget, t);
      files.push_back(
          trace::MmapTraceFile::open(sim::spool_path(dir, key), key));
      if (files.back() == nullptr) throw Error("spool entry vanished: " + key);
    }
    // The op-source layer the arms bypassed, drained standalone.
    std::vector<trace::NextOp> buffer(256);
    std::vector<std::unique_ptr<trace::OpSource>> live;
    if (workload.spooled) live = live_sources(cfg);
    for (ThreadId t = 0; t < cfg.num_threads; ++t) {
      const std::size_t count = files[t]->ops().size();
      std::unique_ptr<trace::OpSource> src =
          workload.spooled
              ? std::move(live[t])
              : std::make_unique<trace::PackedReplay>(files[t]->ops());
      CountingSource counted(std::move(src), budget, other);
      for (std::size_t done = 0; done < count;) {
        done += counted.fill(buffer.data(),
                             std::min(buffer.size(), count - done));
      }
    }
    // mem and UMON on the identity's shared-access stream.
    const std::vector<SharedAccess> stream = shared_stream(files);
    mem::L2BuildOptions opts;
    opts.banks = std::max(cfg.l2_banks, 1u);
    std::unique_ptr<mem::L2Organization> l2 = mem::make_l2(
        mem::L2Mode::kPartitionedShared, cfg.l2, cfg.num_threads, opts);
    std::vector<std::uint32_t> equal(cfg.num_threads,
                                     cfg.l2.ways / cfg.num_threads);
    for (std::uint32_t i = 0; i < cfg.l2.ways % cfg.num_threads; ++i) {
      ++equal[i];
    }
    l2->set_targets(equal);
    auto start = Clock::now();
    for (const SharedAccess& a : stream) l2->access(a.thread, a.addr, a.type);
    mem_s += seconds_since(start);
    mem::UtilityMonitor umon(cfg.l2, cfg.num_threads);
    start = Clock::now();
    for (const SharedAccess& a : stream) umon.observe(a.thread, a.addr);
    umon_s += seconds_since(start);
    replayed += stream.size();
  }
  const char* standalone = workload.spooled ? "trace" : "spool";
  m[std::string(standalone) + ".ops"] = static_cast<double>(other.executed);
  m[std::string(standalone) + ".fill_ns_per_op"] =
      1e9 * other.seconds /
      static_cast<double>(std::max<std::uint64_t>(other.pulled, 1));
  m["mem.access_ns"] =
      1e9 * mem_s / static_cast<double>(std::max<std::uint64_t>(replayed, 1));
  m["umon.observe_ns"] =
      1e9 * umon_s / static_cast<double>(std::max<std::uint64_t>(replayed, 1));
  tp.notes.push_back(std::string(in_situ) +
                     ".* measured in situ; " + standalone +
                     ".* standalone on the same streams; mem/umon replayed " +
                     std::to_string(replayed) + " shared accesses");

  // --- serve: the spec codec on the workload's request bodies.
  std::vector<std::string> bodies;
  for (const sim::ExperimentArm& arm : workload.arms) {
    bodies.push_back(spec_body(arm.name, arm.config));
  }
  std::vector<double> parse_us;
  for (int rep = 0; rep < 200; ++rep) {
    const auto start = Clock::now();
    for (const std::string& body : bodies) {
      (void)serve::parse_spec_request(body);
    }
    parse_us.push_back(1e6 * seconds_since(start) /
                       static_cast<double>(bodies.size()));
  }
  m["serve.parse_us"] = median(parse_us);

  fs::remove_all(dir);
  return tp;
}

}  // namespace capbench
