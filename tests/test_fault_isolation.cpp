// Fault-isolated batch execution: a failing arm is contained in its own
// ArmOutcome — siblings complete bit-identically to a batch that never held
// the poisoned arm — and BatchPolicy's retries, deadlines and fail-fast all
// act at deterministic interval boundaries. Failures drive the FaultInjector
// (sim/fault_injector.hpp) so every terminal path is reachable on demand.
#include "src/sim/batch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cancel.hpp"
#include "src/common/error.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/events.hpp"
#include "src/obs/jsonl_sink.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/fault_injector.hpp"
#include "tests/expect_config_error.hpp"

namespace capart::sim {
namespace {

ExperimentConfig small(const std::string& profile, std::uint64_t seed = 11) {
  ExperimentConfig c;
  c.profile = profile;
  c.num_intervals = 8;
  c.interval_instructions = 60'000;
  c.seed = seed;
  return c;
}

/// Eight healthy arms (4 profiles x {model, shared}), the figure-bench shape.
ExperimentSpec healthy_spec() {
  ExperimentSpec spec;
  spec.name = "healthy";
  for (const std::string& profile :
       {std::string("cg"), std::string("mgrid"), std::string("swim"),
        std::string("equake")}) {
    spec.add(profile + "/model", small(profile));
    ExperimentConfig shared = small(profile);
    shared.l2_mode = mem::L2Mode::kSharedUnpartitioned;
    shared.policy = "none";
    spec.add(profile + "/shared", shared);
  }
  return spec;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.outcome.total_cycles, b.outcome.total_cycles);
  EXPECT_EQ(a.outcome.intervals_completed, b.outcome.intervals_completed);
  EXPECT_EQ(a.outcome.instructions_retired, b.outcome.instructions_retired);
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    ASSERT_EQ(a.intervals[i].threads.size(), b.intervals[i].threads.size());
    for (std::size_t t = 0; t < a.intervals[i].threads.size(); ++t) {
      EXPECT_EQ(a.intervals[i].threads[t].exec_cycles,
                b.intervals[i].threads[t].exec_cycles);
      EXPECT_EQ(a.intervals[i].threads[t].l2_misses,
                b.intervals[i].threads[t].l2_misses);
    }
  }
}

TEST(FaultIsolation, PoisonedArmIsContainedAndSiblingsAreBitIdentical) {
  // 9-arm spec: 8 healthy + 1 whose profile cannot be built.
  ExperimentSpec poisoned = healthy_spec();
  poisoned.add("nosuch/model", small("nosuch"));

  const BatchRunner runner(3);
  const BatchResult with_poison = runner.run(poisoned);
  const BatchResult without = runner.run(healthy_spec());

  ASSERT_EQ(with_poison.arms.size(), 9u);
  EXPECT_EQ(with_poison.arms_failed(), 1u);
  EXPECT_FALSE(with_poison.all_ok());
  EXPECT_TRUE(without.all_ok());

  const ArmOutcome& bad = with_poison.outcome("nosuch/model");
  EXPECT_EQ(bad.status, ArmStatus::kFailed);
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("unknown benchmark profile"), std::string::npos);
  EXPECT_EQ(bad.retries, 0u);

  // Every surviving arm matches the batch that never contained the poison.
  for (const ArmOutcome& arm : without.arms) {
    const ArmOutcome& survivor = with_poison.outcome(arm.name);
    EXPECT_EQ(survivor.status, ArmStatus::kOk) << arm.name;
    expect_identical(survivor.result, arm.result);
  }
}

TEST(FaultIsolation, InjectedThrowFailsOnlyTheTargetArm) {
  FaultInjector injector;
  injector.add({.arm = "cg/a", .interval = 2, .message = "cosmic ray"});

  ExperimentSpec spec;
  ExperimentConfig a = small("cg");
  a.obs.run_name = "cg/a";
  a.fault = &injector;
  ExperimentConfig b = small("cg");
  b.obs.run_name = "cg/b";
  b.fault = &injector;
  spec.add("cg/a", a).add("cg/b", b);

  const BatchResult batch = BatchRunner(2).run(spec);
  EXPECT_EQ(injector.fires(), 1u);
  EXPECT_EQ(batch.outcome("cg/a").status, ArmStatus::kFailed);
  EXPECT_NE(batch.outcome("cg/a").error.find("cosmic ray"),
            std::string::npos);
  EXPECT_EQ(batch.outcome("cg/b").status, ArmStatus::kOk);

  // The untouched sibling matches a run without any injector attached.
  const ExperimentResult clean = run_experiment(small("cg"));
  expect_identical(batch.outcome("cg/b").result, clean);
}

TEST(FaultIsolation, RetriesRecoverATransientFault) {
  FaultInjector injector;
  // Burns out after one attempt: attempt 1 throws, attempt 2 runs clean.
  injector.add({.arm = "cg/flaky", .interval = 1, .times = 1});

  ExperimentConfig flaky = small("cg");
  flaky.obs.run_name = "cg/flaky";
  flaky.fault = &injector;
  obs::MetricsRegistry metrics;
  flaky.obs.metrics = &metrics;
  ExperimentSpec spec;
  spec.add("cg/flaky", flaky);

  const BatchRunner runner(1, BatchPolicy{.max_retries = 2});
  const BatchResult batch = runner.run(spec);
  const ArmOutcome& arm = batch.outcome("cg/flaky");
  EXPECT_EQ(arm.status, ArmStatus::kOk);
  EXPECT_EQ(arm.retries, 1u);
  EXPECT_EQ(metrics.counter("batch/arm_retries"), 1u);
  EXPECT_EQ(metrics.counter("batch/arms_completed"), 1u);
  EXPECT_EQ(metrics.counter("batch/arms_failed"), 0u);

  // The retried result is the clean result — attempts share no state.
  expect_identical(arm.result, run_experiment(small("cg")));
}

TEST(FaultIsolation, ExhaustedRetriesReportTheArmAsFailed) {
  FaultInjector injector;
  injector.add({.arm = "cg/dead", .interval = 0, .message = "hard fault"});

  ExperimentConfig dead = small("cg");
  dead.obs.run_name = "cg/dead";
  dead.fault = &injector;
  ExperimentSpec spec;
  spec.add("cg/dead", dead);

  const BatchResult batch =
      BatchRunner(1, BatchPolicy{.max_retries = 2}).run(spec);
  const ArmOutcome& arm = batch.outcome("cg/dead");
  EXPECT_EQ(arm.status, ArmStatus::kFailed);
  EXPECT_EQ(arm.retries, 2u);
  EXPECT_EQ(injector.fires(), 3u);  // initial attempt + 2 retries
  EXPECT_NE(arm.error.find("hard fault"), std::string::npos);
}

TEST(FaultIsolation, DeadlineExpiryIsTimedOutAndNeverRetried) {
  FaultInjector injector;
  injector.add({.arm = "cg/slow",
                .interval = 1,
                .kind = FaultInjector::Kind::kStall,
                .stall_seconds = 0.25});

  ExperimentConfig slow = small("cg");
  slow.obs.run_name = "cg/slow";
  slow.fault = &injector;
  ExperimentSpec spec;
  spec.add("cg/slow", slow);

  const BatchRunner runner(
      1, BatchPolicy{.max_retries = 3, .arm_deadline_seconds = 0.05});
  const BatchResult batch = runner.run(spec);
  const ArmOutcome& arm = batch.outcome("cg/slow");
  EXPECT_EQ(arm.status, ArmStatus::kTimedOut);
  EXPECT_EQ(arm.retries, 0u);  // deadlines are terminal, retries unused
  EXPECT_NE(arm.error.find("deadline expired"), std::string::npos);
}

TEST(FaultIsolation, FailFastSkipsArmsAfterTheFirstFailure) {
  ExperimentSpec spec;
  spec.add("bad", small("nosuch"));
  spec.add("later", small("cg"));

  // jobs=1 runs arms in spec order, so "later" has not started when "bad"
  // fails and must be skipped.
  const BatchResult batch =
      BatchRunner(1, BatchPolicy{.fail_fast = true}).run(spec);
  EXPECT_EQ(batch.outcome("bad").status, ArmStatus::kFailed);
  EXPECT_EQ(batch.outcome("later").status, ArmStatus::kFailed);
  EXPECT_NE(batch.outcome("later").error.find("fail-fast"),
            std::string::npos);
  EXPECT_EQ(batch.arms_failed(), 2u);
}

TEST(FaultIsolation, FailedArmPublishesArmFailedEventAndMetric) {
  obs::VectorSink sink;
  obs::MetricsRegistry metrics;
  ExperimentSpec spec;
  for (const std::string& name : {std::string("ok"), std::string("bad")}) {
    ExperimentConfig c = small(name == "bad" ? "nosuch" : "cg");
    c.obs.sink = &sink;
    c.obs.metrics = &metrics;
    c.obs.run_name = name;
    spec.add(name, c);
  }

  const BatchResult batch = BatchRunner(2).run(spec);
  EXPECT_EQ(batch.arms_failed(), 1u);
  const auto failures = sink.arm_failures();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].run, "bad");
  EXPECT_EQ(failures[0].arm, "bad");
  EXPECT_EQ(failures[0].status, "failed");
  EXPECT_EQ(failures[0].retries, 0u);
  EXPECT_NE(failures[0].error.find("unknown benchmark profile"),
            std::string::npos);
  EXPECT_EQ(metrics.counter("batch/arms_failed"), 1u);
  EXPECT_EQ(metrics.counter("batch/arms_completed"), 1u);
}

TEST(FaultIsolation, ArmFailedEventRoundTripsThroughTheJsonlSchema) {
  obs::ArmFailedEvent event;
  event.run = "cg/model";
  event.arm = "cg/model";
  event.status = "timed_out";
  event.error = "deadline expired at interval 3";
  event.retries = 2;

  std::stringstream ss;
  ss << obs::to_jsonl(event) << "\n";
  const obs::EventLog log = obs::read_event_log(ss);
  EXPECT_TRUE(log.ok());
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].type, "arm_failed");

  const obs::EventLogSummary summary = obs::summarize(log);
  ASSERT_EQ(summary.runs.size(), 1u);
  EXPECT_TRUE(summary.runs[0].failed);
  EXPECT_EQ(summary.runs[0].failure_status, "timed_out");
}

TEST(FaultIsolation, ValidationRejectsMalformedArmFailedEvents) {
  std::stringstream ss;
  ss << R"({"type":"arm_failed","run":"x","arm":"x","status":7,)"
     << R"("error":"e","retries":0})" << "\n";
  const obs::EventLog log = obs::read_event_log(ss);
  EXPECT_FALSE(log.ok());
}

TEST(FaultIsolation, ArmStatusNamesAreStable) {
  EXPECT_EQ(to_string(ArmStatus::kOk), "ok");
  EXPECT_EQ(to_string(ArmStatus::kFailed), "failed");
  EXPECT_EQ(to_string(ArmStatus::kTimedOut), "timed_out");
}

TEST(FaultIsolation, ConfigValidationNamesTheOffendingField) {
  ExperimentConfig c = small("cg");
  c.l2.ways = 2;  // way-granular partitioning with 4 threads cannot work
  EXPECT_CONFIG_ERROR(c.validate(), "at least one way per thread");
  ExperimentConfig ok = small("cg");
  EXPECT_NO_THROW(ok.validate());
}

TEST(FaultIsolation, JsonlSinkThrowsOnUnwritablePath) {
  EXPECT_THROW(obs::JsonlSink("/nonexistent-dir-capart/events.jsonl"), Error);
}

TEST(FaultIsolation, CancelMidIntervalUnwindsCleanly) {
  // The torn-interval shape: the token fires from another thread while the
  // driver is mid-interval, with op rings part-consumed. The driver observes
  // it at the next boundary and the whole stack (generators, utility
  // monitor, spool replays on the retry) must unwind as CancelledError
  // without leaking or asserting.
  const std::string dir = ::testing::TempDir() + "/capart_cancel_mid";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CancelToken token;
  ExperimentConfig cfg;
  cfg.profile = "ft";
  cfg.num_threads = 4;
  cfg.num_intervals = 4000;  // long enough that the cancel always lands
  cfg.interval_instructions = 24'000;
  cfg.policy = "ucp";
  cfg.cancel = &token;  // live generators: the spool would eagerly resolve
                        // all 4000 intervals

  std::atomic<bool> cancelled{false};
  std::thread firer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    token.cancel();
  });
  try {
    (void)run_experiment(cfg);
  } catch (const CancelledError&) {
    cancelled = true;
  }
  firer.join();
  EXPECT_TRUE(cancelled.load());

  // A cancelled attempt must not poison later runs: a clean retry of the
  // same shape (shorter, spooled this time) resolves, replays and completes.
  cfg.cancel = nullptr;
  cfg.num_intervals = 4;
  cfg.trace_spool_dir = dir;
  const ExperimentResult retry = run_experiment(cfg);
  EXPECT_EQ(retry.intervals.size(), 4u);
}

TEST(CancelToken, StickyCancelSurvivesRearm) {
  CancelToken token;
  EXPECT_FALSE(token.should_stop());
  token.cancel();
  EXPECT_TRUE(token.should_stop());
  token.rearm_deadline(10.0);
  EXPECT_TRUE(token.should_stop());  // cancellation outlives deadline rearm
  EXPECT_FALSE(token.deadline_expired());
}

TEST(CancelToken, DeadlineExpiresAndDisarms) {
  CancelToken token;
  token.rearm_deadline(-1.0);  // <= 0 disarms
  EXPECT_FALSE(token.should_stop());
  token.rearm_deadline(1e-9);
  // A nanosecond budget is over by the time we can observe it.
  EXPECT_TRUE(token.deadline_expired());
  EXPECT_TRUE(token.should_stop());
  token.rearm_deadline(0.0);
  EXPECT_FALSE(token.should_stop());
}

}  // namespace
}  // namespace capart::sim
