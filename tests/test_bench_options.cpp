// Flag parsing for the bench binaries: accepted values land in BenchOptions,
// malformed input exits with the usage status instead of running a sweep on
// garbage.
#include "bench/bench_common.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "src/core/partitioner_registry.hpp"

namespace capart::bench {
namespace {

/// argv for parse_options; keeps the strings alive and mutable.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    argv_.push_back(program_.data());
    for (std::string& arg : args_) argv_.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(argv_.size()); }
  char** argv() { return argv_.data(); }

 private:
  std::string program_ = "bench";
  std::vector<std::string> args_;
  std::vector<char*> argv_;
};

BenchOptions parse(std::vector<std::string> args) {
  Argv a(std::move(args));
  return parse_options(a.argc(), a.argv());
}

TEST(BenchOptions, DefaultsMatchTheScaledConfig) {
  const BenchOptions opt = parse({});
  EXPECT_EQ(opt.intervals, 40u);
  EXPECT_EQ(opt.interval_instructions, 0u);
  EXPECT_EQ(opt.threads, 4u);
  EXPECT_EQ(opt.seed, 42u);
  EXPECT_EQ(opt.jobs, 0u);  // auto: one job per hardware thread
}

TEST(BenchOptions, ParsesEveryFlag) {
  const BenchOptions opt =
      parse({"--intervals=12", "--interval-instr=90000", "--threads=8",
             "--seed=7", "--jobs=3"});
  EXPECT_EQ(opt.intervals, 12u);
  EXPECT_EQ(opt.interval_instructions, 90'000u);
  EXPECT_EQ(opt.threads, 8u);
  EXPECT_EQ(opt.seed, 7u);
  EXPECT_EQ(opt.jobs, 3u);
}

TEST(BenchOptions, ResolvedIntervalInstructionsFallsBackPerThread) {
  BenchOptions opt;
  opt.threads = 8;
  EXPECT_EQ(resolved_interval_instructions(opt), Instructions{60'000} * 8);
  opt.interval_instructions = 123'456;
  EXPECT_EQ(resolved_interval_instructions(opt), 123'456u);
}

TEST(BenchOptions, ResolvedJobsDefaultsToHardwareConcurrency) {
  BenchOptions opt;
  EXPECT_EQ(resolved_jobs(opt), sim::default_jobs());
  opt.jobs = 2;
  EXPECT_EQ(resolved_jobs(opt), 2u);
}

using BenchOptionsDeathTest = ::testing::Test;

TEST(BenchOptionsDeathTest, RejectsUnknownFlag) {
  EXPECT_EXIT(parse({"--bogus=1"}), ::testing::ExitedWithCode(2),
              "unknown flag");
}

TEST(BenchOptionsDeathTest, RejectsNonNumericValue) {
  EXPECT_EXIT(parse({"--intervals=abc"}), ::testing::ExitedWithCode(2),
              "invalid value for --intervals");
}

TEST(BenchOptionsDeathTest, RejectsMissingValue) {
  EXPECT_EXIT(parse({"--seed"}), ::testing::ExitedWithCode(2),
              "invalid value for --seed");
}

TEST(BenchOptionsDeathTest, RejectsZeroJobs) {
  EXPECT_EXIT(parse({"--jobs=0"}), ::testing::ExitedWithCode(2),
              "--jobs: must be >= 1");
}

TEST(BenchOptionsDeathTest, RejectsNonNumericJobs) {
  EXPECT_EXIT(parse({"--jobs=many"}), ::testing::ExitedWithCode(2),
              "invalid value for --jobs");
}

// strtoull used to wrap "-1" to 2^64-1 and the narrowing cast made it
// 4294967295 intervals; signs must be rejected outright.
TEST(BenchOptionsDeathTest, RejectsNegativeValue) {
  EXPECT_EXIT(parse({"--intervals=-1"}), ::testing::ExitedWithCode(2),
              "invalid value for --intervals");
  EXPECT_EXIT(parse({"--seed=+7"}), ::testing::ExitedWithCode(2),
              "invalid value for --seed");
}

// Values that overflow the 32-bit destination used to truncate silently
// (--threads=4294967300 became 4); they must be range errors.
TEST(BenchOptionsDeathTest, RejectsOverflowingValue) {
  EXPECT_EXIT(parse({"--threads=4294967300"}), ::testing::ExitedWithCode(2),
              "value for --threads out of range");
  EXPECT_EXIT(parse({"--seed=99999999999999999999999"}),
              ::testing::ExitedWithCode(2), "value for --seed out of range");
}

TEST(BenchOptions, ParsesFaultIsolationFlags) {
  const BenchOptions opt = parse({"--arm-retries=2", "--arm-deadline=1.5"});
  EXPECT_EQ(opt.arm_retries, 2u);
  EXPECT_DOUBLE_EQ(opt.arm_deadline, 1.5);
}

TEST(BenchOptionsDeathTest, RejectsNegativeDeadline) {
  EXPECT_EXIT(parse({"--arm-deadline=-1"}), ::testing::ExitedWithCode(2),
              "invalid value for --arm-deadline");
}

// A spool directory that does not exist used to surface only as an I/O
// error inside the first arm (or a std::terminate in capart_perfsmoke);
// it is a flag error.
TEST(BenchOptionsDeathTest, RejectsMissingOrNonDirectoryTraceDir) {
  EXPECT_EXIT(parse({"--trace-dir=/nonexistent-dir-capart"}),
              ::testing::ExitedWithCode(2), "invalid value for --trace-dir");
  const std::string file = ::testing::TempDir() + "/capart_not_a_dir";
  std::ofstream(file) << "x";
  EXPECT_EXIT(parse({"--trace-dir=" + file}), ::testing::ExitedWithCode(2),
              "invalid value for --trace-dir");
}

TEST(BenchOptions, AcceptsAnExistingTraceDirOrNone) {
  EXPECT_EQ(parse({"--trace-dir=" + ::testing::TempDir()}).trace_dir,
            ::testing::TempDir());
  EXPECT_TRUE(parse({"--trace-dir="}).trace_dir.empty());
}

TEST(BenchOptionsDeathTest, HelpExitsCleanly) {
  EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(BenchArms, RegistryCoversTheDesignSpace) {
  for (const char* name :
       {"shared", "private", "static_equal", "model", "cpi", "throughput",
        "time_shared", "umon", "fair", "ucp", "lfoc", "reuse", "coloring",
        "flush", "linear_model"}) {
    EXPECT_NE(find_arm(name), nullptr) << name;
  }
}

TEST(BenchArms, EveryRegisteredPartitionerHasAnArm) {
  // The arm list is generated from core::registry(), so a newly registered
  // partitioner must show up under its bench spelling with the right policy.
  for (const core::Partitioner* p : core::registry().describe()) {
    const sim::ExperimentConfig cfg =
        make_arm(bench_arm_name(*p), sim::ExperimentConfig{});
    EXPECT_EQ(cfg.l2_mode, mem::L2Mode::kPartitionedShared) << p->name;
    EXPECT_EQ(cfg.policy, p->name);
  }
}

TEST(BenchArms, MakeArmAppliesTheRegisteredTransform) {
  BenchOptions opt;
  const sim::ExperimentConfig shared = make_arm("shared", base_config(opt, "cg"));
  EXPECT_EQ(shared.l2_mode, mem::L2Mode::kSharedUnpartitioned);
  EXPECT_EQ(shared.policy, "none");

  const sim::ExperimentConfig model = make_arm("model", base_config(opt, "cg"));
  EXPECT_EQ(model.l2_mode, mem::L2Mode::kPartitionedShared);
  EXPECT_EQ(model.policy, "model-based");
}

TEST(BenchArms, ProfileSweepBuildsTheCrossProduct) {
  BenchOptions opt;
  const sim::ExperimentSpec spec =
      profile_sweep(opt, {"cg", "mgrid"}, {"model", "shared"}, "x");
  ASSERT_EQ(spec.arms.size(), 4u);
  EXPECT_EQ(spec.arms[0].name, "cg/model");
  EXPECT_EQ(spec.arms[1].name, "cg/shared");
  EXPECT_EQ(spec.arms[2].name, "mgrid/model");
  EXPECT_EQ(spec.arms[3].name, "mgrid/shared");
  EXPECT_EQ(spec.arms[2].config.profile, "mgrid");
  EXPECT_EQ(spec.arms[3].config.l2_mode, mem::L2Mode::kSharedUnpartitioned);
}

TEST(BenchArms, EnforceAliasMovesOnlyThePartitionedArmsToClos) {
  // A bench-wide --l2-enforce=clos used to copy CLOS enforcement into the
  // shared and private arms too, failing their validation.
  const BenchOptions opt = parse({"--l2-enforce=clos"});
  for (const char* arm : {"model", "lfoc", "shared", "private"}) {
    EXPECT_NO_THROW(make_arm(arm, base_config(opt, "cg")).validate()) << arm;
  }
  EXPECT_EQ(make_arm("model", base_config(opt, "cg")).l2_mode,
            mem::L2Mode::kClosShared);
  EXPECT_EQ(make_arm("shared", base_config(opt, "cg")).l2_mode,
            mem::L2Mode::kSharedUnpartitioned);
  EXPECT_EQ(make_arm("flush", base_config(opt, "cg")).l2_mode,
            mem::L2Mode::kFlushReconfigureShared);
  EXPECT_EQ(make_arm("model", base_config(parse({}), "cg")).l2_mode,
            mem::L2Mode::kPartitionedShared);
}

TEST(BenchOptionsDeathTest, RejectsUnknownEnforceAlias) {
  EXPECT_EXIT(parse({"--l2-enforce=msr"}), ::testing::ExitedWithCode(2),
              "default, eviction-control or clos");
}

TEST(BenchOptions, ProfileFlagOverridesTheDefaultList) {
  const std::vector<std::string> defaults = {"cg", "mgrid", "swim"};
  EXPECT_EQ(profiles_or(parse({}), defaults), defaults);
  EXPECT_EQ(profiles_or(parse({"--profile=swim,lu"}), defaults),
            (std::vector<std::string>{"swim", "lu"}));
}

TEST(BenchArmsDeathTest, UnknownArmListsTheRegistry) {
  EXPECT_EXIT(find_arm("warp_drive"), ::testing::ExitedWithCode(2),
              "unknown experiment arm");
}

}  // namespace
}  // namespace capart::bench
