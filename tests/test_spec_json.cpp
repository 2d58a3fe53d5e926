// capart_serve spec codec tests (src/serve/spec_json.hpp): every
// ExperimentConfig field survives the JSON round trip, malformed and
// unknown input is rejected with a path-bearing ConfigError, canonical
// serialization is insensitive to spelling, and a golden spec document
// stays parseable so the wire format cannot drift silently.
#include "src/serve/spec_json.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "expect_config_error.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/obs/event_log.hpp"
#include "src/obs/events.hpp"

namespace capart::serve {
namespace {

/// Every field moved off its default — the round trip must keep all of it.
sim::ExperimentConfig full_config() {
  sim::ExperimentConfig c;
  c.profile = "mg";
  c.num_threads = 3;
  c.l2_mode = mem::L2Mode::kClosShared;
  c.policy = "fair-slowdown";
  c.policy_options.model_kind = core::ModelKind::kPiecewiseLinear;
  c.policy_options.ewma_alpha = 0.5;
  c.policy_options.max_moves_per_interval = 3;
  c.policy_options.time_shared_big_fraction = 0.25;
  c.policy_options.time_shared_quantum = 2;
  c.interval_instructions = 123'456;
  c.num_intervals = 7;
  c.sections = 2;
  c.l1.sets = 128;
  c.l1.ways = 2;
  c.l1.line_bytes = 32;
  c.l1.repl = mem::ReplacementKind::kSrrip;
  c.l1.index = mem::IndexKind::kScan;
  c.l2.sets = 512;
  c.l2.ways = 16;
  c.l2.line_bytes = 128;
  c.l2.repl = mem::ReplacementKind::kTreePlru;
  c.l2.index = mem::IndexKind::kHash;
  c.timing.base_cycles_per_instruction = 2;
  c.timing.private_l2_hit_penalty = 9;
  c.timing.l2_hit_penalty = 13;
  c.timing.memory_penalty = 250;
  c.timing.streaming_memory_penalty = 120;
  c.l2_banks = 4;
  c.l2_bank_service_cycles = 9;
  c.clos_budget = 5;
  c.clos_mapper = core::ClosMapperKind::kMinMax;
  c.clos_mask_update_cycles = 321;
  c.enable_private_l2 = true;
  c.private_l2.sets = 64;
  c.private_l2.ways = 4;
  c.private_l2.line_bytes = 64;
  c.private_l2.repl = mem::ReplacementKind::kSrrip;
  c.private_l2.index = mem::IndexKind::kAuto;
  c.runtime_overhead_cycles = 55;
  c.reconfigure_flush_cost_per_line = 7;
  c.barrier_release_cost = 44;
  c.seed = 99;
  c.migrations.push_back({5, 0, 1});
  c.migrations.push_back({6, 1, 2});
  return c;
}

sim::ExperimentConfig reparse(const std::string& text) {
  std::string error;
  const std::optional<obs::JsonValue> json = obs::parse_json(text, &error);
  EXPECT_TRUE(json.has_value()) << error;
  return config_from_json(*json, "spec");
}

TEST(SpecJson, EveryConfigFieldSurvivesTheRoundTrip) {
  const sim::ExperimentConfig original = full_config();
  const std::string first = config_to_json(original);
  const sim::ExperimentConfig decoded = reparse(first);
  // Field-identity via re-serialization: the writer covers every field, so
  // equal bytes mean equal configs.
  EXPECT_EQ(config_to_json(decoded), first);

  // Spot-check the fields the CLI grew flags for most recently.
  EXPECT_EQ(decoded.l2.repl, mem::ReplacementKind::kTreePlru);
  EXPECT_EQ(decoded.l2.index, mem::IndexKind::kHash);
  EXPECT_EQ(decoded.l2_banks, 4u);
  EXPECT_EQ(decoded.l2_mode, mem::L2Mode::kClosShared);
  EXPECT_EQ(decoded.clos_budget, 5u);
  EXPECT_EQ(decoded.clos_mapper, core::ClosMapperKind::kMinMax);
  EXPECT_EQ(decoded.clos_mask_update_cycles, 321u);
  ASSERT_EQ(decoded.migrations.size(), 2u);
  EXPECT_EQ(decoded.migrations[1].interval, 6u);
  EXPECT_EQ(decoded.migrations[1].b, 2u);
}

TEST(SpecJson, EmptyObjectYieldsTheDefaultConfig) {
  const sim::ExperimentConfig decoded = reparse("{}");
  EXPECT_EQ(config_to_json(decoded),
            config_to_json(sim::ExperimentConfig{}));
}

TEST(SpecJson, ClosConfigRoundTrips) {
  sim::ExperimentConfig c;
  c.l2_mode = mem::L2Mode::kClosShared;
  c.clos_budget = 4;
  c.clos_mapper = core::ClosMapperKind::kNearest;
  const sim::ExperimentConfig decoded = reparse(config_to_json(c));
  EXPECT_EQ(decoded.l2_mode, mem::L2Mode::kClosShared);
  EXPECT_EQ(decoded.clos_budget, 4u);
  EXPECT_EQ(decoded.clos_mapper, core::ClosMapperKind::kNearest);
}

TEST(SpecJson, ManifestEventConfigIsResubmittable) {
  obs::ManifestEvent event;
  event.run = "arm";
  event.config = full_config();
  const std::string line = obs::to_jsonl(event);
  const std::optional<obs::JsonValue> json = obs::parse_json(line);
  ASSERT_TRUE(json.has_value());
  // A client resubmits by dropping the event framing ("type", "run") and
  // keeping the config fields — which the manifest shares with the codec.
  obs::JsonValue config = *json;
  std::erase_if(config.object, [](const auto& member) {
    return member.first == "type" || member.first == "run";
  });
  const sim::ExperimentConfig decoded = config_from_json(config, "manifest");
  EXPECT_EQ(config_to_json(decoded), config_to_json(event.config));
}

TEST(SpecJson, RejectsUnknownKeysNamingThePath) {
  EXPECT_CONFIG_ERROR(reparse(R"({"profle":"cg"})"),
                      "unknown key \"profle\"");
  EXPECT_CONFIG_ERROR(reparse(R"({"l2":{"sets":64,"way":4}})"),
                      "spec.l2: unknown key \"way\"");
}

TEST(SpecJson, RejectsTypeMismatchesNamingThePath) {
  EXPECT_CONFIG_ERROR(reparse(R"({"threads":"four"})"),
                      "spec.threads: expected a non-negative integer");
  EXPECT_CONFIG_ERROR(reparse(R"({"threads":-1})"),
                      "spec.threads: expected a non-negative integer");
  EXPECT_CONFIG_ERROR(reparse(R"({"threads":2.5})"),
                      "spec.threads: expected a non-negative integer");
  EXPECT_CONFIG_ERROR(reparse(R"({"threads":5000000000})"),
                      "exceeds maximum");
  EXPECT_CONFIG_ERROR(reparse(R"({"enable_private_l2":1})"),
                      "expected true or false");
  EXPECT_CONFIG_ERROR(reparse(R"({"profile":7})"), "expected a string");
  EXPECT_CONFIG_ERROR(reparse(R"([1,2])"), "expected a JSON object");
}

TEST(SpecJson, RejectsUnknownEnumSpellings) {
  EXPECT_CONFIG_ERROR(reparse(R"({"policy":"modell"})"), "unknown policy");
  EXPECT_CONFIG_ERROR(reparse(R"({"l2_mode":"sharedish"})"),
                      "spec.l2_mode");
  EXPECT_CONFIG_ERROR(reparse(R"({"l2":{"repl":"mru"}})"),
                      "lru, plru or srrip");
  EXPECT_CONFIG_ERROR(reparse(R"({"l2":{"index":"btree"}})"),
                      "scan, hash or auto");
  EXPECT_CONFIG_ERROR(reparse(R"({"l2_enforce":"msr"})"),
                      "spec.l2_enforce: unknown l2-enforce 'msr' (expected "
                      "default, eviction-control or clos)");
  EXPECT_CONFIG_ERROR(reparse(R"({"clos_mapper":"furthest"})"),
                      "none, nearest, minmax or lfoc");
  EXPECT_CONFIG_ERROR(
      reparse(R"({"policy_options":{"model_kind":"quartic"}})"),
      "cubic-spline or piecewise-linear");
}

TEST(SpecJson, EnforceAliasFoldsIntoTheMode) {
  // The legacy field is input-only: it folds into l2_mode and is never
  // written back.
  const sim::ExperimentConfig clos =
      reparse(R"({"l2_mode":"partitioned-shared","l2_enforce":"clos"})");
  EXPECT_EQ(clos.l2_mode, mem::L2Mode::kClosShared);
  EXPECT_EQ(config_to_json(clos).find("l2_enforce"), std::string::npos);
  EXPECT_EQ(reparse(R"({"l2_enforce":"eviction-control"})").l2_mode,
            mem::L2Mode::kPartitionedShared);
  EXPECT_EQ(reparse(R"({"l2_mode":"clos","l2_enforce":"default"})").l2_mode,
            mem::L2Mode::kClosShared);
}

TEST(SpecJson, RejectsFlushWithEvictionControl) {
  // This pair used to run plain flush reconfiguration.
  const std::string pair =
      R"({"l2_mode":"flush-reconfigure-shared",)"
      R"("l2_enforce":"eviction-control"})";
  EXPECT_CONFIG_ERROR(reparse(pair), "spec.l2_enforce");
  EXPECT_CONFIG_ERROR(reparse(pair), "l2-mode=flush-reconfigure-shared");
  EXPECT_CONFIG_ERROR(reparse(pair), "l2-enforce=eviction-control");
}

TEST(SpecJson, PolicyNoneRoundTrips) {
  const sim::ExperimentConfig decoded = reparse(R"({"policy":"none"})");
  EXPECT_TRUE(core::is_no_policy(decoded.policy));
  EXPECT_NE(config_to_json(decoded).find("\"policy\":\"none\""),
            std::string::npos);
}

TEST(SpecJson, PolicyAliasesCanonicalize) {
  // Short CLI spellings are accepted on the wire but serialize canonically,
  // so cache keys cannot split across spellings of one policy.
  const sim::ExperimentConfig decoded = reparse(R"({"policy":"model"})");
  EXPECT_EQ(decoded.policy, "model-based");
  EXPECT_NE(config_to_json(decoded).find("\"policy\":\"model-based\""),
            std::string::npos);
}

TEST(SpecJson, EveryRegisteredPolicyRoundTripsByteIdentically) {
  // Registry totality: each canonical name survives write -> parse -> write
  // with identical bytes, and the unknown-name error lists the whole
  // registry so clients can self-correct.
  for (const std::string& name : core::registry().names()) {
    sim::ExperimentConfig c;
    c.policy = name;
    const std::string first = config_to_json(c);
    const sim::ExperimentConfig decoded = reparse(first);
    EXPECT_EQ(decoded.policy, name);
    EXPECT_EQ(config_to_json(decoded), first) << name;
  }
  EXPECT_CONFIG_ERROR(reparse(R"({"policy":"quantum-foam"})"),
                      "spec.policy");
  EXPECT_CONFIG_ERROR(reparse(R"({"policy":"quantum-foam"})"),
                      "ucp-lookahead");
}

TEST(SpecRequestJson, ShorthandConfigBecomesOneArmNamedRun) {
  const SpecRequest request = parse_spec_request(
      R"({"name":"quick","deadline_seconds":2.5,"config":{"profile":"cg"}})");
  EXPECT_EQ(request.spec.name, "quick");
  EXPECT_DOUBLE_EQ(request.deadline_seconds, 2.5);
  ASSERT_EQ(request.spec.arms.size(), 1u);
  EXPECT_EQ(request.spec.arms[0].name, "run");
  EXPECT_EQ(request.spec.arms[0].config.profile, "cg");
}

TEST(SpecRequestJson, NamedArmsKeepTheirOrder) {
  const SpecRequest request = parse_spec_request(
      R"({"arms":[{"name":"cg/model","config":{"profile":"cg"}},)"
      R"({"name":"mg/model","config":{"profile":"mg"}}]})");
  EXPECT_EQ(request.spec.name, "spec");
  ASSERT_EQ(request.spec.arms.size(), 2u);
  EXPECT_EQ(request.spec.arms[0].name, "cg/model");
  EXPECT_EQ(request.spec.arms[1].config.profile, "mg");
}

TEST(SpecRequestJson, RejectsStructuralMistakes) {
  EXPECT_CONFIG_ERROR(parse_spec_request("{}"),
                      "exactly one of \"arms\" or \"config\"");
  EXPECT_CONFIG_ERROR(
      parse_spec_request(R"({"arms":[],"config":{}})"),
      "exactly one of \"arms\" or \"config\"");
  EXPECT_CONFIG_ERROR(parse_spec_request(R"({"arms":[]})"),
                      "non-empty array");
  EXPECT_CONFIG_ERROR(parse_spec_request(R"({"arms":[{"name":"a"}]})"),
                      "missing \"config\"");
  EXPECT_CONFIG_ERROR(
      parse_spec_request(
          R"({"arms":[{"name":"a","config":{}},{"name":"a","config":{}}]})"),
      "duplicate arm name");
  EXPECT_CONFIG_ERROR(parse_spec_request(R"({"deadline_seconds":-1,)"
                                         R"("config":{}})"),
                      "finite value >= 0");
}

TEST(SpecRequestJson, RejectsWhatTheSimulatorWouldRejectUpFront) {
  EXPECT_CONFIG_ERROR(
      parse_spec_request(R"({"config":{"profile":"linpack"}})"),
      "unknown profile 'linpack'");
  EXPECT_CONFIG_ERROR(parse_spec_request(R"({"config":{"threads":0}})"),
                      "at least one thread");
  EXPECT_CONFIG_ERROR(
      parse_spec_request(R"({"config":{"interval_instructions":10}})"),
      "interval too short");
}

TEST(SpecRequestJson, ParseFailuresCarryTheByteOffset) {
  EXPECT_CONFIG_ERROR(parse_spec_request(R"({"name": })"), "offset 9");
  EXPECT_CONFIG_ERROR(parse_spec_request(""), "offset 0");
}

TEST(SpecRequestJson, CanonicalFormIsSpellingInsensitive) {
  // Same request three ways: key order shuffled, defaults spelled out,
  // whitespace added. All three must canonicalize to identical bytes.
  const SpecRequest a =
      parse_spec_request(R"({"config":{"profile":"cg","seed":7}})");
  const SpecRequest b =
      parse_spec_request(R"({ "config" : { "seed" : 7, "profile" : "cg" },)"
                         R"( "name" : "spec" })");
  const SpecRequest c = parse_spec_request(
      R"({"deadline_seconds":0,"config":{"profile":"cg","seed":7,)"
      R"("threads":4,"intervals":40}})");
  EXPECT_EQ(canonical_spec_json(a), canonical_spec_json(b));
  EXPECT_EQ(canonical_spec_json(a), canonical_spec_json(c));
  EXPECT_EQ(fnv1a64(canonical_spec_json(a)),
            fnv1a64(canonical_spec_json(b)));

  const SpecRequest different =
      parse_spec_request(R"({"config":{"profile":"cg","seed":8}})");
  EXPECT_NE(canonical_spec_json(a), canonical_spec_json(different));
  EXPECT_NE(fnv1a64(canonical_spec_json(a)),
            fnv1a64(canonical_spec_json(different)));
}

TEST(SpecRequestJson, Fnv1a64MatchesTheReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(SpecJson, BatchResultSerializesPerArmStatuses) {
  sim::BatchResult batch;
  batch.spec_name = "demo";
  sim::ArmOutcome ok;
  ok.name = "good";
  ok.status = sim::ArmStatus::kOk;
  ok.result.outcome.total_cycles = 1234;
  ok.result.outcome.instructions_retired = 5678;
  ok.result.outcome.intervals_completed = 4;
  ok.wall_seconds = 0.25;
  sim::ArmOutcome bad;
  bad.name = "bad";
  bad.status = sim::ArmStatus::kTimedOut;
  bad.error = "arm deadline expired";
  bad.retries = 1;
  batch.arms.push_back(ok);
  batch.arms.push_back(bad);

  const std::string json = batch_result_to_json(batch);
  EXPECT_NE(json.find("\"type\":\"result\""), std::string::npos);
  EXPECT_NE(json.find("\"spec\":\"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"timed_out\""), std::string::npos);
  EXPECT_NE(json.find("\"total_cycles\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"error\":\"arm deadline expired\""),
            std::string::npos);
}

std::string golden_spec_path() {
  return std::string(CAPART_GOLDEN_DIR) + "/experiment_spec.json";
}

TEST(SpecRequestJson, GoldenSpecDocumentStaysParseable) {
  std::ifstream in(golden_spec_path());
  ASSERT_TRUE(in.good()) << golden_spec_path() << " missing";
  std::ostringstream text;
  text << in.rdbuf();

  const SpecRequest request = parse_spec_request(text.str());
  EXPECT_EQ(request.spec.name, "golden");
  EXPECT_DOUBLE_EQ(request.deadline_seconds, 30.0);
  ASSERT_EQ(request.spec.arms.size(), 2u);
  EXPECT_EQ(request.spec.arms[0].name, "cg/model-clos");
  // The golden document spells CLOS through the enforcement alias.
  EXPECT_EQ(request.spec.arms[0].config.l2_mode, mem::L2Mode::kClosShared);
  EXPECT_EQ(request.spec.arms[0].config.l2.repl,
            mem::ReplacementKind::kSrrip);
  EXPECT_EQ(request.spec.arms[0].config.l2.index, mem::IndexKind::kHash);
  EXPECT_EQ(request.spec.arms[0].config.l2_banks, 4u);
  EXPECT_EQ(request.spec.arms[1].name, "mg/baseline");
  EXPECT_TRUE(core::is_no_policy(request.spec.arms[1].config.policy));

  // The canonical bytes of the golden document are pinned to a second
  // golden file, so an accidental wire-format change (field rename, order
  // change, default drift) fails here instead of silently splitting the
  // result cache. Regenerate with CAPART_REGEN_GOLDEN=1.
  const std::string canonical_path =
      std::string(CAPART_GOLDEN_DIR) + "/experiment_spec_canonical.json";
  const std::string canonical = canonical_spec_json(request) + "\n";
  if (std::getenv("CAPART_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(canonical_path, std::ios::trunc);
    out << canonical;
    GTEST_SKIP() << "regenerated " << canonical_path;
  }
  std::ifstream canonical_in(canonical_path);
  ASSERT_TRUE(canonical_in.good())
      << canonical_path << " missing; regenerate with CAPART_REGEN_GOLDEN=1";
  std::ostringstream expected;
  expected << canonical_in.rdbuf();
  EXPECT_EQ(canonical, expected.str());
}

}  // namespace
}  // namespace capart::serve
