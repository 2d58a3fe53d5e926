#include "src/serve/spec_json.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/clos_mapper.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/core/policy.hpp"
#include "src/mem/block_index.hpp"
#include "src/mem/l2_organization.hpp"
#include "src/mem/replacement.hpp"
#include "src/trace/benchmarks.hpp"

namespace capart::serve {
namespace {

std::string_view to_string(core::ModelKind kind) noexcept {
  return kind == core::ModelKind::kCubicSpline ? "cubic-spline"
                                               : "piecewise-linear";
}

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  throw ConfigError(path, path + ": " + message);
}

/// Reads one JSON object with unknown-key rejection: every getter marks its
/// key consumed; finish() throws on whatever was never asked for. Getters
/// throw on type mismatches, naming the full JSON path.
class ObjectReader {
 public:
  ObjectReader(const obs::JsonValue& json, std::string where)
      : json_(json), where_(std::move(where)) {
    if (!json_.is_object()) fail(where_, "expected a JSON object");
    used_.assign(json_.object.size(), false);
  }

  const std::string& where() const noexcept { return where_; }

  std::string path(std::string_view key) const {
    return where_ + "." + std::string(key);
  }

  /// The member named `key`, marked consumed; nullptr when absent.
  const obs::JsonValue* take(std::string_view key) {
    for (std::size_t i = 0; i < json_.object.size(); ++i) {
      if (json_.object[i].first == key) {
        used_[i] = true;
        return &json_.object[i].second;
      }
    }
    return nullptr;
  }

  template <class T>
  void u_int(std::string_view key, T& out,
             std::uint64_t max = std::numeric_limits<T>::max()) {
    const obs::JsonValue* v = take(key);
    if (v == nullptr) return;
    if (!v->is_number() || !v->is_integer) {
      fail(path(key), "expected a non-negative integer");
    }
    if (v->u64 > max) {
      fail(path(key), "value " + std::to_string(v->u64) + " exceeds maximum " +
                          std::to_string(max));
    }
    out = static_cast<T>(v->u64);
  }

  void number(std::string_view key, double& out) {
    const obs::JsonValue* v = take(key);
    if (v == nullptr) return;
    if (!v->is_number()) fail(path(key), "expected a number");
    out = v->as_double();
  }

  void boolean(std::string_view key, bool& out) {
    const obs::JsonValue* v = take(key);
    if (v == nullptr) return;
    if (v->kind != obs::JsonValue::Kind::kBool) {
      fail(path(key), "expected true or false");
    }
    out = v->boolean;
  }

  void string(std::string_view key, std::string& out) {
    const obs::JsonValue* v = take(key);
    if (v == nullptr) return;
    if (!v->is_string()) fail(path(key), "expected a string");
    out = v->string;
  }

  /// Enum via a parse callback returning false on unknown spellings.
  template <class E, class Parse>
  void enumeration(std::string_view key, E& out, Parse parse,
                   std::string_view expected) {
    const obs::JsonValue* v = take(key);
    if (v == nullptr) return;
    if (!v->is_string()) fail(path(key), "expected a string");
    if (!parse(v->string, out)) {
      fail(path(key), "unknown value '" + v->string + "' (expected " +
                          std::string(expected) + ")");
    }
  }

  /// Throws on the first key no getter consumed — unknown keys are the
  /// difference between "this field defaulted" and "this field was silently
  /// dropped", which matters for a content-addressed cache.
  void finish() const {
    for (std::size_t i = 0; i < json_.object.size(); ++i) {
      if (!used_[i]) {
        fail(where_, "unknown key \"" + json_.object[i].first + "\"");
      }
    }
  }

 private:
  const obs::JsonValue& json_;
  std::string where_;
  std::vector<bool> used_;
};

bool parse_model_kind(std::string_view name, core::ModelKind& out) noexcept {
  if (name == "cubic-spline") {
    out = core::ModelKind::kCubicSpline;
  } else if (name == "piecewise-linear") {
    out = core::ModelKind::kPiecewiseLinear;
  } else {
    return false;
  }
  return true;
}

void geometry_from_json(const obs::JsonValue& json, const std::string& where,
                        mem::CacheGeometry& g) {
  ObjectReader r(json, where);
  r.u_int("sets", g.sets);
  r.u_int("ways", g.ways);
  r.u_int("line_bytes", g.line_bytes);
  r.enumeration("repl", g.repl, mem::parse_replacement, "lru, plru or srrip");
  r.enumeration("index", g.index, mem::parse_index_kind,
                "scan, hash or auto");
  r.finish();
}

void write_geometry(obs::JsonWriter& w, const mem::CacheGeometry& g) {
  w.begin_object()
      .key("sets").value(g.sets)
      .key("ways").value(g.ways)
      .key("line_bytes").value(g.line_bytes)
      .key("repl").value(mem::to_string(g.repl))
      .key("index").value(mem::to_string(g.index))
      .end_object();
}

}  // namespace

void write_config_fields(obs::JsonWriter& w, const sim::ExperimentConfig& c) {
  w.key("profile").value(c.profile)
      .key("policy").value(c.policy)
      .key("l2_mode").value(mem::to_string(c.l2_mode))
      .key("threads").value(c.num_threads)
      .key("intervals").value(c.num_intervals)
      .key("interval_instructions").value(c.interval_instructions)
      .key("sections").value(c.sections)
      .key("seed").value(c.seed);
  w.key("l1");
  write_geometry(w, c.l1);
  w.key("l2");
  write_geometry(w, c.l2);
  w.key("timing").begin_object()
      .key("base_cycles_per_instruction")
      .value(c.timing.base_cycles_per_instruction)
      .key("private_l2_hit_penalty").value(c.timing.private_l2_hit_penalty)
      .key("l2_hit_penalty").value(c.timing.l2_hit_penalty)
      .key("memory_penalty").value(c.timing.memory_penalty)
      .key("streaming_memory_penalty").value(c.timing.streaming_memory_penalty)
      .end_object();
  w.key("l2_banks").value(c.l2_banks)
      .key("l2_bank_service_cycles").value(c.l2_bank_service_cycles)
      .key("clos_budget").value(c.clos_budget)
      .key("clos_mapper").value(core::to_string(c.clos_mapper))
      .key("clos_mask_update_cycles").value(c.clos_mask_update_cycles)
      .key("enable_private_l2").value(c.enable_private_l2);
  w.key("private_l2");
  write_geometry(w, c.private_l2);
  w.key("runtime_overhead_cycles").value(c.runtime_overhead_cycles)
      .key("reconfigure_flush_cost_per_line")
      .value(c.reconfigure_flush_cost_per_line)
      .key("barrier_release_cost").value(c.barrier_release_cost);
  w.key("policy_options").begin_object()
      .key("model_kind").value(to_string(c.policy_options.model_kind))
      .key("ewma_alpha").value(c.policy_options.ewma_alpha)
      .key("max_moves_per_interval")
      .value(c.policy_options.max_moves_per_interval)
      .key("time_shared_big_fraction")
      .value(c.policy_options.time_shared_big_fraction)
      .key("time_shared_quantum").value(c.policy_options.time_shared_quantum)
      .end_object();
  w.key("migrations").begin_array();
  for (const sim::MigrationEvent& m : c.migrations) {
    w.begin_object()
        .key("interval").value(m.interval)
        .key("a").value(m.a)
        .key("b").value(m.b)
        .end_object();
  }
  w.end_array();
}

std::string config_to_json(const sim::ExperimentConfig& c) {
  obs::JsonWriter w;
  w.begin_object();
  write_config_fields(w, c);
  w.end_object();
  return w.str();
}

sim::ExperimentConfig config_from_json(const obs::JsonValue& json,
                                       const std::string& where) {
  sim::ExperimentConfig c;
  ObjectReader r(json, where);
  r.string("profile", c.profile);
  if (const obs::JsonValue* v = r.take("policy")) {
    if (!v->is_string()) fail(r.path("policy"), "expected a string");
    // Resolve against the live registry (aliases canonicalize, so the spec
    // that comes back from config_to_json round-trips byte-identically).
    const std::string_view canonical =
        core::registry().canonical(v->string);
    if (canonical.empty()) {
      fail(r.path("policy"),
           "unknown policy '" + v->string + "' (expected " +
               core::registry().known_names(/*include_none=*/true) + ")");
    }
    c.policy = std::string(canonical);
  }
  r.enumeration("l2_mode", c.l2_mode, mem::parse_l2_mode,
                "shared-unpartitioned, partitioned-shared, "
                "private-per-thread, set-partitioned-shared, "
                "flush-reconfigure-shared or clos-shared");
  r.u_int("threads", c.num_threads);
  r.u_int("intervals", c.num_intervals);
  r.u_int("interval_instructions", c.interval_instructions);
  r.u_int("sections", c.sections);
  r.u_int("seed", c.seed);
  if (const obs::JsonValue* v = r.take("l1")) {
    geometry_from_json(*v, r.path("l1"), c.l1);
  }
  if (const obs::JsonValue* v = r.take("l2")) {
    geometry_from_json(*v, r.path("l2"), c.l2);
  }
  if (const obs::JsonValue* v = r.take("timing")) {
    ObjectReader t(*v, r.path("timing"));
    t.u_int("base_cycles_per_instruction",
            c.timing.base_cycles_per_instruction);
    t.u_int("private_l2_hit_penalty", c.timing.private_l2_hit_penalty);
    t.u_int("l2_hit_penalty", c.timing.l2_hit_penalty);
    t.u_int("memory_penalty", c.timing.memory_penalty);
    t.u_int("streaming_memory_penalty", c.timing.streaming_memory_penalty);
    t.finish();
  }
  r.u_int("l2_banks", c.l2_banks);
  r.u_int("l2_bank_service_cycles", c.l2_bank_service_cycles);
  r.u_int("clos_budget", c.clos_budget);
  r.enumeration("clos_mapper", c.clos_mapper, core::parse_clos_mapper,
                "none, nearest, minmax or lfoc");
  r.u_int("clos_mask_update_cycles", c.clos_mask_update_cycles);
  r.boolean("enable_private_l2", c.enable_private_l2);
  if (const obs::JsonValue* v = r.take("private_l2")) {
    geometry_from_json(*v, r.path("private_l2"), c.private_l2);
  }
  r.u_int("runtime_overhead_cycles", c.runtime_overhead_cycles);
  r.u_int("reconfigure_flush_cost_per_line",
          c.reconfigure_flush_cost_per_line);
  r.u_int("barrier_release_cost", c.barrier_release_cost);
  if (const obs::JsonValue* v = r.take("policy_options")) {
    ObjectReader p(*v, r.path("policy_options"));
    p.enumeration("model_kind", c.policy_options.model_kind, parse_model_kind,
                  "cubic-spline or piecewise-linear");
    p.number("ewma_alpha", c.policy_options.ewma_alpha);
    p.u_int("max_moves_per_interval", c.policy_options.max_moves_per_interval);
    p.number("time_shared_big_fraction",
             c.policy_options.time_shared_big_fraction);
    p.u_int("time_shared_quantum", c.policy_options.time_shared_quantum);
    p.finish();
  }
  if (const obs::JsonValue* v = r.take("migrations")) {
    if (!v->is_array()) fail(r.path("migrations"), "expected an array");
    for (std::size_t i = 0; i < v->array.size(); ++i) {
      sim::MigrationEvent m;
      ObjectReader e(v->array[i],
                     r.path("migrations") + "[" + std::to_string(i) + "]");
      e.u_int("interval", m.interval);
      e.u_int("a", m.a);
      e.u_int("b", m.b);
      e.finish();
      c.migrations.push_back(m);
    }
  }
  // The enforcement alias folds into l2_mode once both have been read.
  std::string enforce = "default";
  r.string("l2_enforce", enforce);
  try {
    c.l2_mode = mem::fold_l2_enforce(c.l2_mode, enforce);
  } catch (const ConfigError& error) {
    fail(r.path("l2_enforce"), error.what());
  }
  r.finish();
  return c;
}

SpecRequest spec_request_from_json(const obs::JsonValue& json) {
  SpecRequest request;
  ObjectReader r(json, "spec");
  request.spec.name = "spec";
  r.string("name", request.spec.name);
  r.number("deadline_seconds", request.deadline_seconds);
  if (!(request.deadline_seconds >= 0.0) ||
      !std::isfinite(request.deadline_seconds)) {
    fail("spec.deadline_seconds", "expected a finite value >= 0");
  }
  const obs::JsonValue* arms = r.take("arms");
  const obs::JsonValue* shorthand = r.take("config");
  r.finish();
  if ((arms != nullptr) == (shorthand != nullptr)) {
    fail("spec", "expected exactly one of \"arms\" or \"config\"");
  }
  if (shorthand != nullptr) {
    request.spec.add("run", config_from_json(*shorthand, "spec.config"));
  } else {
    if (!arms->is_array() || arms->array.empty()) {
      fail("spec.arms", "expected a non-empty array");
    }
    for (std::size_t i = 0; i < arms->array.size(); ++i) {
      const std::string where = "spec.arms[" + std::to_string(i) + "]";
      ObjectReader a(arms->array[i], where);
      std::string name = "arm" + std::to_string(i);
      a.string("name", name);
      const obs::JsonValue* config = a.take("config");
      a.finish();
      if (config == nullptr) fail(where, "missing \"config\"");
      request.spec.add(name, config_from_json(*config, where + ".config"));
    }
  }
  // Reject what the simulator could never run *before* the request costs an
  // admission slot; the BatchRunner would only discover it inside the arm.
  const std::vector<std::string>& known = trace::benchmark_names();
  for (const sim::ExperimentArm& arm : request.spec.arms) {
    arm.config.validate();
    bool found = false;
    for (const std::string& name : known) found = found || name == arm.config.profile;
    if (!found) {
      throw ConfigError("profile", "spec arm '" + arm.name +
                                       "': unknown profile '" +
                                       arm.config.profile + "'");
    }
  }
  return request;
}

SpecRequest parse_spec_request(std::string_view body,
                               const obs::JsonLimits& limits) {
  std::string error;
  const std::optional<obs::JsonValue> json =
      obs::parse_json(body, &error, limits);
  if (!json.has_value()) {
    // `error` carries the byte offset ("offset 17: ..."); keep it verbatim
    // so clients can point at the broken byte of what they sent.
    throw ConfigError("spec", "spec JSON: " + error);
  }
  return spec_request_from_json(*json);
}

std::string canonical_spec_json(const SpecRequest& request) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("name").value(request.spec.name);
  w.key("deadline_seconds").value(request.deadline_seconds);
  w.key("arms").begin_array();
  for (const sim::ExperimentArm& arm : request.spec.arms) {
    w.begin_object().key("name").value(arm.name).key("config").begin_object();
    write_config_fields(w, arm.config);
    w.end_object().end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x00000100000001b3ull;
  }
  return hash;
}

std::string batch_result_to_json(const sim::BatchResult& batch) {
  obs::JsonWriter w;
  w.begin_object()
      .key("type").value("result")
      .key("spec").value(batch.spec_name)
      .key("ok").value(batch.all_ok())
      .key("arms").begin_array();
  for (const sim::ArmOutcome& arm : batch.arms) {
    w.begin_object()
        .key("name").value(arm.name)
        .key("status").value(sim::to_string(arm.status))
        .key("error").value(arm.error)
        .key("retries").value(arm.retries)
        .key("total_cycles").value(arm.result.outcome.total_cycles)
        .key("instructions_retired")
        .value(arm.result.outcome.instructions_retired)
        .key("intervals_completed")
        .value(arm.result.outcome.intervals_completed)
        .key("wall_seconds").value(arm.wall_seconds)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace capart::serve
