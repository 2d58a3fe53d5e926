// JSON codec between the wire format capart_serve accepts and the
// declarative batch layer (sim::ExperimentSpec / sim::ExperimentConfig).
//
// The wire spec is a JSON object:
//
//   {
//     "name": "myspec",                 // optional label (default "spec")
//     "deadline_seconds": 5.0,          // optional per-request arm deadline
//     "arms": [                         // one or more named arms...
//       {"name": "cg/model", "config": { ...ExperimentConfig fields... }}
//     ],
//     "config": { ... }                 // ...or shorthand for one arm "run"
//   }
//
// Config field names and enum spellings match the manifest event exactly
// ("profile", "policy": "model-based", "l2_mode": "partitioned-shared",
// "l2": {"sets","ways","line_bytes","repl","index"}, ...), so the config a
// JSONL events file records is directly resubmittable. Every field is
// optional and defaults to ExperimentConfig's default; unknown keys are
// rejected (they would silently change the canonical hash otherwise), and
// every error throws ConfigError whose message names the offending JSON
// path — parse failures additionally carry the byte offset reported by
// obs::parse_json.
// The legacy enforcement field is read as an input alias only: it folds
// into "l2_mode" and is never written back.
//
// Canonicalization: canonical_spec_json re-serializes the parsed request
// with every field present in a fixed order, so two spec documents that
// differ only in whitespace, key order or explicitly-spelled defaults hash
// identically. fnv1a64 over those bytes is the result-cache key.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/obs/json.hpp"
#include "src/sim/batch.hpp"
#include "src/sim/experiment.hpp"

namespace capart::serve {

/// Writes every ExperimentConfig field into the writer's currently open
/// object — the single source of truth for config serialization, shared by
/// the manifest event (src/obs/event_log.cpp) and the canonical spec form.
void write_config_fields(obs::JsonWriter& w, const sim::ExperimentConfig& c);

/// One config as a standalone JSON object document.
std::string config_to_json(const sim::ExperimentConfig& c);

/// Parses one config object. `where` prefixes error paths (e.g.
/// "arms[0].config"). Throws ConfigError on non-object input, unknown keys,
/// type mismatches and out-of-range values; does NOT run
/// ExperimentConfig::validate() (spec_request_from_json does, per arm).
sim::ExperimentConfig config_from_json(const obs::JsonValue& json,
                                       const std::string& where);

/// A parsed submission: the spec plus request-level execution options.
struct SpecRequest {
  sim::ExperimentSpec spec;
  /// Per-arm wall-clock deadline; 0 = the server's default.
  double deadline_seconds = 0.0;
};

/// Parses a spec document (see header comment). Each arm's config is
/// validated through ExperimentConfig::validate() and its profile name
/// checked against trace::benchmark_names(), so an invalid submission is
/// rejected before it consumes an admission slot.
SpecRequest spec_request_from_json(const obs::JsonValue& json);

/// Parses raw (untrusted) body text: obs::parse_json under `limits`, then
/// spec_request_from_json. Parse failures throw ConfigError whose message
/// embeds the byte offset ("spec JSON: offset 17: ...").
SpecRequest parse_spec_request(std::string_view body,
                               const obs::JsonLimits& limits = {});

/// Fixed-order full re-serialization of the request; input documents that
/// mean the same run produce identical bytes.
std::string canonical_spec_json(const SpecRequest& request);

/// FNV-1a 64-bit over `bytes` — the content-address of a canonical spec.
std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Response body for a completed batch: spec name, overall ok flag, and one
/// entry per arm (status, error, retries, outcome totals, wall time). One
/// line, no trailing newline — also the final event line of a streamed
/// response.
std::string batch_result_to_json(const sim::BatchResult& batch);

}  // namespace capart::serve
