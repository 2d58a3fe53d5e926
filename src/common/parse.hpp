// Strict command-line value parsing shared by the CLI front ends
// (tools/capart_sim, tools/capart_perfsmoke, bench/bench_common).
//
// strtoull alone is a trap for flag parsing: it accepts a leading '-' and
// wraps the negation into a huge unsigned value ("--intervals=-1" became
// 4294967295), and it reports overflow only through errno, which callers
// forgot to check before narrowing casts truncated the value silently
// ("--threads=4294967300" became 4). These helpers reject signs, check
// ERANGE, and range-check against the destination type's bounds, throwing
// ConfigError with the flag name so front ends print one clear line and
// exit with the usage status.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace capart {

/// Parses an unsigned decimal integer in [0, max]. Rejects empty values,
/// any sign character, trailing garbage, and values that overflow either
/// std::uint64_t or `max`. Throws ConfigError naming `flag`.
std::uint64_t parse_u64_flag(std::string_view value, std::string_view flag,
                             std::uint64_t max =
                                 std::numeric_limits<std::uint64_t>::max());

/// parse_u64_flag bounded to a 32-bit destination (--intervals, --l2-ways,
/// --threads, ...): the cast at the call site can never truncate.
std::uint32_t parse_u32_flag(std::string_view value, std::string_view flag,
                             std::uint32_t max =
                                 std::numeric_limits<std::uint32_t>::max());

/// Parses a finite non-negative decimal number (e.g. --arm-deadline=0.5).
/// Throws ConfigError naming `flag` on empty/signed/garbage/overflow input.
double parse_f64_flag(std::string_view value, std::string_view flag);

/// Splits a comma-separated flag value ("cg,mg") into its items. Empty
/// items — "", ",cg", "cg,,mg", trailing commas — throw ConfigError naming
/// `flag` instead of leaking an empty string into profile/policy lookup,
/// which would only fail much later and far less legibly.
std::vector<std::string> split_flag_list(std::string_view value,
                                         std::string_view flag);

/// Validates a directory flag (--trace-dir=DIR): an empty value (the flag's
/// "off") passes through; anything else must name an existing directory, or
/// ConfigError naming `flag` is thrown — at parse time, instead of an I/O
/// failure deep inside the first run that touches it.
std::string parse_dir_flag(std::string_view value, std::string_view flag);

}  // namespace capart
