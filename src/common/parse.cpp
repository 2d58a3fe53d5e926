#include "src/common/parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "src/common/error.hpp"

namespace capart {
namespace {

[[noreturn]] void invalid(std::string_view flag) {
  const std::string name(flag);
  throw ConfigError(name, "invalid value for " + name);
}

[[noreturn]] void out_of_range(std::string_view flag, std::uint64_t max) {
  const std::string name(flag);
  throw ConfigError(name, "value for " + name + " out of range (max " +
                              std::to_string(max) + ")");
}

}  // namespace

std::uint64_t parse_u64_flag(std::string_view value, std::string_view flag,
                             std::uint64_t max) {
  // A flag without "=value" arrives as an empty view with a null data
  // pointer; copy before strtoull ever dereferences it.
  const std::string copy(value);
  if (copy.empty()) invalid(flag);
  // strtoull accepts "-1" (wrapping to 2^64-1), "+1", leading whitespace and
  // hex; a flag value must be plain decimal digits.
  if (copy[0] < '0' || copy[0] > '9') invalid(flag);
  errno = 0;
  char* end = nullptr;
  const std::uint64_t n = std::strtoull(copy.c_str(), &end, 10);
  if (end != copy.c_str() + copy.size()) invalid(flag);
  if (errno == ERANGE || n > max) out_of_range(flag, max);
  return n;
}

std::uint32_t parse_u32_flag(std::string_view value, std::string_view flag,
                             std::uint32_t max) {
  return static_cast<std::uint32_t>(parse_u64_flag(value, flag, max));
}

double parse_f64_flag(std::string_view value, std::string_view flag) {
  const std::string copy(value);
  if (copy.empty()) invalid(flag);
  if (copy[0] != '.' && (copy[0] < '0' || copy[0] > '9')) invalid(flag);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) invalid(flag);
  if (errno == ERANGE || !std::isfinite(v) || v < 0.0) {
    invalid(flag);
  }
  return v;
}

std::vector<std::string> split_flag_list(std::string_view value,
                                         std::string_view flag) {
  std::vector<std::string> items;
  std::string_view rest = value;
  for (;;) {
    const auto comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    if (item.empty()) {
      const std::string name(flag);
      throw ConfigError(name, "empty item in " + name + " list");
    }
    items.emplace_back(item);
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return items;
}

std::string parse_dir_flag(std::string_view value, std::string_view flag) {
  std::string dir(value);
  std::error_code ec;
  if (!dir.empty() && !std::filesystem::is_directory(dir, ec)) {
    const std::string name(flag);
    throw ConfigError(name, "invalid value for " + name + ": '" + dir +
                                "' is not an existing directory");
  }
  return dir;
}

}  // namespace capart
