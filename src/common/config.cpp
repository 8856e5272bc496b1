#include "common/config.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace verihvac {

std::string env_or(const std::string& name, const std::string& fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || *value == '\0') return fallback;
  return value;
}

namespace {

/// The whole value must parse: "40abc" and "abc" fail with an error naming
/// the variable, as the CLI's numeric options do.
template <typename T>
T env_number(const std::string& name, T fallback, const char* what) {
  const std::string raw = env_or(name, "");
  if (raw.empty()) return fallback;
  T value{};
  const auto [end, error] = std::from_chars(raw.data(), raw.data() + raw.size(), value);
  if (error == std::errc() && end == raw.data() + raw.size()) return value;
  throw std::invalid_argument("environment variable " + name + " expects " + what + ", got '" +
                              raw + "'");
}

}  // namespace

long env_or_long(const std::string& name, long fallback) {
  return env_number(name, fallback, "an integer");
}

double env_or_double(const std::string& name, double fallback) {
  return env_number(name, fallback, "a number");
}

bool env_flag(const std::string& name) {
  std::string raw = env_or(name, "");
  std::transform(raw.begin(), raw.end(), raw.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return raw == "1" || raw == "true" || raw == "on" || raw == "yes";
}

bool full_scale() { return env_flag("VERI_HVAC_FULL"); }

std::string output_dir() { return env_or("VERI_HVAC_OUT", "bench_out"); }

}  // namespace verihvac
