#include "common/env.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <thread>

namespace paremsp {

std::optional<std::string> env_string(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

double env_double(const char* name, double fallback) {
  const auto s = env_string(name);
  if (!s) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(*s, &pos);
    return pos == s->size() ? v : fallback;
  } catch (...) {
    return fallback;
  }
}

int env_int(const char* name, int fallback) {
  const auto s = env_string(name);
  if (!s) return fallback;
  try {
    std::size_t pos = 0;
    const int v = std::stoi(*s, &pos);
    return pos == s->size() ? v : fallback;
  } catch (...) {
    return fallback;
  }
}

std::uint64_t env_uint64(const char* name, std::uint64_t fallback) {
  const auto s = env_string(name);
  if (!s) return fallback;
  // stoull would wrap a negative input to a huge value instead of
  // failing; a '-' anywhere means the string is not a valid u64.
  if (s->find('-') != std::string::npos) return fallback;
  // Explicit base selection: "0x..." is hex, everything else decimal —
  // base 0 would silently read a leading-zero seed like "0123" as octal.
  const bool hex = s->size() > 2 && (*s)[0] == '0' &&
                   ((*s)[1] == 'x' || (*s)[1] == 'X');
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(*s, &pos, hex ? 16 : 10);
    return pos == s->size() ? v : fallback;
  } catch (...) {
    return fallback;
  }
}

int hardware_threads() {
  // hardware_concurrency() asks the OS on every call (microseconds);
  // the count is read once per process.
  static const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return threads;
}

std::string environment_banner() {
  std::ostringstream os;
  os << "hardware threads: " << hardware_threads();
  return os.str();
}

}  // namespace paremsp
