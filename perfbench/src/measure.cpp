#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace perfbench {

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(values, n=4), method="exclusive".
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (std::isinf(values[hi])) return frac > 0.0 ? values[hi] : values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t hash_labels(const paremsp::LabelImage& labels) {
  // Four independent multiply-xorshift lanes over 64-bit words keep this
  // well under the cost of labeling the plane.
  std::uint64_t lanes[4] = {0x9E3779B97F4A7C15ull, 0xC2B2AE3D27D4EB4Full,
                            0x165667B19E3779F9ull, 0x27D4EB2F165667C5ull};
  constexpr std::uint64_t kMul = 0xFF51AFD7ED558CCDull;
  for (paremsp::Coord r = 0; r < labels.rows(); ++r) {
    const auto* row = reinterpret_cast<const unsigned char*>(labels.row(r));
    const std::size_t bytes =
        static_cast<std::size_t>(labels.cols()) * sizeof(paremsp::Label);
    std::size_t i = 0;
    for (; i + 32 <= bytes; i += 32) {
      for (int k = 0; k < 4; ++k) {
        std::uint64_t w = 0;
        std::memcpy(&w, row + i + 8 * k, 8);
        lanes[k] = (lanes[k] ^ w) * kMul;
        lanes[k] ^= lanes[k] >> 29;
      }
    }
    for (; i < bytes; ++i) lanes[0] = (lanes[0] ^ row[i]) * kMul;
    lanes[1] ^= static_cast<std::uint64_t>(r);
  }
  std::uint64_t h = static_cast<std::uint64_t>(labels.rows()) * 31 +
                    static_cast<std::uint64_t>(labels.cols());
  for (const std::uint64_t lane : lanes) {
    h = (h ^ lane) * kMul;
    h ^= h >> 33;
  }
  return h;
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::begin(const char* name, std::int64_t request, int parent) {
  if (!enabled_) return -1;
  const std::int64_t start = now_ns();
  std::lock_guard lock(mutex_);
  spans_.push_back({name, start, start, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  const std::int64_t end = now_ns();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(mutex_);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void MetricTable::add(const std::string& name, const std::string& unit,
                      std::vector<double> samples) {
  entries_.push_back({name, unit, summarize(std::move(samples))});
}

void MetricTable::add_value(const std::string& name, const std::string& unit,
                            double value) {
  entries_.push_back({name, unit, Summary{value, value, value, 1}});
}

void MetricTable::print(std::ostream& out) const {
  for (const Entry& e : entries_) {
    out << "  " << std::left << std::setw(34) << e.name << std::right
        << std::setw(14) << std::setprecision(6) << e.summary.median << " "
        << std::left << std::setw(8) << e.unit << std::right << " q1 "
        << std::setprecision(6) << e.summary.q1 << "  q3 " << e.summary.q3
        << "  n=" << e.summary.n << "\n";
  }
}

std::string MetricTable::json() const {
  std::ostringstream out;
  out << std::setprecision(17) << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out << (i > 0 ? ", " : "") << json_string(e.name) << ": {\"value\": "
        << (std::isfinite(e.summary.median) ? e.summary.median : 0.0)
        << ", \"unit\": " << json_string(e.unit) << "}";
  }
  out << "}";
  return out.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
