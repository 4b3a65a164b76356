// Small helpers shared by the benchmark driver: clocks, order
// statistics, seeded randomness, span recording and metric output.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Logical CPUs this process may run on (the thread budget).
inline int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

inline std::uint64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

/// SplitMix64: the benchmark's own seeded generator, independent of the
/// library's RNGs so inputs do not change when the library's do.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// q-quantile (0 <= q <= 1) by linear interpolation; 0 for no samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double harmonic_mean(const std::vector<double>& v) {
  double inv = 0.0;
  for (double x : v) inv += 1.0 / x;
  return v.empty() ? 0.0 : static_cast<double>(v.size()) / inv;
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Spans recorded by the benchmark around its calls into each layer
/// (traced runs only). Kept in memory and written once, as a Chrome
/// trace, when the run ends. Single-threaded: only the driver's main
/// thread records.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  /// Records [start, end) under `name`; `parent` is the index returned
  /// for the enclosing span (-1 for none). Returns this span's index.
  int span(const char* name, Clock::time_point start, Clock::time_point end,
           int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Sets the end of span `index`, opened earlier with start == end.
  void close(int index, Clock::time_point end) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end = end;
  }

  std::size_t size() const { return spans_.size(); }

  bool write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts =
          std::chrono::duration<double, std::micro>(s.start - t0_).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << ts
          << ", \"dur\": " << dur << ", \"args\": {\"id\": " << i
          << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start, end;
    int parent;
  };
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Named metrics in insertion order, printed as the result's JSON.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

}  // namespace perfbench
