#pragma once
// Instrumentation the benchmark takes from outside the libraries: a
// process-wide heap-allocation counter (alloc_counter.cpp replaces the
// global operator new), an in-memory span recorder written once at
// exit, and the small statistics the metrics are built from.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <string>
#include <vector>

namespace perfbench {

// --- heap allocations ------------------------------------------------------

/// Start or stop counting calls to the global operator new (all forms).
/// Counting is off by default so the untraced run pays only one relaxed
/// load per allocation.
void count_allocations(bool on);
/// Allocations counted since the process started.
std::uint64_t allocations();

// --- time ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Wall seconds one call of `fn` takes.
template <class Fn>
double time_call(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

// --- spans -----------------------------------------------------------------

/// Spans kept in memory while the benchmark runs and written as JSON at
/// exit.  Single-threaded: the traced passes run serially.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
    int parent = -1;     ///< index of the enclosing span, -1 at the root
  };

  /// Open a span under the innermost open one; returns its index.
  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  /// Close span `id` (the innermost open one); returns its duration.
  double close(int id) {
    Span& s = spans_.at(static_cast<std::size_t>(id));
    s.end = now();
    stack_.pop_back();
    return s.end - s.start;
  }

  /// Summed duration of every closed span called `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_)
      if (s.name == name) sum += s.end - s.start;
    return sum;
  }

  /// Write every span as JSON; returns false if the file cannot be written.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::ofstream os(path);
    if (!os) return false;
    os << std::setprecision(9) << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
       << ", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name
         << "\", \"start_s\": " << s.start << ", \"end_s\": " << s.end
         << ", \"parent\": " << s.parent << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on `close()` or scope exit.
/// A null tracer makes it a no-op, so untraced runs share the code.
class Scope {
 public:
  Scope(Tracer* t, std::string name)
      : t_(t), id_(t ? t->open(std::move(name)) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Close now and return the span's duration in seconds (0 untraced).
  double close() {
    const double d = id_ >= 0 ? t_->close(id_) : 0.0;
    id_ = -1;
    return d;
  }

 private:
  Tracer* t_;
  int id_;
};

// --- statistics ------------------------------------------------------------

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, `p` in (0, 100].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(v.size()))),
      1, v.size());
  return v[rank - 1];
}

inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/// 64-bit FNV-1a over raw bytes, chained through `h` (start at kFnvBasis).
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
