// Shared vocabulary of the trip benchmark: run options, the per-run report
// every workload fills, and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace tripbench {

using Clock = std::chrono::steady_clock;

/// Scenarios per seed: the size of wl::default_corpus().
inline constexpr std::size_t kCorpusCount = 96;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;    ///< Scratch space for stores; the caller removes it.
  std::filesystem::path trace_file;  ///< Chrome trace output of a traced run.
};

/// setup_s is the median of this many set-ups.  A traced run does not
/// report setup_s and sets up once.
inline constexpr int kSetupReps = 3;

inline int setup_reps(const Options& o) { return o.trace ? 1 : kSetupReps; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports.  `end_to_end` is filled by every run;
/// `per_layer` only by traced runs.  `text` is the human-readable part,
/// printed before the final JSON line.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string text;

  void fail(std::uint64_t n = 1) { failed += n; }
};

/// Nearest-rank quantile of `values` (sorted in place).
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  return values[std::min(values.size() - 1, rank)];
}

inline double median(std::vector<double> values) { return quantile(values, 0.5); }

/// Every latency of a run in fixed memory, so the run's length does not
/// show in peak_rss_mb.  Buckets are log-spaced, 1% wide, from 0.1 us to
/// 1000 s; quantile() interpolates by rank inside its bucket.
class Histogram {
 public:
  void add(double us) {
    const double b = std::floor(std::log(std::max(us, kLowUs) / kLowUs) / std::log(kGrowth));
    ++counts_[static_cast<std::size_t>(std::min(b, static_cast<double>(kBuckets - 1)))];
    ++count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  void clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
  }

  /// Nearest-rank quantile, as quantile() above, to within one bucket.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = std::min(q * static_cast<double>(count_), static_cast<double>(count_ - 1));
    double below = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const auto n = static_cast<double>(counts_[b]);
      if (below + n > rank) {
        const double low = kLowUs * std::pow(kGrowth, static_cast<double>(b));
        return low + low * (kGrowth - 1.0) * (rank - below + 0.5) / n;
      }
      below += n;
    }
    return 0.0;
  }

 private:
  static constexpr double kLowUs = 0.1;
  static constexpr double kGrowth = 1.01;
  static constexpr std::size_t kBuckets = 2315;  ///< 0.1 us * 1.01^2315 > 1000 s.
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
};

/// Rescales measured times to a reference host speed.
///
/// The shared host the benchmark was tuned on runs all its CPUs slow or
/// fast together, in spells of 5-30 s and up to 1.8x apart: longer than a
/// run, so no median inside a run removes them.  The workloads therefore
/// interleave their timed work with a fixed calibration kernel (about 1
/// ms of integer work over a 256 KiB table; nothing of asipfb) and multiply
/// every time they measure by kReferenceKernelUs over the median of the
/// last kWindow kernel times.  A change to asipfb moves the raw time and
/// not the kernel, so it moves the rescaled time by the same share.
class HostSpeed {
 public:
  /// The kernel's time on the tuning host in its fast state (Release -O3).
  static constexpr double kReferenceKernelUs = 1000.0;
  static constexpr std::size_t kWindow = 5;

  /// Times the kernel `times` times and adds each to the window.
  void calibrate(int times = 1);

  /// `raw` (any time unit) at the reference speed.
  [[nodiscard]] double scale(double raw) const { return raw * factor(); }

  /// kReferenceKernelUs over the median kernel time of the window.
  [[nodiscard]] double factor() const;

  /// Kernel runs so far.
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

 private:
  std::vector<double> recent_us_;  ///< The last kWindow kernel times.
  std::uint64_t samples_ = 0;
};

/// Runs `reset` then `once`, `reps` times, and returns the median time of
/// `once` in seconds, each rescaled by calibrations taken just before and
/// just after it.
template <class Reset, class Once>
double scaled_setup_seconds(int reps, Reset&& reset, Once&& once) {
  HostSpeed speed;
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    reset();
    speed.calibrate(3);
    const auto start = Clock::now();
    once();
    const double raw = seconds_since(start);
    speed.calibrate(2);
    times.push_back(speed.scale(raw));
  }
  return median(times);
}

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// printf into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace tripbench
