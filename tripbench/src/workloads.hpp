// The benchmark's three workloads.  Each sets itself up from the seed,
// measures for Options::seconds, checks every output against references
// made during set-up, and fills a Report.  With Options::trace it measures
// twice — untraced, then traced — and adds the per-layer metrics.
#pragma once

#include <string>
#include <vector>

#include "report.hpp"

namespace tripbench {

/// Full Figure-1 trips on fresh Sessions that write back to an empty store.
Report run_cold_trip(const Options& options);

/// The same trips served from a store populated during set-up.
Report run_disk_restart(const Options& options);

/// Memoized requests through an in-process Router behind a TcpServer.
Report run_warm_serve(const Options& options);

/// Every per-layer metric the benchmark reports, in BENCHMARK.json order,
/// with value 0; a workload overwrites the ones its layers produce.
std::vector<Metric> per_layer_template();

/// Sets the per-layer metric `name` (which must exist in `metrics`).
void set_metric(std::vector<Metric>& metrics, const std::string& name, double value);

/// A run's slices are at least this long.
inline constexpr double kSliceSeconds = 1.0;

/// The end-to-end figures of one measured run, taken slice by slice.  A
/// slice is a stretch of the run at least kSliceSeconds long: whole passes
/// over the corpus for trips, whole calibrated segments for requests.
/// Every op counts in the slice it finished in.  Each figure is the median
/// over slices of that slice's figure (the rate is the slice's ops over its
/// measured time, the quantiles are over the latency of each of its ops).
/// The callers pass times already rescaled by HostSpeed.
class EndToEnd {
 public:
  void add(double latency_us) {
    latency_us_.add(latency_us);
    ++ops_;
  }

  /// Ends the open slice, which took `seconds` of measured time.  A slice
  /// without ops counts as rate 0 and has no latencies.
  void close_slice(double seconds) {
    const std::uint64_t n = latency_us_.count();
    slices_.push_back({static_cast<double>(n) / seconds, latency_us_.quantile(0.50),
                       latency_us_.quantile(0.95), latency_us_.quantile(0.99)});
    seconds_ += seconds;
    if (n == 0) slices_.back().p50_us = -1.0;
    latency_us_.clear();
  }

  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  [[nodiscard]] std::size_t slices() const { return slices_.size(); }
  [[nodiscard]] double seconds() const { return seconds_; }  ///< Over all closed slices.
  [[nodiscard]] double ops_per_s() const { return median_of(&Slice::ops_per_s); }
  [[nodiscard]] double p50_us() const { return median_of(&Slice::p50_us); }
  [[nodiscard]] double p95_us() const { return median_of(&Slice::p95_us); }
  [[nodiscard]] double p99_us() const { return median_of(&Slice::p99_us); }

 private:
  struct Slice {
    double ops_per_s, p50_us, p95_us, p99_us;  ///< p50_us < 0: the slice had no ops.
  };

  [[nodiscard]] double median_of(double Slice::*field) const {
    std::vector<double> values;
    for (const Slice& s : slices_) {
      if (field == &Slice::ops_per_s || s.p50_us >= 0) values.push_back(s.*field);
    }
    return median(values);
  }

  Histogram latency_us_;  ///< The open slice's.
  std::vector<Slice> slices_;
  std::uint64_t ops_ = 0;
  double seconds_ = 0.0;
};

/// Appends the end-to-end metrics (and their text lines) to `report`.
void add_end_to_end(Report& report, const EndToEnd& e2e, const char* op_name,
                    double setup_s);

}  // namespace tripbench
