// Outside-in span recorder of the traced runs.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions; nothing inside the library is instrumented.  A span
// has a name "<layer>.<what>", a start, an end, a parent (the span open
// around it) and the id of the trip or request it belongs to.  Spans stay
// in memory and are written out as Chrome trace-event JSON at the end.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"

namespace tripbench {

/// Most spans a Chrome trace file holds.  A run with more writes every
/// op_stride-th op whole (all of its spans), so every phase stays in the
/// file; the stride is recorded in the file's otherData.
inline constexpr std::size_t kMaxTraceSpans = 200000;

struct Span {
  const char* name = "";  ///< Static string: "<layer>.<what>".
  std::uint64_t op = 0;   ///< Trip or request id shared by its spans.
  std::int32_t parent = -1;
  std::int32_t lane = 0;  ///< Trace-viewer row (connection for requests).
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Layer of a span name: the part before the first '.'.
std::string_view layer_of(std::string_view name);

class Tracer {
 public:
  /// RAII span: opened by Tracer::scope(), closed by its destructor.
  class Scope {
   public:
    Scope(Tracer& tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  Tracer();

  /// Opens a span under the innermost open one, tagged with the current op.
  [[nodiscard]] Scope scope(const char* name);

  /// Records a span timed elsewhere (e.g. from a response's latency field).
  std::int32_t add(const char* name, std::uint64_t op, std::int32_t parent,
                   std::int32_t lane, Clock::time_point start,
                   Clock::time_point end);

  void set_op(std::uint64_t op) { op_ = op; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span: its duration minus the time its children cover.
  [[nodiscard]] std::vector<double> self_ms() const;

  /// Sum of inclusive durations per span name.
  [[nodiscard]] std::map<std::string, double> total_ms_by_name() const;

  /// Writes the spans as Chrome trace-event JSON, sampled whole ops at a
  /// time to at most about kMaxTraceSpans.
  bool write_chrome_trace(const std::filesystem::path& path) const;

 private:
  void close(std::int32_t index);
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< Stack of open span indices.
};

/// Self time per layer, over all spans (ms).
std::map<std::string, double> self_ms_by_layer(const Tracer& tracer);

/// Self time per span name, over the spans of ops whose root span is
/// named `root` (ms).
std::map<std::string, double> self_ms_by_name(const Tracer& tracer, std::string_view root);

/// Renders a self-time table (one row per key of `self_ms`, a layer or a
/// span name): time per op (ms times `scale`, labelled `unit_label`) and
/// share of `wall_ms`.
std::string layer_table(const std::map<std::string, double>& self_ms,
                        double ops, double wall_ms, const char* unit_label,
                        double scale = 1.0);

}  // namespace tripbench
