#include "trace.hpp"

#include <sys/resource.h>

#include <cstdarg>
#include <cstdio>
#include <fstream>

namespace tripbench {

namespace {

/// One run of HostSpeed's calibration kernel, in microseconds.
double kernel_us() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1 << 16);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<std::uint32_t>(i) * 2654435761u;
    return t;
  }();
  static volatile std::uint64_t sink = 0;
  const auto start = Clock::now();
  std::uint64_t acc = 0;
  for (int rep = 0; rep < 12; ++rep) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      acc = acc * 31 + table[(i * 7919) & (table.size() - 1)];
    }
  }
  const double us = std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  sink = sink + acc;
  return us;
}

}  // namespace

void HostSpeed::calibrate(int times) {
  for (int i = 0; i < times; ++i) {
    if (recent_us_.size() == kWindow) recent_us_.erase(recent_us_.begin());
    recent_us_.push_back(kernel_us());
    ++samples_;
  }
}

double HostSpeed::factor() const {
  if (recent_us_.empty()) return 1.0;
  std::vector<double> v = recent_us_;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const double mid = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  return kReferenceKernelUs / mid;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n < 0) return {};
  return std::string(buf, std::min<std::size_t>(static_cast<std::size_t>(n), sizeof buf - 1));
}

std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

Tracer::Scope Tracer::scope(const char* name) {
  Span span;
  span.name = name;
  span.op = op_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = ns(Clock::now());
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  return Scope(*this, index);
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = ns(Clock::now());
  open_.pop_back();
}

std::int32_t Tracer::add(const char* name, std::uint64_t op, std::int32_t parent,
                         std::int32_t lane, Clock::time_point start,
                         Clock::time_point end) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = parent;
  span.lane = lane;
  span.start_ns = ns(start);
  span.end_ns = ns(end);
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.ms();
  }
  for (double& s : self) s = std::max(0.0, s);
  return self;
}

std::map<std::string, double> Tracer::total_ms_by_name() const {
  std::map<std::string, double> totals;
  for (const Span& span : spans_) totals[span.name] += span.ms();
  return totals;
}

bool Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  std::error_code ec;
  if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  const std::size_t stride =
      std::max<std::size_t>(1, (spans_.size() + kMaxTraceSpans - 1) / kMaxTraceSpans);
  std::size_t written = 0;
  for (const Span& s : spans_) written += s.op % stride == 0;
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"spans\": " << spans_.size()
      << ", \"written\": " << written << ", \"op_stride\": " << stride
      << "},\n\"traceEvents\": [\n";
  char line[512];
  const char* sep = "";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op % stride != 0) continue;
    const std::string layer(layer_of(s.name));
    std::snprintf(line, sizeof line,
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"op\": %llu, "
                  "\"span\": %zu, \"parent\": %d}}",
                  sep, s.name, layer.c_str(), static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.lane + 1,
                  static_cast<unsigned long long>(s.op), i, s.parent);
    out << line;
    sep = ",\n";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> self_ms_by_layer(const Tracer& tracer) {
  const std::vector<double> self = tracer.self_ms();
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < self.size(); ++i) {
    by_layer[std::string(layer_of(tracer.spans()[i].name))] += self[i];
  }
  return by_layer;
}

std::map<std::string, double> self_ms_by_name(const Tracer& tracer, std::string_view root) {
  const std::vector<double> self = tracer.self_ms();
  const std::vector<Span>& spans = tracer.spans();
  std::map<std::uint64_t, bool> in_phase;  // op -> its root is `root`
  for (const Span& span : spans) {
    if (span.parent < 0) in_phase[span.op] = root == span.name;
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (in_phase[spans[i].op]) by_name[spans[i].name] += self[i];
  }
  return by_name;
}

std::string layer_table(const std::map<std::string, double>& self_ms,
                        double ops, double wall_ms, const char* unit_label,
                        double scale) {
  std::string out = format("  %-18s %14s %8s\n", "", unit_label, "share");
  double total = 0.0;
  for (const auto& [key, ms] : self_ms) {
    total += ms;
    out += format("  %-18s %14.4f %7.1f%%\n", key.c_str(), ops > 0 ? scale * ms / ops : 0.0,
                  wall_ms > 0 ? 100.0 * ms / wall_ms : 0.0);
  }
  out += format("  %-18s %14.4f %7.1f%%\n", "sum", ops > 0 ? scale * total / ops : 0.0,
                wall_ms > 0 ? 100.0 * total / wall_ms : 0.0);
  return out;
}

}  // namespace tripbench
