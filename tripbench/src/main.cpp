// Figure-1 trip benchmark driver.
//
//   tripbench --workload cold_trip|disk_restart|warm_serve --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-file FILE]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when any
// output differed from its reference, 2 on bad arguments or a failed
// set-up.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace tripbench {

std::vector<Metric> per_layer_template() {
  const std::pair<const char*, const char*> metrics[] = {
      {"frontend.compile_ms", "ms"},     {"frontend.ir_instrs", "count"},
      {"ir.verify_ms", "ms"},            {"opt.canonicalize_ms", "ms"},
      {"sim.machine_setup_ms", "ms"},    {"sim.jit_compile_ms", "ms"},
      {"sim.run_ms", "ms"},              {"sim.dynamic_ops", "count"},
      {"opt.o1_ms", "ms"},               {"opt.o2_ms", "ms"},
      {"opt.o2_instrs", "count"},        {"opt.ops_hoisted", "count"},
      {"opt.percolation_passes", "count"}, {"opt.repair_copies", "count"},
      {"chain.detect_ms", "ms"},         {"chain.coverage_ms", "ms"},
      {"chain.sequences", "count"},      {"chain.coverage_steps", "count"},
      {"asip.extension_ms", "ms"},       {"asip.selected", "count"},
      {"cache.write_ms", "ms"},          {"cache.bytes_written", "bytes"},
      {"cache.read_ms", "ms"},           {"cache.deserialize_ms", "ms"},
      {"cache.hit_share", "share"},      {"cache.corrupt", "count"},
      {"pipeline.prepare_ms", "ms"},     {"pipeline.memo_hit_share", "share"},
      {"service.parse_us", "us"},        {"service.evaluate_us", "us"},
      {"service.render_us", "us"},       {"service.queue_wait_us", "us"},
      {"service.rejected", "count"},     {"net.overhead_us", "us"},
      {"net.closed_conns", "count"},
  };
  std::vector<Metric> out;
  for (const auto& [name, unit] : metrics) out.push_back({name, 0.0, unit});
  return out;
}

void set_metric(std::vector<Metric>& metrics, const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "tripbench: unknown per-layer metric %s\n", name.c_str());
  std::abort();
}

void add_end_to_end(Report& report, const EndToEnd& e, const char* op, double setup_s) {
  report.end_to_end = {
      {"ops_per_s", e.ops_per_s(), "1/s"},
      {"op_p50_us", e.p50_us(), "us"},
      {"op_p95_us", e.p95_us(), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", setup_s, "s"},
  };
  report.text += format(
      "%llu %ss measured over %.3f s in %zu slices (one op = one %s; medians over slices)\n",
      static_cast<unsigned long long>(e.ops()), op, e.seconds(), e.slices(), op);
  for (const Metric& m : report.end_to_end) {
    report.text += format("  %-12s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  report.text += format("  %-12s %14.4f us (printed only)\n", "op_p99_us", e.p99_us());
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "tripbench: %s\nusage: tripbench --workload cold_trip|disk_restart|warm_serve "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--trace-file FILE]\n",
               why);
  return 2;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += format("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  return out + "}";
}

}  // namespace
}  // namespace tripbench

int main(int argc, char** argv) {
  using namespace tripbench;
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      o.trace = value == "1";
    } else if (arg == "--work-dir") {
      o.work_dir = value;
    } else if (arg == "--trace-file") {
      o.trace_file = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("missing or bad --seed");
  if (o.work_dir.empty()) return usage("missing --work-dir");

  Report report;
  try {
    if (o.workload == "cold_trip") {
      report = run_cold_trip(o);
    } else if (o.workload == "disk_restart") {
      report = run_disk_restart(o);
    } else if (o.workload == "warm_serve") {
      report = run_warm_serve(o);
    } else {
      return usage("unknown --workload");
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "tripbench: %s failed: %s\n", o.workload.c_str(), ex.what());
    return 2;
  }

  const double failed_share =
      report.attempted > 0
          ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
          : 1.0;
  std::fputs(report.text.c_str(), stdout);
  std::printf("  %-12s %14.6f share (%llu of %llu operations failed or mismatched)\n",
              "failed_share", failed_share, static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              json_metrics(o.trace ? report.per_layer : report.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
