#include "bench/common.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

#include "support/parallel.hpp"
#include "support/table.hpp"

namespace asipfb::bench {

namespace {

void print_bench_usage(const BenchCli& cli) {
  if (cli.default_output != nullptr) {
    std::fprintf(stderr,
                 "usage: %s [OUTPUT.json]\n"
                 "  OUTPUT.json  artifact path (default %s)\n",
                 cli.name, cli.default_output);
  } else {
    std::fprintf(stderr, "usage: %s\n", cli.name);
  }
}

}  // namespace

bool parse_bench_args(int argc, char** argv, const BenchCli& cli,
                      std::string* output_path) {
  if (output_path != nullptr && cli.default_output != nullptr) {
    *output_path = cli.default_output;
  }
  for (int i = 1; i < argc; ++i) {
    const char* reason = nullptr;
    if (argv[i][0] == '-') {
      reason = "unrecognized flag";
    } else if (cli.default_output == nullptr) {
      reason = "unexpected argument";
    } else if (i > 1) {
      reason = "unexpected extra argument";
    }
    if (reason != nullptr) {
      std::fprintf(stderr, "%s: %s '%s'\n", cli.name, reason, argv[i]);
      print_bench_usage(cli);
      return false;
    }
    if (output_path != nullptr) *output_path = argv[i];
  }
  return true;
}

pipeline::Session& session(const std::string& name) {
  // The shared_ptr stays alive in the process-wide pool (bench binaries
  // never clear it), so handing out a reference is safe.
  return *pipeline::SessionPool::instance().get(name);
}

const pipeline::PreparedProgram& prepared_workload(const std::string& name) {
  return session(name).prepared();
}

namespace {

/// Default-option detection at one level, served from the workload's
/// Session.  The first query per level computes the whole suite's on a
/// thread pool (filling the session caches in parallel); everything after
/// that is a cache hit.
const chain::DetectionResult& detection(const std::string& name, opt::OptLevel level) {
  static std::once_flag warmed[3];
  std::call_once(warmed[static_cast<int>(level)], [&] {
    parallel_for(wl::suite().size(), 0, [&](std::size_t i) {
      // A task must not throw; a failure is latched in its Session and
      // rethrown by the serial query below.
      try {
        (void)session(wl::suite()[i].name).detection(level);
      } catch (...) {
      }
    });
  });
  return session(name).detection(level);
}

}  // namespace

double combined_frequency(const chain::Signature& sig, opt::OptLevel level) {
  double sum = 0.0;
  for (const auto& w : wl::suite()) {
    sum += detection(w.name, level).frequency_of(sig);
  }
  return sum / static_cast<double>(wl::suite().size());
}

std::vector<SeriesPoint> combined_series(int length, opt::OptLevel level) {
  std::map<chain::Signature, double> sums;
  for (const auto& w : wl::suite()) {
    for (const auto& stat : detection(w.name, level).sequences) {
      if (static_cast<int>(stat.signature.length()) == length) {
        sums[stat.signature] += stat.frequency;
      }
    }
  }
  std::vector<SeriesPoint> series;
  series.reserve(sums.size());
  for (const auto& [sig, sum] : sums) {
    series.push_back({sig, sum / static_cast<double>(wl::suite().size())});
  }
  std::sort(series.begin(), series.end(), [](const SeriesPoint& a, const SeriesPoint& b) {
    if (a.frequency != b.frequency) return a.frequency > b.frequency;
    return a.signature < b.signature;
  });
  return series;
}

std::string render_series(const std::vector<SeriesPoint>& series, std::size_t top_n) {
  TextTable table({"#", "dyn freq", "sequence"});
  for (std::size_t i = 0; i < series.size() && i < top_n; ++i) {
    table.add_row({std::to_string(i + 1), format_percent(series[i].frequency),
                   series[i].signature.to_string()});
  }
  return table.render();
}

}  // namespace asipfb::bench
