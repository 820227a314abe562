// The Session memoization contract (pipeline/session.hpp):
//
//   * same-options queries return the identical cached artifact (same
//     object, zero re-optimization/re-detection — pinned via the
//     stage-invocation counters),
//   * differing options miss, but share what they provably can (one
//     optimized module feeds every detector/coverage configuration),
//   * normalization folds equivalent requests onto one cache entry,
//   * concurrent mixed-stage queries are race-free and bit-identical to
//     serial execution,
//   * one Session drives detection, coverage, and extension proposal for
//     the same workload without re-preparing,
//   * the find_* probes and SessionPool::find only look up: they never
//     compute, prepare or bind, and count a hit only when they return one.
#include "pipeline/session.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "pipeline/driver.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"

namespace asipfb::pipeline {
namespace {

// Small but structurally rich: two loops, a MAC chain, address arithmetic.
const char* const kKernel = R"(
int x[64];
int y[64];
int main() {
  int n;
  for (n = 2; n < 62; n++) {
    int acc = (x[n] + x[n - 2]) * 5;
    acc += x[n - 1] * 9;
    y[n] = acc >> 4;
  }
  int s = 0;
  for (n = 0; n < 64; n++) s += y[n];
  return s;
}
)";

WorkloadInput kernel_input() {
  Rng rng(2024);
  WorkloadInput input;
  input.add("x", rng.int_array(64, -128, 127));
  return input;
}

void expect_same_detection(const chain::DetectionResult& a,
                           const chain::DetectionResult& b,
                           const std::string& context) {
  EXPECT_EQ(a.total_cycles, b.total_cycles) << context;
  EXPECT_EQ(a.regions, b.regions) << context;
  EXPECT_EQ(a.paths, b.paths) << context;
  ASSERT_EQ(a.sequences.size(), b.sequences.size()) << context;
  for (std::size_t i = 0; i < a.sequences.size(); ++i) {
    EXPECT_EQ(a.sequences[i].signature, b.sequences[i].signature) << context;
    EXPECT_EQ(a.sequences[i].cycles, b.sequences[i].cycles) << context;
    EXPECT_EQ(a.sequences[i].occurrences, b.sequences[i].occurrences) << context;
    EXPECT_EQ(a.sequences[i].frequency, b.sequences[i].frequency) << context;
  }
}

void expect_same_coverage(const chain::CoverageResult& a,
                          const chain::CoverageResult& b,
                          const std::string& context) {
  EXPECT_EQ(a.total_coverage, b.total_coverage) << context;
  EXPECT_EQ(a.total_cycles, b.total_cycles) << context;
  ASSERT_EQ(a.steps.size(), b.steps.size()) << context;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].signature, b.steps[i].signature) << context;
    EXPECT_EQ(a.steps[i].frequency, b.steps[i].frequency) << context;
    EXPECT_EQ(a.steps[i].cycles, b.steps[i].cycles) << context;
    EXPECT_EQ(a.steps[i].occurrences_taken, b.steps[i].occurrences_taken)
        << context;
    EXPECT_EQ(a.steps[i].matches, b.steps[i].matches) << context;
  }
}

void expect_same_proposal(const asip::ExtensionProposal& a,
                          const asip::ExtensionProposal& b,
                          const std::string& context) {
  EXPECT_EQ(a.total_area, b.total_area) << context;
  EXPECT_EQ(a.baseline_cycles, b.baseline_cycles) << context;
  EXPECT_EQ(a.customized_cycles, b.customized_cycles) << context;
  ASSERT_EQ(a.candidates.size(), b.candidates.size()) << context;
  ASSERT_EQ(a.selected.size(), b.selected.size()) << context;
  for (std::size_t i = 0; i < a.selected.size(); ++i) {
    EXPECT_EQ(a.selected[i].signature, b.selected[i].signature) << context;
    EXPECT_EQ(a.selected[i].cycles_saved, b.selected[i].cycles_saved) << context;
  }
}

/// The benchmark trip's query mix: every stage at every level, in order.
void query_trip(const Session& session) {
  for (const opt::OptLevel level :
       {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
    (void)session.optimized(level);
    (void)session.detection(level);
    (void)session.coverage(level);
    (void)session.extension(level);
  }
}

void expect_stats(const Session::Stats& got, const Session::Stats& want,
                  const std::string& context) {
  EXPECT_EQ(got.optimize_runs, want.optimize_runs) << context;
  EXPECT_EQ(got.detect_runs, want.detect_runs) << context;
  EXPECT_EQ(got.coverage_runs, want.coverage_runs) << context;
  EXPECT_EQ(got.extension_runs, want.extension_runs) << context;
  EXPECT_EQ(got.optimize_hits, want.optimize_hits) << context;
  EXPECT_EQ(got.detect_hits, want.detect_hits) << context;
  EXPECT_EQ(got.coverage_hits, want.coverage_hits) << context;
  EXPECT_EQ(got.extension_hits, want.extension_hits) << context;
  EXPECT_EQ(got.hits, want.hits) << context;
  EXPECT_EQ(got.disk_hits, want.disk_hits) << context;
  EXPECT_EQ(got.disk_misses, want.disk_misses) << context;
}

/// A store directory under the gtest temp root, removed on destruction.
class ScratchStore {
 public:
  explicit ScratchStore(const std::string& tag)
      : dir_(std::filesystem::path(::testing::TempDir()) /
             ("asipfb_session_" + tag + "_" + std::to_string(::getpid()))) {
    std::error_code discard;
    std::filesystem::remove_all(dir_, discard);
  }
  ~ScratchStore() {
    std::error_code discard;
    std::filesystem::remove_all(dir_, discard);
  }
  [[nodiscard]] std::shared_ptr<cache::Store> open() const {
    cache::StoreOptions options;
    options.dir = dir_;
    return std::make_shared<cache::Store>(std::move(options));
  }

 private:
  std::filesystem::path dir_;
};

TEST(Session, TripQueryMixCountersArePinned) {
  // Each stage runs once per level; detection and coverage each query the
  // optimized module once, and extension queries coverage once.
  const Session session(kKernel, "trip", kernel_input());
  query_trip(session);
  expect_stats(session.stats(), {3, 3, 3, 3, 6, 0, 3, 0, 9, 0, 0}, "one trip");
  query_trip(session);
  expect_stats(session.stats(), {3, 3, 3, 3, 9, 3, 6, 3, 21, 0, 0},
               "repeated trip");
}

TEST(Session, TripQueryMixCountersArePinnedWithAStore) {
  const ScratchStore scratch("trip_stats");
  {
    // Cold: the baseline and all twelve stage artifacts miss the store.
    const Session cold(kKernel, "trip", kernel_input(), scratch.open());
    query_trip(cold);
    expect_stats(cold.stats(), {3, 3, 3, 3, 6, 0, 3, 0, 9, 0, 13}, "cold");
  }
  // Warm: every artifact is a store hit, so no stage queries another.
  const Session warm(kKernel, "trip", kernel_input(), scratch.open());
  query_trip(warm);
  expect_stats(warm.stats(), {3, 3, 3, 3, 0, 0, 0, 0, 0, 13, 0}, "warm");
  query_trip(warm);
  expect_stats(warm.stats(), {3, 3, 3, 3, 3, 3, 3, 3, 12, 13, 0},
               "warm, repeated");
}

TEST(Session, RepeatedQueryReturnsIdenticalArtifactWithZeroRecompute) {
  const Session session(kKernel, "memo", kernel_input());

  const auto& first = session.detection(opt::OptLevel::O1);
  const Session::Stats after_first = session.stats();
  EXPECT_EQ(after_first.detect_runs, 1u);
  EXPECT_EQ(after_first.optimize_runs, 1u);

  // The repeated query: same cached object, no re-optimization, no
  // re-detection.
  const auto& second = session.detection(opt::OptLevel::O1);
  EXPECT_EQ(&first, &second) << "same options must serve the cached artifact";
  const Session::Stats after_second = session.stats();
  EXPECT_EQ(after_second.detect_runs, 1u) << "no re-detection";
  EXPECT_EQ(after_second.optimize_runs, 1u) << "no re-optimization";
  EXPECT_GT(after_second.hits, after_first.hits);
}

TEST(Session, DifferingOptionsMissButShareTheOptimizedModule) {
  const Session session(kKernel, "miss", kernel_input());

  const auto& wide = session.detection(opt::OptLevel::O1);
  chain::DetectorOptions len2;
  len2.min_length = 2;
  len2.max_length = 2;
  const auto& narrow = session.detection(opt::OptLevel::O1, len2);
  EXPECT_NE(&wide, &narrow) << "different options are different artifacts";
  for (const auto& stat : narrow.sequences) {
    EXPECT_EQ(stat.signature.length(), 2u);
  }

  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.detect_runs, 2u);
  EXPECT_EQ(stats.optimize_runs, 1u)
      << "both detector configurations must reuse one optimized module";
}

TEST(Session, NormalizationFoldsEquivalentRequests) {
  const Session session(kKernel, "norm", kernel_input());

  // O0 always analyzes with the adjacency restriction, whatever the caller
  // passes (the historical driver contract).
  chain::DetectorOptions adjacency;
  adjacency.require_adjacency = true;
  EXPECT_EQ(&session.detection(opt::OptLevel::O0),
            &session.detection(opt::OptLevel::O0, adjacency));

  // optimize() ignores every knob at O0.
  opt::OptimizeOptions unroll4;
  unroll4.unroll.factor = 4;
  EXPECT_EQ(&session.optimized(opt::OptLevel::O0),
            &session.optimized(opt::OptLevel::O0, unroll4));

  // chain_preserving is forced per level (true at O1, false at O2).
  opt::OptimizeOptions no_preserve;
  no_preserve.percolation.chain_preserving = false;
  EXPECT_EQ(&session.optimized(opt::OptLevel::O1),
            &session.optimized(opt::OptLevel::O1, no_preserve));
  opt::OptimizeOptions preserve;
  preserve.percolation.chain_preserving = true;
  EXPECT_EQ(&session.optimized(opt::OptLevel::O2),
            &session.optimized(opt::OptLevel::O2, preserve));

  // A knob that genuinely changes the computation still misses.
  EXPECT_NE(&session.optimized(opt::OptLevel::O1),
            &session.optimized(opt::OptLevel::O1, unroll4));
}

TEST(Session, OneSessionDrivesTheWholeFigure1Loop) {
  const Session session(kKernel, "loop", kernel_input());

  const auto& detection = session.detection(opt::OptLevel::O1);
  const auto& coverage = session.coverage(opt::OptLevel::O1);
  const auto& proposal = session.extension(opt::OptLevel::O1);

  // All three stages answered from one baseline (prepared once at
  // construction) with one shared optimized module.
  EXPECT_EQ(detection.total_cycles, session.total_cycles());
  EXPECT_EQ(coverage.total_cycles, session.total_cycles());
  EXPECT_EQ(proposal.baseline_cycles, session.total_cycles());
  EXPECT_GE(proposal.speedup(), 1.0);

  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.optimize_runs, 1u);
  EXPECT_EQ(stats.detect_runs, 1u);
  EXPECT_EQ(stats.coverage_runs, 1u)
      << "extension() must reuse the coverage already computed";
  EXPECT_EQ(stats.extension_runs, 1u);
}

TEST(Session, AdoptedBaselineAnswersLikeItsSourceWithoutAStore) {
  // An adopted baseline is not re-simulated, carries no store and no
  // cache key, and every stage answers as the Session it came from.
  const Session source(kKernel, "adopt", kernel_input());
  const Session adopted(PreparedProgram(source.prepared()));
  EXPECT_EQ(adopted.store(), nullptr);
  EXPECT_TRUE(adopted.baseline_cache_key().empty());
  EXPECT_FALSE(adopted.baseline_from_disk());
  EXPECT_EQ(adopted.total_cycles(), source.total_cycles());
  for (const opt::OptLevel level :
       {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2}) {
    const std::string context(opt::to_string(level));
    expect_same_detection(adopted.detection(level), source.detection(level),
                          context);
    expect_same_coverage(adopted.coverage(level), source.coverage(level),
                         context);
    expect_same_proposal(adopted.extension(level), source.extension(level),
                         context);
  }
  EXPECT_EQ(adopted.stats().disk_hits, 0u);
  EXPECT_EQ(adopted.stats().disk_misses, 0u);
}

TEST(Session, ClearDropsArtifactsButKeepsTheBaseline) {
  Session session(kKernel, "clear", kernel_input());
  const auto first_paths = session.detection(opt::OptLevel::O1).paths;
  const std::uint64_t baseline = session.total_cycles();
  EXPECT_EQ(session.stats().detect_runs, 1u);

  session.clear();

  // The baseline survives (no re-preparation), but artifacts are gone:
  // the next query recomputes and yields the same deterministic result.
  EXPECT_EQ(session.total_cycles(), baseline);
  EXPECT_EQ(session.detection(opt::OptLevel::O1).paths, first_paths);
  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.detect_runs, 2u) << "cleared artifacts recompute";
  EXPECT_EQ(stats.optimize_runs, 2u);
}

TEST(Session, ConcurrentMixedStageQueriesAreRaceFreeAndBitIdentical) {
  // Serial reference.
  const Session serial(kKernel, "serial", kernel_input());
  const auto& d0 = serial.detection(opt::OptLevel::O0);
  const auto& d1 = serial.detection(opt::OptLevel::O1);
  const auto& d2 = serial.detection(opt::OptLevel::O2);
  const auto& c1 = serial.coverage(opt::OptLevel::O1);
  const auto& e1 = serial.extension(opt::OptLevel::O1);

  // Concurrent: every thread issues the full mixed-stage query set in a
  // thread-dependent order against one shared Session.
  const Session shared(kKernel, "concurrent", kernel_input());
  const unsigned n = std::max(4u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned q = 0; q < 5; ++q) {
        switch ((q + t) % 5) {
          case 0: (void)shared.detection(opt::OptLevel::O0); break;
          case 1: (void)shared.detection(opt::OptLevel::O1); break;
          case 2: (void)shared.detection(opt::OptLevel::O2); break;
          case 3: (void)shared.coverage(opt::OptLevel::O1); break;
          case 4: (void)shared.extension(opt::OptLevel::O1); break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  expect_same_detection(d0, shared.detection(opt::OptLevel::O0), "O0");
  expect_same_detection(d1, shared.detection(opt::OptLevel::O1), "O1");
  expect_same_detection(d2, shared.detection(opt::OptLevel::O2), "O2");
  expect_same_coverage(c1, shared.coverage(opt::OptLevel::O1), "coverage");
  expect_same_proposal(e1, shared.extension(opt::OptLevel::O1), "extension");

  // Every stage computed exactly once despite n concurrent askers.
  const Session::Stats stats = shared.stats();
  EXPECT_EQ(stats.detect_runs, 3u);
  EXPECT_EQ(stats.coverage_runs, 1u);
  EXPECT_EQ(stats.extension_runs, 1u);
  EXPECT_EQ(stats.optimize_runs, 3u);
}

constexpr opt::OptLevel kLevels[] = {opt::OptLevel::O0, opt::OptLevel::O1,
                                     opt::OptLevel::O2};

TEST(Session, DetectionRacingCoverageSharesGraphsBitIdentically) {
  // Detection and coverage at one level share one build of the region
  // graphs, whichever asks first; racing them must not change a byte.
  const Session serial(kKernel, "graphs_serial", kernel_input());
  std::vector<std::string> expected;  // Detection then coverage, per level.
  for (const opt::OptLevel level : kLevels) {
    expected.push_back(cache::serialize(serial.detection(level)));
    expected.push_back(cache::serialize(serial.coverage(level)));
    ASSERT_FALSE(serial.coverage(level).steps.empty()) << opt::to_string(level);
  }

  constexpr unsigned kThreads = 8;
  Rng rng(0x6A7E5ull);
  for (int trial = 0; trial < 50; ++trial) {
    const Session session(kKernel, "graphs_race", kernel_input());
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      // Query k is detection (even) or coverage (odd) at level k / 2.
      std::vector<std::size_t> order = {0, 1, 2, 3, 4, 5};
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_below(i)]);
      }
      threads.emplace_back([&session, order] {
        for (const std::size_t k : order) {
          if (k % 2 == 0) {
            (void)session.detection(kLevels[k / 2]);
          } else {
            (void)session.coverage(kLevels[k / 2]);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (std::size_t l = 0; l < 3; ++l) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " level " + std::to_string(l));
      ASSERT_EQ(cache::serialize(session.detection(kLevels[l])), expected[2 * l]);
      ASSERT_EQ(cache::serialize(session.coverage(kLevels[l])), expected[2 * l + 1]);
    }
    const Session::Stats stats = session.stats();
    EXPECT_EQ(stats.detect_runs, 3u);
    EXPECT_EQ(stats.coverage_runs, 3u);
    EXPECT_EQ(stats.optimize_runs, 3u);
  }
}

TEST(Session, CoverageAfterClearMatchesAfterDetectionAlone) {
  // Detection alone leaves its graphs held for coverage; clear() drops
  // them, and coverage then builds its own.
  const Session reference(kKernel, "graphs_reference", kernel_input());
  Session session(kKernel, "graphs_clear", kernel_input());
  for (const opt::OptLevel level : kLevels) {
    (void)session.detection(level);
    session.clear();
    EXPECT_EQ(cache::serialize(session.coverage(level)),
              cache::serialize(reference.coverage(level)))
        << opt::to_string(level);
    EXPECT_EQ(cache::serialize(session.detection(level)),
              cache::serialize(reference.detection(level)))
        << opt::to_string(level);
  }
}

TEST(Session, ProbeOfANeverQueriedKeyIsNullAndCountsNothing) {
  const Session session(kKernel, "probe_cold", kernel_input());
  for (const opt::OptLevel level : kLevels) {
    EXPECT_EQ(session.find_optimized(level), nullptr) << opt::to_string(level);
    EXPECT_EQ(session.find_detection(level), nullptr) << opt::to_string(level);
    EXPECT_EQ(session.find_coverage(level), nullptr) << opt::to_string(level);
    EXPECT_EQ(session.find_extension(level), nullptr) << opt::to_string(level);
  }
  expect_stats(session.stats(), {}, "probes alone");

  // The probes left no slot behind that the query could mistake for a
  // finished one: detection still runs exactly once.
  (void)session.detection(opt::OptLevel::O1);
  EXPECT_EQ(session.stats().detect_runs, 1u);
  EXPECT_EQ(session.stats().detect_hits, 0u);
}

TEST(Session, ProbeReturnsTheMemoizedArtifactAndCountsOneHit) {
  const Session session(kKernel, "probe_warm", kernel_input());
  query_trip(session);
  for (const opt::OptLevel level : kLevels) {
    const std::string context(opt::to_string(level));
    Session::Stats before = session.stats();
    const ir::Module* module = session.find_optimized(level);
    EXPECT_EQ(session.stats().optimize_hits, before.optimize_hits + 1) << context;
    EXPECT_EQ(module, &session.optimized(level)) << context;

    before = session.stats();
    const chain::DetectionResult* detection = session.find_detection(level);
    EXPECT_EQ(session.stats().detect_hits, before.detect_hits + 1) << context;
    EXPECT_EQ(detection, &session.detection(level)) << context;

    before = session.stats();
    const chain::CoverageResult* coverage = session.find_coverage(level);
    EXPECT_EQ(session.stats().coverage_hits, before.coverage_hits + 1) << context;
    EXPECT_EQ(coverage, &session.coverage(level)) << context;

    before = session.stats();
    const asip::ExtensionProposal* proposal = session.find_extension(level);
    EXPECT_EQ(session.stats().extension_hits, before.extension_hits + 1)
        << context;
    EXPECT_EQ(proposal, &session.extension(level)) << context;
  }
  // A probe normalizes its options as the query does: O0 always detects
  // with adjacency, so the default detector finds the O0 entry.
  chain::DetectorOptions adjacent;
  adjacent.require_adjacency = true;
  EXPECT_EQ(session.find_detection(opt::OptLevel::O0, adjacent),
            &session.detection(opt::OptLevel::O0));
  // No probe ever computed anything.
  EXPECT_EQ(session.stats().optimize_runs, 3u);
  EXPECT_EQ(session.stats().detect_runs, 3u);
  EXPECT_EQ(session.stats().coverage_runs, 3u);
  EXPECT_EQ(session.stats().extension_runs, 3u);
}

TEST(Session, ProbeOfALatchedErrorIsNull) {
  const Session session(kKernel, "probe_error", kernel_input());
  chain::DetectorOptions inverted;
  inverted.min_length = 4;
  inverted.max_length = 2;
  EXPECT_THROW((void)session.detection(opt::OptLevel::O1, inverted),
               std::runtime_error);
  const Session::Stats before = session.stats();
  EXPECT_EQ(session.find_detection(opt::OptLevel::O1, inverted), nullptr);
  expect_stats(session.stats(), before, "probing a latched error");
}

TEST(Session, ProbesRacingTheComputationSeeNothingOrTheFinishedArtifact) {
  // Probers spin on the pool and the coverage slots while this thread
  // prepares the Session and computes coverage level by level: each probe
  // must return null or the finished artifact (the TSan leg checks the
  // publication), never wait and never compute.
  SessionPool pool;
  constexpr int kProbers = 3;
  std::vector<std::vector<std::string>> seen(kProbers);
  std::vector<std::thread> probers;
  for (int t = 0; t < kProbers; ++t) {
    probers.emplace_back([&, t] {
      std::shared_ptr<Session> session;
      while ((session = pool.find("race", kKernel)) == nullptr) {
        std::this_thread::yield();
      }
      for (const opt::OptLevel level : kLevels) {
        const chain::CoverageResult* found = nullptr;
        while ((found = session->find_coverage(level)) == nullptr) {
          std::this_thread::yield();
        }
        seen[static_cast<std::size_t>(t)].push_back(cache::serialize(*found));
      }
    });
  }
  const auto session = pool.get("race", kKernel, kernel_input());
  for (const opt::OptLevel level : kLevels) (void)session->coverage(level);
  for (std::thread& prober : probers) prober.join();

  for (const std::vector<std::string>& artifacts : seen) {
    ASSERT_EQ(artifacts.size(), std::size(kLevels));
    for (std::size_t l = 0; l < artifacts.size(); ++l) {
      EXPECT_EQ(artifacts[l], cache::serialize(session->coverage(kLevels[l])));
    }
  }
  EXPECT_EQ(session->stats().coverage_runs, 3u);
}

TEST(SessionPool, FindNeverPreparesOrBindsAKey) {
  SessionPool pool;
  EXPECT_EQ(pool.find("k", kKernel), nullptr);
  EXPECT_EQ(pool.size(), 0u);
  // find() bound nothing: the first get() may bind any source.
  const auto other = pool.get("k", "int main() { return 7; }\n", {});
  EXPECT_EQ(other->prepared().baseline_run.exit_code, 7);
  EXPECT_EQ(pool.find("k", "int main() { return 7; }\n").get(), other.get());
  EXPECT_EQ(pool.size(), 1u);
}

TEST(SessionPool, FindOfAMismatchedSourceIsNullWhileGetThrows) {
  SessionPool pool;
  const auto session = pool.get("k", kKernel, kernel_input());
  EXPECT_EQ(pool.find("k", kKernel).get(), session.get());
  EXPECT_EQ(pool.find("k", "int main() { return 0; }"), nullptr);
  EXPECT_THROW((void)pool.get("k", "int main() { return 0; }", {}),
               std::invalid_argument);
  // A latched preparation failure finds nothing either.
  EXPECT_THROW((void)pool.get("bad", "int main() { return undefined; }", {}),
               std::runtime_error);
  EXPECT_EQ(pool.find("bad", "int main() { return undefined; }"), nullptr);
}

TEST(SessionPool, SharesOneSessionPerKeyAndLatchesFailures) {
  SessionPool pool;
  const auto first = pool.get("k", kKernel, kernel_input());
  const auto second = pool.get("k", kKernel, kernel_input());
  EXPECT_EQ(first.get(), second.get()) << "one Session per key";
  EXPECT_EQ(pool.size(), 1u);

  // A key is bound to its first source.
  EXPECT_THROW((void)pool.get("k", "int main() { return 0; }", {}),
               std::invalid_argument);

  // Failures are latched and rethrown without re-preparing.
  EXPECT_THROW((void)pool.get("bad", "int main() { return undefined; }", {}),
               std::runtime_error);
  EXPECT_THROW((void)pool.get("bad", "int main() { return undefined; }", {}),
               std::runtime_error);
  EXPECT_EQ(pool.size(), 1u) << "failed preparations must not count";

  // Suite workloads resolve by name under the same one-Session-per-key
  // rule, and a custom key over the same source is a separate entry that
  // profiles identically.
  const auto iir = pool.get("iir");
  EXPECT_EQ(pool.get("iir").get(), iir.get());
  const auto& w = wl::workload("iir");
  EXPECT_EQ(pool.get("iir-copy", w.source, w.input)->total_cycles(),
            iir->total_cycles());
  EXPECT_EQ(pool.size(), 3u);

  // clear() forgets everything, but live shared_ptrs stay usable.
  const std::uint64_t first_steps = first->prepared().baseline_run.steps;
  pool.clear();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_GT(first->total_cycles(), 0u);

  // A cleared key is fully reusable: a fresh preparation with the same
  // baseline, and the pool regrows only by what is added.
  const auto again = pool.get("k", kKernel, kernel_input());
  EXPECT_NE(again.get(), first.get());
  EXPECT_EQ(again->total_cycles(), first->total_cycles());
  EXPECT_EQ(again->prepared().baseline_run.steps, first_steps);
  EXPECT_EQ(pool.size(), 1u);
}

}  // namespace
}  // namespace asipfb::pipeline
