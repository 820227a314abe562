// SessionPool under service-style churn: many threads interleaving
// get()/clear() across suite and corpus workloads, pinning the
// one-preparation-per-key and latched-failure contracts under contention.
// The evaluation service (src/service/) leans on exactly these guarantees
// — a worker pool hammering one pool from N threads — so this suite runs
// under the CI TSan leg alongside the session, parallel_for and service tests.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/driver.hpp"
#include "pipeline/session.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

namespace asipfb::pipeline {
namespace {

/// Workload names spanning both populations (Table-1 suite + generated
/// corpus), resolved through wl::any_workload.
std::vector<std::string> churn_names() {
  std::vector<std::string> names = {"fir", "iir", "edge", "dft"};
  const auto& corpus = wl::default_corpus();
  for (std::size_t i = 0; i < 4 && i < corpus.size(); ++i) {
    names.push_back(corpus[i].name);
  }
  return names;
}

std::shared_ptr<Session> get_any(SessionPool& pool, const std::string& name) {
  const wl::Workload& w = wl::any_workload(name);
  return pool.get(w.name, w.source, w.input);
}

TEST(SessionPoolChurn, OnePreparePerKeyUnderContention) {
  SessionPool pool;
  const std::vector<std::string> names = churn_names();
  constexpr int kThreads = 16;

  // Every thread greets every key and immediately queries a stage, so
  // preparation AND first-stage computation race across all threads.
  std::vector<std::vector<std::shared_ptr<Session>>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < names.size(); ++i) {
        // Stagger the visiting order per thread.
        const std::string& name =
            names[(i + static_cast<std::size_t>(t)) % names.size()];
        auto session = get_any(pool, name);
        (void)session->detection(opt::OptLevel::O1);
        seen[t].push_back(std::move(session));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(pool.size(), names.size());
  // All threads must have received the same Session object per key
  // (pointer identity == one preparation)...
  std::set<const Session*> distinct;
  for (const auto& per_thread : seen) {
    for (const auto& s : per_thread) distinct.insert(s.get());
  }
  EXPECT_EQ(distinct.size(), names.size());
  // ...and the memoized stage must have computed exactly once per key no
  // matter how many threads asked.
  for (const std::string& name : names) {
    const auto session = get_any(pool, name);
    const Session::Stats stats = session->stats();
    EXPECT_EQ(stats.optimize_runs, 1u) << name;
    EXPECT_EQ(stats.detect_runs, 1u) << name;
    EXPECT_GE(stats.hits, static_cast<std::uint64_t>(kThreads - 1)) << name;
  }
}

TEST(SessionPoolChurn, LatchedFailureUnderContention) {
  SessionPool pool;
  constexpr int kThreads = 12;
  std::vector<std::string> errors(kThreads);
  std::atomic<int> threw{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        (void)pool.get("doomed", "int main( {", WorkloadInput{});
      } catch (const std::runtime_error& ex) {
        errors[static_cast<std::size_t>(t)] = ex.what();
        threw.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every thread failed, with the one latched diagnostic (the broken
  // source compiled at most once).
  EXPECT_EQ(threw.load(), kThreads);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(errors[static_cast<std::size_t>(t)], errors[0]);
  }
  EXPECT_EQ(pool.size(), 0u) << "failed preparations must not count";

  // The key stays bound to the failing source: a different source under
  // the same key is a mismatch, not a retry.
  EXPECT_THROW((void)pool.get("doomed", "int main() { return 0; }\n",
                              WorkloadInput{}),
               std::invalid_argument);

  // clear() drops the latched failure with everything else: the key then
  // accepts a new source instead of throwing the mismatch.
  pool.clear();
  EXPECT_EQ(pool.get("doomed", "int main() { return 3; }\n", WorkloadInput{})
                ->prepared()
                .baseline_run.exit_code,
            3);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(SessionPoolChurn, GetClearInterleavingIsSafe) {
  SessionPool pool;
  const std::vector<std::string> names = churn_names();
  constexpr int kThreads = 12;
  constexpr int kRounds = 8;
  std::atomic<std::uint64_t> got{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        if ((t + round) % 4 == 0) {
          // Periodic clear: the service-eviction path.
          pool.clear();
        } else {
          const std::string& name =
              names[static_cast<std::size_t>(t + round) % names.size()];
          auto session = get_any(pool, name);
          // The handle must stay fully usable even if a concurrent
          // clear() already detached it from the pool.
          (void)session->detection(opt::OptLevel::O0);
          got.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(got.load(), 0u);
  // The pool must still be coherent after the storm.
  auto session = get_any(pool, "fir");
  EXPECT_GT(session->detection(opt::OptLevel::O1).sequences.size(), 0u);
}

}  // namespace
}  // namespace asipfb::pipeline
