// Session-based pipeline API: one memoizing handle for the whole Figure-1
// feedback loop.
//
// The paper's flow is a *loop* — profile, analyze, propose an extension,
// re-evaluate — and a production service answering many concurrent,
// repeated analysis queries must not re-run percolation scheduling or the
// branch-and-bound sequence search for a question it has already answered.
// A Session owns one prepared (compiled + canonicalized + profiled)
// baseline and lazily computes + memoizes every downstream artifact:
//
//   optimized()  — ir::Module            per (OptLevel, OptimizeOptions)
//   detection()  — chain::DetectionResult per (level, DetectorOptions, ...)
//   coverage()   — chain::CoverageResult  per (level, CoverageOptions, ...)
//   extension()  — asip::ExtensionProposal per (level, SelectionOptions,
//                                              DatapathModel, coverage key)
//
// Option structs are *normalized* before keying (e.g. O0 always analyzes
// with require_adjacency, optimize() ignores every knob at O0 and forces
// chain preservation per level), so two requests that provably compute the
// same artifact share one cache entry.  Memoization is per-artifact and
// thread-safe: concurrent queries for the same key block on one
// computation (std::call_once) and then share the same immutable object;
// queries for different keys run in parallel.  Returned references stay
// valid for the Session's lifetime.
//
// Detection and coverage at one level walk the same region graphs
// (chain/region_graph.hpp), which depend only on the optimized module.
// The first of the two computed at an optimize key (a memo and a store
// miss) builds them; the Session holds them as one shared_ptr<const>
// until the other has taken them too, then drops them.  clear() and
// destruction drop them as well.  So a store hit builds nothing, and no
// graphs outlive the two analyses that use them.
//
// SessionPool is the process-wide directory of Sessions, keyed by workload
// name — the service front door and the pool the bench drivers share.
// docs/ARCHITECTURE.md has the full stage diagram and the
// ownership/threading rules in prose.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asip/extension.hpp"
#include "chain/coverage.hpp"
#include "chain/detect.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/driver.hpp"

namespace asipfb::cache {
class Store;
enum class Artifact : std::uint8_t;
}  // namespace asipfb::cache

namespace asipfb::sim {

/// tripbench-only shims.  The benchmark spells a trip as
/// `Session(source, name, input, sim::fuse_default(), sim::jit_default(),
/// store)` and times `Machine::jit_ready()` (sim/machine.hpp), from when
/// the simulator had a fused tier and a JIT.  The simulator is one
/// interpreter now, so both defaults are false and the six-argument
/// Session overload below ignores them.  All three go when tripbench
/// moves to the four-argument `Session(source, name, input, store)`.
constexpr bool fuse_default() { return false; }
constexpr bool jit_default() { return false; }

}  // namespace asipfb::sim

namespace asipfb::pipeline {

class Session {
 public:
  /// Compile + canonicalize + profile `source` (driver prepare()); throws
  /// on compile/verify/simulation failure.  With `store`, the profiled
  /// baseline is loaded from disk when a valid entry exists (skipping
  /// compile + profile entirely) and written back after a cold
  /// preparation; every stage memo slot likewise consults disk inside its
  /// one-time computation.
  Session(std::string_view source, std::string name, const WorkloadInput& input,
          std::shared_ptr<cache::Store> store = nullptr);

  /// tripbench-only (see the shims above): ignores both bools.
  Session(std::string_view source, std::string name, const WorkloadInput& input,
          bool /*fuse*/, bool /*jit*/, std::shared_ptr<cache::Store> store)
      : Session(source, std::move(name), input, std::move(store)) {}

  /// As above, profiling over several sample data sets (prepare_multi()).
  Session(std::string_view source, std::string name,
          const std::vector<WorkloadInput>& inputs,
          std::shared_ptr<cache::Store> store = nullptr);

  /// Adopts an already-prepared baseline (no re-simulation).  The artifact
  /// caches start empty, and the Session has no store.
  explicit Session(PreparedProgram prepared);

  // One handle per workload; artifacts hand out interior references.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The shared baseline: canonicalized IR with O0 profile counts.
  [[nodiscard]] const PreparedProgram& prepared() const { return prepared_; }
  [[nodiscard]] const std::string& name() const { return prepared_.module.name; }
  /// Frequency denominator common to every analysis of this Session.
  [[nodiscard]] std::uint64_t total_cycles() const { return prepared_.total_cycles; }

  /// Step 3: verified optimized copy of the baseline, memoized.
  const ir::Module& optimized(opt::OptLevel level,
                              const opt::OptimizeOptions& options = {}) const;

  /// Steps 3-4: sequence detection on the optimized program, memoized.
  const chain::DetectionResult& detection(
      opt::OptLevel level, const chain::DetectorOptions& detector = {},
      const opt::OptimizeOptions& options = {}) const;

  /// Section 7: iterative coverage analysis, memoized.
  const chain::CoverageResult& coverage(
      opt::OptLevel level, const chain::CoverageOptions& coverage = {},
      const opt::OptimizeOptions& options = {}) const;

  /// The ASIP-design box of Figure 1: price the coverage candidates with
  /// the datapath model and select under the budgets, memoized.
  const asip::ExtensionProposal& extension(
      opt::OptLevel level, const asip::SelectionOptions& selection = {},
      const asip::DatapathModel& model = {},
      const chain::CoverageOptions& coverage = {},
      const opt::OptimizeOptions& options = {}) const;

  /// Drops every memoized artifact and any held region graphs (the
  /// prepared baseline stays), so a long-lived Session serving many
  /// distinct option sets can bound its footprint.  Invalidates all
  /// references previously returned by the stage queries; the caller must
  /// ensure no concurrent query is in flight and no borrowed reference is
  /// still in use.  The stats() counters keep accumulating across clears.
  void clear();

  /// Stage-invocation counters: `*_runs` count actual computations (memo
  /// misses), `*_hits` count queries served from the in-memory memo, and
  /// `hits` is their sum (the legacy aggregate).  Tests pin the "repeated
  /// query performs zero re-optimization/re-detection" contract with these.
  /// All of them are warmth-dependent when a store is attached: a
  /// disk-cache hit for a downstream artifact (detection, coverage,
  /// extension) returns before the compute lambda ever queries the
  /// upstream stages it depends on, so a warm run records fewer
  /// optimize/coverage runs and hits than the same query mix cold.
  /// Without a store they are a pure function of the query mix.
  ///
  /// `disk_hits`/`disk_misses` count artifact-store consults that produced
  /// (or failed to produce) a usable artifact, baseline included.
  struct Stats {
    std::uint64_t optimize_runs = 0;
    std::uint64_t detect_runs = 0;
    std::uint64_t coverage_runs = 0;
    std::uint64_t extension_runs = 0;
    std::uint64_t optimize_hits = 0;
    std::uint64_t detect_hits = 0;
    std::uint64_t coverage_hits = 0;
    std::uint64_t extension_hits = 0;
    std::uint64_t hits = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t disk_misses = 0;

    /// Field-wise sum (SessionPool::stats() adds its Sessions' with it).
    Stats& operator+=(const Stats& other);
  };
  [[nodiscard]] Stats stats() const;

  /// True when the profiled baseline came from the artifact store rather
  /// than a cold compile + profile.
  [[nodiscard]] bool baseline_from_disk() const { return baseline_from_disk_; }

  /// The content key the baseline is cached under (empty without a store).
  [[nodiscard]] const std::string& baseline_cache_key() const {
    return baseline_key_;
  }

  [[nodiscard]] const std::shared_ptr<cache::Store>& store() const {
    return store_;
  }

 private:
  /// One memoization slot: call_once guards the computation, the optional
  /// holds the artifact, a latched error is rethrown on later queries.
  template <typename T>
  struct Slot {
    std::once_flag once;
    std::optional<T> value;
    std::string error;
  };

  /// Per-stage cache: a node-based map from normalized option keys to
  /// slots, so references to artifacts stay valid as the map grows.
  template <typename T>
  struct StageCache {
    std::mutex mu;                    ///< Guards the map, not computations.
    std::map<std::string, Slot<T>> slots;
  };

  template <typename T, typename Fn>
  const T& memoize(StageCache<T>& cache, const std::string& key,
                   std::atomic<std::uint64_t>& runs,
                   std::atomic<std::uint64_t>& stage_hits, Fn&& compute) const;

  /// Disk-side of one memo computation: try (deserialize ∘ load), fall
  /// back to `compute`, write back what was computed.  Only ever called
  /// inside a call_once body, so it runs at most once per memo slot.
  template <typename T, typename Load, typename Fn>
  T compute_via_store(cache::Artifact kind, const std::string& option_key,
                      Load&& load, Fn&& compute) const;

  using RegionGraphs = std::vector<chain::RegionGraph>;

  /// The chain analyses that share a level's region graphs, as bits.
  enum GraphUser : std::uint8_t { kDetectionUser = 1, kCoverageUser = 2 };

  /// Region graphs of `module`, the optimized module at `optimize_key`,
  /// for `user`: the held ones, or built now and held until both users
  /// have taken them.  Called only inside a memo slot's computation on a
  /// store miss.
  std::shared_ptr<const RegionGraphs> region_graphs(const std::string& optimize_key,
                                                    const ir::Module& module,
                                                    GraphUser user) const;

  /// One optimize key's graphs, between their build and the second taker.
  struct GraphHandoff {
    std::mutex mu;  ///< Held across the build, so concurrent users build once.
    std::shared_ptr<const RegionGraphs> graphs;
    std::uint8_t took = 0;  ///< GraphUser bits of the users served so far.
  };

  PreparedProgram prepared_;
  std::shared_ptr<cache::Store> store_;
  std::string baseline_key_;  ///< Content key on disk; empty without store.
  bool baseline_from_disk_ = false;

  mutable StageCache<ir::Module> optimized_;
  mutable StageCache<chain::DetectionResult> detections_;
  mutable StageCache<chain::CoverageResult> coverages_;
  mutable StageCache<asip::ExtensionProposal> extensions_;
  mutable std::mutex graphs_mu_;  ///< Guards the map, not the builds.
  mutable std::map<std::string, GraphHandoff> graphs_;

  mutable std::atomic<std::uint64_t> optimize_runs_{0};
  mutable std::atomic<std::uint64_t> detect_runs_{0};
  mutable std::atomic<std::uint64_t> coverage_runs_{0};
  mutable std::atomic<std::uint64_t> extension_runs_{0};
  mutable std::atomic<std::uint64_t> optimize_hits_{0};
  mutable std::atomic<std::uint64_t> detect_hits_{0};
  mutable std::atomic<std::uint64_t> coverage_hits_{0};
  mutable std::atomic<std::uint64_t> extension_hits_{0};
  mutable std::atomic<std::uint64_t> disk_hits_{0};
  mutable std::atomic<std::uint64_t> disk_misses_{0};
};

/// Thread-safe directory of Sessions keyed by workload name: the shared
/// front door for the service, bench drivers, and tests, so one process
/// never compiles or profiles the same workload twice.  Preparation runs at
/// most once per key — success or failure; concurrent requests for the same
/// key block until the first finishes, and a failed preparation is latched
/// (later gets rethrow the recorded error).  A key is bound to its first
/// source text: reusing it with different source throws
/// std::invalid_argument instead of silently serving the wrong program.
class SessionPool {
 public:
  /// `store` (may be null) is the persistent artifact store every Session
  /// this pool prepares consults; it is fixed for the pool's lifetime.
  explicit SessionPool(std::shared_ptr<cache::Store> store = nullptr);

  /// Prepare (or fetch) by explicit source + input, under `key`.
  std::shared_ptr<Session> get(const std::string& key, std::string_view source,
                               const WorkloadInput& input);

  /// Prepare (or fetch) a suite workload by name (wl::workload lookup);
  /// throws std::out_of_range for unknown names.
  std::shared_ptr<Session> get(const std::string& workload_name);

  /// Number of successfully prepared Sessions currently pooled.
  [[nodiscard]] std::size_t size() const;

  /// The artifact store given at construction (null without a cache).
  [[nodiscard]] const std::shared_ptr<cache::Store>& store() const {
    return store_;
  }

  /// Pool-level observability: where the ready entries' baselines came
  /// from (Session::baseline_from_disk()) plus every Session's stage/disk
  /// counters summed.  `sessions` counts the entries aggregated (== size())
  /// and is partitioned by `computed` and `disk_cache`.
  struct PoolStats {
    std::uint64_t sessions = 0;
    std::uint64_t computed = 0;    ///< Cold compile + profile in this process.
    std::uint64_t disk_cache = 0;  ///< Loaded from the artifact store.
    Session::Stats stages;  ///< Summed over all ready Sessions.
  };
  [[nodiscard]] PoolStats stats() const;

  /// Drops every entry (including latched failures).  Sessions still held
  /// via shared_ptr stay alive; the pool just forgets them.  Safe against
  /// concurrent get(): entries are reference-counted, so an in-flight
  /// preparation completes on its own (now forgotten) entry — the one
  /// consequence of racing clear() is that such a key may be prepared
  /// again by a later get().  (The one-preparation-per-key guarantee is
  /// per entry lifetime, i.e. between clears.)
  void clear();

  /// Process-wide instance.
  static SessionPool& instance();

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<Session> session;
    std::atomic<bool> ready{false};  ///< Set (release) once `session` is filled.
    std::string source;              ///< Source text bound to this key.
    std::string error;               ///< Latched failure; rethrown on later gets.
  };

  std::shared_ptr<Entry> entry_for(const std::string& key);

  const std::shared_ptr<cache::Store> store_;
  mutable std::mutex mu_;
  /// Entries are shared_ptr-held so clear() only detaches them: a thread
  /// mid-call_once on an entry keeps it alive and finishes safely even if
  /// the pool has already forgotten the key (service-churn contract,
  /// pinned by tests/pipeline/session_pool_churn_test.cpp).
  std::map<std::string, std::shared_ptr<Entry>> entries_;
};

}  // namespace asipfb::pipeline
