#include "pipeline/session.hpp"

#include <stdexcept>
#include <utility>

#include "cache/store.hpp"
#include "ir/verifier.hpp"
#include "support/bytes.hpp"
#include "workloads/suite.hpp"

namespace asipfb::pipeline {

namespace {

/// Serializes option-struct fields into an exact little-endian byte string
/// used as the memoization key.  Doubles are keyed by bit pattern: two
/// options structs collide only when every field is bit-identical, which
/// is exactly the "same computation" guarantee the cache needs.
class KeyBuilder {
 public:
  KeyBuilder& add(double v) {
    out_.f64(v);
    return *this;
  }
  KeyBuilder& add(std::uint64_t v) {
    out_.u64(v);
    return *this;
  }
  KeyBuilder& add(std::int64_t v) { return add(static_cast<std::uint64_t>(v)); }
  KeyBuilder& add(int v) { return add(static_cast<std::int64_t>(v)); }
  KeyBuilder& add(bool v) {
    out_.boolean(v);
    return *this;
  }

  [[nodiscard]] std::string str() && { return std::move(out_).take(); }

 private:
  support::ByteWriter out_;
};

// --- Option normalization ---------------------------------------------------
// Requests that provably compute the same artifact must share one cache
// entry, so the rules optimized()/detection() apply internally are baked
// into the keys here.

/// optimize() ignores every knob at O0 and forces chain_preserving per
/// level (O1 preserves, O2 moves ops individually); see optimizer.cpp.
opt::OptimizeOptions normalize(opt::OptLevel level,
                               const opt::OptimizeOptions& options) {
  if (level == opt::OptLevel::O0) return {};
  opt::OptimizeOptions n = options;
  n.percolation.chain_preserving = level == opt::OptLevel::O1;
  return n;
}

/// Without the parallelizing scheduler (O0) only textually adjacent
/// operations can be fused; the driver has always forced adjacency there.
chain::DetectorOptions normalize(opt::OptLevel level,
                                 const chain::DetectorOptions& detector) {
  chain::DetectorOptions n = detector;
  if (level == opt::OptLevel::O0) n.require_adjacency = true;
  return n;
}

chain::CoverageOptions normalize(opt::OptLevel level,
                                 const chain::CoverageOptions& coverage) {
  chain::CoverageOptions n = coverage;
  if (level == opt::OptLevel::O0) n.require_adjacency = true;
  return n;
}

// --- Key construction (over normalized options) -----------------------------

KeyBuilder& add_optimize(KeyBuilder& kb, opt::OptLevel level,
                         const opt::OptimizeOptions& o) {
  kb.add(static_cast<int>(level))
      .add(o.unroll.factor)
      .add(o.unroll.max_loop_instrs)
      .add(o.percolation.max_passes)
      .add(o.percolation.speculate)
      .add(o.percolation.speculate_loads)
      .add(o.percolation.chain_preserving)
      .add(o.final_dce);
  return kb;
}

std::string optimize_key(opt::OptLevel level, const opt::OptimizeOptions& o) {
  KeyBuilder kb;
  return std::move(add_optimize(kb, level, o)).str();
}

std::string detection_key(opt::OptLevel level, const chain::DetectorOptions& d,
                          const opt::OptimizeOptions& o) {
  KeyBuilder kb;
  add_optimize(kb, level, o)
      .add(d.min_length)
      .add(d.max_length)
      .add(d.prune_percent)
      .add(d.require_adjacency)
      .add(d.max_occurrences);
  return std::move(kb).str();
}

KeyBuilder& add_coverage(KeyBuilder& kb, const chain::CoverageOptions& c) {
  kb.add(c.min_length)
      .add(c.max_length)
      .add(c.floor_percent)
      .add(c.max_rounds)
      .add(c.require_adjacency);
  return kb;
}

std::string coverage_key(opt::OptLevel level, const chain::CoverageOptions& c,
                         const opt::OptimizeOptions& o) {
  KeyBuilder kb;
  add_coverage(add_optimize(kb, level, o), c);
  return std::move(kb).str();
}

std::string extension_key(opt::OptLevel level, const asip::SelectionOptions& s,
                          const asip::DatapathModel& m,
                          const chain::CoverageOptions& c,
                          const opt::OptimizeOptions& o) {
  KeyBuilder kb;
  add_coverage(add_optimize(kb, level, o), c)
      .add(s.area_budget)
      .add(s.cycle_budget)
      .add(m.chain_overhead_area);
  return std::move(kb).str();
}

/// The frequency denominator detection and coverage use: the Session's,
/// or the optimized module's own total when the baseline has none (what
/// the module overloads do with a total of 0).
std::uint64_t denominator(std::uint64_t session_total, const ir::Module& module) {
  return session_total != 0 ? session_total : module.total_dynamic_ops();
}

}  // namespace

// --- Session ----------------------------------------------------------------

Session::Session(std::string_view source, std::string name,
                 const WorkloadInput& input,
                 std::shared_ptr<cache::Store> store)
    : Session(source, std::move(name), std::vector<WorkloadInput>{input},
              std::move(store)) {}

Session::Session(std::string_view source, std::string name,
                 const std::vector<WorkloadInput>& inputs,
                 std::shared_ptr<cache::Store> store)
    : store_(std::move(store)) {
  if (store_ != nullptr) {
    baseline_key_ =
        cache::baseline_key(store_->engine_version(), name, source, inputs);
    if (std::optional<std::string> payload =
            store_->load(cache::Artifact::kPrepared, baseline_key_)) {
      try {
        PreparedProgram loaded = cache::deserialize_prepared(*payload);
        // The key covers the name, so a mismatch means a hash collision or
        // an undetected corruption — recompute rather than trust it.
        if (loaded.module.name == name) {
          prepared_ = std::move(loaded);
          baseline_from_disk_ = true;
          disk_hits_.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const cache::CacheError&) {
        // Frame validated but payload undecodable: treated as a miss.
      }
    }
  }
  if (!baseline_from_disk_) {
    if (store_ != nullptr) disk_misses_.fetch_add(1, std::memory_order_relaxed);
    prepared_ = prepare_multi(source, std::move(name), inputs);
    if (store_ != nullptr) {
      store_->save(cache::Artifact::kPrepared, baseline_key_,
                   cache::serialize(prepared_));
    }
  }
}

Session::Session(PreparedProgram prepared) : prepared_(std::move(prepared)) {}

template <typename T, typename Fn>
const T& Session::memoize(StageCache<T>& cache, const std::string& key,
                          std::atomic<std::uint64_t>& runs,
                          std::atomic<std::uint64_t>& stage_hits,
                          Fn&& compute) const {
  Slot<T>* slot;
  {
    const std::lock_guard<std::mutex> lock(cache.mu);
    slot = &cache.slots[key];
  }
  // call_once serializes concurrent computations of the same key; the map
  // mutex is released first, so distinct keys compute in parallel.  A
  // throwing computation is latched — repeated queries rethrow instead of
  // re-running an expensive failing stage.
  bool ran = false;
  std::call_once(slot->once, [&] {
    ran = true;
    runs.fetch_add(1, std::memory_order_relaxed);
    try {
      slot->value.emplace(compute());
    } catch (const std::exception& ex) {
      slot->error = ex.what();
    } catch (...) {
      slot->error = "pipeline stage failed";
    }
  });
  if (!ran) stage_hits.fetch_add(1, std::memory_order_relaxed);
  if (!slot->value.has_value()) throw std::runtime_error(slot->error);
  return *slot->value;
}

template <typename T, typename Load, typename Fn>
T Session::compute_via_store(cache::Artifact kind,
                             const std::string& option_key, Load&& load,
                             Fn&& compute) const {
  if (store_ == nullptr) return compute();
  // The disk consult lives *inside* the memo slot's one-time computation:
  // memo runs/hits stay a pure function of the query mix whether the store
  // is cold or warm, and a latched error is never written back to disk
  // (a throwing compute() propagates before save()).
  const std::string key = cache::stage_key(baseline_key_, kind, option_key);
  if (std::optional<std::string> payload = store_->load(kind, key)) {
    try {
      T artifact = load(*payload);
      disk_hits_.fetch_add(1, std::memory_order_relaxed);
      return artifact;
    } catch (const cache::CacheError&) {
      // Frame validated but payload undecodable: fall through to cold.
    }
  }
  disk_misses_.fetch_add(1, std::memory_order_relaxed);
  T artifact = compute();
  store_->save(kind, key, cache::serialize(artifact));
  return artifact;
}

const ir::Module& Session::optimized(opt::OptLevel level,
                                     const opt::OptimizeOptions& options) const {
  const opt::OptimizeOptions norm = normalize(level, options);
  const std::string key = optimize_key(level, norm);
  return memoize(optimized_, key, optimize_runs_, optimize_hits_, [&] {
    return compute_via_store<ir::Module>(
        cache::Artifact::kOptimized, key,
        [](std::string_view payload) {
          return cache::deserialize_module(payload);
        },
        [&] {
          ir::Module variant = prepared_.module;  // Value copy, profile included.
          opt::optimize(variant, level, norm);
          ir::verify_or_throw(variant);
          return variant;
        });
  });
}

std::shared_ptr<const Session::RegionGraphs> Session::region_graphs(
    const std::string& optimize_key, const ir::Module& module,
    GraphUser user) const {
  GraphHandoff* handoff;
  {
    const std::lock_guard<std::mutex> lock(graphs_mu_);
    handoff = &graphs_[optimize_key];
  }
  const std::lock_guard<std::mutex> lock(handoff->mu);
  if (handoff->graphs == nullptr) {
    handoff->graphs =
        std::make_shared<const RegionGraphs>(chain::build_region_graphs(module));
  }
  std::shared_ptr<const RegionGraphs> graphs = handoff->graphs;
  handoff->took |= user;
  if (handoff->took == (kDetectionUser | kCoverageUser)) handoff->graphs.reset();
  return graphs;
}

const chain::DetectionResult& Session::detection(
    opt::OptLevel level, const chain::DetectorOptions& detector,
    const opt::OptimizeOptions& options) const {
  const opt::OptimizeOptions opt_norm = normalize(level, options);
  const chain::DetectorOptions det_norm = normalize(level, detector);
  const std::string key = detection_key(level, det_norm, opt_norm);
  return memoize(detections_, key, detect_runs_, detect_hits_, [&] {
    return compute_via_store<chain::DetectionResult>(
        cache::Artifact::kDetection, key,
        [](std::string_view payload) {
          return cache::deserialize_detection(payload);
        },
        [&] {
          const ir::Module& module = optimized(level, opt_norm);
          return chain::detect_sequences(
              *region_graphs(optimize_key(level, opt_norm), module, kDetectionUser),
              det_norm, denominator(prepared_.total_cycles, module));
        });
  });
}

const chain::CoverageResult& Session::coverage(
    opt::OptLevel level, const chain::CoverageOptions& coverage,
    const opt::OptimizeOptions& options) const {
  const opt::OptimizeOptions opt_norm = normalize(level, options);
  const chain::CoverageOptions cov_norm = normalize(level, coverage);
  const std::string key = coverage_key(level, cov_norm, opt_norm);
  return memoize(coverages_, key, coverage_runs_, coverage_hits_, [&] {
    return compute_via_store<chain::CoverageResult>(
        cache::Artifact::kCoverage, key,
        [](std::string_view payload) {
          return cache::deserialize_coverage(payload);
        },
        [&] {
          const ir::Module& module = optimized(level, opt_norm);
          return chain::coverage_analysis(
              *region_graphs(optimize_key(level, opt_norm), module, kCoverageUser),
              cov_norm, denominator(prepared_.total_cycles, module));
        });
  });
}

const asip::ExtensionProposal& Session::extension(
    opt::OptLevel level, const asip::SelectionOptions& selection,
    const asip::DatapathModel& model, const chain::CoverageOptions& cov,
    const opt::OptimizeOptions& options) const {
  const opt::OptimizeOptions opt_norm = normalize(level, options);
  const chain::CoverageOptions cov_norm = normalize(level, cov);
  const std::string key = extension_key(level, selection, model, cov_norm, opt_norm);
  return memoize(extensions_, key, extension_runs_, extension_hits_, [&] {
    return compute_via_store<asip::ExtensionProposal>(
        cache::Artifact::kExtension, key,
        [](std::string_view payload) {
          return cache::deserialize_extension(payload);
        },
        [&] {
          return asip::propose_extensions(coverage(level, cov_norm, opt_norm),
                                          prepared_.total_cycles, model,
                                          selection);
        });
  });
}

void Session::clear() {
  const std::lock_guard<std::mutex> lock_opt(optimized_.mu);
  const std::lock_guard<std::mutex> lock_det(detections_.mu);
  const std::lock_guard<std::mutex> lock_cov(coverages_.mu);
  const std::lock_guard<std::mutex> lock_ext(extensions_.mu);
  optimized_.slots.clear();
  detections_.slots.clear();
  coverages_.slots.clear();
  extensions_.slots.clear();
  const std::lock_guard<std::mutex> lock_graphs(graphs_mu_);
  graphs_.clear();
}

Session::Stats Session::stats() const {
  Stats s;
  s.optimize_runs = optimize_runs_.load(std::memory_order_relaxed);
  s.detect_runs = detect_runs_.load(std::memory_order_relaxed);
  s.coverage_runs = coverage_runs_.load(std::memory_order_relaxed);
  s.extension_runs = extension_runs_.load(std::memory_order_relaxed);
  s.optimize_hits = optimize_hits_.load(std::memory_order_relaxed);
  s.detect_hits = detect_hits_.load(std::memory_order_relaxed);
  s.coverage_hits = coverage_hits_.load(std::memory_order_relaxed);
  s.extension_hits = extension_hits_.load(std::memory_order_relaxed);
  s.hits = s.optimize_hits + s.detect_hits + s.coverage_hits + s.extension_hits;
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.disk_misses = disk_misses_.load(std::memory_order_relaxed);
  return s;
}

Session::Stats& Session::Stats::operator+=(const Stats& other) {
  optimize_runs += other.optimize_runs;
  detect_runs += other.detect_runs;
  coverage_runs += other.coverage_runs;
  extension_runs += other.extension_runs;
  optimize_hits += other.optimize_hits;
  detect_hits += other.detect_hits;
  coverage_hits += other.coverage_hits;
  extension_hits += other.extension_hits;
  hits += other.hits;
  disk_hits += other.disk_hits;
  disk_misses += other.disk_misses;
  return *this;
}

// --- SessionPool ------------------------------------------------------------

SessionPool::SessionPool(std::shared_ptr<cache::Store> store)
    : store_(std::move(store)) {}

std::shared_ptr<SessionPool::Entry> SessionPool::entry_for(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<Entry>& entry = entries_[key];
  if (entry == nullptr) entry = std::make_shared<Entry>();
  return entry;
}

std::shared_ptr<Session> SessionPool::get(const std::string& key,
                                          std::string_view source,
                                          const WorkloadInput& input) {
  // The shared_ptr keeps the entry alive across the (possibly long)
  // preparation even if clear() detaches it from the pool concurrently.
  const std::shared_ptr<Entry> held = entry_for(key);
  Entry& entry = *held;
  std::call_once(entry.once, [&] {
    entry.source = std::string(source);  // bind key to source even on failure
    try {
      entry.session = std::make_shared<Session>(source, key, input, store_);
      entry.ready.store(true, std::memory_order_release);
    } catch (const std::exception& ex) {
      entry.error = ex.what();
    } catch (...) {
      entry.error = "preparation failed";
    }
  });
  // Mismatch first, so a latched failure is never misattributed to a
  // different source.
  if (entry.source != source) {
    throw std::invalid_argument("SessionPool key '" + key +
                                "' already bound to a different source");
  }
  if (entry.session == nullptr) {
    throw std::runtime_error(entry.error);
  }
  return entry.session;
}

std::shared_ptr<Session> SessionPool::get(const std::string& workload_name) {
  const auto& w = wl::workload(workload_name);
  return get(w.name, w.source, w.input);
}

SessionPool::PoolStats SessionPool::stats() const {
  // Snapshot the entries under the lock, read the Sessions outside it:
  // Session::stats() is lock-free but there is no reason to serialize it
  // against concurrent get()s.
  std::vector<std::shared_ptr<Entry>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) snapshot.push_back(entry);
  }
  PoolStats ps;
  for (const std::shared_ptr<Entry>& entry : snapshot) {
    // `ready` (acquire) orders the session write below it.
    if (entry == nullptr || !entry->ready.load(std::memory_order_acquire)) {
      continue;
    }
    ++ps.sessions;
    ++(entry->session->baseline_from_disk() ? ps.disk_cache : ps.computed);
    ps.stages += entry->session->stats();
  }
  return ps;
}

std::size_t SessionPool::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, entry] : entries_) {
    // `ready` (not `session`) is read here: a call_once writer may be
    // filling `session` concurrently; the atomic is the completion flag.
    if (entry != nullptr && entry->ready.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

void SessionPool::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

SessionPool& SessionPool::instance() {
  static SessionPool pool;
  return pool;
}

}  // namespace asipfb::pipeline
