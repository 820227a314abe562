#include "pipeline/session.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "cache/store.hpp"
#include "ir/verifier.hpp"
#include "workloads/suite.hpp"

namespace asipfb::pipeline {

namespace {

/// Serializes option-struct fields into an exact byte string used as the
/// memoization key.  Doubles are keyed by bit pattern: two options structs
/// collide only when every field is bit-identical, which is exactly the
/// "same computation" guarantee the cache needs.
class KeyBuilder {
 public:
  KeyBuilder& add(double v) { return add_bytes(&v, sizeof v); }
  KeyBuilder& add(std::uint64_t v) { return add_bytes(&v, sizeof v); }
  KeyBuilder& add(std::int64_t v) { return add_bytes(&v, sizeof v); }
  KeyBuilder& add(int v) { return add(static_cast<std::int64_t>(v)); }
  KeyBuilder& add(bool v) {
    bytes_.push_back(v ? '\1' : '\0');
    return *this;
  }

  [[nodiscard]] std::string str() && { return std::move(bytes_); }

 private:
  KeyBuilder& add_bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const char*>(p);
    bytes_.append(c, n);
    return *this;
  }

  std::string bytes_;
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

Session::Session(PreparedProgram prepared, std::shared_ptr<cache::Store> store)
    : prepared_(std::move(prepared)), store_(std::move(store)) {
  if (store_ != nullptr) {
    // No source/inputs to key on: address the adopted baseline by its own
    // content, which is exactly what the stage artifacts depend on.
    baseline_key_ = cache::content_hash(
        {store_->engine_version(), "adopted", cache::serialize(prepared_)});
  }
}

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
          return chain::detect_sequences(optimized(level, opt_norm), det_norm,
                                         prepared_.total_cycles);
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
          return chain::coverage_analysis(optimized(level, opt_norm), cov_norm,
                                          prepared_.total_cycles);
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

// --- SessionPool ------------------------------------------------------------

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
      entry.session = std::make_shared<Session>(source, key, input, store());
      entry.provenance = entry.session->baseline_from_disk()
                             ? Provenance::kDiskCache
                             : Provenance::kComputed;
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

std::shared_ptr<Session> SessionPool::put(const std::string& key,
                                          PreparedProgram prepared,
                                          std::string_view source) {
  std::shared_ptr<Entry> held;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = entries_.try_emplace(key);
    if (!inserted) {
      throw std::invalid_argument("SessionPool key '" + key +
                                  "' already bound");
    }
    it->second = std::make_shared<Entry>();
    held = it->second;
  }
  Entry& entry = *held;
  std::call_once(entry.once, [&] {
    if (source.empty()) {
      // Sentinel (never valid BenchC — leading NUL, explicit length): a
      // later get() under this key reports a mismatch instead of serving
      // an adopted baseline the caller never tied to real source text.
      entry.source.assign("\0<adopted baseline>", 20);
    } else {
      entry.source = std::string(source);
    }
    entry.session = std::make_shared<Session>(std::move(prepared), store());
    entry.provenance = Provenance::kAdopted;
    entry.ready.store(true, std::memory_order_release);
  });
  return entry.session;
}

void SessionPool::set_store(std::shared_ptr<cache::Store> store) {
  const std::lock_guard<std::mutex> lock(mu_);
  store_ = std::move(store);
}

std::shared_ptr<cache::Store> SessionPool::store() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return store_;
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
    // `ready` (acquire) orders the provenance + session writes below it.
    if (entry == nullptr || !entry->ready.load(std::memory_order_acquire)) {
      continue;
    }
    ++ps.sessions;
    switch (entry->provenance) {
      case Provenance::kComputed: ++ps.computed; break;
      case Provenance::kAdopted: ++ps.adopted; break;
      case Provenance::kDiskCache: ++ps.disk_cache; break;
    }
    const Session::Stats s = entry->session->stats();
    ps.stages.optimize_runs += s.optimize_runs;
    ps.stages.detect_runs += s.detect_runs;
    ps.stages.coverage_runs += s.coverage_runs;
    ps.stages.extension_runs += s.extension_runs;
    ps.stages.optimize_hits += s.optimize_hits;
    ps.stages.detect_hits += s.detect_hits;
    ps.stages.coverage_hits += s.coverage_hits;
    ps.stages.extension_hits += s.extension_hits;
    ps.stages.hits += s.hits;
    ps.stages.disk_hits += s.disk_hits;
    ps.stages.disk_misses += s.disk_misses;
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
