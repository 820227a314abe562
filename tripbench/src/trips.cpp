// cold_trip and disk_restart: whole Figure-1 trips over a seeded corpus.
//
// A trip is Session(source, name, input, ..., store) followed by
// optimized/detection/coverage/extension (default options) at O0, O1 and
// O2.  Set-up generates the corpus, checks every scenario's simulator
// outputs against its generator oracle, and records the canonical-byte
// hash of all 13 artifacts of every trip; each measured trip is compared
// against those hashes.
//
// The traced variants time the calls into each layer's public functions
// from here: the baseline is prepared by the calls prepare_multi() makes
// (compile, canonicalize, verify, Machine, run), the stages run on a
// store-less Session adopting it, and the store traffic the real Session
// would do is replayed through cache::serialize / stage_key / Store.
#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "frontend/compile.hpp"
#include "ir/verifier.hpp"
#include "opt/cleanup.hpp"
#include "pipeline/session.hpp"
#include "sim/machine.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "workloads/generator.hpp"

namespace tripbench {

namespace {

using namespace asipfb;
namespace fs = std::filesystem;

constexpr std::array<opt::OptLevel, 3> kLevels = {
    opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O2};
constexpr std::array<cache::Artifact, 4> kStageKinds = {
    cache::Artifact::kOptimized, cache::Artifact::kDetection,
    cache::Artifact::kCoverage, cache::Artifact::kExtension};
/// Prepared baseline + 4 stage artifacts at each of 3 levels.
constexpr std::size_t kArtifacts = 1 + kLevels.size() * kStageKinds.size();
/// A run makes at least this many passes, however short --seconds is.
constexpr std::size_t kMinPasses = 3;

using TripHashes = std::array<std::string, kArtifacts>;

std::string hash_bytes(std::string_view bytes) { return cache::content_hash({bytes}); }

std::size_t artifact_index(std::size_t level, std::size_t kind) {
  return 1 + level * kStageKinds.size() + kind;
}

// --- Store keys --------------------------------------------------------------
// The Session keys a stage artifact by the bytes of its normalized options
// (session.cpp).  The traced runs replay the Session's store traffic, so
// they derive the same keys for the default options; set-up checks them
// against the entries a real Session writes.

class KeyBytes {
 public:
  KeyBytes& add(double v) { return raw(&v, sizeof v); }
  KeyBytes& add(std::uint64_t v) { return raw(&v, sizeof v); }
  KeyBytes& add(std::int64_t v) { return raw(&v, sizeof v); }
  KeyBytes& add(int v) { return add(static_cast<std::int64_t>(v)); }
  KeyBytes& add(bool v) {
    bytes_.push_back(v ? '\1' : '\0');
    return *this;
  }
  [[nodiscard]] const std::string& str() const { return bytes_; }

 private:
  KeyBytes& raw(const void* p, std::size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
    return *this;
  }
  std::string bytes_;
};

std::string option_key(opt::OptLevel level, cache::Artifact kind) {
  opt::OptimizeOptions o;
  if (level != opt::OptLevel::O0) o.percolation.chain_preserving = level == opt::OptLevel::O1;
  const bool adjacency = level == opt::OptLevel::O0;
  KeyBytes kb;
  kb.add(static_cast<int>(level))
      .add(o.unroll.factor)
      .add(static_cast<std::uint64_t>(o.unroll.max_loop_instrs))
      .add(o.percolation.max_passes)
      .add(o.percolation.speculate)
      .add(o.percolation.speculate_loads)
      .add(o.percolation.chain_preserving)
      .add(o.final_dce);
  if (kind == cache::Artifact::kDetection) {
    const chain::DetectorOptions d;
    kb.add(d.min_length).add(d.max_length).add(d.prune_percent).add(adjacency)
        .add(static_cast<std::uint64_t>(d.max_occurrences));
  } else if (kind == cache::Artifact::kCoverage || kind == cache::Artifact::kExtension) {
    const chain::CoverageOptions c;
    kb.add(c.min_length).add(c.max_length).add(c.floor_percent).add(c.max_rounds)
        .add(adjacency);
    if (kind == cache::Artifact::kExtension) {
      const asip::SelectionOptions s;
      const asip::DatapathModel m;
      kb.add(s.area_budget).add(s.cycle_budget).add(m.chain_overhead_area);
    }
  }
  return kb.str();
}

struct TripKeys {
  std::array<cache::Artifact, kArtifacts> kinds{};
  std::array<std::string, kArtifacts> keys;
};

TripKeys trip_keys(std::string_view engine, const wl::Workload& w) {
  TripKeys k;
  k.kinds[0] = cache::Artifact::kPrepared;
  k.keys[0] = cache::baseline_key(engine, w.name, w.source, {w.input});
  for (std::size_t l = 0; l < kLevels.size(); ++l) {
    for (std::size_t s = 0; s < kStageKinds.size(); ++s) {
      const std::size_t i = artifact_index(l, s);
      k.kinds[i] = kStageKinds[s];
      k.keys[i] =
          cache::stage_key(k.keys[0], kStageKinds[s], option_key(kLevels[l], kStageKinds[s]));
    }
  }
  return k;
}

// --- Session trips -------------------------------------------------------------

void query_stages(const pipeline::Session& s) {
  for (const opt::OptLevel level : kLevels) {
    (void)s.optimized(level);
    (void)s.detection(level);
    (void)s.coverage(level);
    (void)s.extension(level);
  }
}

/// Canonical bytes of every artifact of a completed trip (memo hits).
std::array<std::string, kArtifacts> trip_payloads(const pipeline::Session& s) {
  std::array<std::string, kArtifacts> out;
  out[0] = cache::serialize(s.prepared());
  for (std::size_t l = 0; l < kLevels.size(); ++l) {
    out[artifact_index(l, 0)] = cache::serialize(s.optimized(kLevels[l]));
    out[artifact_index(l, 1)] = cache::serialize(s.detection(kLevels[l]));
    out[artifact_index(l, 2)] = cache::serialize(s.coverage(kLevels[l]));
    out[artifact_index(l, 3)] = cache::serialize(s.extension(kLevels[l]));
  }
  return out;
}

bool matches(const std::array<std::string, kArtifacts>& payloads, const TripHashes& ref) {
  for (std::size_t i = 0; i < kArtifacts; ++i) {
    if (hash_bytes(payloads[i]) != ref[i]) return false;
  }
  return true;
}

std::shared_ptr<cache::Store> open_store(const fs::path& dir) {
  cache::StoreOptions options;
  options.dir = dir;
  return std::make_shared<cache::Store>(options);
}

void reset_dir(const fs::path& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// Writes back the dirty data of the file system holding `dir`, so that
/// the kernel does not flush what set-up wrote during the measured window.
void flush_file_system(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

// --- Set-up --------------------------------------------------------------------

struct TripSetup {
  std::vector<wl::Workload> corpus;
  std::vector<TripHashes> refs;
  std::vector<std::uint64_t> total_cycles;
  fs::path store_dir;  ///< Populated store (disk_restart only).
};

/// Generates the corpus, runs one reference trip per scenario (writing to
/// `store_dir` when set), checks simulator outputs against the oracles, and
/// checks the replayed store keys against what the Sessions wrote.
TripSetup setup_trips(const Options& o, const fs::path& store_dir, Report& report) {
  TripSetup setup;
  setup.corpus = wl::corpus(wl::CorpusSpec{o.seed, kCorpusCount, wl::all_families()});
  setup.store_dir = store_dir;
  const fs::path dir = store_dir.empty() ? o.work_dir / "keycheck" : store_dir;
  reset_dir(dir);
  const std::shared_ptr<cache::Store> store = open_store(dir);
  for (std::size_t i = 0; i < setup.corpus.size(); ++i) {
    const wl::Workload& w = setup.corpus[i];
    // Without a populated store only the first trip writes: enough to
    // check the replayed keys.
    const bool write = !store_dir.empty() || i == 0;
    const pipeline::Session s(w.source, w.name, w.input, sim::fuse_default(),
                              sim::jit_default(), write ? store : nullptr);
    query_stages(s);
    TripHashes ref;
    const auto payloads = trip_payloads(s);
    for (std::size_t a = 0; a < kArtifacts; ++a) ref[a] = hash_bytes(payloads[a]);
    setup.refs.push_back(std::move(ref));
    setup.total_cycles.push_back(s.total_cycles());

    ir::Module module = s.prepared().module;
    const pipeline::ExecutionResult run = pipeline::execute(module, w.input, w.outputs);
    ++report.attempted;
    if (!wl::oracle_matches(w, run.exit_code, run.outputs)) {
      report.fail();
      report.text += format("oracle mismatch: %s\n", w.name.c_str());
    }
    if (write) {
      const TripKeys keys = trip_keys(store->engine_version(), w);
      for (std::size_t a = 0; a < kArtifacts; ++a) {
        if (!fs::exists(store->entry_path(keys.kinds[a], keys.keys[a]))) {
          throw std::runtime_error("replayed store key does not match the Session's: " +
                                   w.name + " artifact " + std::to_string(a));
        }
      }
    }
  }
  if (store_dir.empty()) reset_dir(dir);
  return setup;
}

/// Runs set-up setup_reps(o) times (the last one is kept) and returns the
/// median set-up time at the reference host speed.
double repeated_setup(const Options& o, const fs::path& store_dir, Report& report,
                      std::optional<TripSetup>& setup) {
  return scaled_setup_seconds(
      setup_reps(o), [&] { setup.reset(); },
      [&] { setup.emplace(setup_trips(o, store_dir, report)); });
}

// --- Untraced measurement ------------------------------------------------------

struct TripRun {
  EndToEnd e2e;  ///< Every trip; a slice's time is its rescaled trip time.
  pipeline::Session::Stats stages;
  std::uint64_t corrupt = 0;
  double raw_ops_per_s = 0.0;  ///< Trips over their time, not rescaled.
  std::uint64_t calibrations = 0;
};

/// Trip time between two runs of the calibration kernel: after every cold
/// trip, and after about 30 disk trips.
constexpr double kCalibrateEveryUs = 10000.0;

/// Closed loop, one thread: whole passes over the corpus until the time is
/// up.  `cold` gives every pass a fresh empty store directory; otherwise
/// every pass opens a fresh Store handle over the populated directory.
/// Trips are timed in segments of about kCalibrateEveryUs, each followed by
/// a HostSpeed calibration that rescales its trips.  A slice ends with the
/// first pass that brings its rescaled trip time to kSliceSeconds; the last
/// slice ends with the run.
TripRun measure_trips(const Options& o, const TripSetup& setup, bool cold, Report& report) {
  TripRun run;
  HostSpeed speed;
  speed.calibrate(HostSpeed::kWindow);
  std::vector<double> segment_us;  ///< Raw trip times since the last calibration.
  double segment_total_us = 0.0, raw_seconds = 0.0, slice_seconds = 0.0;
  const auto end_segment = [&] {
    speed.calibrate();
    for (const double us : segment_us) run.e2e.add(speed.scale(us));
    slice_seconds += speed.scale(segment_total_us) * 1e-6;
    raw_seconds += segment_total_us * 1e-6;
    segment_us.clear();
    segment_total_us = 0.0;
  };
  const auto start = Clock::now();
  for (std::size_t pass = 0; pass < kMinPasses || seconds_since(start) < o.seconds; ++pass) {
    if (slice_seconds >= kSliceSeconds) {
      run.e2e.close_slice(slice_seconds);
      slice_seconds = 0.0;
    }
    const fs::path dir = cold ? o.work_dir / "cold" / std::to_string(pass) : setup.store_dir;
    if (cold) reset_dir(dir);
    const std::shared_ptr<cache::Store> store = open_store(dir);
    for (std::size_t i = 0; i < setup.corpus.size(); ++i) {
      const wl::Workload& w = setup.corpus[i];
      const auto t0 = Clock::now();
      const pipeline::Session s(w.source, w.name, w.input, sim::fuse_default(),
                                sim::jit_default(), store);
      query_stages(s);
      const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      segment_us.push_back(us);
      segment_total_us += us;

      const pipeline::Session::Stats st = s.stats();
      run.stages.optimize_runs += st.optimize_runs;
      run.stages.detect_runs += st.detect_runs;
      run.stages.coverage_runs += st.coverage_runs;
      run.stages.extension_runs += st.extension_runs;
      run.stages.hits += st.hits;
      ++report.attempted;
      const bool served_as_expected = cold ? st.disk_hits == 0 : st.disk_misses == 0;
      if (!served_as_expected || !matches(trip_payloads(s), setup.refs[i])) {
        report.fail();
        report.text += format("trip mismatch: %s (pass %zu)\n", w.name.c_str(), pass);
      }
      if (segment_total_us >= kCalibrateEveryUs) end_segment();
    }
    if (!segment_us.empty()) end_segment();
    run.corrupt += store->stats().corrupt;
    if (cold) reset_dir(dir);
  }
  run.e2e.close_slice(slice_seconds);
  run.raw_ops_per_s = static_cast<double>(run.e2e.ops()) / raw_seconds;
  run.calibrations = speed.samples();
  return run;
}

// --- Traced measurement --------------------------------------------------------

struct TracedRun {
  Tracer tracer;
  std::vector<std::size_t> op_scenario;  ///< Trip id -> corpus index.
  std::size_t trips = 0;
  // Counts over the first pass.
  std::uint64_t ir_instrs = 0, dynamic_ops = 0, o2_instrs = 0, ops_hoisted = 0,
                percolation_passes = 0, repair_copies = 0, sequences = 0,
                coverage_steps = 0, selected = 0, bytes_written = 0;
  std::uint64_t loads = 0, load_hits = 0, corrupt = 0;
};

const char* const kOptSpan[] = {"opt.o0", "opt.o1", "opt.o2"};

/// One traced cold trip: prepare split into its public calls, stages on a
/// store-less Session, then the Session's store traffic replayed.
void traced_cold_trip(const wl::Workload& w, std::uint64_t expect_cycles,
                      const TripHashes& ref, cache::Store& store, bool count,
                      TracedRun& t, Report& report) {
  Tracer& tr = t.tracer;
  std::optional<pipeline::Session> session;
  std::array<std::string, kArtifacts> payloads;
  {
    auto trip = tr.scope("trip");
    {
      auto prepare = tr.scope("pipeline.prepare");
      pipeline::PreparedProgram p;
      {
        auto s = tr.scope("frontend.compile");
        p.module = fe::compile_benchc(w.source, w.name);
      }
      if (count) t.ir_instrs += p.module.instr_count();
      {
        auto s = tr.scope("opt.canonicalize");
        opt::canonicalize(p.module);
      }
      {
        auto s = tr.scope("ir.verify");
        ir::verify_or_throw(p.module);
      }
      sim::clear_profile(p.module);
      std::optional<sim::Machine> machine;
      {
        auto s = tr.scope("sim.machine_setup");
        machine.emplace(p.module);
        machine->reset_memory();
        for (const auto& [g, values] : w.input.float_inputs) machine->write_global(g, values);
        for (const auto& [g, values] : w.input.int_inputs) machine->write_global(g, values);
      }
      {
        auto s = tr.scope("sim.jit_compile");
        (void)machine->jit_ready();
      }
      sim::SimResult result;
      {
        auto s = tr.scope("sim.run");
        sim::SimOptions options;
        options.profile = true;
        result = machine->run(options);
      }
      {
        auto s = tr.scope("sim.teardown");
        machine.reset();
      }
      if (count) t.dynamic_ops += result.steps;
      p.baseline_run.exit_code = result.exit_code;
      p.baseline_run.steps = result.steps;
      p.baseline_run.cycles = result.cycles;
      p.baseline_run.oob_loads = result.oob_loads;
      p.total_cycles = p.module.total_dynamic_ops();
      session.emplace(std::move(p));
    }
    const pipeline::Session& s = *session;
    for (std::size_t l = 0; l < kLevels.size(); ++l) {
      {
        auto span = tr.scope(kOptSpan[l]);
        (void)s.optimized(kLevels[l]);
      }
      {
        auto span = tr.scope("chain.detect");
        (void)s.detection(kLevels[l]);
      }
      {
        auto span = tr.scope("chain.coverage");
        (void)s.coverage(kLevels[l]);
      }
      {
        auto span = tr.scope("asip.extension");
        (void)s.extension(kLevels[l]);
      }
    }
    TripKeys keys;
    {
      auto span = tr.scope("cache.key");
      keys = trip_keys(store.engine_version(), w);
    }
    {
      // A cold Session consults the store before every computation.
      auto span = tr.scope("cache.read");
      for (std::size_t a = 0; a < kArtifacts; ++a) {
        if (store.load(keys.kinds[a], keys.keys[a]).has_value()) ++t.load_hits;
        ++t.loads;
      }
    }
    {
      auto span = tr.scope("cache.write");
      {
        auto ser = tr.scope("cache.serialize");
        payloads = trip_payloads(s);
      }
      auto save = tr.scope("cache.save");
      for (std::size_t a = 0; a < kArtifacts; ++a) {
        store.save(keys.kinds[a], keys.keys[a], payloads[a]);
      }
    }
  }
  const pipeline::Session& s = *session;
  ++report.attempted;
  if (s.total_cycles() != expect_cycles || !matches(payloads, ref)) {
    report.fail();
    report.text += format("traced trip mismatch: %s\n", w.name.c_str());
  }
  if (!count) return;
  for (std::size_t a = 0; a < kArtifacts; ++a) t.bytes_written += payloads[a].size();
  t.o2_instrs += s.optimized(opt::OptLevel::O2).instr_count();
  for (const opt::OptLevel level : kLevels) {
    t.sequences += s.detection(level).sequences.size();
    t.coverage_steps += s.coverage(level).steps.size();
    t.selected += s.extension(level).selected.size();
  }
  // The optimizer's own counters are not visible through the Session: redo
  // O2 on a copy (outside the trip span) and check it is the same module.
  ir::Module copy = s.prepared().module;
  opt::OptimizeOptions o2;
  o2.percolation.chain_preserving = false;
  const opt::OptimizeStats stats = opt::optimize(copy, opt::OptLevel::O2, o2);
  t.ops_hoisted += static_cast<std::uint64_t>(stats.percolation.ops_hoisted);
  t.percolation_passes += static_cast<std::uint64_t>(stats.percolation.passes);
  t.repair_copies += static_cast<std::uint64_t>(stats.repair_copies);
  if (hash_bytes(cache::serialize(copy)) != ref[artifact_index(2, 0)]) {
    report.fail();
    report.text += format("O2 replay differs from the Session's: %s\n", w.name.c_str());
  }
}

/// One traced disk trip: the store reads and decodes the Session performs,
/// each timed on its own.  The payloads are checked after the trip.
void traced_disk_trip(const wl::Workload& w, const TripHashes& ref, cache::Store& store,
                      TracedRun& t, Report& report) {
  Tracer& tr = t.tracer;
  std::array<std::optional<std::string>, kArtifacts> payloads;
  auto load = [&](cache::Artifact kind, const std::string& key, std::size_t a) {
    auto span = tr.scope("cache.read");
    payloads[a] = store.load(kind, key);
    return payloads[a].has_value();
  };
  {
    auto trip = tr.scope("trip");
    TripKeys keys;
    std::optional<pipeline::Session> session;
    {
      auto prepare = tr.scope("pipeline.prepare");
      {
        auto span = tr.scope("cache.key");
        keys.kinds[0] = cache::Artifact::kPrepared;
        keys.keys[0] = cache::baseline_key(store.engine_version(), w.name, w.source, {w.input});
      }
      pipeline::PreparedProgram p;
      if (load(keys.kinds[0], keys.keys[0], 0)) {
        auto span = tr.scope("cache.deserialize");
        p = cache::deserialize_prepared(*payloads[0]);
      }
      session.emplace(std::move(p));
    }
    for (std::size_t l = 0; l < kLevels.size(); ++l) {
      for (std::size_t k = 0; k < kStageKinds.size(); ++k) {
        const std::size_t a = artifact_index(l, k);
        {
          auto span = tr.scope("cache.key");
          keys.kinds[a] = kStageKinds[k];
          keys.keys[a] = cache::stage_key(keys.keys[0], kStageKinds[k],
                                          option_key(kLevels[l], kStageKinds[k]));
        }
        if (!load(keys.kinds[a], keys.keys[a], a)) continue;
        auto span = tr.scope("cache.deserialize");
        switch (k) {
          case 0: (void)cache::deserialize_module(*payloads[a]); break;
          case 1: (void)cache::deserialize_detection(*payloads[a]); break;
          case 2: (void)cache::deserialize_coverage(*payloads[a]); break;
          default: (void)cache::deserialize_extension(*payloads[a]); break;
        }
      }
    }
  }
  bool ok = true;
  for (std::size_t a = 0; a < kArtifacts; ++a) {
    ++t.loads;
    if (!payloads[a]) {
      ok = false;
      continue;
    }
    ++t.load_hits;
    ok &= hash_bytes(*payloads[a]) == ref[a];
  }
  ++report.attempted;
  if (!ok) {
    report.fail();
    report.text += format("traced disk trip mismatch: %s\n", w.name.c_str());
  }
}

void measure_traced(const Options& o, const TripSetup& setup, bool cold, TracedRun& t,
                    Report& report) {
  const auto start = Clock::now();
  std::uint64_t op = 0;
  for (std::size_t pass = 0; pass == 0 || seconds_since(start) < o.seconds; ++pass) {
    const fs::path dir = cold ? o.work_dir / "cold" / std::to_string(pass) : setup.store_dir;
    if (cold) reset_dir(dir);
    const std::shared_ptr<cache::Store> store = open_store(dir);
    for (std::size_t i = 0; i < setup.corpus.size(); ++i) {
      t.tracer.set_op(op++);
      t.op_scenario.push_back(i);
      if (cold) {
        traced_cold_trip(setup.corpus[i], setup.total_cycles[i], setup.refs[i], *store,
                         pass == 0, t, report);
      } else {
        traced_disk_trip(setup.corpus[i], setup.refs[i], *store, t, report);
      }
      ++t.trips;
    }
    t.corrupt += store->stats().corrupt;
    if (cold) reset_dir(dir);
  }
}

/// Self time per (family, layer) of the traced cold trips, ms per trip,
/// with a geometric-mean row over families.
std::string family_table(const TracedRun& t, const TripSetup& setup) {
  const std::vector<double> self = t.tracer.self_ms();
  std::map<std::string, std::map<std::string, double>> cells;
  std::map<std::string, double> trips;
  std::map<std::string, double> wall;
  std::set<std::string> layers;
  const auto& spans = t.tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string family(wl::family_of(setup.corpus[t.op_scenario[spans[i].op]].name));
    const std::string layer(layer_of(spans[i].name));
    layers.insert(layer);
    cells[family][layer] += self[i];
    if (spans[i].parent < 0) {
      trips[family] += 1.0;
      wall[family] += spans[i].ms();
    }
  }
  std::string out = format("  %-8s %9s", "family", "trip_ms");
  for (const auto& layer : layers) out += format(" %9s", layer.c_str());
  out += "\n";
  std::map<std::string, double> log_sum;
  double log_wall = 0.0;
  for (const auto& [family, row] : cells) {
    const double n = trips[family];
    out += format("  %-8s %9.3f", family.c_str(), wall[family] / n);
    log_wall += std::log(wall[family] / n);
    for (const auto& layer : layers) {
      const auto it = row.find(layer);
      const double v = it == row.end() ? 0.0 : it->second / n;
      log_sum[layer] += std::log(std::max(v, 1e-6));
      out += format(" %9.3f", v);
    }
    out += "\n";
  }
  const double f = static_cast<double>(cells.size());
  out += format("  %-8s %9.3f", "geomean", std::exp(log_wall / f));
  for (const auto& layer : layers) out += format(" %9.3f", std::exp(log_sum[layer] / f));
  out += "\n";
  return out;
}

Report run_trips(const Options& o, bool cold) {
  Report report;
  const char* name = cold ? "cold_trip" : "disk_restart";
  std::optional<TripSetup> setup;
  const fs::path store_dir = cold ? fs::path() : o.work_dir / "populated";
  const double setup_s = repeated_setup(o, store_dir, report, setup);
  report.text += format("%s: seed %llu, %zu scenarios, %d set-up(s)\n", name,
                        static_cast<unsigned long long>(o.seed), setup->corpus.size(),
                        setup_reps(o));
  flush_file_system(o.work_dir);

  const TripRun run = measure_trips(o, *setup, cold, report);
  add_end_to_end(report, run.e2e, "trip", setup_s);
  report.text += format("  raw (not rescaled): %.4f trips/s; %llu calibrations\n",
                        run.raw_ops_per_s, static_cast<unsigned long long>(run.calibrations));
  const double queries = static_cast<double>(run.stages.hits + run.stages.optimize_runs +
                                             run.stages.detect_runs + run.stages.coverage_runs +
                                             run.stages.extension_runs);
  const double memo_hit_share = queries > 0 ? static_cast<double>(run.stages.hits) / queries : 0;
  if (!o.trace) return report;

  TracedRun t;
  measure_traced(o, *setup, cold, t, report);
  const std::map<std::string, double> by_layer = self_ms_by_layer(t.tracer);
  double wall_ms = 0.0;
  for (const Span& s : t.tracer.spans()) {
    if (s.parent < 0) wall_ms += s.ms();
  }
  const double trips = static_cast<double>(t.trips);
  const double traced_rate = 1000.0 * trips / wall_ms;
  const double untraced_rate = run.raw_ops_per_s;
  report.text += format(
      "traced: %zu trips, %.2f trips/s (untraced %.2f): tracing overhead %.1f%%\n",
      t.trips, traced_rate, untraced_rate, 100.0 * (untraced_rate - traced_rate) / untraced_rate);
  report.text += "self time per layer (ms per trip; share of traced trip wall time):\n";
  report.text += layer_table(by_layer, trips, wall_ms, "ms/trip");
  report.text += "self time per span (ms per trip):\n";
  report.text += layer_table(self_ms_by_name(t.tracer, "trip"), trips, wall_ms, "ms/trip");
  if (cold) {
    report.text += "self time per family and layer (ms per trip):\n";
    report.text += family_table(t, *setup);
  }
  if (!o.trace_file.empty()) {
    if (t.tracer.write_chrome_trace(o.trace_file)) {
      report.text += "trace written to " + o.trace_file.string() + "\n";
    } else {
      report.text += "could not write trace file " + o.trace_file.string() + "\n";
    }
  }

  const std::map<std::string, double> total = t.tracer.total_ms_by_name();
  auto per_trip = [&](const char* span) {
    const auto it = total.find(span);
    return it == total.end() ? 0.0 : it->second / trips;
  };
  std::vector<Metric>& m = report.per_layer;
  m = per_layer_template();
  set_metric(m, "pipeline.prepare_ms", per_trip("pipeline.prepare"));
  set_metric(m, "pipeline.memo_hit_share", memo_hit_share);
  set_metric(m, "cache.read_ms", per_trip("cache.read"));
  set_metric(m, "cache.hit_share",
             t.loads > 0 ? static_cast<double>(t.load_hits) / static_cast<double>(t.loads) : 0);
  set_metric(m, "cache.corrupt", static_cast<double>(t.corrupt + run.corrupt));
  if (!cold) {
    set_metric(m, "cache.deserialize_ms", per_trip("cache.deserialize"));
    return report;
  }
  set_metric(m, "frontend.compile_ms", per_trip("frontend.compile"));
  set_metric(m, "frontend.ir_instrs", static_cast<double>(t.ir_instrs));
  set_metric(m, "ir.verify_ms", per_trip("ir.verify"));
  set_metric(m, "opt.canonicalize_ms", per_trip("opt.canonicalize"));
  set_metric(m, "sim.machine_setup_ms", per_trip("sim.machine_setup"));
  set_metric(m, "sim.jit_compile_ms", per_trip("sim.jit_compile"));
  set_metric(m, "sim.run_ms", per_trip("sim.run"));
  set_metric(m, "sim.dynamic_ops", static_cast<double>(t.dynamic_ops));
  set_metric(m, "opt.o1_ms", per_trip("opt.o1"));
  set_metric(m, "opt.o2_ms", per_trip("opt.o2"));
  set_metric(m, "opt.o2_instrs", static_cast<double>(t.o2_instrs));
  set_metric(m, "opt.ops_hoisted", static_cast<double>(t.ops_hoisted));
  set_metric(m, "opt.percolation_passes", static_cast<double>(t.percolation_passes));
  set_metric(m, "opt.repair_copies", static_cast<double>(t.repair_copies));
  set_metric(m, "chain.detect_ms", per_trip("chain.detect"));
  set_metric(m, "chain.coverage_ms", per_trip("chain.coverage"));
  set_metric(m, "chain.sequences", static_cast<double>(t.sequences));
  set_metric(m, "chain.coverage_steps", static_cast<double>(t.coverage_steps));
  set_metric(m, "asip.extension_ms", per_trip("asip.extension"));
  set_metric(m, "asip.selected", static_cast<double>(t.selected));
  set_metric(m, "cache.write_ms", per_trip("cache.write"));
  set_metric(m, "cache.bytes_written", static_cast<double>(t.bytes_written));
  return report;
}

}  // namespace

Report run_cold_trip(const Options& options) { return run_trips(options, true); }

Report run_disk_restart(const Options& options) { return run_trips(options, false); }

}  // namespace tripbench
