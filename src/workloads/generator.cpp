// Corpus assembly for the workload generator (generator.hpp): family
// round-robin, per-scenario seed derivation, and parameter sampling.
//
// Determinism contract: corpus(spec) is a pure function of the spec.  Each
// scenario's seed is a splitmix64 hash of (spec.seed, index), its
// parameters are drawn from that seed through the fixed xorshift64* Rng,
// and its data seed is drawn last — so inserting a new knob into one
// family never perturbs any other family or index.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "support/rng.hpp"
#include "workloads/generator.hpp"

namespace asipfb::wl {

namespace {

/// splitmix64: decorrelates (seed, index) into one scenario seed.
std::uint64_t scenario_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + (index + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Picks one element of a fixed candidate list.
template <typename T, std::size_t N>
T pick(Rng& rng, const T (&candidates)[N]) {
  return candidates[rng.next_below(N)];
}

std::string scenario_name(Family family, std::size_t index) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "gen_%s_%03zu",
                std::string(to_string(family)).c_str(), index);
  return buf;
}

}  // namespace

std::string_view to_string(Family family) {
  switch (family) {
    case Family::kFir: return "fir";
    case Family::kIir: return "iir";
    case Family::kDft: return "dft";
    case Family::kConv2d: return "conv2d";
    case Family::kHistEq: return "histeq";
    case Family::kFused: return "fused";
    case Family::kRle: return "rle";
    case Family::kCalls: return "calls";
    case Family::kFft: return "fft";
  }
  return "unknown";
}

const std::vector<Family>& all_families() {
  static const std::vector<Family> families = {
      Family::kFir,    Family::kIir,   Family::kDft,
      Family::kConv2d, Family::kHistEq, Family::kFused,
      Family::kRle,    Family::kCalls, Family::kFft};
  return families;
}

Workload corpus_scenario(const CorpusSpec& spec, std::size_t index) {
  if (spec.families.empty()) {
    throw std::invalid_argument("CorpusSpec.families must not be empty");
  }
  if (index >= spec.count) {
    throw std::invalid_argument("corpus_scenario index out of range");
  }
  const Family family = spec.families[index % spec.families.size()];
  Rng rng(scenario_seed(spec.seed, index));  // Rng remaps a zero seed itself.
  std::string name = scenario_name(family, index);

  switch (family) {
    case Family::kFir: {
      FirParams p;
      p.taps = pick(rng, {4, 6, 8, 12, 16, 24, 32});
      p.length = pick(rng, {64, 96, 128, 192, 256});
      p.integer = rng.next_below(2) == 1;  // The datatype axis.
      p.acc_shift = 4 + static_cast<int>(rng.next_below(4));
      p.sat_bits = pick(rng, {0, 8, 16});  // The accumulator-width axis.
      return make_fir_scenario(p, rng.next_u64(), std::move(name));
    }
    case Family::kIir: {
      IirParams p;
      p.sections = pick(rng, {1, 2, 3, 4, 6});
      p.length = pick(rng, {64, 96, 128, 192, 256});
      return make_iir_scenario(p, rng.next_u64(), std::move(name));
    }
    case Family::kDft: {
      DftParams p;
      p.points = pick(rng, {16, 24, 32, 48, 64});
      return make_dft_scenario(p, rng.next_u64(), std::move(name));
    }
    case Family::kConv2d: {
      Conv2dParams p;
      p.width = pick(rng, {12, 16, 24, 32});
      p.height = pick(rng, {12, 16, 24, 32});
      p.kernel = static_cast<int>(rng.next_below(kConvKernelCount));
      p.threshold = rng.next_below(2) == 1;
      p.thresh = pick(rng, {96, 160, 224});
      p.shift = pick(rng, {3, 4, 5});
      return make_conv2d_scenario(p, rng.next_u64(), std::move(name));
    }
    case Family::kHistEq: {
      HistEqParams p;
      p.width = pick(rng, {12, 16, 24, 32, 48});
      p.height = pick(rng, {12, 16, 24, 32});
      p.levels = pick(rng, {64, 128, 256});
      return make_histeq_scenario(p, rng.next_u64(), std::move(name));
    }
    case Family::kFused: {
      FusedParams p;
      p.image = rng.next_below(2) == 1;
      p.taps = pick(rng, {4, 8, 16});
      p.length = pick(rng, {96, 128, 192, 256});
      p.width = pick(rng, {12, 16, 24});
      p.height = pick(rng, {12, 16, 24});
      return make_fused_scenario(p, rng.next_u64(), std::move(name));
    }
    case Family::kRle: {
      RleParams p;
      p.length = pick(rng, {48, 64, 96, 128, 192, 256});
      p.levels = pick(rng, {2, 3, 4, 5, 8});
      return make_rle_scenario(p, rng.next_u64(), std::move(name));
    }
    case Family::kCalls: {
      CallsParams p;
      p.width = pick(rng, {8, 12, 16, 24, 32});
      p.height = pick(rng, {8, 12, 16, 24});
      p.tile_base = pick(rng, {2, 3, 4});
      p.bias = pick(rng, {-24, -8, 0, 8, 24});
      return make_calls_scenario(p, rng.next_u64(), std::move(name));
    }
    case Family::kFft: {
      FftParams p;
      p.points = pick(rng, {8, 16, 32, 64});
      p.qbits = pick(rng, {12, 13, 14});
      p.window = rng.next_below(2) == 1;
      return make_fft_scenario(p, rng.next_u64(), std::move(name));
    }
  }
  throw std::invalid_argument("unknown Family");
}

std::vector<Workload> corpus(const CorpusSpec& spec) {
  if (spec.count == 0) {
    throw std::invalid_argument("CorpusSpec.count must be at least 1");
  }
  if (spec.families.empty()) {
    throw std::invalid_argument("CorpusSpec.families must not be empty");
  }
  std::vector<Workload> out;
  out.reserve(spec.count);
  for (std::size_t i = 0; i < spec.count; ++i) {
    out.push_back(corpus_scenario(spec, i));
  }
  return out;
}

namespace {
std::atomic<bool> g_default_corpus_built{false};
}  // namespace

const std::vector<Workload>& default_corpus() {
  static const std::vector<Workload> shared = corpus();
  if (!g_default_corpus_built.load()) g_default_corpus_built.store(true);
  return shared;
}

bool default_corpus_built() { return g_default_corpus_built.load(); }

std::string_view family_of(std::string_view scenario_name) {
  if (scenario_name.rfind("gen_", 0) != 0) return {};
  const auto family_end = scenario_name.find('_', 4);
  if (family_end == std::string_view::npos) return {};
  return scenario_name.substr(4, family_end - 4);
}

bool oracle_matches(
    const Workload& w, std::int32_t exit_code,
    const std::map<std::string, std::vector<std::int32_t>>& outputs) {
  if (w.expected.empty() || !w.expected_exit.has_value()) return false;
  if (exit_code != *w.expected_exit) return false;
  for (const auto& [global, words] : w.expected) {
    const auto it = outputs.find(global);
    if (it == outputs.end() || it->second != words) return false;
  }
  return true;
}

const Workload& any_workload(const std::string& name) {
  for (const auto& w : suite()) {
    if (w.name == name) return w;
  }
  // Only corpus names can match below; skip the 96-scenario scan otherwise.
  if (!family_of(name).empty()) {
    for (const auto& w : default_corpus()) {
      if (w.name == name) return w;
    }
  }
  throw std::out_of_range("no such workload or generated scenario: " + name);
}

}  // namespace asipfb::wl
