// Deterministic, seed-driven workload generator: parameterized families of
// the Table-1 kernels, scaled far beyond the paper's fixed 12-program
// suite.
//
// Each family is a BenchC program *template* over a small parameter struct
// (tap counts, transform lengths, image dimensions, datatype and
// accumulator widths, fused stage combinations).  A generated scenario
// carries everything a differential check needs:
//
//   * byte-deterministic BenchC source (same params + seed => identical
//     text, on every platform),
//   * deterministic input bindings drawn from the seeded Rng, and
//   * reference outputs computed by a plain-C++ oracle that mirrors the
//     emitted program statement by statement (raw i32 words, floats
//     bit-cast — directly comparable to ExecutionResult::outputs).
//
// corpus(CorpusSpec) fans a spec out into N scenarios, round-robin over
// the requested families, so Sessions, pipeline::sweep() and the bench
// drivers can serve a 50-200 workload population instead of twelve.  The
// per-family make_*_scenario() entry points are exposed for tests and
// tools that want one scenario with hand-picked parameters.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/suite.hpp"

namespace asipfb::wl {

/// The parameterized kernel families the generator can emit.
enum class Family : std::uint8_t {
  kFir,     ///< N-tap FIR filter; float or integer datapath (fir/sewha).
  kIir,     ///< Biquad-cascade IIR filter, 1..N sections (iir).
  kDft,     ///< Direct DFT of an integer stream, parameterized length (dft).
  kConv2d,  ///< 3x3 image convolution; edge/smooth-style postludes.
  kHistEq,  ///< Histogram equalization, parameterized dims/levels (flatten).
  kFused,   ///< Two-stage pipelines: fir->histeq and conv2d->histeq.
  kRle,     ///< Quantize + run-length codec: data-dependent branches and
            ///< irregular trip counts (compress/pse territory).
  kCalls,   ///< Tiled image statistics through a multi-function call graph
            ///< with runtime-computed loop bounds (flatten territory).
  kFft,     ///< Iterative radix-2 fixed-point FFT with per-stage scaling
            ///< (intfft territory, integer datapath).
};

/// Lower-case family name ("fir", "iir", ...); stable, used in scenario names.
[[nodiscard]] std::string_view to_string(Family family);

/// All nine generator families, in enum order.
[[nodiscard]] const std::vector<Family>& all_families();

// --- Per-family parameters --------------------------------------------------

/// FIR family: y[n] = sum_k h[k] x[n-k], then (integer datapath only)
/// arithmetic shift + saturation — the datatype/accumulator-width axis.
struct FirParams {
  int taps = 8;         ///< Filter length, >= 1.
  int length = 128;     ///< Signal length, >= taps.
  bool integer = false; ///< false: f32 datapath; true: i32 datapath.
  int acc_shift = 5;    ///< Integer only: accumulator normalization shift, 0..31.
  int sat_bits = 16;    ///< Integer only: saturate to [-2^(b-1), 2^(b-1)-1]; 0 = off.
};

/// IIR family: direct-form II biquad cascade with stable generated poles.
struct IirParams {
  int sections = 2;  ///< Biquad sections, >= 1.
  int length = 128;  ///< Signal length, >= 1.
};

/// DFT family: direct O(K^2) transform of a K-point integer stream.
struct DftParams {
  int points = 24;  ///< Transform length, >= 2.
};

/// Conv2d family: 3x3 convolution over the image interior, followed by
/// either an abs+threshold postlude (edge-style, `threshold == true`) or an
/// arithmetic-shift normalization with a 255 clamp (smooth-style).
struct Conv2dParams {
  int width = 16;          ///< Image width, >= 4.
  int height = 16;         ///< Image height, >= 4.
  int kernel = 0;          ///< Index into the fixed 3x3 kernel table, see kConvKernelCount.
  bool threshold = true;   ///< true: |acc| > thresh ? 255 : 0; false: acc >> shift.
  int thresh = 160;        ///< Threshold for the edge-style postlude.
  int shift = 4;           ///< Normalization shift for the smooth-style postlude.
};

/// Number of kernels in the conv2d kernel table (sobel-x, sobel-y,
/// laplacian, gaussian, box, sharpen).
inline constexpr int kConvKernelCount = 6;

/// HistEq family: histogram equalization of a width x height image whose
/// pixels span [0, levels).
struct HistEqParams {
  int width = 16;    ///< Image width, >= 1.
  int height = 16;   ///< Image height, >= 1.
  int levels = 256;  ///< Gray levels (histogram size), 2..256.
};

/// Fused family: two kernels in one program, the corpus's multi-stage axis.
struct FusedParams {
  /// false: integer FIR -> saturate to [0,255] -> histogram equalization
  ///        (stream pipeline, "fir_histeq");
  /// true:  3x3 non-negative convolution -> clamp -> histogram equalization
  ///        (image pipeline, "conv_histeq").
  bool image = false;
  int taps = 8;     ///< Stream pipeline: FIR taps.
  int length = 128; ///< Stream pipeline: signal length, >= taps.
  int width = 16;   ///< Image pipeline: image width, >= 4.
  int height = 16;  ///< Image pipeline: image height, >= 4.
};

/// RLE family: quantize an integer stream into `levels` buckets through a
/// data-dependent threshold chain, run-length encode it (the inner scan's
/// trip count depends entirely on the data), decode it back, and verify.
/// Exercises data-dependent branching and irregular trip counts.
struct RleParams {
  int length = 64;  ///< Stream length, >= 2.
  int levels = 4;   ///< Quantization buckets, 2..8.
};

/// Calls family: per-tile image statistics computed through a multi-function
/// call graph (main -> tile_stat -> region_sum, plus a clamp helper), with
/// the tile size — and therefore every loop bound — computed at runtime from
/// the image data itself.
struct CallsParams {
  int width = 16;    ///< Image width, >= 4.
  int height = 16;   ///< Image height, >= 4.
  int tile_base = 3; ///< Minimum tile side, 2..8 (runtime adds img[0] & 3).
  int bias = 8;      ///< Contrast bias added during per-pixel remapping, -64..64.
};

/// FFT family: iterative radix-2 decimation-in-time fixed-point FFT with a
/// bit-reversal permutation (intfft's while-loop idiom), Qn twiddle tables
/// baked into the source, and >>1 scaling per butterfly stage.  Entirely
/// integer, so the oracle is exact by construction.
struct FftParams {
  int points = 16;     ///< Transform length; power of two in [4, 256].
  int qbits = 14;      ///< Twiddle fixed-point fraction bits, 8..14.
  bool window = false; ///< Apply a triangular integer window before the FFT.
};

// --- One-scenario entry points ----------------------------------------------
// Each returns a complete Workload: source, inputs drawn from Rng(data_seed),
// oracle-filled `expected` for every listed output global, and
// `expected_exit`.  Throws std::invalid_argument on out-of-range parameters.

[[nodiscard]] Workload make_fir_scenario(const FirParams& p,
                                         std::uint64_t data_seed,
                                         std::string name);
[[nodiscard]] Workload make_iir_scenario(const IirParams& p,
                                         std::uint64_t data_seed,
                                         std::string name);
[[nodiscard]] Workload make_dft_scenario(const DftParams& p,
                                         std::uint64_t data_seed,
                                         std::string name);
[[nodiscard]] Workload make_conv2d_scenario(const Conv2dParams& p,
                                            std::uint64_t data_seed,
                                            std::string name);
[[nodiscard]] Workload make_histeq_scenario(const HistEqParams& p,
                                            std::uint64_t data_seed,
                                            std::string name);
[[nodiscard]] Workload make_fused_scenario(const FusedParams& p,
                                           std::uint64_t data_seed,
                                           std::string name);
[[nodiscard]] Workload make_rle_scenario(const RleParams& p,
                                         std::uint64_t data_seed,
                                         std::string name);
[[nodiscard]] Workload make_calls_scenario(const CallsParams& p,
                                           std::uint64_t data_seed,
                                           std::string name);
[[nodiscard]] Workload make_fft_scenario(const FftParams& p,
                                         std::uint64_t data_seed,
                                         std::string name);

// --- Corpus -----------------------------------------------------------------

/// What corpus() should generate.  The default spec yields 96 scenarios,
/// 16 per family — every field participates in the derivation, so two
/// distinct specs produce distinct corpora and equal specs byte-identical
/// ones.
struct CorpusSpec {
  std::uint64_t seed = 0x5EEDC0DE5EEDC0DEull;  ///< Master seed.
  std::size_t count = 96;                      ///< Scenarios to generate, >= 1.
  std::vector<Family> families = all_families();  ///< Round-robin pool.
};

/// Scenario `index` of `spec`, exactly as corpus(spec)[index] would build
/// it — the random-access form tools use to shard generation.
[[nodiscard]] Workload corpus_scenario(const CorpusSpec& spec, std::size_t index);

/// The full generated corpus for `spec`: `spec.count` scenarios named
/// "gen_<family>_<index>", round-robin over `spec.families`, in index
/// order.  Deterministic: a pure function of the spec (no global state, no
/// ambient randomness), byte-identical across runs, platforms, and thread
/// counts.  Throws std::invalid_argument for an empty family list or a
/// zero count.
[[nodiscard]] std::vector<Workload> corpus(const CorpusSpec& spec = {});

/// Memoized corpus({}) — the shared default population for bench drivers
/// and tests (generation itself is cheap; the oracle simulations are not
/// free, so share one copy per process).
[[nodiscard]] const std::vector<Workload>& default_corpus();

/// True once default_corpus() has returned in this process, so a lookup
/// in it costs a scan, not the corpus's construction.  Never builds it.
[[nodiscard]] bool default_corpus_built();

/// Lookup across both populations: the Table-1 suite first, then the
/// default corpus ("gen_<family>_<index>" names).  Lets name-driven tools
/// (fir_explorer, coverage_study) accept generated scenarios.  Throws
/// std::out_of_range for unknown names.
[[nodiscard]] const Workload& any_workload(const std::string& name);

/// The family segment of a generated scenario name — the single owner of
/// the "gen_<family>_<index>" format (scenario_name() in generator.cpp is
/// its inverse).  Empty for names the generator did not produce.
[[nodiscard]] std::string_view family_of(std::string_view scenario_name);

/// True when a simulation of `w` reproduced the oracle reference exactly:
/// expected_exit engaged and equal to `exit_code`, and every
/// Workload::expected global present in `outputs` with identical words.
/// The one comparison rule shared by asipfb_cli --corpus, corpus_tour,
/// and tripbench's set-up check.
[[nodiscard]] bool oracle_matches(
    const Workload& w, std::int32_t exit_code,
    const std::map<std::string, std::vector<std::int32_t>>& outputs);

}  // namespace asipfb::wl
