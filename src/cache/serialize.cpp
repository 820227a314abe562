#include "cache/serialize.hpp"

#include <concepts>
#include <map>
#include <optional>
#include <type_traits>

#include "support/bytes.hpp"

namespace asipfb::cache {

namespace {

// --- Codecs -----------------------------------------------------------------
// Each artifact's byte layout is written once, as a field list below: a
// function template that visits the fields in encoding order through a
// codec `c`.  Instantiated with an Encoder over a const artifact it
// appends them; with a Decoder over a default-constructed artifact it
// reads them back, so the two directions cannot disagree.
//
//   c(field)                       one scalar, string, register or enum;
//   c(vec, min_elem_bytes[, each]) u64 count, then each element (a map:
//                                  each(key, value)); on decode the count is
//                                  capped by ByteReader::count.

/// A field-list parameter: T itself when decoding, const T when encoding.
template <class A, class T>
concept Of = std::same_as<std::remove_const_t<A>, T>;

/// std::uint64_t and std::size_t, whichever types they are on the host.
template <class T>
concept Word64 = std::unsigned_integral<T> && sizeof(T) == 8;

class Encoder {
 public:
  explicit Encoder(support::ByteWriter& out) : out_(out) {}

  void operator()(bool v) { out_.boolean(v); }
  void operator()(std::uint32_t v) { out_.u32(v); }
  void operator()(std::int32_t v) { out_.i32(v); }
  void operator()(Word64 auto v) { out_.u64(v); }
  void operator()(float v) { out_.f32(v); }
  void operator()(double v) { out_.f64(v); }
  void operator()(const std::string& v) { out_.str(v); }
  void operator()(ir::Reg r) { out_.u32(r.id); }
  void operator()(const std::optional<ir::Reg>& r) {
    out_.boolean(r.has_value());
    out_.u32(r.has_value() ? r->id : 0);
  }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E v) {
    out_.u8(static_cast<std::uint8_t>(v));
  }

  template <class T, class Each>
  void operator()(const std::vector<T>& v, std::size_t /*min_elem_bytes*/,
                  Each each) {
    out_.u64(v.size());
    for (const T& e : v) each(e);
  }
  template <class K, class V, class Each>
  void operator()(const std::map<K, V>& m, std::size_t /*min_elem_bytes*/,
                  Each each) {
    out_.u64(m.size());
    for (const auto& [k, v] : m) each(k, v);
  }
  template <class T>
  void operator()(const std::vector<T>& v, std::size_t min_elem_bytes) {
    (*this)(v, min_elem_bytes, [this](const T& e) { (*this)(e); });
  }

 private:
  support::ByteWriter& out_;
};

class Decoder {
 public:
  explicit Decoder(support::ByteReader& in) : in_(in) {}

  void operator()(bool& v) { v = in_.boolean(); }
  void operator()(std::uint32_t& v) { v = in_.u32(); }
  void operator()(std::int32_t& v) { v = in_.i32(); }
  void operator()(Word64 auto& v) { v = in_.u64(); }
  void operator()(float& v) { v = in_.f32(); }
  void operator()(double& v) { v = in_.f64(); }
  void operator()(std::string& v) { v = in_.str(); }
  void operator()(ir::Reg& r) { r.id = in_.u32(); }
  void operator()(std::optional<ir::Reg>& r) {
    const bool has = in_.boolean();
    const std::uint32_t id = in_.u32();
    if (has) r = ir::Reg{id};
  }
  void operator()(ir::Opcode& v) {
    v = in_.enumerator(static_cast<ir::Opcode>(ir::kNumOpcodes - 1),
                       "cache payload: bad opcode byte");
  }
  void operator()(ir::Type& v) {
    v = in_.enumerator(ir::Type::Void, "cache payload: bad type byte");
  }
  void operator()(ir::IntrinsicKind& v) {
    v = in_.enumerator(ir::IntrinsicKind::Floor,
                       "cache payload: bad intrinsic byte");
  }
  void operator()(ir::ChainClass& v) {
    v = in_.enumerator(ir::ChainClass::None,
                       "cache payload: bad chain-class byte");
  }

  template <class T, class Each>
  void operator()(std::vector<T>& v, std::size_t min_elem_bytes, Each each) {
    const std::size_t n = in_.count(min_elem_bytes);
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) each(v.emplace_back());
  }
  template <class K, class V, class Each>
  void operator()(std::map<K, V>& m, std::size_t min_elem_bytes, Each each) {
    const std::size_t n = in_.count(min_elem_bytes);
    for (std::size_t i = 0; i < n; ++i) {
      K k;
      V v;
      each(k, v);
      m.emplace(std::move(k), std::move(v));
    }
  }
  template <class T>
  void operator()(std::vector<T>& v, std::size_t min_elem_bytes) {
    (*this)(v, min_elem_bytes, [this](T& e) { (*this)(e); });
  }

 private:
  support::ByteReader& in_;
};

// --- Field lists: the one definition of each layout -------------------------

void fields(auto& c, Of<ir::Instr> auto& instr) {
  c(instr.op);
  c(instr.dst);
  c(instr.args, 4);
  c(instr.imm_i);
  c(instr.imm_f);
  c(instr.intrinsic);
  c(instr.callee);
  c(instr.target0);
  c(instr.target1);
  c(instr.exec_count);
  c(instr.id);
  c(instr.origin);
  c(instr.fused_follower);
}

void fields(auto& c, Of<ir::Module> auto& module) {
  c(module.name);
  c(module.globals, 8, [&](auto& g) {
    c(g.name);
    c(g.elem_type);
    c(g.size);
    c(g.base_address);
    c(g.init, 4);
  });
  c(module.functions, 8, [&](auto& fn) {
    c(fn.name);
    c(fn.return_type);
    c(fn.params, 4);
    c(fn.reg_types, 1);
    c(fn.frame_words);
    c(fn.next_instr_id);
    c(fn.blocks, 8, [&](auto& block) {
      c(block.name);
      c(block.instrs, 8, [&](auto& instr) { fields(c, instr); });
    });
  });
}

void fields(auto& c, Of<pipeline::ExecutionResult> auto& run) {
  c(run.exit_code);
  c(run.steps);
  c(run.cycles);
  c(run.oob_loads);
  c(run.outputs, 8, [&](auto& name, auto& words) {
    c(name);
    c(words, 4);
  });
}

void fields(auto& c, Of<pipeline::PreparedProgram> auto& prepared) {
  fields(c, prepared.module);
  fields(c, prepared.baseline_run);
  c(prepared.total_cycles);
}

void fields(auto& c, Of<chain::Signature> auto& sig) { c(sig.classes, 1); }

void fields(auto& c, Of<chain::DetectionResult> auto& detection) {
  c(detection.sequences, 8, [&](auto& s) {
    fields(c, s.signature);
    c(s.cycles);
    c(s.occurrences);
    c(s.frequency);
  });
  c(detection.total_cycles);
  c(detection.regions);
  c(detection.paths);
}

void fields(auto& c, Of<chain::CoverageResult> auto& coverage) {
  c(coverage.steps, 8, [&](auto& step) {
    fields(c, step.signature);
    c(step.frequency);
    c(step.cycles);
    c(step.occurrences_taken);
    c(step.matches, 8, [&](auto& match) {
      c(match, 8, [&](auto& op) {
        c(op.first);
        c(op.second);
      });
    });
  });
  c(coverage.total_coverage);
  c(coverage.total_cycles);
}

void fields(auto& c, Of<asip::ChainedInstruction> auto& chained) {
  fields(c, chained.signature);
  c(chained.area);
  c(chained.delay);
  c(chained.cycles_saved);
  c(chained.frequency);
  c(chained.fits_cycle);
}

void fields(auto& c, Of<asip::ExtensionProposal> auto& proposal) {
  const auto each = [&](auto& chained) { fields(c, chained); };
  c(proposal.candidates, 8, each);
  c(proposal.selected, 8, each);
  c(proposal.total_area);
  c(proposal.baseline_cycles);
  c(proposal.customized_cycles);
}

/// Input bindings, in order, floats by bit pattern; only ever encoded,
/// into baseline_key().
void fields(auto& c, Of<std::vector<pipeline::WorkloadInput>> auto& inputs) {
  c(inputs, 8, [&](auto& input) {
    const auto binding = [&](auto& named) {
      c(named.first);
      c(named.second, 4);
    };
    c(input.float_inputs, 8, binding);
    c(input.int_inputs, 8, binding);
  });
}

template <class T>
std::string encode(const T& value) {
  support::ByteWriter out;
  Encoder c(out);
  fields(c, value);
  return std::move(out).take();
}

template <class T>
T decode(std::string_view payload) {
  support::ByteReader in(payload);
  Decoder c(in);
  T value;
  fields(c, value);
  in.expect_end();
  return value;
}

}  // namespace

std::string_view to_string(Artifact kind) {
  switch (kind) {
    case Artifact::kPrepared: return "prepared";
    case Artifact::kOptimized: return "optimized";
    case Artifact::kDetection: return "detection";
    case Artifact::kCoverage: return "coverage";
    case Artifact::kExtension: return "extension";
  }
  return "?";
}

std::string serialize(const ir::Module& module) { return encode(module); }
std::string serialize(const pipeline::PreparedProgram& prepared) {
  return encode(prepared);
}
std::string serialize(const chain::DetectionResult& detection) {
  return encode(detection);
}
std::string serialize(const chain::CoverageResult& coverage) {
  return encode(coverage);
}
std::string serialize(const asip::ExtensionProposal& proposal) {
  return encode(proposal);
}

ir::Module deserialize_module(std::string_view payload) {
  return decode<ir::Module>(payload);
}
pipeline::PreparedProgram deserialize_prepared(std::string_view payload) {
  return decode<pipeline::PreparedProgram>(payload);
}
chain::DetectionResult deserialize_detection(std::string_view payload) {
  return decode<chain::DetectionResult>(payload);
}
chain::CoverageResult deserialize_coverage(std::string_view payload) {
  return decode<chain::CoverageResult>(payload);
}
asip::ExtensionProposal deserialize_extension(std::string_view payload) {
  return decode<asip::ExtensionProposal>(payload);
}

// --- Key derivation ----------------------------------------------------------

namespace {

void hex16(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) out.push_back(kDigits[(v >> (4 * i)) & 0xf]);
}

}  // namespace

std::string content_hash(std::initializer_list<std::string_view> parts) {
  // Two independent FNV-1a lanes give the 128 hash bits.  Both advance in
  // the one pass over each byte, so their multiply chains overlap.
  std::uint64_t lo = support::kFnvShortBasis;
  std::uint64_t hi = 0x9e3779b97f4a7c15ull;
  const auto mix = [&](std::uint8_t byte) {
    lo = (lo ^ byte) * support::kFnvPrime;
    hi = (hi ^ byte) * support::kFnvPrime;
  };
  for (const std::string_view part : parts) {
    for (const char c : part) mix(static_cast<std::uint8_t>(c));
    // Length marker after each part, as eight little-endian bytes:
    // ("ab", "c") and ("a", "bc") must hash differently even though their
    // concatenations agree.
    for (int i = 0; i < 8; ++i) {
      mix(static_cast<std::uint8_t>(part.size() >> (8 * i)));
    }
  }
  std::string out;
  out.reserve(32);
  hex16(out, lo);
  hex16(out, hi);
  return out;
}

std::string baseline_key(std::string_view engine_version, std::string_view name,
                         std::string_view source,
                         const std::vector<pipeline::WorkloadInput>& inputs) {
  const std::string in_bytes = encode(inputs);
  return content_hash({engine_version, "prepared", name, source, in_bytes});
}

std::string stage_key(std::string_view baseline, Artifact kind,
                      std::string_view option_key) {
  return content_hash({baseline, to_string(kind), option_key});
}

}  // namespace asipfb::cache
