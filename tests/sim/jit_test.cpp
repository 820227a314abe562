// The baseline copy-and-patch JIT (sim/jit.hpp): native code must be
// semantically invisible against the interpreter oracle — outputs,
// steps, cycles, oob_loads, fault messages, and per-instruction exec_count
// attribution are all bit-identical — and the JIT must degrade gracefully
// to the interpreter when compilation is unavailable.  The generated-corpus
// differential in tests/integration/fuzz_differential_test.cpp extends the
// same parity check across 96 randomized scenarios, and the gauntlet runs
// it at 10k-program scale.
#include "sim/jit.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "frontend/compile.hpp"
#include "ir/builder.hpp"
#include "opt/cleanup.hpp"
#include "pipeline/driver.hpp"
#include "sim/baseline_hash.hpp"
#include "sim/machine.hpp"
#include "workloads/suite.hpp"

namespace asipfb::sim {
namespace {

using ir::Builder;
using ir::Opcode;
using ir::Type;

// --- Differential parity: JIT vs the interpreter ---------------------------

/// Runs `source` on the JIT and the interpreter (profiled) over two
/// module copies and checks every observable: exit code, steps, cycles,
/// oob_loads, declared outputs, and the per-instruction exec_count
/// attribution (via profile_hash).  On hosts without JIT support both legs
/// take the interpreter and the check is trivially true — the JIT's
/// fallback contract makes that the correct outcome, not a test gap.
void expect_jit_parity(const std::string& source,
                       const std::vector<std::string>& outputs = {}) {
  ir::Module jit_m = fe::compile_benchc(source, "parity");
  opt::canonicalize(jit_m);
  ir::Module interp_m = jit_m;

  const pipeline::WorkloadInput input;
  const auto jitted = pipeline::execute(jit_m, input, outputs,
                                        /*profile=*/true, /*jit=*/true);
  const auto interp = pipeline::execute(interp_m, input, outputs,
                                        /*profile=*/true, /*jit=*/false);
  EXPECT_EQ(jitted.exit_code, interp.exit_code);
  EXPECT_EQ(jitted.steps, interp.steps);
  EXPECT_EQ(jitted.cycles, interp.cycles);
  EXPECT_EQ(jitted.oob_loads, interp.oob_loads);
  EXPECT_EQ(jitted.outputs, interp.outputs);
  EXPECT_EQ(profile_hash(jit_m), profile_hash(interp_m))
      << "per-instruction execution counts diverged";
}

TEST(JitParity, SuiteWorkloadsBitIdentical) {
  for (const auto& w : wl::suite()) {
    SCOPED_TRACE(w.name);
    ir::Module jit_m = fe::compile_benchc(w.source, w.name);
    opt::canonicalize(jit_m);
    ir::Module interp_m = jit_m;
    const auto jitted = pipeline::execute(jit_m, w.input, w.outputs,
                                          /*profile=*/true, /*jit=*/true);
    const auto interp = pipeline::execute(interp_m, w.input, w.outputs,
                                          /*profile=*/true, /*jit=*/false);
    EXPECT_EQ(jitted.exit_code, interp.exit_code);
    EXPECT_EQ(jitted.steps, interp.steps);
    EXPECT_EQ(jitted.cycles, interp.cycles);
    EXPECT_EQ(jitted.oob_loads, interp.oob_loads);
    EXPECT_EQ(jitted.outputs, interp.outputs);
    EXPECT_EQ(profile_hash(jit_m), profile_hash(interp_m))
        << "per-instruction execution counts diverged";
  }
}

TEST(JitParity, SuiteCompilesOnSupportedHosts) {
  // On a supported host every suite workload must actually take the native
  // path — otherwise the parity tests above silently compare interpreter
  // against interpreter and the tier is dead weight.
  if (!jit_supported()) GTEST_SKIP() << "no JIT on this host";
  for (const auto& w : wl::suite()) {
    SCOPED_TRACE(w.name);
    ir::Module m = fe::compile_benchc(w.source, w.name);
    opt::canonicalize(m);
    Machine machine(m);
    EXPECT_TRUE(machine.jit_ready());
  }
}

TEST(JitParity, OutOfBoundsLoadIsSpeculativeOnBothTiers) {
  // A[i] with i far out of bounds must read as 0 and count one oob_load in
  // native code, exactly like the interpreter's speculative load.
  expect_jit_parity(
      "int A[4];\n"
      "int main() { int i; i = 1000000; return A[i] + 7; }\n");
}

TEST(JitParity, FloatSemanticsMatchInterpreter) {
  // Float comparisons, conversion round trips, and intrinsic calls run on
  // SSE scalar code in the native tier; the interpreter uses libm + C++
  // semantics.  Both must agree bit-for-bit on the declared outputs.
  expect_jit_parity(
      "float F[8];\nint N[8];\nfloat facc;\n"
      "int main() {\n"
      "  int i;\n"
      "  for (i = 0; i < 8; i++) {\n"
      "    F[i] = sqrt(i * 2.25) - sin(i * 0.5);\n"
      "    if (F[i] < 1.5) { facc = facc + F[i]; }\n"
      "    N[i] = (int)(F[i] * 100.0);\n"
      "  }\n"
      "  return (int)facc + N[7];\n"
      "}\n",
      {"F", "N", "facc"});
}

TEST(JitParity, ShiftAndDivisionEdgeCasesMatchInterpreter) {
  // Shift counts hit the hardware's &31 mask; division exercises negative
  // operands (C++ truncating semantics) — both paths must agree.
  expect_jit_parity(
      "int A[4];\n"
      "int main() {\n"
      "  int a; int b; int s;\n"
      "  a = -2147483647 - 1; b = -1;\n"
      "  s = (a >> 31) + (a << 1);\n"
      "  A[0] = (-7) / 2; A[1] = (-7) % 2; A[2] = 7 / -2; A[3] = 7 % -2;\n"
      "  return s + A[0] + A[1] + A[2] + A[3] + b;\n"
      "}\n",
      {"A"});
}

// --- Pattern parity: hand-built IR shapes with known results ----------------

/// Runs a hand-built module profiled on the JIT and the interpreter over two
/// copies; both must return `expected_exit` with identical steps, cycles,
/// and per-instruction exec_count attribution.  On a supported host the
/// module must really compile, so the comparison is not interpreter against
/// interpreter.
void expect_module_parity(const ir::Module& m, std::int32_t expected_exit) {
  ir::Module jit_m = m;
  ir::Module interp_m = m;
  SimOptions options;
  options.profile = true;
  options.jit = true;
  Machine jit_machine(jit_m);
  if (jit_supported()) {
    EXPECT_TRUE(jit_machine.jit_ready());
  }
  const SimResult jitted = jit_machine.run(options);
  options.jit = false;
  const SimResult interp = Machine(interp_m).run(options);
  EXPECT_EQ(interp.exit_code, expected_exit);
  EXPECT_EQ(jitted.exit_code, interp.exit_code);
  EXPECT_EQ(jitted.steps, interp.steps);
  EXPECT_EQ(jitted.cycles, interp.cycles);
  EXPECT_EQ(profile_hash(jit_m), profile_hash(interp_m))
      << "per-instruction execution counts diverged";
}

/// entry: x=5; y=7; s=x+y; flag=(x<s); condbr flag ? yes : no, where `yes`
/// returns the flag itself (live past the branch) or x (flag dead after it).
ir::Module cmp_br_module(bool reuse_flag) {
  ir::Module m;
  ir::Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  const auto entry = b.create_block("entry");
  const auto yes = b.create_block("yes");
  const auto no = b.create_block("no");
  b.set_insert_point(entry);
  const auto x = b.emit_movi(5);
  const auto y = b.emit_movi(7);
  const auto s = b.emit_binary(Opcode::Add, Type::I32, x, y);
  const auto flag = b.emit_binary(Opcode::CmpLt, Type::I32, x, s);
  b.emit_cond_br(flag, yes, no);
  b.set_insert_point(yes);
  b.emit_ret_value(reuse_flag ? flag : x);
  b.set_insert_point(no);
  b.emit_ret_value(y);
  m.functions.push_back(std::move(fn));
  return m;
}

/// entry: a=lhs; b=rhs; flag=op(a,b); condbr flag ? ret 1 : ret 0.  Float
/// operands go through MovF; integer ones through MovI.
ir::Module compare_branch_module(Opcode op, float lhs, float rhs) {
  const bool is_float = op >= Opcode::FCmpEq && op <= Opcode::FCmpGe;
  ir::Module m;
  ir::Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  const auto entry = b.create_block("entry");
  const auto yes = b.create_block("yes");
  const auto no = b.create_block("no");
  b.set_insert_point(entry);
  const auto a = is_float ? b.emit_movf(lhs)
                          : b.emit_movi(static_cast<std::int32_t>(lhs));
  const auto c = is_float ? b.emit_movf(rhs)
                          : b.emit_movi(static_cast<std::int32_t>(rhs));
  const auto flag = b.emit_binary(op, Type::I32, a, c);
  b.emit_cond_br(flag, yes, no);
  b.set_insert_point(yes);
  b.emit_ret_value(b.emit_movi(1));
  b.set_insert_point(no);
  b.emit_ret_value(b.emit_movi(0));
  m.functions.push_back(std::move(fn));
  return m;
}

/// The C++ meaning of each comparison opcode, the reference for both engines.
bool compare(Opcode op, float a, float b) {
  switch (op) {
    case Opcode::CmpEq: case Opcode::FCmpEq: return a == b;
    case Opcode::CmpNe: case Opcode::FCmpNe: return a != b;
    case Opcode::CmpLt: case Opcode::FCmpLt: return a < b;
    case Opcode::CmpLe: case Opcode::FCmpLe: return a <= b;
    case Opcode::CmpGt: case Opcode::FCmpGt: return a > b;
    case Opcode::CmpGe: case Opcode::FCmpGe: return a >= b;
    default: ADD_FAILURE() << "not a comparison"; return false;
  }
}

TEST(JitPatterns, CompareBranchWithDeadFlag) {
  // The flag's only reader is the branch.
  expect_module_parity(cmp_br_module(/*reuse_flag=*/false), 5);
}

TEST(JitPatterns, CompareBranchWithLiveFlag) {
  // The flag is also returned after the branch, so it must be written to
  // its register slot, not only steer the branch.
  expect_module_parity(cmp_br_module(/*reuse_flag=*/true), 1);
}

TEST(JitPatterns, ConstantCompareBranch) {
  // entry: x=5; y=7; flag=(x<y); condbr — the classic loop exit test with
  // both operands constants that stay live in the successors.
  ir::Module m;
  ir::Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  const auto entry = b.create_block("entry");
  const auto yes = b.create_block("yes");
  const auto no = b.create_block("no");
  b.set_insert_point(entry);
  const auto x = b.emit_movi(5);
  const auto y = b.emit_movi(7);
  const auto flag = b.emit_binary(Opcode::CmpLt, Type::I32, x, y);
  b.emit_cond_br(flag, yes, no);
  b.set_insert_point(yes);
  b.emit_ret_value(x);
  b.set_insert_point(no);
  b.emit_ret_value(y);
  m.functions.push_back(std::move(fn));
  expect_module_parity(m, 5);
}

TEST(JitPatterns, MulAddChain) {
  // entry: x=3; y=4; p=x*y; s=p+x; ret s.
  ir::Module m;
  ir::Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const auto x = b.emit_movi(3);
  const auto y = b.emit_movi(4);
  const auto p = b.emit_binary(Opcode::Mul, Type::I32, x, y);
  const auto s = b.emit_binary(Opcode::Add, Type::I32, p, x);
  b.emit_ret_value(s);
  m.functions.push_back(std::move(fn));
  expect_module_parity(m, 15);
}

TEST(JitPatterns, EveryIntegerCompareBranchesLikeCpp) {
  // Each integer comparison steers a branch both ways, with equal, smaller,
  // larger and mixed-sign operands.
  const std::pair<float, float> operands[] = {
      {3, 3}, {2, 5}, {5, 2}, {-1, 1}, {1, -1}};
  for (int i = static_cast<int>(Opcode::CmpEq);
       i <= static_cast<int>(Opcode::CmpGe); ++i) {
    const auto op = static_cast<Opcode>(i);
    for (const auto& [lhs, rhs] : operands) {
      SCOPED_TRACE(testing::Message() << "opcode " << i << " (" << lhs << ", "
                                      << rhs << ")");
      expect_module_parity(compare_branch_module(op, lhs, rhs),
                           compare(op, lhs, rhs) ? 1 : 0);
    }
  }
}

TEST(JitPatterns, EveryFloatCompareBranchesLikeCpp) {
  // Float comparisons are unordered-aware: every comparison with a NaN
  // operand is false except !=, on both engines.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::pair<float, float> operands[] = {
      {1.5f, 1.5f}, {-2.0f, 0.5f}, {0.5f, -2.0f}, {0.0f, -0.0f},
      {nan, 1.0f},  {1.0f, nan},   {nan, nan}};
  for (int i = static_cast<int>(Opcode::FCmpEq);
       i <= static_cast<int>(Opcode::FCmpGe); ++i) {
    const auto op = static_cast<Opcode>(i);
    for (const auto& [lhs, rhs] : operands) {
      SCOPED_TRACE(testing::Message() << "opcode " << i << " (" << lhs << ", "
                                      << rhs << ")");
      expect_module_parity(compare_branch_module(op, lhs, rhs),
                           compare(op, lhs, rhs) ? 1 : 0);
    }
  }
}

// --- Fault parity: native-code faults must attribute like the interpreter ---

/// Builds x+y -> store [t] with t wildly out of bounds; the store faults
/// from inside native code.
ir::Module store_fault_module() {
  ir::Module m;
  ir::Function fn;
  fn.name = "main";
  fn.return_type = Type::I32;
  Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const auto x = b.emit_movi(0x7ffffffe);
  const auto y = b.emit_movi(1);
  const auto v = b.emit_movi(42);
  const auto t = b.emit_binary(Opcode::Add, Type::I32, x, y);
  b.emit_store(Type::I32, t, v);
  b.emit_ret_value(v);
  m.functions.push_back(std::move(fn));
  return m;
}

/// Runs `m` profiled on one engine, expecting a fault; returns the message.
std::string run_expect_fault(ir::Module& m, bool jit,
                             std::uint64_t max_steps = 0) {
  Machine machine(m);
  SimOptions options;
  options.profile = true;
  options.jit = jit;
  if (max_steps != 0) options.max_steps = max_steps;
  try {
    machine.run(options);
  } catch (const SimError& e) {
    return e.what();
  }
  ADD_FAILURE() << "run should have faulted (jit=" << jit << ")";
  return {};
}

TEST(JitFaultParity, StoreFaultMidNativeCodeMatchesInterpreter) {
  // The native store fault must carry the same message (function name and
  // faulting address included) and truncate exec_count at the same
  // instruction as the interpreter.
  ir::Module jit_m = store_fault_module();
  ir::Module interp_m = jit_m;
  EXPECT_EQ(run_expect_fault(jit_m, /*jit=*/true),
            run_expect_fault(interp_m, /*jit=*/false));
  EXPECT_EQ(profile_hash(jit_m), profile_hash(interp_m))
      << "fault-path exec_count truncation diverged";
}

TEST(JitFaultParity, DivisionFaultsMatchInterpreter) {
  // Division and remainder by a runtime zero fault from native code with
  // the interpreter's exact message and attribution.
  for (const char* op : {"/", "%"}) {
    SCOPED_TRACE(op);
    const std::string source =
        std::string("int main() { int z; z = 0; return 7 ") + op + " z; }\n";
    ir::Module jit_m = fe::compile_benchc(source, "divfault");
    opt::canonicalize(jit_m);
    ir::Module interp_m = jit_m;
    EXPECT_EQ(run_expect_fault(jit_m, /*jit=*/true),
              run_expect_fault(interp_m, /*jit=*/false));
    EXPECT_EQ(profile_hash(jit_m), profile_hash(interp_m));
  }
}

TEST(JitFaultParity, StepLimitSweepMatchesInterpreterAtEveryBudget) {
  // Run the same program under every step budget 1..total-1.  Each budget
  // faults at a different instruction — deep inside compiled code — and
  // the native tier must report the same message and the same truncated
  // per-instruction counts as the interpreter every time.
  const char* source =
      "int A[8];\n"
      "int main() {\n"
      "  int i; int s; s = 0;\n"
      "  for (i = 0; i < 8; i++) { A[i] = i * 3 + 1; s = s + A[i] * 2; }\n"
      "  return s;\n"
      "}\n";
  ir::Module jit_m = fe::compile_benchc(source, "sweep");
  opt::canonicalize(jit_m);
  ir::Module interp_m = jit_m;

  SimOptions oracle;
  oracle.jit = false;
  const std::uint64_t total = Machine(interp_m).run(oracle).steps;
  ASSERT_GT(total, 0u);

  for (std::uint64_t budget = 1; budget < total; ++budget) {
    clear_profile(jit_m);
    clear_profile(interp_m);
    EXPECT_EQ(run_expect_fault(jit_m, /*jit=*/true, budget),
              run_expect_fault(interp_m, /*jit=*/false, budget))
        << "budget " << budget;
    EXPECT_EQ(profile_hash(jit_m), profile_hash(interp_m))
        << "exec_count truncation diverged at budget " << budget;
  }
}

// --- Fallback: the JIT must disappear gracefully ----------------------------

TEST(JitFallback, CompileFailureFallsBackToInterpreter) {
  // When compilation is unavailable (unsupported host, mmap failure — here
  // forced via the test hook), jit=true must silently take the interpreter
  // and produce byte-identical results, not error out.
  const wl::Workload& w = wl::suite().front();
  ir::Module forced_m = fe::compile_benchc(w.source, w.name);
  opt::canonicalize(forced_m);
  ir::Module plain_m = forced_m;

  jit_test_force_compile_failure(true);
  Machine forced(forced_m);
  EXPECT_FALSE(forced.jit_ready());
  SimOptions with_jit;
  with_jit.profile = true;
  with_jit.jit = true;
  const SimResult fallback = forced.run(with_jit);
  jit_test_force_compile_failure(false);

  Machine plain(plain_m);
  SimOptions no_jit = with_jit;
  no_jit.jit = false;
  const SimResult interp = plain.run(no_jit);

  EXPECT_EQ(fallback.exit_code, interp.exit_code);
  EXPECT_EQ(fallback.steps, interp.steps);
  EXPECT_EQ(fallback.cycles, interp.cycles);
  EXPECT_EQ(fallback.oob_loads, interp.oob_loads);
  EXPECT_EQ(profile_hash(forced_m), profile_hash(plain_m));
}

TEST(JitFallback, CompileAttemptIsMadeOncePerMachine) {
  // The force-failure hook only affects Machines that first touch the JIT
  // while it is set: compilation is attempted once and the result cached,
  // so flipping the hook afterwards must not resurrect the tier.
  if (!jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const wl::Workload& w = wl::suite().front();
  ir::Module m = fe::compile_benchc(w.source, w.name);
  opt::canonicalize(m);

  jit_test_force_compile_failure(true);
  Machine machine(m);
  EXPECT_FALSE(machine.jit_ready());
  jit_test_force_compile_failure(false);
  EXPECT_FALSE(machine.jit_ready()) << "failed compile must stay cached";

  Machine fresh(m);
  EXPECT_TRUE(fresh.jit_ready());
}

TEST(JitFallback, DefaultMatchesEnvironment) {
  // SimOptions::jit is wired to jit_default(), the cached ASIPFB_NO_JIT
  // gate.  (The env var is sampled once per
  // process, so this checks consistency, not the toggle itself; the
  // ASIPFB_NO_JIT=1 CI leg covers the off state end to end.)
  const SimOptions options;
  EXPECT_EQ(options.jit, jit_default());
}

}  // namespace
}  // namespace asipfb::sim
