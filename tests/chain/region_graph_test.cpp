#include "chain/region_graph.hpp"

#include <gtest/gtest.h>

#include "frontend/compile.hpp"
#include "ir/builder.hpp"
#include "opt/cleanup.hpp"
#include "sim/machine.hpp"

namespace asipfb::chain {
namespace {

std::vector<RegionGraph> regions_of(std::string_view src) {
  auto m = fe::compile_benchc(src, "rg");
  opt::canonicalize(m);
  sim::profile_run(m);
  return build_region_graphs(m);
}

int total_edges(const std::vector<RegionGraph>& regions) {
  int n = 0;
  for (const auto& region : regions) {
    for (const auto& s : region.succs) n += static_cast<int>(s.size());
  }
  return n;
}

/// Finds an edge whose producer/consumer classes match.
bool has_edge(const std::vector<RegionGraph>& regions, ir::ChainClass from,
              ir::ChainClass to) {
  for (const auto& region : regions) {
    for (std::size_t p = 0; p < region.nodes.size(); ++p) {
      if (region.nodes[p].chain_class != from) continue;
      for (std::size_t c : region.succs[p]) {
        if (region.nodes[c].chain_class == to) return true;
      }
    }
  }
  return false;
}

TEST(RegionGraph, MulAddChainDetected) {
  const auto regions = regions_of(
      "int main() { int a = 3; int b = 4; int c = 5; return a * b + c; }");
  EXPECT_TRUE(has_edge(regions, ir::ChainClass::Multiply, ir::ChainClass::Add));
}

TEST(RegionGraph, AddressAddFeedsLoad) {
  const auto regions = regions_of(
      "int a[8]; int main() { int i = 2; return a[i]; }");
  EXPECT_TRUE(has_edge(regions, ir::ChainClass::Add, ir::ChainClass::Load));
}

TEST(RegionGraph, ValueChainsIntoStore) {
  const auto regions = regions_of(
      "float g; int main() { float a = 2.0; float b = 3.0; g = a * b - 1.0; return 0; }");
  EXPECT_TRUE(has_edge(regions, ir::ChainClass::FSub, ir::ChainClass::FStore));
}

TEST(RegionGraph, CopyBreaksChain) {
  // Build IR directly: add -> copy -> mul must NOT produce an add->mul edge.
  ir::Module m;
  ir::Function fn;
  fn.name = "main";
  fn.return_type = ir::Type::I32;
  ir::Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const auto x = b.emit_movi(2);
  const auto y = b.emit_movi(3);
  const auto s = b.emit_binary(ir::Opcode::Add, ir::Type::I32, x, y);
  const auto c = b.emit_copy(s);
  const auto t = b.emit_binary(ir::Opcode::Mul, ir::Type::I32, c, c);
  b.emit_ret_value(t);
  m.functions.push_back(std::move(fn));
  sim::profile_run(m);
  const auto regions = build_region_graphs(m);
  EXPECT_FALSE(has_edge(regions, ir::ChainClass::Add, ir::ChainClass::Multiply));
}

TEST(RegionGraph, RedefinitionBreaksChain) {
  ir::Module m;
  ir::Function fn;
  fn.name = "main";
  fn.return_type = ir::Type::I32;
  ir::Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const auto x = b.emit_movi(2);
  const auto s = fn.new_reg(ir::Type::I32);
  b.emit(ir::make::binary(ir::Opcode::Add, s, x, x));
  b.emit(ir::make::movi(s, 9));  // Clobbers the add's result.
  const auto t = b.emit_binary(ir::Opcode::Mul, ir::Type::I32, s, s);
  b.emit_ret_value(t);
  m.functions.push_back(std::move(fn));
  sim::profile_run(m);
  const auto regions = build_region_graphs(m);
  EXPECT_FALSE(has_edge(regions, ir::ChainClass::Add, ir::ChainClass::Multiply));
}

TEST(RegionGraph, DualUseProducesTwoEdges) {
  // One add feeding two multiplies -> two outgoing edges.
  const auto regions = regions_of(
      "int main() { int a = 1; int b = 2; int s = a + b; return (s * 3) + (s * 5); }");
  int add_out = 0;
  for (const auto& region : regions) {
    for (std::size_t p = 0; p < region.nodes.size(); ++p) {
      if (region.nodes[p].chain_class != ir::ChainClass::Add) continue;
      for (std::size_t c : region.succs[p]) {
        if (region.nodes[c].chain_class == ir::ChainClass::Multiply) ++add_out;
      }
    }
  }
  EXPECT_EQ(add_out, 2);
}

TEST(RegionGraph, SameProducerBothOperandsSingleEdge) {
  const auto regions = regions_of(
      "int main() { int a = 2; int b = 3; int s = a + b; return s * s; }");
  int edges = 0;
  for (const auto& region : regions) {
    for (std::size_t p = 0; p < region.nodes.size(); ++p) {
      if (region.nodes[p].chain_class != ir::ChainClass::Add) continue;
      edges += static_cast<int>(region.succs[p].size());
    }
  }
  EXPECT_EQ(edges, 1) << "s*s reads the add twice but is one chain edge";
}

TEST(RegionGraph, EdgelessRegionsOmitted) {
  const auto regions = regions_of("int main() { return 7; }");
  EXPECT_EQ(total_edges(regions), 0);
  EXPECT_TRUE(regions.empty());
}

TEST(RegionGraph, NodesCarryProfileWeights) {
  const auto regions = regions_of(
      "int g; int main() { int i; for (i = 0; i < 13; i++) g += i * 2; return g; }");
  bool found_loop_weight = false;
  for (const auto& region : regions) {
    for (const auto& node : region.nodes) {
      if (node.exec_count == 13) found_loop_weight = true;
    }
  }
  EXPECT_TRUE(found_loop_weight);
}

TEST(RegionGraph, AdjacencyRecorded) {
  // mul immediately followed by add: adjacent.  With a wedge op between,
  // not adjacent.
  const auto regions = regions_of(
      "int main() { int a = 3; int b = 4; return a * b + 1; }");
  // movi 1 is emitted between mul and add by the front end -> NOT adjacent;
  // but a*b+c with c precomputed is adjacent.
  const auto regions2 = regions_of(
      "int main() { int a = 3; int b = 4; int c = 1; return a * b + c; }");
  bool adjacent2 = false;
  for (const auto& region : regions2) {
    for (std::size_t n = 0; n < region.nodes.size(); ++n) {
      if (region.nodes[n].chain_class == ir::ChainClass::Add &&
          region.nodes[n].adjacent_pred != SIZE_MAX &&
          region.nodes[region.nodes[n].adjacent_pred].chain_class ==
              ir::ChainClass::Multiply) {
        adjacent2 = true;
      }
    }
  }
  EXPECT_TRUE(adjacent2);
  (void)regions;
}

/// The region of function `func` whose trace is exactly `blocks`.
const RegionGraph* region_of(const std::vector<RegionGraph>& regions,
                             ir::FuncId func, std::vector<ir::BlockId> blocks) {
  for (const auto& region : regions) {
    if (region.func == func && region.blocks == blocks) return &region;
  }
  return nullptr;
}

TEST(RegionGraph, DefinitionInEarlierTraceIsNoProducer) {
  // Unprofiled blocks are singleton traces.  `s` is the add at node 1 of
  // block 0's region; block 1 reads it, and node 1 of block 1's region is
  // an add too, so a stale register table would add add -> mul there.
  ir::Module m;
  ir::Function fn;
  fn.name = "main";
  fn.return_type = ir::Type::I32;
  ir::Builder b(fn);
  const auto entry = b.create_block("entry");
  const auto next = b.create_block("next");
  b.set_insert_point(entry);
  const auto x = b.emit_movi(2);
  const auto d = b.emit_binary(ir::Opcode::Sub, ir::Type::I32, x, x);
  const auto s = b.emit_binary(ir::Opcode::Add, ir::Type::I32, x, x);
  (void)b.emit_binary(ir::Opcode::Mul, ir::Type::I32, d, s);
  b.emit_br(next);
  b.set_insert_point(next);
  const auto u = b.emit_binary(ir::Opcode::Sub, ir::Type::I32, x, x);
  (void)b.emit_binary(ir::Opcode::Add, ir::Type::I32, x, x);
  const auto w = b.emit_binary(ir::Opcode::Mul, ir::Type::I32, s, u);
  b.emit_ret_value(w);
  m.functions.push_back(std::move(fn));

  const auto regions = build_region_graphs(m);
  const RegionGraph* first = region_of(regions, 0, {entry});
  const RegionGraph* second = region_of(regions, 0, {next});
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(has_edge({*first}, ir::ChainClass::Add, ir::ChainClass::Multiply));
  EXPECT_TRUE(has_edge({*second}, ir::ChainClass::Subtract, ir::ChainClass::Multiply));
  EXPECT_FALSE(has_edge({*second}, ir::ChainClass::Add, ir::ChainClass::Multiply));
  EXPECT_EQ(total_edges({*second}), 1);
}

TEST(RegionGraph, NonChainableRedefinitionCutsUntilTheNextChainableOne) {
  // add s; movi s (cut); sub s; mul s, s: the only edge is sub -> mul.
  ir::Module m;
  ir::Function fn;
  fn.name = "main";
  fn.return_type = ir::Type::I32;
  ir::Builder b(fn);
  b.set_insert_point(b.create_block("entry"));
  const auto x = b.emit_movi(2);
  const auto s = fn.new_reg(ir::Type::I32);
  b.emit(ir::make::binary(ir::Opcode::Add, s, x, x));
  b.emit(ir::make::movi(s, 9));
  const auto t = b.emit_binary(ir::Opcode::Shl, ir::Type::I32, s, s);
  b.emit(ir::make::binary(ir::Opcode::Sub, s, x, x));
  const auto v = b.emit_binary(ir::Opcode::Mul, ir::Type::I32, s, t);
  b.emit_ret_value(v);
  m.functions.push_back(std::move(fn));
  sim::profile_run(m);

  const auto regions = build_region_graphs(m);
  EXPECT_FALSE(has_edge(regions, ir::ChainClass::Add, ir::ChainClass::Shift));
  EXPECT_FALSE(has_edge(regions, ir::ChainClass::Add, ir::ChainClass::Multiply));
  EXPECT_TRUE(has_edge(regions, ir::ChainClass::Subtract, ir::ChainClass::Multiply));
  EXPECT_TRUE(has_edge(regions, ir::ChainClass::Shift, ir::ChainClass::Multiply));
  EXPECT_EQ(total_edges(regions), 2);
}

TEST(RegionGraph, FunctionsWithOverlappingRegisterIdsDoNotLink) {
  // Register 1 is the sub at node 1 of function 0.  Function 1 reads its
  // own register 1, which nothing in it defines; node 1 of function 1 is a
  // sub too, so a table shared without stamps would add sub -> mul there.
  ir::Module m;
  for (int f = 0; f < 2; ++f) {
    ir::Function fn;
    fn.name = f == 0 ? "main" : "other";
    fn.return_type = ir::Type::I32;
    ir::Builder b(fn);
    b.set_insert_point(b.create_block("entry"));
    const auto x = fn.new_reg(ir::Type::I32);
    const auto r1 = fn.new_reg(ir::Type::I32);
    ASSERT_EQ(r1.id, 1u);
    if (f == 0) b.emit(ir::make::movi(x, 2));
    const auto a = b.emit_binary(ir::Opcode::Add, ir::Type::I32, x, x);
    if (f == 0) {
      b.emit(ir::make::binary(ir::Opcode::Sub, r1, x, x));
    } else {
      (void)b.emit_binary(ir::Opcode::Sub, ir::Type::I32, x, x);
    }
    b.emit_ret_value(b.emit_binary(ir::Opcode::Mul, ir::Type::I32, r1, a));
    m.functions.push_back(std::move(fn));
  }

  const auto regions = build_region_graphs(m);
  const RegionGraph* main_region = region_of(regions, 0, {0});
  const RegionGraph* other_region = region_of(regions, 1, {0});
  ASSERT_NE(main_region, nullptr);
  ASSERT_NE(other_region, nullptr);
  using ir::ChainClass;
  EXPECT_TRUE(has_edge({*main_region}, ChainClass::Subtract, ChainClass::Multiply));
  EXPECT_TRUE(has_edge({*other_region}, ChainClass::Add, ChainClass::Multiply));
  EXPECT_FALSE(has_edge({*other_region}, ChainClass::Subtract, ChainClass::Multiply));
  EXPECT_EQ(total_edges({*other_region}), 1);
}

/// A hand-made region whose nodes carry `classes` (no edges needed).
RegionGraph region_with(std::vector<ir::ChainClass> classes) {
  RegionGraph region;
  for (ir::ChainClass chain_class : classes) {
    RegionNode node;
    node.chain_class = chain_class;
    region.nodes.push_back(node);
  }
  region.succs.resize(region.nodes.size());
  return region;
}

TEST(SignatureIds, SameClassSequenceSameId) {
  using ir::ChainClass;
  const RegionGraph one = region_with({ChainClass::Multiply, ChainClass::Add,
                                       ChainClass::Multiply, ChainClass::Load});
  const RegionGraph two = region_with({ChainClass::Load, ChainClass::Add,
                                       ChainClass::Multiply});
  SignatureIds ids;
  const std::uint32_t mac = ids.id_of(one, {0, 1});
  EXPECT_EQ(ids.id_of(one, {2, 1}), mac) << "other nodes, same classes";
  EXPECT_EQ(ids.id_of(two, {2, 1}), mac) << "other region, same classes";
  const std::size_t size = ids.size();
  EXPECT_EQ(ids.id_of(one, {0, 1}), mac);
  EXPECT_EQ(ids.size(), size) << "a known signature allocates nothing";
  EXPECT_NE(ids.id_of(one, {1, 0}), mac) << "order matters";
  EXPECT_NE(ids.id_of(one, {3, 1}), mac);
}

TEST(SignatureIds, SignatureRoundTrips) {
  using ir::ChainClass;
  const RegionGraph region = region_with(
      {ChainClass::FLoad, ChainClass::FMultiply, ChainClass::FAdd, ChainClass::FStore,
       ChainClass::Shift});
  SignatureIds ids;
  const std::vector<std::vector<std::size_t>> paths = {
      {0, 1, 2, 3}, {4}, {1, 2}, {4, 4, 0}, {0, 1}, {3, 2, 1, 0, 4}};
  std::vector<std::uint32_t> assigned;
  for (const auto& path : paths) assigned.push_back(ids.id_of(region, path));
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Signature expected;
    for (std::size_t node : paths[i]) {
      expected.classes.push_back(region.nodes[node].chain_class);
    }
    EXPECT_LT(assigned[i], ids.size());
    EXPECT_EQ(ids.signature(assigned[i]), expected) << expected.to_string();
  }
}

TEST(SignatureIds, PrefixAndExtensionDiffer) {
  using ir::ChainClass;
  const RegionGraph region = region_with(
      {ChainClass::Add, ChainClass::Add, ChainClass::Add});
  SignatureIds ids;
  const std::uint32_t three = ids.id_of(region, {0, 1, 2});
  const std::uint32_t two = ids.id_of(region, {0, 1});
  const std::uint32_t one = ids.id_of(region, {0});
  EXPECT_NE(one, two);
  EXPECT_NE(two, three);
  EXPECT_NE(one, three);
  EXPECT_NE(one, 0u) << "0 is the empty sequence";
  EXPECT_EQ(ids.signature(two).length(), 2u);
  EXPECT_EQ(ids.signature(three).length(), 3u);
}

}  // namespace
}  // namespace asipfb::chain
