#include "ir/function.hpp"

namespace asipfb::ir {

std::uint64_t Function::total_dynamic_ops() const {
  std::uint64_t total = 0;
  for (const auto& block : blocks) {
    for (const auto& instr : block.instrs) total += instr.exec_count;
  }
  return total;
}

std::size_t Function::instr_count() const {
  std::size_t n = 0;
  for (const auto& block : blocks) n += block.instrs.size();
  return n;
}

FuncId Module::find_function(std::string_view fn_name) const {
  for (std::size_t i = 0; i < functions.size(); ++i) {
    if (functions[i].name == fn_name) return static_cast<FuncId>(i);
  }
  return kNoFunc;
}

int Module::find_global(std::string_view global_name) const {
  for (std::size_t i = 0; i < globals.size(); ++i) {
    if (globals[i].name == global_name) return static_cast<int>(i);
  }
  return -1;
}

std::uint64_t Module::layout_globals() {
  std::uint64_t address = 0;
  for (auto& g : globals) {
    g.base_address = static_cast<std::uint32_t>(address);
    address += g.size;
  }
  return address;
}

std::uint64_t Module::total_dynamic_ops() const {
  std::uint64_t total = 0;
  for (const auto& f : functions) total += f.total_dynamic_ops();
  return total;
}

std::size_t Module::instr_count() const {
  std::size_t n = 0;
  for (const auto& f : functions) n += f.instr_count();
  return n;
}

}  // namespace asipfb::ir
