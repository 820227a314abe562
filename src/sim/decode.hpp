// Flattens an ir::Module into a sim::Program (see sim/program.hpp).
#pragma once

#include "sim/program.hpp"

namespace asipfb::sim {

/// Decodes every function of `module` into a flat Program.  Lays out the
/// module's globals first (AddrGlobal is resolved to absolute base
/// addresses at decode time) and refuses, as SimError, globals that do not
/// fit beside the frame region in a 32-bit word address space.  The module must outlive the Program and
/// must not be structurally modified while the Program is in use.
///
/// Structural defects a direct interpreter would only hit when (and if)
/// the bad instruction executed — an empty block, a block whose last
/// instruction is not a terminator, an out-of-range branch target, global
/// index or callee, a call whose argument count does not match the callee
/// — are diagnosed here, as SimError, before anything runs.
[[nodiscard]] Program decode(ir::Module& module);

}  // namespace asipfb::sim
