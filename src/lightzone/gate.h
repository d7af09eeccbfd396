// TTBR1-mapped secure call gate (§6.2, Figure 2).
//
// Domain switches must not let an attacker install an arbitrary TTBR0 or
// resume at an arbitrary address. Each statically allocated gate is a short
// code sequence living in the *upper* (TTBR1-translated) half of the
// address space — so its integrity does not depend on the attacker-
// controllable TTBR0 — and is generated with its GATE_ID baked in as an
// immediate:
//
//   phase 1 (switch): look up GateTab[GATE_ID].PGTID, then TTBRTab[PGTID],
//                     MSR TTBR0_EL1, ISB.
//   phase 2 (check):  re-materialise everything from immediates, verify the
//                     gate id range, re-query both tables, compare the live
//                     TTBR0 and the link register against the legal values,
//                     then RET (an indirect jump back to the application).
//                     Any mismatch lands on BRK and the module kills the
//                     process.
//
// Phase 2 trusts no register produced by phase 1, so jumping into the
// middle of the gate (including straight at the MSR) with attacker-chosen
// registers is caught before control returns to attacker code.
#pragma once

#include <vector>

#include "sim/assembler.h"
#include "support/types.h"

namespace lz::core {

// Upper-half virtual layout of the LightZone runtime (all TTBR1-mapped).
struct UpperLayout {
  static constexpr VirtAddr kBase = 0xffff'0000'0000'0000ULL;
  static constexpr VirtAddr kStubVa = kBase;  // VBAR_EL1: forwarding stub
  static constexpr VirtAddr kGateCodeVa = kBase + 0x10000;
  static constexpr VirtAddr kGateTabVa = kBase + 0x200000;
  static constexpr VirtAddr kTtbrTabVa = kBase + 0x400000;
  static constexpr u64 kGateStride = 128;  // bytes reserved per gate
  static constexpr u16 kGateBrkImm = 0x42; // BRK immediate on check failure

  static VirtAddr gate_va(u32 gate_id) {
    return kGateCodeVa + u64{gate_id} * kGateStride;
  }
  static VirtAddr gatetab_entry_va(u32 gate_id) {
    return kGateTabVa + u64{gate_id} * 16;  // {ENTRY, PGTID} pairs
  }
  static VirtAddr ttbrtab_entry_va(u32 pgt_id) {
    return kTtbrTabVa + u64{pgt_id} * 8;
  }
};

// The exception-vector page of the LightZone API library: every entry
// forwards to the kernel module with HVC, and returns with ERET (§5.1.3).
// HVC immediates distinguish synchronous traps from IRQs.
inline constexpr u16 kStubHvcSync = 0;
inline constexpr u16 kStubHvcIrq = 1;
sim::Asm build_stub_page();

// One call gate's code (fits in kGateStride bytes).
sim::Asm build_gate_code(u32 gate_id, u32 max_gates);

// The resolved words every process's stub and gate pages hold, assembled
// once per host process (thread-safe; the vectors live until exit). Each VM
// copies them into frames of its own, so frames, IPAs and stage-2 mappings
// stay per VM (§5.1.2). gate_code_words puts gate g's words at word
// g * kGateStride / 4 and zeros between gates.
const std::vector<u32>& stub_page_words();
const std::vector<u32>& gate_code_words(u32 max_gates);

}  // namespace lz::core
