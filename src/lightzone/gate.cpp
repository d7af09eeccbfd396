#include "lightzone/gate.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "arch/sysreg.h"

namespace lz::core {

using arch::Cond;
using arch::SysReg;

sim::Asm build_stub_page() {
  sim::Asm a;
  // Vector table entries every 0x80 bytes up to 0x480; each used entry is
  // `hvc #imm; eret`. The module routes by reading ESR_EL1 (the original
  // trap cause recorded by the hardware before the stub ran).
  constexpr u64 kEntries = 10;  // offsets 0x000 .. 0x480
  for (u64 entry = 0; entry < kEntries; ++entry) {
    const bool irq = (entry % 2) == 1;  // 0x080/0x280/0x480 are IRQ vectors
    a.hvc(irq ? kStubHvcIrq : kStubHvcSync);
    a.eret();
    for (int i = 2; i < 0x80 / 4; ++i) a.nop();
  }
  return a;
}

sim::Asm build_gate_code(u32 gate_id, u32 max_gates) {
  sim::Asm a;
  auto fail = a.new_label();

  // ---- Phase 1: switch ------------------------------------------------------
  a.mov_imm64(16, gate_id);
  a.mov_imm64(17, UpperLayout::gatetab_entry_va(gate_id));
  a.ldr(18, 17, 8);  // PGTID
  a.mov_imm64(19, UpperLayout::kTtbrTabVa);
  a.ldr_reg(20, 19, 18);  // new TTBR0 value (TTBRTab[PGTID])
  a.msr(SysReg::kTtbr0El1, 20);
  a.isb();

  // ---- Phase 2: check (no register from phase 1 is trusted) ----------------
  a.mov_imm64(21, gate_id);
  a.mov_imm64(22, max_gates);
  a.cmp_reg(21, 22);
  a.b_cond(Cond::kCs, fail);  // gate id out of range
  a.mov_imm64(23, UpperLayout::gatetab_entry_va(gate_id));
  a.ldr(24, 23, 0);  // legal ENTRY
  a.ldr(25, 23, 8);  // PGTID (re-queried)
  a.mov_imm64(26, UpperLayout::kTtbrTabVa);
  a.ldr_reg(27, 26, 25);  // legal TTBR0
  a.cbz(27, fail);        // freed / never-registered page table
  a.mrs(28, SysReg::kTtbr0El1);
  a.cmp_reg(28, 27);
  a.b_cond(Cond::kNe, fail);  // live TTBR0 is not the registered one
  a.cmp_reg(24, 30);
  a.b_cond(Cond::kNe, fail);  // return address is not the legal entry
  a.ret();                    // indirect jump back to the application

  a.bind(fail);
  a.brk(UpperLayout::kGateBrkImm);  // module terminates the process

  LZ_CHECK(a.size_bytes() <= UpperLayout::kGateStride);
  return a;
}

const std::vector<u32>& stub_page_words() {
  static const std::vector<u32> words = build_stub_page().resolve();
  return words;
}

const std::vector<u32>& gate_code_words(u32 max_gates) {
  static std::mutex mu;
  static std::map<u32, std::vector<u32>> images;  // nodes never move
  std::lock_guard<std::mutex> lock(mu);
  auto [it, fresh] = images.try_emplace(max_gates);
  std::vector<u32>& image = it->second;
  if (fresh) {
    constexpr u64 kStrideWords = UpperLayout::kGateStride / 4;
    image.resize(u64{max_gates} * kStrideWords);
    for (u32 g = 0; g < max_gates; ++g) {
      sim::Asm code = build_gate_code(g, max_gates);
      const std::vector<u32>& words = code.resolve();
      std::copy(words.begin(), words.end(), image.begin() + g * kStrideWords);
    }
  }
  return image;
}

}  // namespace lz::core
