// Tiny assembler: builds instruction sequences with label-based branches
// and installs them into physical memory. Everything it emits round-trips
// through the real encoder, so assembled programs are bit-faithful A64 for
// the modelled subset.
#pragma once

#include <vector>

#include "arch/encode.h"
#include "arch/insn.h"
#include "mem/phys_mem.h"
#include "support/status.h"
#include "support/types.h"

namespace lz::sim {

class Asm {
 public:
  struct Label {
    std::size_t id;
  };

  // Raw word emission.
  void emit(u32 word) { words_.push_back(word); }
  std::size_t size_bytes() const { return words_.size() * 4; }
  std::size_t insn_count() const { return words_.size(); }
  const std::vector<u32>& words() const { return words_; }

  // --- Labels ----------------------------------------------------------------
  Label new_label();
  void bind(Label l);  // binds to the current position

  // --- Mirrored encoders -----------------------------------------------------
  void movz(u8 rd, u16 imm, u8 hw = 0) { emit(arch::enc::movz(rd, imm, hw)); }
  void movk(u8 rd, u16 imm, u8 hw = 0) { emit(arch::enc::movk(rd, imm, hw)); }
  // Load an arbitrary 64-bit constant (movz + up to 3 movk).
  void mov_imm64(u8 rd, u64 value);
  void mov_reg(u8 rd, u8 rm) { emit(arch::enc::mov_reg(rd, rm)); }
  void add_imm(u8 rd, u8 rn, u16 imm) { emit(arch::enc::add_imm(rd, rn, imm)); }
  void sub_imm(u8 rd, u8 rn, u16 imm) { emit(arch::enc::sub_imm(rd, rn, imm)); }
  void add_reg(u8 rd, u8 rn, u8 rm) { emit(arch::enc::add_reg(rd, rn, rm)); }
  void sub_reg(u8 rd, u8 rn, u8 rm) { emit(arch::enc::sub_reg(rd, rn, rm)); }
  void cmp_imm(u8 rn, u16 imm) { emit(arch::enc::cmp_imm(rn, imm)); }
  void cmp_reg(u8 rn, u8 rm) { emit(arch::enc::cmp_reg(rn, rm)); }
  void lsl_imm(u8 rd, u8 rn, u8 sh) { emit(arch::enc::lsl_imm(rd, rn, sh)); }
  void and_reg(u8 rd, u8 rn, u8 rm) { emit(arch::enc::and_reg(rd, rn, rm)); }
  void orr_reg(u8 rd, u8 rn, u8 rm) { emit(arch::enc::orr_reg(rd, rn, rm)); }
  void eor_reg(u8 rd, u8 rn, u8 rm) { emit(arch::enc::eor_reg(rd, rn, rm)); }

  void b(Label l) { emit_branch(BranchKind::kB, l); }
  void bl(Label l) { emit_branch(BranchKind::kBl, l); }
  void b_cond(arch::Cond c, Label l) { emit_branch(BranchKind::kBCond, l, c); }
  void cbz(u8 rt, Label l) { emit_branch(BranchKind::kCbz, l, {}, rt); }
  void cbnz(u8 rt, Label l) { emit_branch(BranchKind::kCbnz, l, {}, rt); }
  void br(u8 rn) { emit(arch::enc::br(rn)); }
  void blr(u8 rn) { emit(arch::enc::blr(rn)); }
  void ret(u8 rn = arch::kLrIndex) { emit(arch::enc::ret(rn)); }

  void ldr(u8 rt, u8 rn, u16 off = 0, u8 size = 8) {
    emit(arch::enc::ldr_imm(rt, rn, off, size));
  }
  void str(u8 rt, u8 rn, u16 off = 0, u8 size = 8) {
    emit(arch::enc::str_imm(rt, rn, off, size));
  }
  void ldr_reg(u8 rt, u8 rn, u8 rm, bool scaled = true) {
    emit(arch::enc::ldr_reg(rt, rn, rm, scaled));
  }
  void str_reg(u8 rt, u8 rn, u8 rm, bool scaled = true) {
    emit(arch::enc::str_reg(rt, rn, rm, scaled));
  }
  void ldtr(u8 rt, u8 rn, i16 off = 0, u8 size = 8) {
    emit(arch::enc::ldtr(rt, rn, off, size));
  }
  void sttr(u8 rt, u8 rn, i16 off = 0, u8 size = 8) {
    emit(arch::enc::sttr(rt, rn, off, size));
  }

  void msr(arch::SysReg r, u8 rt) { emit(arch::enc::msr(r, rt)); }
  void mrs(u8 rt, arch::SysReg r) { emit(arch::enc::mrs(rt, r)); }
  void msr_pan(u8 v) { emit(arch::enc::msr_pan(v)); }
  void isb() { emit(arch::enc::isb()); }
  void dsb() { emit(arch::enc::dsb()); }
  void nop() { emit(arch::enc::nop()); }
  void svc(u16 imm = 0) { emit(arch::enc::svc(imm)); }
  void hvc(u16 imm = 0) { emit(arch::enc::hvc(imm)); }
  void brk(u16 imm = 0) { emit(arch::enc::brk(imm)); }
  void eret() { emit(arch::enc::eret()); }
  void udf() { emit(arch::enc::udf()); }

  // Resolve all label fixups and copy the code into physical memory at
  // `base`. The program must previously have been assembled assuming it
  // executes at virtual address `va_base` (labels are position-relative so
  // only branch offsets matter; they are VA-agnostic).
  void install(mem::PhysMem& pm, PhysAddr base);
  // Resolve all label fixups and return the final words.
  const std::vector<u32>& resolve();

 private:
  enum class BranchKind : u8 { kB, kBl, kBCond, kCbz, kCbnz };
  struct Fixup {
    std::size_t insn_index;
    std::size_t label;
    BranchKind kind;
    arch::Cond cond;
    u8 rt;
  };
  void emit_branch(BranchKind kind, Label l, arch::Cond c = arch::Cond::kAl,
                   u8 rt = 0);

  std::vector<u32> words_;
  std::vector<i64> label_pos_;  // -1 while unbound
  std::vector<Fixup> fixups_;
};

}  // namespace lz::sim
