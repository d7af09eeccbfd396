#include "sim/assembler.h"

namespace lz::sim {

Asm::Label Asm::new_label() {
  label_pos_.push_back(-1);
  return Label{label_pos_.size() - 1};
}

void Asm::bind(Label l) {
  LZ_CHECK(l.id < label_pos_.size());
  LZ_CHECK(label_pos_[l.id] == -1);  // bind once
  label_pos_[l.id] = static_cast<i64>(words_.size());
}

void Asm::mov_imm64(u8 rd, u64 value) {
  movz(rd, static_cast<u16>(value & 0xffff), 0);
  for (u8 hw = 1; hw < 4; ++hw) {
    const u16 chunk = static_cast<u16>((value >> (hw * 16)) & 0xffff);
    if (chunk != 0) movk(rd, chunk, hw);
  }
}

void Asm::emit_branch(BranchKind kind, Label l, arch::Cond c, u8 rt) {
  fixups_.push_back(Fixup{words_.size(), l.id, kind, c, rt});
  emit(0);  // placeholder
}

const std::vector<u32>& Asm::resolve() {
  for (const auto& f : fixups_) {
    LZ_CHECK(label_pos_[f.label] >= 0);  // all labels bound
    const i64 offset =
        (label_pos_[f.label] - static_cast<i64>(f.insn_index)) * 4;
    switch (f.kind) {
      case BranchKind::kB: words_[f.insn_index] = arch::enc::b(offset); break;
      case BranchKind::kBl: words_[f.insn_index] = arch::enc::bl(offset); break;
      case BranchKind::kBCond:
        words_[f.insn_index] = arch::enc::b_cond(f.cond, offset);
        break;
      case BranchKind::kCbz:
        words_[f.insn_index] = arch::enc::cbz(f.rt, offset);
        break;
      case BranchKind::kCbnz:
        words_[f.insn_index] = arch::enc::cbnz(f.rt, offset);
        break;
    }
  }
  fixups_.clear();
  return words_;
}

void Asm::install(mem::PhysMem& pm, PhysAddr base) {
  resolve();
  pm.write_bytes(base, words_.data(), words_.size() * 4);
}

}  // namespace lz::sim
