#include "lightzone/sanitizer.h"

#include "arch/insn.h"
#include "arch/sysreg.h"
#include "support/bits.h"

namespace lz::core {

using arch::Insn;
using arch::Op;

namespace {

bool deny(std::string* reason, const char* why) {
  if (reason != nullptr) *reason = why;
  return false;
}

// Table 3, "System" rows. `insn.sys` carries op0/op1/CRn/CRm/op2 exactly as
// encoded; target-register identity comes from the full encoding.
bool system_insn_allowed(const Insn& insn, SanitizeMode mode,
                         std::string* reason) {
  const auto& sys = insn.sys;

  if (sys.op0 == 0b00) {
    if (sys.crn == 0b0100) {
      // MSR (immediate) space. Only the PAN field is ever legitimate:
      // DAIF masking, SPSel games etc. could break confinement.
      if (sys.op2 == arch::kPStatePan.op2 && sys.op1 == arch::kPStatePan.op1) {
        return true;  // domain switch primitive for the PAN mechanism
      }
      return deny(reason, "MSR(imm) PSTATE field other than PAN");
    }
    return true;  // barriers (CRn=3) and hints (CRn=2) are harmless
  }

  if (sys.op0 == 0b01) {
    if (sys.crn == 7) {
      return deny(reason, "cache/AT maintenance (op0=01, CRn=7)");
    }
    // TLBI (CRn=8) is left to HCR_EL2.TTLB trapping at run time, matching
    // Table 3 (which lists only CRn=7 for op0=01).
    return true;
  }

  if (sys.op0 == 0b10) {
    // Debug/breakpoint register space: nothing legitimate for an
    // application; covered by MDCR trapping on hardware.
    return deny(reason, "debug-register access (op0=10)");
  }

  // op0 == 0b11: ordinary system registers.
  const auto reg = arch::sysreg_from_encoding(sys);
  if (sys.crn == 4) {
    // Special-purpose register space: only NZCV / FPCR / FPSR are allowed.
    if (reg == arch::SysReg::kNzcv || reg == arch::SysReg::kFpcr ||
        reg == arch::SysReg::kFpsr) {
      return true;
    }
    return deny(reason, "special-purpose register other than NZCV/FPCR/FPSR");
  }
  if (sys.op1 == 3) return true;  // EL0-accessible space (TPIDR_EL0, CNTVCT…)
  if (reg == arch::SysReg::kTtbr0El1) {
    // Legal only inside the TTBR1-mapped call gate, which is not subject
    // to sanitizing; in application pages it is always rejected. Under the
    // PAN mechanism it is rejected outright (Table 3 last row).
    return deny(reason, mode == SanitizeMode::kTtbr
                            ? "TTBR0_EL1 update outside the call gate"
                            : "TTBR0_EL1 update under PAN mode");
  }
  return deny(reason, "privileged system register access");
}

}  // namespace

bool insn_allowed(u32 word, SanitizeMode mode, std::string* reason) {
  // Only three encoding classes can be denied: ERET (bits[31:25] ==
  // 1101011, the branch-register class), the LDTR/STTR class (bits[29:24]
  // == 111000 with bits[11:10] == 10) and system space. Every other word is
  // allowed without decoding it.
  if ((word >> 25) != 0x6b && (word & 0x3f000c00) != 0x38000800 &&
      !arch::in_system_space(word)) {
    return true;
  }
  const Insn insn = arch::decode(word);

  switch (insn.op) {
    case Op::kEret:
      return deny(reason, "ERET");
    case Op::kLdtr:
    case Op::kSttr:
      // Unprivileged accesses read/write user pages regardless of PAN, so
      // they break the PAN mechanism; under pure TTBR isolation the
      // protected pages are simply unmapped, so they are harmless.
      if (mode == SanitizeMode::kPan) {
        return deny(reason, "unprivileged load/store under PAN mode");
      }
      return true;
    default:
      break;
  }

  if (arch::in_system_space(word)) {
    return system_insn_allowed(insn, mode, reason);
  }
  return true;
}

SanitizeResult sanitize_words(std::span<const u32> words, SanitizeMode mode) {
  SanitizeResult result;
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::string reason;
    if (!insn_allowed(words[i], mode, &reason)) {
      result.ok = false;
      result.bad_offset = i * 4;
      result.bad_word = words[i];
      result.reason = std::move(reason);
      return result;
    }
  }
  return result;
}

}  // namespace lz::core
