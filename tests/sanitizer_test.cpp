// Sensitive-instruction sanitizer tests: the Table 3 rule matrix, applied
// to real instruction encodings.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <thread>
#include <vector>

#include "arch/decode.h"
#include "arch/encode.h"
#include "lightzone/sanitizer.h"
#include "support/rng.h"

namespace lz::core {
namespace {

namespace e = arch::enc;
using arch::SysReg;

bool ok_ttbr(u32 w) { return insn_allowed(w, SanitizeMode::kTtbr); }
bool ok_pan(u32 w) { return insn_allowed(w, SanitizeMode::kPan); }

// Table 3 row 1: ERET is banned in both modes.
TEST(SanitizerTest, EretBannedBothModes) {
  EXPECT_FALSE(ok_ttbr(e::eret()));
  EXPECT_FALSE(ok_pan(e::eret()));
}

// Table 3 row 2: LDTR/STTR allowed under TTBR isolation (the protected
// pages are simply unmapped) but banned under PAN (they bypass it).
TEST(SanitizerTest, UnprivilegedLoadStore) {
  const u32 words[] = {
      e::ldtr(0, 1, 0, 8),  e::ldtr(0, 1, 0, 4), e::ldtr(0, 1, 0, 2),
      e::ldtr(0, 1, 0, 1),  e::sttr(0, 1, 0, 8), e::sttr(0, 1, 0, 2),
      e::sttr(0, 1, 0, 1),  e::ldtr(0, 1, 0, 4, /*sign=*/true),
      e::ldtr(0, 1, 0, 1, /*sign=*/true),
  };
  for (const u32 w : words) {
    EXPECT_TRUE(ok_ttbr(w)) << std::hex << w;
    EXPECT_FALSE(ok_pan(w)) << std::hex << w;
  }
}

// MSR(imm) PSTATE space: only the PAN field is legal.
TEST(SanitizerTest, MsrImmediateOnlyPanFieldAllowed) {
  EXPECT_TRUE(ok_ttbr(e::msr_pan(0)));
  EXPECT_TRUE(ok_ttbr(e::msr_pan(1)));
  EXPECT_TRUE(ok_pan(e::msr_pan(0)));
  EXPECT_TRUE(ok_pan(e::msr_pan(1)));
  // DAIF masking / SPSel are rejected in both.
  EXPECT_FALSE(ok_ttbr(e::msr_imm(arch::kPStateDaifSet, 2)));
  EXPECT_FALSE(ok_pan(e::msr_imm(arch::kPStateDaifSet, 2)));
  EXPECT_FALSE(ok_ttbr(e::msr_imm(arch::kPStateDaifClr, 2)));
  EXPECT_FALSE(ok_ttbr(e::msr_imm(arch::kPStateSpSel, 1)));
}

// Table 3: cache/AT maintenance (op0=01 && CRn=7) banned in both.
TEST(SanitizerTest, CacheAndAtMaintenanceBanned) {
  EXPECT_FALSE(ok_ttbr(e::at_s1e1r(0)));
  EXPECT_FALSE(ok_pan(e::at_s1e1r(0)));
  EXPECT_FALSE(ok_ttbr(e::sys(0, 7, 6, 1, 0)));  // DC IVAC
}

// TLBI (CRn=8) passes the static scan — it is trapped by HCR_EL2.TTLB at
// run time instead (Table 3 lists only CRn=7 for op0=01).
TEST(SanitizerTest, TlbiLeftToRuntimeTrapping) {
  EXPECT_TRUE(ok_ttbr(e::tlbi_vmalle1()));
  EXPECT_TRUE(ok_pan(e::tlbi_vmalle1()));
}

// Special-purpose space (op0=11, CRn=4): only NZCV/FPCR/FPSR.
TEST(SanitizerTest, SpecialPurposeRegisters) {
  EXPECT_TRUE(ok_ttbr(e::mrs(0, SysReg::kNzcv)));
  EXPECT_TRUE(ok_ttbr(e::msr(SysReg::kNzcv, 0)));
  EXPECT_TRUE(ok_pan(e::msr(SysReg::kFpcr, 0)));
  EXPECT_TRUE(ok_pan(e::mrs(0, SysReg::kFpsr)));
  // ELR/SPSR/SP_EL0/DAIF rejected in both modes.
  EXPECT_FALSE(ok_ttbr(e::msr(SysReg::kElrEl1, 0)));
  EXPECT_FALSE(ok_ttbr(e::msr(SysReg::kSpsrEl1, 0)));
  EXPECT_FALSE(ok_pan(e::msr(SysReg::kSpEl0, 0)));
  EXPECT_FALSE(ok_ttbr(e::msr(SysReg::kDaif, 0)));
  EXPECT_FALSE(ok_pan(e::mrs(0, SysReg::kDaif)));
}

// EL0-accessible space (op1=3) is fine.
TEST(SanitizerTest, El0SpaceAllowed) {
  EXPECT_TRUE(ok_ttbr(e::mrs(0, SysReg::kTpidrEl0)));
  EXPECT_TRUE(ok_pan(e::msr(SysReg::kTpidrEl0, 0)));
  EXPECT_TRUE(ok_ttbr(e::mrs(0, SysReg::kCntvctEl0)));
}

// TTBR0_EL1: outside the call gate it is always rejected; the gate itself
// is TTBR1-mapped and not subject to scanning.
TEST(SanitizerTest, Ttbr0UpdateRejectedInApplicationCode) {
  std::string reason;
  EXPECT_FALSE(insn_allowed(e::msr(SysReg::kTtbr0El1, 0), SanitizeMode::kTtbr,
                            &reason));
  EXPECT_NE(reason.find("call gate"), std::string::npos);
  EXPECT_FALSE(ok_pan(e::msr(SysReg::kTtbr0El1, 0)));
}

// Other privileged system registers: rejected in both.
TEST(SanitizerTest, PrivilegedRegistersRejected) {
  const u32 words[] = {
      e::msr(SysReg::kTtbr1El1, 0), e::msr(SysReg::kSctlrEl1, 0),
      e::msr(SysReg::kVbarEl1, 0),  e::msr(SysReg::kTcrEl1, 0),
      e::mrs(0, SysReg::kTtbr1El1), e::mrs(0, SysReg::kEsrEl1),
      e::msr(SysReg::kHcrEl2, 0),   e::mrs(0, SysReg::kVttbrEl2),
      e::msr(SysReg::kMairEl1, 0),
  };
  for (const u32 w : words) {
    EXPECT_FALSE(ok_ttbr(w)) << std::hex << w;
    EXPECT_FALSE(ok_pan(w)) << std::hex << w;
  }
}

// Debug-register space (op0=10) is rejected.
TEST(SanitizerTest, DebugRegistersRejected) {
  EXPECT_FALSE(ok_ttbr(e::msr(SysReg::kDbgwvr0El1, 0)));
  EXPECT_FALSE(ok_pan(e::msr(SysReg::kDbgwcr3El1, 0)));
}

// Ordinary computation, loads/stores, branches, barriers: allowed.
TEST(SanitizerTest, OrdinaryCodeAllowed) {
  const u32 words[] = {
      e::movz(0, 1),        e::add_imm(0, 1, 2), e::ldr_imm(0, 1, 0),
      e::str_imm(0, 1, 0),  e::b(8),             e::bl(8),
      e::ret(),             e::br(3),            e::svc(0),
      e::brk(0),            e::isb(),            e::dsb(),
      e::nop(),             e::cmp_reg(1, 2),    e::ldr_reg(0, 1, 2),
  };
  for (const u32 w : words) {
    EXPECT_TRUE(ok_ttbr(w)) << std::hex << w;
    EXPECT_TRUE(ok_pan(w)) << std::hex << w;
  }
}

TEST(SanitizerTest, PageScanReportsOffendingWord) {
  std::vector<u32> page(1024, e::nop());
  page[700] = e::eret();
  const auto result = sanitize_words(page, SanitizeMode::kTtbr);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.bad_offset, 700u * 4);
  EXPECT_EQ(result.bad_word, e::eret());
  EXPECT_EQ(result.reason, "ERET");
}

TEST(SanitizerTest, CleanPagePasses) {
  std::vector<u32> page(1024, e::nop());
  page[1] = e::movz(0, 7);
  page[2] = e::msr_pan(1);
  page[3] = e::svc(0);
  EXPECT_TRUE(sanitize_words(page, SanitizeMode::kPan).ok);
  EXPECT_TRUE(sanitize_words(page, SanitizeMode::kTtbr).ok);
}

// Property-style sweep: for every word in a random sample, mode-kPan must
// be at least as strict as mode-kTtbr (PAN mode bans a superset).
TEST(SanitizerTest, PanModeIsStricter) {
  u64 seed = 0x1234;
  for (int i = 0; i < 20000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const u32 w = static_cast<u32>(seed >> 32);
    if (ok_pan(w)) {
      EXPECT_TRUE(ok_ttbr(w)) << std::hex << w;
    }
  }
}

// --- Prefilter equivalence ---------------------------------------------------
// insn_allowed() allows every word outside the three deniable classes
// without decoding it. The reference below is the decode-per-word verdict it
// replaced, kept verbatim: decode, deny ERET and (under PAN) LDTR/STTR by
// op, and judge system space by the Table 3 rules.
namespace ref {

bool deny(std::string* reason, const char* why) {
  if (reason != nullptr) *reason = why;
  return false;
}

bool system_insn_allowed(const arch::Insn& insn, SanitizeMode mode,
                         std::string* reason) {
  const auto& sys = insn.sys;
  if (sys.op0 == 0b00) {
    if (sys.crn == 0b0100) {
      if (sys.op2 == arch::kPStatePan.op2 && sys.op1 == arch::kPStatePan.op1) {
        return true;
      }
      return deny(reason, "MSR(imm) PSTATE field other than PAN");
    }
    return true;
  }
  if (sys.op0 == 0b01) {
    if (sys.crn == 7) {
      return deny(reason, "cache/AT maintenance (op0=01, CRn=7)");
    }
    return true;
  }
  if (sys.op0 == 0b10) {
    return deny(reason, "debug-register access (op0=10)");
  }
  const auto reg = arch::sysreg_from_encoding(sys);
  if (sys.crn == 4) {
    if (reg == SysReg::kNzcv || reg == SysReg::kFpcr || reg == SysReg::kFpsr) {
      return true;
    }
    return deny(reason, "special-purpose register other than NZCV/FPCR/FPSR");
  }
  if (sys.op1 == 3) return true;
  if (reg == SysReg::kTtbr0El1) {
    return deny(reason, mode == SanitizeMode::kTtbr
                            ? "TTBR0_EL1 update outside the call gate"
                            : "TTBR0_EL1 update under PAN mode");
  }
  return deny(reason, "privileged system register access");
}

bool insn_allowed(u32 word, SanitizeMode mode, std::string* reason) {
  const arch::Insn insn = arch::decode(word);
  switch (insn.op) {
    case arch::Op::kEret:
      return deny(reason, "ERET");
    case arch::Op::kLdtr:
    case arch::Op::kSttr:
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

}  // namespace ref

// Runs `word_of(i)` for i in [0, n) on four threads and returns how many
// words differ from the reference in verdict or reason, in either mode,
// with the first such word in `first`.
template <typename WordOf>
u64 mismatches(u32 n, WordOf word_of, u32* first) {
  constexpr unsigned kThreads = 4;
  std::array<u64, kThreads> count{};
  std::array<u32, kThreads> first_of{};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string got, want;  // reused: no allocation per word
      for (u32 i = t; i < n; i += kThreads) {
        const u32 w = word_of(i);
        for (const auto mode : {SanitizeMode::kTtbr, SanitizeMode::kPan}) {
          got.clear();
          want.clear();
          if (insn_allowed(w, mode, &got) !=
                  ref::insn_allowed(w, mode, &want) ||
              got != want) {
            if (count[t]++ == 0) first_of[t] = w;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  u64 total = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    if (total == 0 && count[t] != 0) *first = first_of[t];
    total += count[t];
  }
  return total;
}

// System space: bits[31:22] == 1101010100, all 2^22 words.
TEST(SanitizerTest, PrefilterMatchesDecodeOverSystemSpace) {
  u32 first = 0;
  EXPECT_EQ(mismatches(u32{1} << 22, [](u32 i) { return 0xd5000000 | i; },
                       &first),
            0u)
      << std::hex << "first word 0x" << first;
}

// The branch-register class holding ERET: bits[31:25] == 1101011, all 2^25.
TEST(SanitizerTest, PrefilterMatchesDecodeOverBranchRegisterClass) {
  u32 first = 0;
  EXPECT_EQ(mismatches(u32{1} << 25, [](u32 i) { return 0xd6000000 | i; },
                       &first),
            0u)
      << std::hex << "first word 0x" << first;
}

// The LDTR/STTR mask (w & 0x3f000c00) == 0x38000800: its 24 free bits are
// [31:30], [23:12] and [9:0].
TEST(SanitizerTest, PrefilterMatchesDecodeOverUnprivilegedLdStClass) {
  const auto word_of = [](u32 i) {
    return 0x38000800 | (i & 0x3ff) | ((i >> 10) & 0xfff) << 12 |
           (i >> 22) << 30;
  };
  u32 first = 0;
  EXPECT_EQ(mismatches(u32{1} << 24, word_of, &first), 0u)
      << std::hex << "first word 0x" << first;
}

// Words outside the three classes, where the prefilter skips the decode.
TEST(SanitizerTest, PrefilterMatchesDecodeOnRandomWords) {
  std::vector<u32> words(u32{1} << 22);
  Rng rng(0x5a417e);
  for (u32& w : words) w = static_cast<u32>(rng.next());
  u32 first = 0;
  EXPECT_EQ(mismatches(static_cast<u32>(words.size()),
                       [&](u32 i) { return words[i]; }, &first),
            0u)
      << std::hex << "first word 0x" << first;
}

}  // namespace
}  // namespace lz::core
