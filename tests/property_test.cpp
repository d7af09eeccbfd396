// Property-style tests: randomized sweeps over the encoder/decoder, the
// page-table walkers against a reference model, TLB-cached translation
// equivalence, the Watchpoint range-cover algorithm, and whole-machine
// determinism. Parameterised gtest is used for the cross-configuration
// sweeps.
#include <gtest/gtest.h>

#include <map>

#include "arch/decode.h"
#include "arch/encode.h"
#include "baselines/watchpoint.h"
#include "mem/page_table.h"
#include "sim/assembler.h"
#include "sim/machine.h"
#include "support/rng.h"
#include "workloads/microbench.h"

namespace lz {
namespace {

namespace e = arch::enc;
using arch::Op;

// --- Decoder total-ness & round-trips -------------------------------------------

TEST(DecoderProperty, NeverCrashesOnRandomWords) {
  Rng rng(0xdec0de);
  for (int i = 0; i < 200'000; ++i) {
    const u32 w = static_cast<u32>(rng.next());
    const auto insn = arch::decode(w);
    // Decoded system-space words must preserve their raw encoding fields.
    if (arch::in_system_space(w)) {
      EXPECT_EQ(insn.sys.op0, (w >> 19) & 3);
      EXPECT_EQ(insn.sys.crn, (w >> 12) & 0xf);
    }
    EXPECT_EQ(insn.raw, w);
  }
}

TEST(DecoderProperty, MoveWideRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 5'000; ++i) {
    const u8 rd = static_cast<u8>(rng.below(32));
    const u16 imm = static_cast<u16>(rng.next());
    const u8 hw = static_cast<u8>(rng.below(4));
    for (const auto& [word, op] :
         {std::pair{e::movz(rd, imm, hw), Op::kMovz},
          std::pair{e::movk(rd, imm, hw), Op::kMovk},
          std::pair{e::movn(rd, imm, hw), Op::kMovn}}) {
      const auto insn = arch::decode(word);
      ASSERT_EQ(insn.op, op);
      EXPECT_EQ(insn.rd, rd);
      EXPECT_EQ(insn.imm, imm);
      EXPECT_EQ(insn.hw, hw);
    }
  }
}

TEST(DecoderProperty, LoadStoreRoundTrip) {
  Rng rng(2);
  const u8 sizes[] = {1, 2, 4, 8};
  for (int i = 0; i < 5'000; ++i) {
    const u8 rt = static_cast<u8>(rng.below(32));
    const u8 rn = static_cast<u8>(rng.below(32));
    const u8 size = sizes[rng.below(4)];
    const u16 off = static_cast<u16>(rng.below(256) * size);
    auto insn = arch::decode(e::ldr_imm(rt, rn, off, size));
    ASSERT_EQ(insn.op, Op::kLdrImm);
    EXPECT_EQ(insn.rt, rt);
    EXPECT_EQ(insn.rn, rn);
    EXPECT_EQ(insn.size, size);
    EXPECT_EQ(insn.offset, off);

    const auto imm9 = static_cast<i16>(rng.range(0, 511)) - 256;
    insn = arch::decode(e::ldtr(rt, rn, imm9, size));
    ASSERT_EQ(insn.op, Op::kLdtr);
    EXPECT_EQ(insn.offset, imm9);
  }
}

TEST(DecoderProperty, BranchOffsetsRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 5'000; ++i) {
    const i64 off = (static_cast<i64>(rng.below(1 << 17)) - (1 << 16)) * 4;
    EXPECT_EQ(arch::decode(e::b(off)).offset, off);
    EXPECT_EQ(arch::decode(e::bl(off)).offset, off);
    EXPECT_EQ(arch::decode(e::cbz(3, off)).offset, off);
    const auto cond = static_cast<arch::Cond>(rng.below(15));
    const auto insn = arch::decode(e::b_cond(cond, off));
    EXPECT_EQ(insn.offset, off);
    EXPECT_EQ(insn.cond, cond);
  }
}

// --- Page tables vs a reference map ----------------------------------------------

// The one attribute bit the check flips, per stage.
void set_read_only(mem::S1Attrs& a, bool ro) { a.read_only = ro; }
void set_read_only(mem::S2Attrs& a, bool ro) { a.write = !ro; }
bool read_only(const mem::S1Attrs& a) { return a.read_only; }
bool read_only(const mem::S2Attrs& a) { return !a.write; }

// Random map/unmap/protect/lookup on `tbl` against a std::map, then
// for_each must visit exactly the reference set.
template <class Table>
void check_against_reference(Table& tbl) {
  std::map<u64, std::pair<u64, bool>> reference;  // in -> (out, read_only)
  Rng rng(0x9a9e);

  for (int i = 0; i < 20'000; ++i) {
    // Cluster addresses so map/unmap/protect collide frequently.
    const u64 in = page_floor(rng.below(1 << 24));
    const u64 out = page_floor(0x8000'0000 + rng.below(1 << 26));
    switch (rng.below(4)) {
      case 0: {
        typename Table::Attrs attrs;
        set_read_only(attrs, rng.chance(0.5));
        const bool ok = tbl.map(in, out, attrs).is_ok();
        EXPECT_EQ(ok, !reference.contains(in));
        if (ok) reference[in] = {out, read_only(attrs)};
        break;
      }
      case 1: {
        const bool ok = tbl.unmap(in).is_ok();
        EXPECT_EQ(ok, reference.contains(in));
        reference.erase(in);
        break;
      }
      case 2: {
        typename Table::Attrs attrs;
        set_read_only(attrs, rng.chance(0.5));
        const bool ok = tbl.protect(in, attrs).is_ok();
        EXPECT_EQ(ok, reference.contains(in));
        if (ok) reference[in].second = read_only(attrs);
        break;
      }
      default: {
        const auto walk = tbl.lookup(in + rng.below(kPageSize));
        auto it = reference.find(in);
        ASSERT_EQ(walk.ok, it != reference.end());
        if (walk.ok) {
          EXPECT_EQ(page_floor(walk.out_addr), it->second.first);
          EXPECT_EQ(read_only(walk.attrs), it->second.second);
        }
        break;
      }
    }
  }
  std::map<u64, u64> visited;
  tbl.for_each([&](u64 in, u64 desc) { visited[in] = mem::pte::addr(desc); });
  ASSERT_EQ(visited.size(), reference.size());
  for (const auto& [in, entry] : reference) {
    ASSERT_TRUE(visited.contains(in));
    EXPECT_EQ(visited[in], entry.first);
  }
}

TEST(PageTableProperty, AgreesWithReferenceModel) {
  mem::PhysMem pm;
  mem::Stage1Table s1(pm, /*asid=*/1);
  check_against_reference(s1);
  mem::Stage2Table s2(pm, /*vmid=*/1);
  check_against_reference(s2);
}

// --- TLB-cached translation == uncached walk --------------------------------------

TEST(TlbProperty, CachedTranslationMatchesWalk) {
  sim::Machine machine(arch::Platform::cortex_a55());
  auto& core = machine.core();
  mem::Stage1Table tbl(machine.mem(), 1);
  Rng rng(0x71b);

  std::vector<VirtAddr> vas;
  for (int i = 0; i < 64; ++i) {
    const VirtAddr va = 0x400000 + i * kPageSize;
    mem::S1Attrs attrs;
    attrs.user = false;
    LZ_CHECK_OK(tbl.map(va, machine.mem().alloc_frame(), attrs));
    vas.push_back(va);
  }
  core.set_sysreg(sim::SysReg::kTtbr0El1, tbl.ttbr());
  core.pstate().el = arch::ExceptionLevel::kEl1;

  for (int i = 0; i < 30'000; ++i) {
    const VirtAddr va = vas[rng.below(vas.size())] + rng.below(kPageSize);
    const auto cached = core.translate(va, sim::AccessType::kRead, false);
    const auto walk = tbl.lookup(page_floor(va));
    ASSERT_TRUE(cached.ok);
    EXPECT_EQ(cached.pa, walk.out_addr + page_offset(va));
    if (rng.chance(0.02)) {
      // Remap the page somewhere else and invalidate: the cached
      // translation must follow.
      LZ_CHECK_OK(tbl.unmap(page_floor(va)));
      LZ_CHECK_OK(tbl.map(page_floor(va), machine.mem().alloc_frame(),
                          mem::S1Attrs{}));
      machine.tlb().invalidate_va(page_index(va), /*asid=*/1, /*vmid=*/0);
    }
  }
  // The TLB must actually have been useful.
  EXPECT_GT(machine.tlb().stats().l1_hits + machine.tlb().stats().l2_hits,
            25'000u);
}

// --- Watchpoint range cover --------------------------------------------------------

TEST(WatchpointProperty, ComplementCoverIsExactAndSmall) {
  // The baseline pads its arena to a power of two (watching unused slots
  // is harmless), which is exactly what keeps the cover within 4 ranges.
  for (u64 slots : {u64{1}, u64{2}, u64{4}, u64{8}, u64{16}}) {
    for (u64 hole = 0; hole < slots; ++hole) {
      const auto ranges = baseline::complement_ranges(hole, slots);
      if (slots > 1) {
        ASSERT_FALSE(ranges.empty()) << slots << "/" << hole;
      }
      ASSERT_LE(ranges.size(), 4u) << slots << "/" << hole;
      std::vector<bool> covered(slots, false);
      for (const auto& r : ranges) {
        // Power-of-two sized, naturally aligned.
        EXPECT_EQ(r.slots & (r.slots - 1), 0u);
        EXPECT_EQ(r.begin_slot % r.slots, 0u);
        for (u64 s = r.begin_slot; s < r.begin_slot + r.slots; ++s) {
          ASSERT_LT(s, slots);
          EXPECT_FALSE(covered[s]) << "overlap at " << s;
          covered[s] = true;
        }
      }
      for (u64 s = 0; s < slots; ++s) {
        EXPECT_EQ(covered[s], s != hole) << slots << "/" << hole << "/" << s;
      }
    }
  }
  // Non-power-of-two counts genuinely exceed 4 ranges without padding —
  // the constraint that shapes the baseline's "strict memory layout".
  EXPECT_TRUE(baseline::complement_ranges(0, 11).empty());
}

// --- Determinism --------------------------------------------------------------------

class DeterminismSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DeterminismSweep, IdenticalSeedsGiveIdenticalCycles) {
  const auto& plat = std::get<0>(GetParam()) == 0
                         ? arch::Platform::cortex_a55()
                         : arch::Platform::carmel();
  const auto placement = std::get<1>(GetParam()) == 0
                             ? workload::Placement::kHost
                             : workload::Placement::kGuest;
  const double a =
      workload::lz_switch_avg_cycles(plat, placement, 8, 500, /*seed=*/7);
  const double b =
      workload::lz_switch_avg_cycles(plat, placement, 8, 500, /*seed=*/7);
  EXPECT_EQ(a, b);
  const double c =
      workload::lz_switch_avg_cycles(plat, placement, 8, 500, /*seed=*/8);
  (void)c;  // different seed may differ; it must still be finite & sane
  EXPECT_GT(c, 0);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, DeterminismSweep,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0, 1)));

// --- Random ALU programs vs a reference interpreter --------------------------------

TEST(CoreProperty, RandomAluProgramsMatchReference) {
  Rng rng(0xa1);
  for (int trial = 0; trial < 200; ++trial) {
    sim::Machine machine(arch::Platform::cortex_a55());
    auto& core = machine.core();
    mem::Stage1Table tbl(machine.mem(), 1);
    const PhysAddr code_pa = machine.mem().alloc_frame();
    mem::S1Attrs code;
    code.read_only = true;
    code.pxn = false;
    LZ_CHECK_OK(tbl.map(0x400000, code_pa, code));

    u64 ref[8] = {};
    sim::Asm a;
    for (int i = 0; i < 40; ++i) {
      const unsigned rd = rng.below(8), rn = rng.below(8), rm = rng.below(8);
      switch (rng.below(5)) {
        case 0: {
          const u16 imm = static_cast<u16>(rng.next());
          a.movz(rd, imm);
          ref[rd] = imm;
          break;
        }
        case 1: {
          const u16 imm = static_cast<u16>(rng.below(4096));
          a.add_imm(rd, rn, imm);
          ref[rd] = ref[rn] + imm;
          break;
        }
        case 2:
          a.sub_reg(rd, rn, rm);
          ref[rd] = ref[rn] - ref[rm];
          break;
        case 3:
          a.eor_reg(rd, rn, rm);
          ref[rd] = ref[rn] ^ ref[rm];
          break;
        default: {
          const u8 sh = static_cast<u8>(rng.below(63) + 1);
          a.lsl_imm(rd, rn, sh);
          ref[rd] = ref[rn] << sh;
          break;
        }
      }
    }
    a.svc(0);
    a.install(machine.mem(), code_pa);
    core.set_sysreg(sim::SysReg::kTtbr0El1, tbl.ttbr());
    core.pstate().el = arch::ExceptionLevel::kEl1;
    core.set_pc(0x400000);
    core.set_handler(arch::ExceptionLevel::kEl1, [](const sim::TrapInfo&) {
      return sim::TrapAction::kStop;
    });
    core.run(100);
    for (int r = 0; r < 8; ++r) {
      ASSERT_EQ(core.x(r), ref[r]) << "trial " << trial << " reg " << r;
    }
  }
}

}  // namespace
}  // namespace lz
