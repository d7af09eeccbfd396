// Superblock translation tier (DESIGN.md §16): runs of decoded
// instructions within one physical code page, chained into a "trace" and
// executed as a unit by threaded-code dispatch in the core.
//
// A trace is pure host-side memoization layered *on top of* the
// decoded-page cache: it carries the memo of its fetch translation (a
// TlbMemo, exactly what an L0 fetch slot holds, so both share one liveness
// predicate) and a copy of the encoded words it was decoded from. At
// dispatch the live words are re-compared (self-modifying code) and the
// memo re-checked (TLBI/DVM/replacement of its micro-TLB slot, a lookup
// key that no longer matches, EL/PAN). A stale memo is re-taken from the
// live L0 fetch slot when that slot maps the same frame (re-tagging: the
// code did not move, only its micro-TLB slot was refilled or the lookup
// now hits another entry for it); any other mismatch discards the trace —
// the same machinery that keeps the decode cache honest, so the tier is
// architecturally invisible.
//
// Trace formation stops at unconditional branches and at conditional
// branches back to the trace's start (the branch terminates the trace, so
// loops chain), at exception generators (SVC/HVC/SMC/BRK/ERET), at
// unprivileged LDTR/STTR, at the page boundary, and at kMaxOps. Any other
// conditional branch (B.cond/CBZ/CBNZ) is a side exit: not taken, the
// block goes on; taken, the block ends there with pc_ at the target. System
// instructions (MSR/MRS/MSR-imm/SYS) stay inside the block: their op calls
// the interpreter's own exec_system, so Table-3 semantics, traps and events
// have one implementation, and the block goes on only while everything its
// dispatch required still holds.
//
// Everything here is owned by the core's thread; every invalidation, local
// or remote (DVM shootdowns), reaches a trace through its micro-TLB slot
// stamp exactly like the L0 cache, and every translation-context write
// through the lookup key, so no lock and no atomic read-modify-write
// appears on the dispatch path.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <type_traits>

#include "arch/exception.h"
#include "arch/insn.h"
#include "mem/tlb.h"
#include "obs/counters.h"
#include "support/types.h"

namespace lz::sim {

// Process-wide default for new cores (overridable per core afterwards),
// read once from the LZ_TRACE_TIER environment variable: unset or anything
// but "0" enables the tier.
bool trace_tier_default();

// Pre-lowered micro-op: operands resolved, immediates precomputed, so the
// dispatch switch does the minimum work per retired instruction.
enum class TraceOpKind : u8 {
  kNop,      // NOP and ISB/DSB/DMB (barrier cycles folded into the presum)
  kMovPre,   // MOVZ/MOVN with the shifted value precomputed in imm
  kMovk,     // imm = keep-mask, aux = shifted insert
  kAddImm, kSubImm, kSubsImm,
  kAddReg, kSubReg, kSubsReg,
  kAndReg, kOrrReg, kEorReg, kAndsReg,
  kLslImm,
  kLdSt,     // imm/reg-offset load/store (flags below select the variant)
  kSys,      // MSR/MRS/MSR-imm/SYS through exec_system (aux = sys() index)
  // Side exits: conditional branches whose target (aux) is not the trace
  // start. Taken, the block ends at the target; not taken, it goes on.
  kBCondX, kCbzX, kCbnzX,
  // Terminal kinds: a trace always ends at its unconditional branch or its
  // conditional back-edge (if any).
  kB, kBl, kBCond, kCbz, kCbnz, kBr, kBlr, kRet,
  // Dispatch sentinel appended after the last op of a fall-off-the-end
  // trace, so the threaded-code loop needs no per-op bounds check. Never
  // produced by lowering.
  kEnd,
};

inline constexpr u8 kTrStore = 1;    // kLdSt: store (vs load)
inline constexpr u8 kTrRegOff = 2;   // kLdSt: register offset (vs immediate)
inline constexpr u8 kTrSignExt = 4;  // kLdSt: sign-extending load

struct TraceOp {
  TraceOpKind kind = TraceOpKind::kNop;
  u8 rd = 0;           // destination / ld-st data register
  u8 rn = 0;           // base / source register
  u8 rm = 0;           // second source / offset register / cbz-cbnz test reg
  u8 size = 8;         // ld/st access bytes
  u8 shift = 0;        // register-offset LSL amount / LSL #imm
  u8 flags = 0;        // kTr* bits
  arch::Cond cond = arch::Cond::kAl;
  u32 cyc = 0;         // platform kInsn cycles through this op (fault rollback)
  u64 imm = 0;         // precomputed immediate / byte offset / fallthrough VA
  u64 aux = 0;         // branch target VA / movk insert / link value
};

// A memoized, fully permission-checked TLB hit: an L0 slot, or the fetch
// translation of a trace. It is live (Core::memo_live) while
//   * the micro-TLB slot it was found in or placed into is unkilled
//     (mem::Tlb::tag_live(slot): the slot still holds exactly the entry),
//   * `key` matches the current lookup (mem::Tlb::matches with the core's
//     cached ASID and VMID), and
//   * EL and PAN equal PSTATE (the permission check's inputs).
// The first two together mean the locked Tlb::lookup would return this
// very entry as a zero-cost micro-TLB hit (a level holds at most one entry
// per key), so using the memo is observationally that hit.
struct TlbMemo {
  mem::Tlb::Tag slot = mem::Tlb::kNoTag;
  mem::TlbKey key;       // the memoized entry's lookup key (invalid until set)
  PhysAddr ppage = 0;    // the memoized entry's output frame
  arch::ExceptionLevel el = arch::ExceptionLevel::kEl0;
  bool pan = false;
};

struct Trace {
  u64 start_va = 0;
  TlbMemo fetch;         // the code page's translation (page identity too)
  bool valid = false;
  u16 n = 0;             // retired instructions when the trace runs to the end
  u16 cap = 0;           // ops this block has room for (rebuild-in-place bound)
  u16 sys_cap = 0;       // system instructions it has room for
  u32 start_off = 0;     // byte offset of start_va's word within the page
  u32 cycles = 0;        // presummed kInsn cycles for the whole trace
  const u8* host = nullptr;  // live page bytes (self-modifying-code recheck)

  static constexpr unsigned kMaxOps = 64;

  // The ops, the decoded system instructions and the encodings they were
  // lowered from live in the same allocation, right after this header:
  //   TraceOp    ops[cap + 1]   (+1: kEnd dispatch sentinel)
  //   arch::Insn sys[sys_cap]   (kSys ops' instructions, indexed by aux)
  //   u32        words[cap]
  TraceOp* ops() { return reinterpret_cast<TraceOp*>(this + 1); }
  arch::Insn* sys() { return reinterpret_cast<arch::Insn*>(ops() + cap + 1); }
  u32* words() { return reinterpret_cast<u32*>(sys() + sys_cap); }
};
static_assert(sizeof(Trace) % alignof(TraceOp) == 0);
static_assert(sizeof(TraceOp) % alignof(arch::Insn) == 0);
static_assert(std::is_trivially_destructible_v<arch::Insn>);

struct TraceDeleter {
  void operator()(Trace* t) const noexcept;
};
using TracePtr = std::unique_ptr<Trace, TraceDeleter>;
// One block holding a Trace header and room for `cap` ops, `sys_cap` of
// them system instructions.
TracePtr make_trace(unsigned cap, unsigned sys_cap);

// Host-side per-core statistics of the trace tier. Like
// Core::decode_count(), they depend on per-core cache state, so they are
// host counters (`sim.trace.*`), kept out of the replay-compared counter
// snapshots. TraceCounters is the one count, linked when the core builds
// its first trace; TraceStats is what Core::trace_stats() reads from it.
struct TraceStats {
  u64 built = 0;
  u64 executed = 0;
  u64 insns = 0;      // instructions retired through traces
  u64 invalidated_smc = 0;  // live-word mismatch / store into own page
  // Memo miss that re-tagging could not repair: the code page's micro-TLB
  // slot was killed, or the current lookup key (or EL/PAN) no longer
  // matches the trace's, and the live L0 fetch slot does not (yet) map the
  // same frame.
  u64 invalidated_gen = 0;
};

struct TraceCounters {
  obs::OwnedCounter built, executed, insns;
  obs::OwnedCounter invalidated_smc, invalidated_gen;

  TraceStats stats() const {
    return {built.value(), executed.value(), insns.value(),
            invalidated_smc.value(), invalidated_gen.value()};
  }
};

// Direct-mapped trace store, keyed by start VA. A slot allocates only when
// a build succeeds, one block sized to the trace; a rebuild that fits
// reuses that block in place, a larger one replaces it. A running
// exec_trace never sees its block move: the only way back into a build
// while it runs is the handler of a trap a load/store or system instruction
// took, and exec_trace touches nothing of the trace after a trap.
class TraceCache {
 public:
  static constexpr unsigned kSlots = 1024;  // power of two
  static constexpr u16 kMaxBackoff = 256;

  struct Slot {
    u64 hot_va = ~u64{0};  // build-on-second-visit marker
    // Rebuild backoff. `backoff` is the current window: 0 while the slot is
    // stable, else 2, 4, ..., kMaxBackoff, doubling each time this slot's
    // trace is invalidated or stales its own tags (trace_sys) or a build
    // here fails, and reset by a dispatch whose tags were live. `defer`
    // counts down the dispatch opportunities left in the window before
    // the next build or re-tag attempt. So a block whose context churns
    // every iteration (e.g. a domain-switch loop rewriting TTBR0 over
    // non-global code) or that cannot form a trace (it starts at an SVC)
    // stops paying build and re-tag cost, while a one-off TLBI/SMC patch
    // only delays the rebuild by a couple of blocks.
    u16 backoff = 0;
    u16 defer = 0;
    TracePtr trace;

    void back_off() {
      backoff = backoff == 0 ? u16{2}
                             : static_cast<u16>(std::min<unsigned>(
                                   backoff * 2u, kMaxBackoff));
      defer = backoff;
    }
  };

  // Direct-mapped by the word index within the page, XORed with a
  // Fibonacci hash of the page number: the words of one page keep distinct
  // slots, and the same offset on neighbouring pages does not collide (call
  // gates are kGateStride = 128 bytes apart, so gates g, g+32 and g+64 sit
  // at the same offset of consecutive pages).
  static constexpr unsigned index(u64 va) {
    const u64 page_hash = ((va >> 12) * 0x9e3779b97f4a7c15ULL) >> 54;
    return static_cast<unsigned>(((va >> 2) ^ page_hash) & (kSlots - 1));
  }
  Slot& slot(u64 va) { return slots_[index(va)]; }

  // Lowering scratch for Core::build_trace, reused by every build so that a
  // build initializes nothing up front (a build never re-enters itself).
  struct Scratch {
    std::array<TraceOp, Trace::kMaxOps> ops;
    std::array<arch::Insn, Trace::kMaxOps> sys;
    std::array<u32, Trace::kMaxOps> words;
  };
  Scratch& scratch() { return scratch_; }

 private:
  std::array<Slot, kSlots> slots_;
  Scratch scratch_;
};

}  // namespace lz::sim
