// The simulated CPU core. Executes the modelled A64 subset with full
// two-stage address translation, permission checking (including PAN and
// unprivileged load/store semantics), architectural exception entry/return,
// and cycle accounting against the selected Platform.
//
// Privileged software (host kernel, Lowvisor, guest kernels, the LightZone
// kernel module) is C++ that runs as registered trap handlers and operates
// on the core's architectural state; user-level and LightZone-process code
// is *simulated instructions*. An exception level with no registered
// handler vectors to simulated code at VBAR_ELx — which is how the
// LightZone API library's EL1 forwarding stub and the TTBR1-mapped secure
// call gate run as real instruction streams.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>

#include "arch/decode.h"
#include "arch/exception.h"
#include "arch/insn.h"
#include "arch/platform.h"
#include "arch/pstate.h"
#include "arch/sysreg.h"
#include "mem/page_table.h"
#include "mem/phys_mem.h"
#include "mem/tlb.h"
#include "sim/cost.h"
#include "sim/trace_cache.h"

namespace lz::sim {

using arch::ExceptionClass;
using arch::ExceptionLevel;
using arch::SysReg;

struct TrapInfo {
  ExceptionLevel target = ExceptionLevel::kEl1;
  ExceptionLevel from = ExceptionLevel::kEl0;
  ExceptionClass ec = ExceptionClass::kUnknown;
  u64 esr = 0;
  u64 far = 0;        // faulting VA (aborts)
  u64 ipa = 0;        // faulting IPA (stage-2 aborts)
  VirtAddr pc = 0;    // preferred return address (== ELR at entry)
  bool stage2 = false;
};

// What a C++ trap handler tells the core to do next.
enum class TrapAction : u8 {
  kResume,  // handler updated state (ELR/regs/pstate); continue executing
  kStop,    // stop the run loop (process exit, kill, host-level transfer)
};

enum class StopReason : u8 {
  kHandlerStop,
  kMaxSteps,
  kUnhandled,  // exception with no handler and no valid vector code
  kStopPc,     // reached the caller's stop PC
};

struct RunResult {
  StopReason reason = StopReason::kMaxSteps;
  u64 steps = 0;
};

enum class AccessType : u8 { kRead, kWrite, kFetch };

class Core {
 public:
  Core(const arch::Platform& platform, mem::PhysMem& pm, mem::Tlb& tlb,
       CycleAccount& account);

  // --- Architectural state --------------------------------------------------
  // x_[31] is permanently zero (set_x discards writes to it), so register
  // reads — including the trace tier's pre-resolved operand loads — are a
  // plain indexed load with no "is it XZR" branch.
  u64 x(unsigned i) const { return x_[i]; }
  void set_x(unsigned i, u64 v) {
    if (i != 31) x_[i] = v;
  }
  u64 pc() const { return pc_; }
  void set_pc(u64 pc) { pc_ = pc; }
  arch::PState& pstate() { return pstate_; }
  const arch::PState& pstate() const { return pstate_; }
  u64 sp(ExceptionLevel el) const { return sp_[static_cast<int>(el)]; }
  void set_sp(ExceptionLevel el, u64 v) { sp_[static_cast<int>(el)] = v; }

  u64 sysreg(SysReg r) const { return sysregs_[static_cast<size_t>(r)]; }
  // Every sysreg write funnels through here (simulated MSR and privileged
  // C++ software alike), which is what lets the hot path cache derived
  // translation state: writes to TTBR0/VTTBR/HCR refresh the cached
  // ASID/VMID/stage-2 flags, the lookup key every TLB memo is matched
  // against (a TTBR1 write changes no key, so it refreshes nothing);
  // watchpoint register writes re-arm the watchpoint fast-path flag.
  void set_sysreg(SysReg r, u64 v) {
    sysregs_[static_cast<size_t>(r)] = v;
    if (r == SysReg::kTtbr0El1 || r == SysReg::kVttbrEl2 ||
        r == SysReg::kHcrEl2) {
      refresh_translation_context();
    } else if (arch::is_watchpoint_reg(r)) {
      refresh_watchpoints();
    } else if (arch::is_pmu_reg(r)) {
      pmu_write(r, v);  // PmuState is authoritative, not the sysreg file
    }
  }

  // --- PMUv3 subset (DESIGN.md §12) -----------------------------------------
  // Dedicated per-core PMU state; guest MRS/MSR and privileged C++ both
  // route through these (set_sysreg() dispatches writes here). Reads
  // materialize live values: the open counting interval since the last
  // commit is folded in first. The PMU *observes* the cycle account and
  // never charges it, so enabling it cannot perturb simulated totals.
  u64 pmu_read(SysReg r);
  void pmu_write(SysReg r, u64 v);
  bool pmu_active() const { return pmu_active_; }

  // --- Trap handlers (privileged C++ software) ------------------------------
  using TrapHandler = std::function<TrapAction(const TrapInfo&)>;
  void set_handler(ExceptionLevel el, TrapHandler handler);
  bool has_handler(ExceptionLevel el) const;

  // --- Execution -------------------------------------------------------------
  // Executes until a handler stops the core, `max_steps` instructions ran,
  // or the PC reaches `stop_pc` (checked before every instruction, so the
  // instruction at `stop_pc` does not run; a trace that would run through
  // it is interpreted instead). C++ callers of short guest sequences (the
  // call gate) use the stop PC to run through the batched engine. A nested
  // run installs its own stop PC and restores the outer one on exit.
  RunResult run(u64 max_steps = 1'000'000,
                std::optional<u64> stop_pc = std::nullopt);
  // Executes exactly one instruction (or takes one exception).
  void step();

  // Architectural ERET performed from C++ handler code at `from_el`:
  // restores PC from ELR_ELx and PSTATE from SPSR_ELx and charges the
  // platform's return cost.
  void eret_from(ExceptionLevel from_el);

  // Memory access through the full translation machinery in the *current*
  // execution context (used by workloads and the kernel's user-memory
  // accessors). Returns nullopt and raises no exception on fault if
  // `probe_only`; otherwise faults route through normal exception entry.
  struct MemResult {
    bool ok = false;
    u64 value = 0;
    PhysAddr pa = 0;
  };
  MemResult mem_read(VirtAddr va, u8 size);
  MemResult mem_write(VirtAddr va, u8 size, u64 value);

  // Translate-only probe (no exception, no data access, still charges
  // TLB/walk costs): the building block for workload-level memory checks.
  // `fault_level` follows the architectural convention documented in
  // mem/page_table.h (it feeds straight into the ESR ISS DFSC encoding).
  struct Translation {
    bool ok = false;
    PhysAddr pa = 0;
    bool stage2_fault = false;
    unsigned fault_level = 0;
    u64 fault_ipa = 0;
    bool permission = false;  // permission (vs translation) fault
  };
  Translation translate(VirtAddr va, AccessType type, bool unprivileged);

  // One full two-stage walk of the live page tables in the current
  // translation context, with no side effects: charges nothing, inserts
  // nothing into the TLB, bumps no counters. translate_slow() layers the
  // cost accounting and the TLB refill on top of it; the lz::check
  // TLB-vs-walk oracle calls it directly, which is why enabling the
  // harness can never perturb cycle totals or byte-identical reports.
  struct WalkOutcome {
    std::optional<mem::TlbEntry> entry;
    unsigned table_loads = 0;   // stage-1 + stage-2 table loads
    unsigned fault_level = 0;   // architectural level (mem/page_table.h)
    bool stage2_fault = false;
    u64 fault_ipa = 0;
  };
  WalkOutcome walk_translation(VirtAddr va, u64 vpage) const;

  // Stage-2 world: on when HCR_EL2.VM is set. Cached in the core and
  // recomputed only by set_sysreg() on TTBR0_EL1/VTTBR_EL2/HCR_EL2 writes,
  // so translate() never re-derives them from the sysreg file.
  bool stage2_enabled() const { return cached_stage2_; }
  u16 current_vmid() const { return cached_vmid_; }
  u16 current_asid() const { return cached_asid_; }

  // Host-side statistic: number of arch::decode() calls this core has made
  // (i.e. decoded-page cache misses). Not an obs counter on purpose — the
  // count depends on per-core cache state, so it is not topology-invariant
  // and must stay out of replay-compared counter snapshots. Tests use it
  // to pin down eviction behaviour.
  u64 decode_count() const { return decode_count_; }

  // --- Superblock trace tier (DESIGN.md §16) --------------------------------
  // run() executes hot straight-line blocks through per-core traces when
  // enabled (the process default comes from trace_tier_default()). The tier
  // is pure host-side memoization: simulated cycles, counters, reports and
  // replay hashes are byte-identical either way.
  void set_trace_tier(bool on) { trace_tier_on_ = on; }
  bool trace_tier_enabled() const { return trace_tier_on_; }
  // Host-side statistics, same report-exclusion rationale as decode_count().
  TraceStats trace_stats() const { return tcount_.stats(); }

  // Event hook consulted on every committed instruction (used by tests and
  // the scheduler model); may be empty.
  std::function<void(const arch::Insn&)> on_insn;

  const arch::Platform& platform() const { return plat_; }
  CycleAccount& account() { return account_; }
  mem::Tlb& tlb() { return tlb_; }
  mem::PhysMem& phys_mem() { return pm_; }

  // Take an exception explicitly (used by privileged C++ code to inject
  // e.g. an IRQ or to emulate trapped behaviour).
  void take_exception(const TrapInfo& info);

  // Assert the IRQ line; the interrupt is taken before the next
  // instruction once PSTATE.I allows it, routed per HCR_EL2.IMO.
  void inject_irq() { irq_pending_ = true; }
  bool irq_pending() const { return irq_pending_; }

  // Most recent stop cause when a handler returned kStop.
  const TrapInfo& last_trap() const { return last_trap_; }

  // Identity this core reports in profiler samples (Machine sets it to the
  // core index; standalone cores default to 0).
  void set_obs_core_id(u32 id) { obs_core_id_ = id; }

  // L0 geometry (DESIGN.md §11.1): direct-mapped, one array per access type.
  static constexpr unsigned kL0FetchSlots = 4;
  static constexpr unsigned kL0DataSlots = 8;  // read, and write
  // L0 slot of virtual page `vpage` in an L0 of `slots` (a power of two)
  // entries. Bits 9+ of the page number are folded in so that pages on
  // 2 MiB-aligned bases (the gate code, GateTab and TTBRTab pages of
  // core::UpperLayout) do not share a slot.
  static constexpr unsigned l0_index(u64 vpage, unsigned slots) {
    return static_cast<unsigned>((vpage ^ vpage >> 9) & (slots - 1));
  }

 private:
  void execute(const arch::Insn& insn);
  void raise_sync(ExceptionClass ec, u32 iss, u64 far, u64 ipa, bool stage2);
  // The instruction abort (kFetch) or data abort a failed translation of
  // `va` raises: lower- or same-EL class, permission or translation DFSC,
  // WnR for writes, FAR = va and the faulting IPA. Out of line: only the
  // fault paths call it.
  [[gnu::noinline, gnu::cold]] void raise_abort(const Translation& tr,
                                                AccessType type, VirtAddr va);
  ExceptionLevel route_sync_target(ExceptionClass ec, bool stage2) const;
  bool cond_holds(arch::Cond cond) const;
  void exec_system(const arch::Insn& insn);
  void exec_ldst(const arch::Insn& insn);
  void check_watchpoints(VirtAddr va, bool is_write);
  u64 reg_or_sp(unsigned i) const;
  void set_flags_sub(u64 a, u64 b, u64 r);
  bool check_perms(const mem::TlbEntry& e, AccessType type, bool unpriv,
                   ExceptionLevel el) const;
  std::optional<mem::TlbEntry> translate_slow(VirtAddr va, u64 vpage,
                                              Translation* out,
                                              mem::Tlb::Tag* tag_out);
  // Trace tier (sim/trace_cache.cpp). try_trace() executes the trace cached
  // at pc_ — chaining back-to-back re-entries of the same block while its
  // tags stay valid — and returns how many instructions retired (0 = no
  // valid trace; the caller falls back to step()).
  u64 try_trace(u64 remaining);
  Trace* build_trace(TraceCache::Slot& s);
  u64 dispatch_trace(Trace& t, u64 remaining);
  u64 exec_trace(Trace& t, u64 remaining);
  bool trace_ldst(Trace& t, const TraceOp& op, unsigned i);
  bool trace_sys(Trace& t, const TraceOp& op, unsigned i);
  void trace_unretire_after(const Trace& t, const TraceOp& op, unsigned i);
  // With the profiler armed, records the samples that fall at ops up to `i`
  // of the running block (the ops since its last load/store or system op).
  void trace_take_samples(Trace& t, unsigned i);
  // The one predicate a block needs to start (try_trace) and to go on past
  // a kSys op: no per-instruction work is due (needs_step) and its fetch
  // memo is live (trace_tags_live). A chained re-entry checks neither:
  // every op that can change them ends the block.
  bool needs_step() const;
  bool trace_tags_live(const Trace& t) const {
    return memo_live(t.fetch, page_index(t.start_va));
  }
  // A stale trace re-takes its memo from the live L0 fetch slot of its page
  // when that slot maps the same frame (trace_retag).
  bool trace_retag(Trace& t);
  void link_trace_counters();
  void check_tlb_hit(VirtAddr va, const mem::TlbEntry& hit);
  Cycles sysreg_write_cost(SysReg r) const;
  void refresh_translation_context();
  void refresh_watchpoints();

  const arch::Platform& plat_;
  mem::PhysMem& pm_;
  mem::Tlb& tlb_;
  CycleAccount& account_;

  std::array<u64, 32> x_{};  // x_[31] stays zero: reads need no XZR branch
  std::array<u64, 3> sp_{};
  u64 pc_ = 0;
  arch::PState pstate_;
  std::array<u64, arch::kNumSysRegs> sysregs_{};

  // --- Hot-path state (host-side memoization; zero architectural effect) ----
  // See DESIGN.md §11. Everything below is owned by the core's thread and
  // touched without locks; coherence with the shared Tlb/PhysMem rides on
  // the micro-TLB slot stamps and the lookup key of each memoized entry.

  // L0 translation cache: direct-mapped per-access-type memos of
  // fully-checked translate() results (TlbMemo, trace_cache.h). A slot
  // serves `vpage` while memo_live() holds: its micro-TLB slot is unkilled
  // (a refill that evicts another slot, a TLBI that misses this page, or a
  // remote DVM shootdown of another page leaves it live), its key matches
  // the lookup of `vpage` under the current ASID and VMID (so a bare TTBR0
  // write to the same ASID, a TTBR1 write, or a switch away and back keeps
  // it; a global entry matches every ASID), and EL/PAN equal PSTATE (the
  // permission check ran under exactly those; PSTATE is externally mutable
  // by reference, so it is compared directly). Unprivileged (LDTR/STTR)
  // accesses bypass L0 entirely. Traces hold the same memo of their fetch
  // translation (Trace::fetch).
  bool memo_live(const TlbMemo& m, u64 vpage) const {
    return mem::Tlb::matches(m.key, vpage, cached_asid_, cached_vmid_) &&
           tlb_.tag_live(m.slot) && m.el == pstate_.el && m.pan == pstate_.pan;
  }
  struct L0Entry {
    TlbMemo memo;
#ifdef LZ_CONF_CHECK
    mem::TlbEntry entry;  // for the lz::check TLB-vs-walk oracle
#endif
  };
  L0Entry* l0_slot(AccessType type, u64 vpage) {
    switch (type) {
      case AccessType::kFetch:
        return &l0_fetch_[l0_index(vpage, kL0FetchSlots)];
      case AccessType::kRead:
        return &l0_read_[l0_index(vpage, kL0DataSlots)];
      case AccessType::kWrite:
        return &l0_write_[l0_index(vpage, kL0DataSlots)];
    }
    return &l0_read_[0];
  }
  std::array<L0Entry, kL0FetchSlots> l0_fetch_{};
  std::array<L0Entry, kL0DataSlots> l0_read_{};
  std::array<L0Entry, kL0DataSlots> l0_write_{};

  // Derived translation context (satellite: no sysreg-file re-derivation
  // per translate() call).
  u16 cached_asid_ = 0;
  u16 cached_vmid_ = 0;
  bool cached_stage2_ = false;

  // Decoded-page cache: per physical code page, the fetched word and its
  // decode, direct-mapped by page index. A slot re-checks the live word on
  // every fetch (via the cached PhysMem page pointer), so self-modifying
  // code re-decodes exactly as the old value-keyed cache did, but a hot
  // loop costs pointer arithmetic — no lock, no hash, and no clear-all
  // eviction cliff (a conflicting page only evicts its own slot).
  // A new page leaves `words` and `insns` (~52 KB) uninitialized: `filled`
  // guards every read, and dpage_slot clears it whenever a slot is first
  // used or retargeted.
  struct DecodedPage {
    DecodedPage() {}  // user-provided, so make_unique does not zero the page
    // An Insn slot that construction leaves alone (Insn's member
    // initializers would otherwise run 1,024 times per page).
    union Decoded {
      Decoded() {}
      arch::Insn insn;
    };
    static_assert(std::is_trivially_destructible_v<arch::Insn>);
    PhysAddr ppage = ~PhysAddr{0};
    const u8* host = nullptr;
    std::array<u32, kPageSize / 4> words;
    std::array<Decoded, kPageSize / 4> insns;
    std::array<bool, kPageSize / 4> filled;
  };
  static constexpr unsigned kDecodedPages = 512;  // power of two
  const arch::Insn& decode_at(PhysAddr pa);
  DecodedPage* dpage_slot(PhysAddr ppage);
  std::array<std::unique_ptr<DecodedPage>, kDecodedPages> dpages_{};
  DecodedPage* cur_dpage_ = nullptr;  // last fetched page (sequential fetch)
  u64 decode_count_ = 0;

  // Superblock trace tier state (DESIGN.md §16). Owned by the core's
  // thread like the L0/decode caches; every invalidation, local or remote,
  // reaches a trace through the stamp of its code page's micro-TLB slot.
  TraceCache tcache_;
  TraceCounters tcount_;
  bool trace_tier_on_ = true;  // constructor applies trace_tier_default()

  // This core's `sim.core.*` events. Every core links its own counters
  // under the same names, so a snapshot lists their sum.
  obs::OwnedCounter excp_entry_, eret_, insn_retired_, irq_taken_,
      ttbr0_switch_, pan_toggle_;

  // Batched accounting: the per-instruction base cost, data-access cost,
  // retired-instruction count and L0 hit count accumulate in these plain
  // scalars and flush to the account, counters and TLB at well-defined points.
  // Flush contract (everything outside the straight-line loop sees exact
  // values): flush_pending() runs at exception entry (before the entry
  // cost is charged and traced), at ERET, at exec_system entry (every
  // trace-emitting or directly-charged system op), before the on_insn
  // hook, at run() exit, and at the end of a top-level (outside-run)
  // step() or translate(). C++-driven call gates run through
  // run(max, stop_pc), so a gate switch flushes once, at that run's exit. Privileged C++ software only ever runs behind
  // one of these boundaries, so it always observes exact counters, cycle
  // totals and TlbStats; trace timestamps (ledger totals) are
  // byte-identical to the unbatched engine. The trace tier pre-sums a
  // whole block's base cycles / retired count / fetch-hit credits into the
  // same scalars at block entry and rolls the unexecuted remainder back
  // before any boundary inside the block (a faulting load/store, or the
  // exec_system of a system instruction), so every flush boundary above
  // still observes exact values.
  void flush_pending();
  u64 pending_insn_ = 0;
  Cycles pending_insn_cycles_ = 0;
  Cycles pending_mem_cycles_ = 0;
  u64 pending_l0_hits_ = 0;
  bool in_run_ = false;

  // Watchpoint fast path: armed only while some DBGWCR enable bit is set.
  bool watchpoints_armed_ = false;

  // --- PMUv3 state (DESIGN.md §12) ------------------------------------------
  // Counting piggybacks on the batched-accounting flush points: every
  // flush_pending() commits the account-total delta since `pmu_cc_base_`
  // (plus the just-retired instruction batch) to the enabled counters,
  // filtered by the EL in force at commit time. Flushes bracket every EL
  // change (exception entry, ERET, exec_system), so attribution is exact.
  // When `pmu_active_` is false the hot path pays a single predictable
  // branch per flush point and nothing per instruction.
  struct PmuState {
    u64 pmcr = 0;       // only E is writable; N reads back kNumCounters
    u64 ccntr = 0;      // PMCCNTR_EL0
    u64 ccfiltr = 0;    // PMCCFILTR_EL0 (P/U/NSH honoured)
    u64 selr = 0;       // PMSELR_EL0 (PMXEV* indirection)
    u32 cnten = 0;      // PMCNTENSET/CLR composite
    std::array<u64, arch::pmu::kNumCounters> evcntr{};
    std::array<u64, arch::pmu::kNumCounters> evtyper{};
  };
  void pmu_refresh();               // recompute pmu_active_, reopen interval
  void pmu_commit(u64 retired);     // close the open counting interval
  void pmu_event(u64 event, ExceptionLevel el);  // discrete event (+1)
  PmuState pmu_;
  bool pmu_active_ = false;         // PMCR.E && some counter enabled
  Cycles pmu_cc_base_ = 0;          // account total at last commit

  // --- Sampling profiler fast path (obs::profiler()) ------------------------
  // Deterministic sampling on this core's simulated cycle total, layered
  // like the rest of obs v3: the profiler's per-instruction armed check in
  // step() is one predictable branch on `prof_on_`, while the heavier
  // instruments (flight recorder, span tracer, time-series sampler) ride
  // the flush_pending() boundaries and CycleAccount::charge and never
  // appear on the per-instruction path at all. The armed period is polled
  // (epoch compare, two relaxed loads) at run() entry and top-level step()
  // exit. The trace tier runs the same blocks armed or not: where a block
  // enters C++ anyway it locates the samples that fell inside it
  // (trace_take_samples), so they land on the (cycle, pc) points the
  // interpreter takes them at.
  void refresh_profiler();
  void prof_take_samples(Cycles now, u64 pc);
  bool prof_on_ = false;
  u64 prof_period_ = 0;
  u64 prof_epoch_ = 0;
  Cycles prof_next_ = 0;
  u32 obs_core_id_ = 0;

  std::array<TrapHandler, 3> handlers_{};
  bool stop_requested_ = false;
  bool stop_unhandled_ = false;
  std::optional<u64> stop_pc_;  // the innermost run()'s stop PC
  TrapInfo last_trap_;
  u64 pending_elr_ = 0;  // preferred return address for the next exception
  u32 nested_faults_ = 0;
  bool irq_pending_ = false;
};

}  // namespace lz::sim
