#include "sim/core.h"

#include <cstring>

#include "obs/counters.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "support/bits.h"

#ifdef LZ_CONF_CHECK
#include <cstdio>
#include <string>

#include "check/check.h"
#endif

namespace lz::sim {

using arch::Cond;
using arch::ExceptionClass;
using arch::FaultStatus;
using arch::Insn;
using arch::Op;
using arch::VectorKind;
using mem::pte::kAddrMask;

namespace {

constexpr u32 kMaxNestedFaults = 8;

bool is_el2_reg(SysReg r) { return arch::sysreg_info(r).min_el == 2; }

// PMEVTYPERn/PMCCFILTR filter check: P excludes EL1, U excludes EL0, NSH
// *includes* EL2 (excluded by default) — D13.4.1.
bool pmu_filter_allows(u64 filter, ExceptionLevel el) {
  switch (el) {
    case ExceptionLevel::kEl0: return !(filter & arch::pmu::kFiltU);
    case ExceptionLevel::kEl1: return !(filter & arch::pmu::kFiltP);
    case ExceptionLevel::kEl2: return (filter & arch::pmu::kFiltNsh) != 0;
  }
  return false;
}

}  // namespace

Core::Core(const arch::Platform& platform, mem::PhysMem& pm, mem::Tlb& tlb,
           CycleAccount& account)
    : plat_(platform), pm_(pm), tlb_(tlb), account_(account) {
  pstate_.el = ExceptionLevel::kEl0;
  set_sysreg(SysReg::kHcrEl2, arch::hcr::kRw);
  trace_tier_on_ = trace_tier_default();
  refresh_profiler();  // pick up a profiler armed before core construction
  excp_entry_.link("sim.core.excp_entry");
  eret_.link("sim.core.eret");
  insn_retired_.link("sim.core.insn_retired");
  irq_taken_.link("sim.core.irq_taken");
  ttbr0_switch_.link("sim.core.ttbr0_switch");
  pan_toggle_.link("sim.core.pan_toggle");
}

void Core::set_handler(ExceptionLevel el, TrapHandler handler) {
  handlers_[static_cast<int>(el)] = std::move(handler);
}

bool Core::has_handler(ExceptionLevel el) const {
  return static_cast<bool>(handlers_[static_cast<int>(el)]);
}

void Core::refresh_translation_context() {
  cached_stage2_ = sysreg(SysReg::kHcrEl2) & arch::hcr::kVm;
  cached_vmid_ =
      cached_stage2_ ? mem::vttbr_vmid(sysreg(SysReg::kVttbrEl2)) : 0;
  cached_asid_ = mem::ttbr_asid(sysreg(SysReg::kTtbr0El1));
}

void Core::refresh_watchpoints() {
  watchpoints_armed_ = (sysreg(SysReg::kDbgwcr0El1) & 1) ||
                       (sysreg(SysReg::kDbgwcr1El1) & 1) ||
                       (sysreg(SysReg::kDbgwcr2El1) & 1) ||
                       (sysreg(SysReg::kDbgwcr3El1) & 1);
}

void Core::flush_pending() {
  const u64 retired = pending_insn_;
  if (pending_insn_ != 0) {
    insn_retired_.add(pending_insn_);
    pending_insn_ = 0;
  }
  if (pending_insn_cycles_ != 0) {
    account_.charge(CostKind::kInsn, pending_insn_cycles_);
    pending_insn_cycles_ = 0;
  }
  if (pending_mem_cycles_ != 0) {
    account_.charge(CostKind::kMem, pending_mem_cycles_);
    pending_mem_cycles_ = 0;
  }
  if (pending_l0_hits_ != 0) {
    tlb_.commit_l1_hits(pending_l0_hits_);
    pending_l0_hits_ = 0;
  }
  // PMU counting rides the flush points (after the batched charges landed,
  // so the account total is exact). Flushes bracket every EL change, which
  // is what makes per-EL filtering exact despite the batching.
  if (pmu_active_) pmu_commit(retired);
}

// --- PMUv3 subset (DESIGN.md §12) --------------------------------------------

void Core::pmu_refresh() {
  pmu_active_ = (pmu_.pmcr & arch::pmu::kPmcrE) && pmu_.cnten != 0;
  pmu_cc_base_ = account_.total();  // reopen the counting interval here
}

void Core::pmu_commit(u64 retired) {
  namespace pmu = arch::pmu;
  const Cycles now = account_.total();
  const Cycles delta = now - pmu_cc_base_;
  pmu_cc_base_ = now;
  const auto el = pstate_.el;
  if ((pmu_.cnten & pmu::kCntenCycle) && pmu_filter_allows(pmu_.ccfiltr, el)) {
    pmu_.ccntr += delta;
  }
  for (unsigned i = 0; i < pmu::kNumCounters; ++i) {
    if (!(pmu_.cnten & (u32{1} << i))) continue;
    const u64 typer = pmu_.evtyper[i];
    if (!pmu_filter_allows(typer, el)) continue;
    switch (typer & pmu::kEvtMask) {
      case pmu::kEvtCpuCycles: pmu_.evcntr[i] += delta; break;
      case pmu::kEvtInstRetired: pmu_.evcntr[i] += retired; break;
      default: break;  // discrete events arrive via pmu_event()
    }
  }
}

void Core::pmu_event(u64 event, ExceptionLevel el) {
  namespace pmu = arch::pmu;
  for (unsigned i = 0; i < pmu::kNumCounters; ++i) {
    if (!(pmu_.cnten & (u32{1} << i))) continue;
    const u64 typer = pmu_.evtyper[i];
    if ((typer & pmu::kEvtMask) != event) continue;
    if (!pmu_filter_allows(typer, el)) continue;
    ++pmu_.evcntr[i];
  }
}

u64 Core::pmu_read(SysReg r) {
  namespace pmu = arch::pmu;
  // Reads only happen behind a flush boundary (exec_system flushes at
  // entry; privileged C++ runs behind one by the flush contract), so the
  // account total is exact — fold the open interval in before reporting.
  if (pmu_active_) pmu_commit(0);
  switch (r) {
    case SysReg::kPmcrEl0:
      return (pmu_.pmcr & pmu::kPmcrE) |
             (u64{pmu::kNumCounters} << pmu::kPmcrNShift);
    case SysReg::kPmccntrEl0: return pmu_.ccntr;
    case SysReg::kPmccfiltrEl0: return pmu_.ccfiltr;
    case SysReg::kPmselrEl0: return pmu_.selr;
    case SysReg::kPmcntensetEl0:
    case SysReg::kPmcntenclrEl0: return pmu_.cnten;
    case SysReg::kPmxevtyperEl0: {
      const u64 sel = pmu_.selr & 0x1f;
      if (sel == 31) return pmu_.ccfiltr;  // PMXEVTYPER alias for the filter
      return sel < pmu::kNumCounters ? pmu_.evtyper[sel] : 0;
    }
    case SysReg::kPmxevcntrEl0: {
      const u64 sel = pmu_.selr & 0x1f;
      return sel < pmu::kNumCounters ? pmu_.evcntr[sel] : 0;
    }
    default: break;
  }
  const auto idx = static_cast<std::size_t>(r);
  const auto ev0 = static_cast<std::size_t>(SysReg::kPmevcntr0El0);
  const auto ty0 = static_cast<std::size_t>(SysReg::kPmevtyper0El0);
  if (idx >= ev0 && idx < ev0 + pmu::kNumCounters) return pmu_.evcntr[idx - ev0];
  if (idx >= ty0 && idx < ty0 + pmu::kNumCounters) return pmu_.evtyper[idx - ty0];
  return 0;
}

void Core::pmu_write(SysReg r, u64 v) {
  namespace pmu = arch::pmu;
  constexpr u64 kFilters = pmu::kFiltP | pmu::kFiltU | pmu::kFiltNsh;
  // Close the open interval under the old configuration first: writes take
  // effect from here on, never retroactively.
  if (pmu_active_) pmu_commit(0);
  switch (r) {
    case SysReg::kPmcrEl0:
      if (v & pmu::kPmcrP) pmu_.evcntr.fill(0);
      if (v & pmu::kPmcrC) pmu_.ccntr = 0;
      pmu_.pmcr = v & pmu::kPmcrE;
      break;
    case SysReg::kPmcntensetEl0:
      pmu_.cnten |= static_cast<u32>(v) & pmu::kCntenMask;
      break;
    case SysReg::kPmcntenclrEl0:
      pmu_.cnten &= ~(static_cast<u32>(v) & pmu::kCntenMask);
      break;
    case SysReg::kPmselrEl0: pmu_.selr = v & 0x1f; break;
    case SysReg::kPmccntrEl0: pmu_.ccntr = v; break;
    case SysReg::kPmccfiltrEl0: pmu_.ccfiltr = v & kFilters; break;
    case SysReg::kPmxevtyperEl0: {
      const u64 sel = pmu_.selr & 0x1f;
      if (sel == 31) {
        pmu_.ccfiltr = v & kFilters;
      } else if (sel < pmu::kNumCounters) {
        pmu_.evtyper[sel] = v & (kFilters | pmu::kEvtMask);
      }
      break;
    }
    case SysReg::kPmxevcntrEl0: {
      const u64 sel = pmu_.selr & 0x1f;
      if (sel < pmu::kNumCounters) pmu_.evcntr[sel] = v;
      break;
    }
    default: {
      const auto idx = static_cast<std::size_t>(r);
      const auto ev0 = static_cast<std::size_t>(SysReg::kPmevcntr0El0);
      const auto ty0 = static_cast<std::size_t>(SysReg::kPmevtyper0El0);
      if (idx >= ev0 && idx < ev0 + pmu::kNumCounters) {
        pmu_.evcntr[idx - ev0] = v;
      } else if (idx >= ty0 && idx < ty0 + pmu::kNumCounters) {
        pmu_.evtyper[idx - ty0] = v & (kFilters | pmu::kEvtMask);
      }
      break;
    }
  }
  pmu_refresh();
}

// --- Sampling profiler fast path ---------------------------------------------

void Core::refresh_profiler() {
  auto& p = obs::profiler();
  const u64 epoch = p.epoch();
  if (epoch == prof_epoch_) return;
  prof_epoch_ = epoch;
  prof_period_ = p.period();
  prof_on_ = prof_period_ != 0;
  prof_next_ =
      account_.total() + pending_insn_cycles_ + pending_mem_cycles_ +
      prof_period_;
}

void Core::prof_take_samples(Cycles now, u64 pc) {
  obs::SampleKey key;
  key.core = obs_core_id_;
  key.el = static_cast<u8>(pstate_.el);
  key.pan = pstate_.pan ? 1 : 0;
  key.vmid = current_vmid();
  key.asid = current_asid();
  key.pc = pc;
  auto& p = obs::profiler();
  do {  // an expensive instruction can span several sample periods
    p.record(key);
    prof_next_ += prof_period_;
  } while (now >= prof_next_);
}

// --- Translation -------------------------------------------------------------

bool Core::check_perms(const mem::TlbEntry& e, AccessType type, bool unpriv,
                       ExceptionLevel el) const {
  // Stage-1 checks only; stage-2 is checked separately by the caller.
  const bool user_access = (el == ExceptionLevel::kEl0) || unpriv;
  switch (type) {
    case AccessType::kFetch:
      if (el == ExceptionLevel::kEl0) return e.s1.user && !e.s1.uxn;
      return !e.s1.pxn;
    case AccessType::kRead:
      if (user_access) return e.s1.user;
      // Privileged read: PAN blocks access to user pages.
      if (e.s1.user && pstate_.pan) return false;
      return true;
    case AccessType::kWrite:
      if (e.s1.read_only) return false;
      if (user_access) return e.s1.user;
      if (e.s1.user && pstate_.pan) return false;
      return true;
  }
  return false;
}

Core::WalkOutcome Core::walk_translation(VirtAddr va, u64 vpage) const {
  WalkOutcome out;
  const u64 hcr = sysreg(SysReg::kHcrEl2);
  const bool s2_on = hcr & arch::hcr::kVm;
  const auto range = mem::classify_va(va);
  if (range == mem::VaRange::kInvalid) return out;
  const u64 ttbr = range == mem::VaRange::kLower ? sysreg(SysReg::kTtbr0El1)
                                                 : sysreg(SysReg::kTtbr1El1);
  const PhysAddr s2_root = mem::vttbr_base(sysreg(SysReg::kVttbrEl2));

  unsigned s2_hop_fault_level = 0;
  const auto s2_hop = [this, s2_root, &out, &s2_hop_fault_level](u64 ipa)
      -> std::optional<PhysAddr> {
    const auto w = mem::walk_stage2(pm_, s2_root, ipa);
    // Hardware walk caches make repeated table translations cheap; we
    // charge one level per table hop rather than a full nested walk.
    out.table_loads += 1;
    if (!w.ok || !w.attrs.read) {
      // The abort reports the *stage-2* walk's own fault level, not the
      // stage-1 hop that triggered it (a readable-leaf denial is a
      // stage-2 permission problem at the leaf level).
      s2_hop_fault_level = w.ok ? mem::kStage2LeafLevel : w.fault_level;
      return std::nullopt;
    }
    return w.out_addr;
  };

  const auto s1 =
      s2_on ? mem::walk_stage1(pm_, mem::ttbr_base(ttbr), va, s2_hop)
            : mem::walk_stage1(pm_, mem::ttbr_base(ttbr), va);
  out.table_loads += s1.mem_accesses;
  if (!s1.ok) {
    out.fault_level = s1.fault_level;
    if (s1.s2_table_fault) {
      out.stage2_fault = true;
      out.fault_ipa = s1.s2_fault_ipa;
      out.fault_level = s2_hop_fault_level;
    }
    return out;
  }

  mem::TlbEntry e;
  e.valid = true;
  e.vpage = vpage;
  e.asid = current_asid();
  e.vmid = current_vmid();
  e.global = s1.attrs.global;
  e.stage2_on = s2_on;
  e.s1_root = mem::ttbr_base(ttbr);
  e.s2_root = s2_on ? s2_root : 0;
  e.ipa_page = page_floor(s1.out_addr);
  e.s1 = s1.attrs;
  if (s2_on) {
    const auto s2 = mem::walk_stage2(pm_, s2_root, s1.out_addr);
    out.table_loads += s2.mem_accesses;
    if (!s2.ok) {
      out.stage2_fault = true;
      out.fault_level = s2.fault_level;
      out.fault_ipa = s1.out_addr;
      return out;
    }
    e.ppage = page_floor(s2.out_addr);
    e.s2 = s2.attrs;
  } else {
    e.ppage = page_floor(s1.out_addr);
  }
  out.entry = e;
  return out;
}

std::optional<mem::TlbEntry> Core::translate_slow(VirtAddr va, u64 vpage,
                                                  Translation* out,
                                                  mem::Tlb::Tag* tag_out) {
  auto w = walk_translation(va, vpage);
  account_.charge(CostKind::kTlb, w.table_loads * plat_.tlb_walk_per_level);
  if (!w.entry) {
    out->fault_level = w.fault_level;
    out->stage2_fault = w.stage2_fault;
    out->fault_ipa = w.fault_ipa;
    return std::nullopt;
  }
  *tag_out = tlb_.insert(*w.entry);
  // PMU event 0x05: the walk succeeded and refilled the TLB. Faulting walks
  // install nothing, so they are not refills.
  if (pmu_active_) pmu_event(arch::pmu::kEvtL1dTlbRefill, pstate_.el);
  return w.entry;
}

Core::Translation Core::translate(VirtAddr va, AccessType type,
                                  bool unprivileged) {
  Translation out;
  const u64 vpage = page_index(va);

  // L0 fast path: a live slot is a memoized, fully permission-checked L1
  // hit (zero extra cost) — see the coherence argument at TlbMemo. The
  // stats credit is batched; outside run() it lands immediately so direct
  // translate() callers read exact TlbStats.
  L0Entry* l0 = unprivileged ? nullptr : l0_slot(type, vpage);
  if (l0 != nullptr && memo_live(l0->memo, vpage)) {
    if (in_run_) {
      ++pending_l0_hits_;
    } else {
      tlb_.commit_l1_hits(1);
    }
#ifdef LZ_CONF_CHECK
    if (check::enabled()) check_tlb_hit(va, l0->entry);
#endif
    out.ok = true;
    out.pa = l0->memo.ppage | page_offset(va);
    return out;
  }

  std::optional<mem::TlbEntry> entry;
  mem::Tlb::Tag entry_tag = mem::Tlb::kNoTag;
  if (auto hit = tlb_.lookup(vpage, current_asid(), current_vmid(),
                             plat_.tlb_l2_hit)) {
    if (hit->extra_cost != 0) {
      account_.charge(CostKind::kTlb, hit->extra_cost);
    }
    entry = hit->entry;
    entry_tag = hit->tag;
#ifdef LZ_CONF_CHECK
    if (check::enabled()) check_tlb_hit(va, *entry);
#endif
  } else {
    entry = translate_slow(va, vpage, &out, &entry_tag);
    if (!entry) return out;  // translation fault recorded in `out`
  }

  if (!check_perms(*entry, type, unprivileged, pstate_.el)) {
    out.permission = true;
    out.fault_level = 3;
    return out;
  }
  if (entry->stage2_on) {
    const bool ok = type == AccessType::kFetch
                        ? (entry->s2.read && entry->s2.exec)
                        : (type == AccessType::kRead ? entry->s2.read
                                                     : entry->s2.write);
    if (!ok) {
      out.permission = true;
      out.stage2_fault = true;
      out.fault_level = 3;
      out.fault_ipa = entry->ipa_page | page_offset(va);
      return out;
    }
  }
  out.ok = true;
  out.pa = entry->ppage | page_offset(va);
  if (l0 != nullptr) {
    // `entry_tag` was read under the Tlb lock at the end of the lookup or
    // insert, so the micro-TLB slot it names held `entry` at exactly that
    // stamp; a later kill of that slot (invalidation, local or DVM, or
    // replacement) moves the stamp and the L0 entry dies.
    l0->memo.slot = entry_tag;
    l0->memo.key = *entry;
    l0->memo.ppage = entry->ppage;
    l0->memo.el = pstate_.el;
    l0->memo.pan = pstate_.pan;
#ifdef LZ_CONF_CHECK
    l0->entry = *entry;
#endif
  }
  return out;
}

#ifdef LZ_CONF_CHECK
// TLB-vs-walk oracle: every hit is re-derived from the live page tables.
// A mismatch means an entry survived an invalidation it should not have
// (or the refill cached the wrong attributes) — exactly the class of bug
// an ASID/VMID scoping mistake produces.
void Core::check_tlb_hit(VirtAddr va, const mem::TlbEntry& hit) {
  // Only compare within the translation context the entry came from. After
  // software rewrites TTBR/VTTBR (or toggles HCR_EL2.VM) without a TLBI,
  // using a still-matching entry is architecturally allowed — the
  // isolation pentests forge roots on purpose — so a root mismatch is not
  // a conformance divergence. Scoping bugs keep the same roots and are
  // still caught.
  const u64 hcr = sysreg(SysReg::kHcrEl2);
  const bool s2_on = hcr & arch::hcr::kVm;
  if (hit.stage2_on != s2_on) return;
  const auto range = mem::classify_va(va);
  if (range == mem::VaRange::kInvalid) return;
  const u64 ttbr = range == mem::VaRange::kLower ? sysreg(SysReg::kTtbr0El1)
                                                 : sysreg(SysReg::kTtbr1El1);
  if (hit.s1_root != mem::ttbr_base(ttbr)) return;
  if (s2_on && hit.s2_root != mem::vttbr_base(sysreg(SysReg::kVttbrEl2))) {
    return;
  }

  const auto w = walk_translation(va, hit.vpage);
  const auto hex = [](u64 v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  const auto where = [&] {
    return "va=" + hex(va) + " asid=" + std::to_string(hit.asid) +
           " vmid=" + std::to_string(hit.vmid);
  };
  if (!w.entry) {
    check::report({"tlb.stale",
                   "TLB hit but the live tables fault at level " +
                       std::to_string(w.fault_level) +
                       (w.stage2_fault ? " (stage 2); " : "; ") + where()});
    return;
  }
  const mem::TlbEntry& e = *w.entry;
  if (e.ppage != hit.ppage || e.ipa_page != hit.ipa_page) {
    check::report({"tlb.out_addr",
                   "TLB ppage=" + hex(hit.ppage) + " ipa=" +
                       hex(hit.ipa_page) + " but walk says ppage=" +
                       hex(e.ppage) + " ipa=" + hex(e.ipa_page) + "; " +
                       where()});
    return;
  }
  if (e.stage2_on != hit.stage2_on || e.global != hit.global ||
      !(e.s1 == hit.s1) || (hit.stage2_on && !(e.s2 == hit.s2))) {
    check::report({"tlb.attrs",
                   "TLB permission attributes diverge from the live walk "
                   "(stale stage-1 or stage-2 attrs); " +
                       where()});
  }
}
#endif

// --- Exceptions --------------------------------------------------------------

ExceptionLevel Core::route_sync_target(ExceptionClass ec, bool stage2) const {
  const u64 hcr = sysreg(SysReg::kHcrEl2);
  if (stage2) return ExceptionLevel::kEl2;
  switch (ec) {
    case ExceptionClass::kHvc64:
    case ExceptionClass::kSmc64:
    case ExceptionClass::kMsrMrsTrap:
      return ExceptionLevel::kEl2;
    default:
      break;
  }
  if (pstate_.el == ExceptionLevel::kEl0 && (hcr & arch::hcr::kTge)) {
    return ExceptionLevel::kEl2;  // VHE host: EL0 exceptions land at EL2
  }
  if (pstate_.el == ExceptionLevel::kEl2) return ExceptionLevel::kEl2;
  return ExceptionLevel::kEl1;
}

void Core::take_exception(const TrapInfo& info) {
  // Flush contract: the entry cost/trace below and the handler's C++ code
  // must observe exact counters and ledger totals.
  flush_pending();
  const auto target = info.target;
  const auto from = info.from;
  LZ_CHECK(target >= from || from == ExceptionLevel::kEl2);
  // PMU event 0x09, attributed to the EL the exception was taken *from*
  // (the flush above already closed that EL's counting interval).
  if (pmu_active_) pmu_event(arch::pmu::kEvtExcTaken, from);

  const bool el2 = target == ExceptionLevel::kEl2;
  set_sysreg(el2 ? SysReg::kElrEl2 : SysReg::kElrEl1, info.pc);
  set_sysreg(el2 ? SysReg::kSpsrEl2 : SysReg::kSpsrEl1, pstate_.to_spsr());
  set_sysreg(el2 ? SysReg::kEsrEl2 : SysReg::kEsrEl1, info.esr);
  set_sysreg(el2 ? SysReg::kFarEl2 : SysReg::kFarEl1, info.far);
  if (el2) set_sysreg(SysReg::kHpfarEl2, info.ipa);

  account_.charge(CostKind::kExcp, plat_.excp(from, target));
  excp_entry_.add();
  obs::trace().excp_entry(static_cast<u8>(info.ec), static_cast<u8>(from),
                          static_cast<u8>(target), info.esr, info.stage2);
  pstate_.el = target;
  pstate_.irq_masked = true;

  last_trap_ = info;

  auto& handler = handlers_[static_cast<int>(target)];
  if (handler) {
    if (handler(info) == TrapAction::kStop) stop_requested_ = true;
    return;
  }
  // No privileged C++ software at this level: vector to simulated code.
  const u64 vbar = sysreg(el2 ? SysReg::kVbarEl2 : SysReg::kVbarEl1);
  const bool same_el = from == target;
  const bool from_el0 = from == ExceptionLevel::kEl0;
  u64 off;
  if (from_el0 && !same_el) {
    off = static_cast<u64>(VectorKind::kSyncLower64);
  } else {
    off = static_cast<u64>(same_el ? VectorKind::kSyncCurrentSpx
                                   : VectorKind::kSyncLower64);
  }
  if (vbar == 0) {
    stop_requested_ = true;
    stop_unhandled_ = true;
    return;
  }
  pc_ = vbar + off;
}

void Core::raise_abort(const Translation& tr, AccessType type, VirtAddr va) {
  const bool lower = pstate_.el == ExceptionLevel::kEl0 || tr.stage2_fault;
  ExceptionClass ec;
  if (type == AccessType::kFetch) {
    ec = lower ? ExceptionClass::kInsnAbortLowerEl
               : ExceptionClass::kInsnAbortSameEl;
  } else {
    ec = lower ? ExceptionClass::kDataAbortLowerEl
               : ExceptionClass::kDataAbortSameEl;
  }
  const auto fs = tr.permission ? arch::permission_fault(tr.fault_level)
                                : arch::translation_fault(tr.fault_level);
  raise_sync(ec, arch::make_abort_iss(fs, type == AccessType::kWrite), va,
             tr.fault_ipa, tr.stage2_fault);
}

void Core::raise_sync(ExceptionClass ec, u32 iss, u64 far, u64 ipa,
                      bool stage2) {
  TrapInfo info;
  info.from = pstate_.el;
  info.target = route_sync_target(ec, stage2);
  info.ec = ec;
  info.esr = arch::make_esr(ec, iss);
  info.far = far;
  info.ipa = ipa;
  info.stage2 = stage2;
  info.pc = pending_elr_;
  take_exception(info);
}

void Core::eret_from(ExceptionLevel from_el) {
  flush_pending();  // the return trace's timestamp must be exact
  const bool el2 = from_el == ExceptionLevel::kEl2;
  const u64 elr = sysreg(el2 ? SysReg::kElrEl2 : SysReg::kElrEl1);
  const u64 spsr = sysreg(el2 ? SysReg::kSpsrEl2 : SysReg::kSpsrEl1);
  const auto new_state = arch::PState::from_spsr(spsr);
  account_.charge(CostKind::kExcp, plat_.eret(from_el, new_state.el));
  eret_.add();
  obs::trace().excp_return(static_cast<u8>(from_el),
                           static_cast<u8>(new_state.el));
  pstate_ = new_state;
  pc_ = elr;
}

// --- Execution ---------------------------------------------------------------

RunResult Core::run(u64 max_steps, std::optional<u64> stop_pc) {
  RunResult result;
  stop_requested_ = false;
  stop_unhandled_ = false;
  const std::optional<u64> outer_stop_pc = stop_pc_;
  stop_pc_ = stop_pc;
  // Nested runs (trap handlers re-entering simulated code) keep batching;
  // only the outermost exit — and every exit back into C++ — flushes.
  const bool outer = !in_run_;
  in_run_ = true;
  if (outer) refresh_profiler();  // arm/disarm takes effect at run entry
  // The host self-profiler's kRun bracket (DESIGN.md §17.3): the outer run.
  const u64 self_run_start =
      (outer && obs::selfprof().enabled()) ? obs::host_ticks() : 0;
  for (u64 i = 0; i < max_steps;) {
    if (stop_pc_ && pc_ == *stop_pc_) {
      result.reason = StopReason::kStopPc;
      break;
    }
    // Trace tier first: executes a whole superblock when a valid trace is
    // cached at pc_ (and builds one when the block has proven hot).
    // Returns 0 — interpret one instruction — whenever anything needs the
    // per-instruction path.
    u64 k = trace_tier_on_ ? try_trace(max_steps - i) : 0;
    if (k == 0) {
      step();
      k = 1;
    }
    i += k;
    result.steps += k;
    if (stop_requested_) {
      result.reason =
          stop_unhandled_ ? StopReason::kUnhandled : StopReason::kHandlerStop;
      break;
    }
  }
  stop_pc_ = outer_stop_pc;
  in_run_ = !outer;
  flush_pending();
  if (self_run_start != 0) {
    obs::selfprof().add(obs::SelfTier::kRun, obs::host_ticks() - self_run_start);
  }
  return result;
}

void Core::step() {
  const u64 insn_pc = pc_;
  pending_elr_ = insn_pc;  // faults return to the faulting instruction

  if (irq_pending_ && !pstate_.irq_masked) {
    irq_pending_ = false;
    TrapInfo info;
    info.from = pstate_.el;
    // Physical IRQs route to EL2 when HCR_EL2.IMO is set (guest worlds and
    // LightZone processes) or under TGE (VHE host); otherwise to EL1.
    const u64 hcr = sysreg(SysReg::kHcrEl2);
    info.target = (hcr & (arch::hcr::kImo | arch::hcr::kTge)) ||
                          pstate_.el == ExceptionLevel::kEl2
                      ? ExceptionLevel::kEl2
                      : ExceptionLevel::kEl1;
    info.ec = ExceptionClass::kIrq;
    info.esr = 0;
    info.pc = insn_pc;  // resume at the interrupted instruction
    flush_pending();  // exact ledger timestamp for the irq trace
    irq_taken_.add();
    obs::trace().irq(static_cast<u8>(info.target));
    take_exception(info);
    return;
  }

  const auto fetch = translate(insn_pc, AccessType::kFetch, false);
  if (!fetch.ok) {
    ++nested_faults_;
    if (nested_faults_ > kMaxNestedFaults) {
      stop_requested_ = true;
      stop_unhandled_ = true;
      return;
    }
    raise_abort(fetch, AccessType::kFetch, insn_pc);
    return;
  }
  nested_faults_ = 0;

  // Copied by value: a trap taken inside execute() can run nested code
  // whose fetches evict the decoded-page slot the reference points into.
  const Insn insn = decode_at(fetch.pa);
  pending_insn_cycles_ += plat_.insn_base;
  ++pending_insn_;
  pc_ = insn_pc + 4;

  // Sampling profiler: fires on this core's simulated cycle total crossing
  // the next sample boundary, so profiles are host-independent and exactly
  // reproducible. One predictable branch when disarmed.
  if (prof_on_) {
    const Cycles now =
        account_.total() + pending_insn_cycles_ + pending_mem_cycles_;
    if (now >= prof_next_) prof_take_samples(now, insn_pc);
  }

  execute(insn);
  if (on_insn) {
    flush_pending();  // the hook may observe counters/cycles
    on_insn(insn);
  }
  if (!in_run_) {
    flush_pending();  // top-level single step: exact snapshot
    refresh_profiler();  // top-level stepping polls the profiler here
  }
}

bool Core::cond_holds(Cond cond) const {
  const auto& p = pstate_;
  switch (cond) {
    case Cond::kEq: return p.z;
    case Cond::kNe: return !p.z;
    case Cond::kCs: return p.c;
    case Cond::kCc: return !p.c;
    case Cond::kMi: return p.n;
    case Cond::kPl: return !p.n;
    case Cond::kVs: return p.v;
    case Cond::kVc: return !p.v;
    case Cond::kHi: return p.c && !p.z;
    case Cond::kLs: return !p.c || p.z;
    case Cond::kGe: return p.n == p.v;
    case Cond::kLt: return p.n != p.v;
    case Cond::kGt: return !p.z && p.n == p.v;
    case Cond::kLe: return p.z || p.n != p.v;
    case Cond::kAl: return true;
  }
  return true;
}

void Core::execute(const Insn& insn) {
  const u64 insn_pc = pc_ - 4;
  switch (insn.op) {
    case Op::kNop:
      return;
    case Op::kUdf:
      raise_sync(ExceptionClass::kUnknown, 0, 0, 0, false);
      return;

    case Op::kMovz:
      set_x(insn.rd, insn.imm << (insn.hw * 16));
      return;
    case Op::kMovk: {
      const unsigned sh = insn.hw * 16;
      const u64 mask = ~(u64{0xffff} << sh);
      set_x(insn.rd, (x(insn.rd) & mask) | (insn.imm << sh));
      return;
    }
    case Op::kMovn:
      set_x(insn.rd, ~(insn.imm << (insn.hw * 16)));
      return;

    case Op::kAddImm:
      set_x(insn.rd, reg_or_sp(insn.rn) + insn.imm);
      return;
    case Op::kSubImm:
      set_x(insn.rd, reg_or_sp(insn.rn) - insn.imm);
      return;
    case Op::kSubsImm: {
      const u64 a = x(insn.rn), b = insn.imm, r = a - b;
      set_flags_sub(a, b, r);
      set_x(insn.rd, r);
      return;
    }
    case Op::kAddReg:
      set_x(insn.rd, x(insn.rn) + x(insn.rm));
      return;
    case Op::kSubReg:
      set_x(insn.rd, x(insn.rn) - x(insn.rm));
      return;
    case Op::kSubsReg: {
      const u64 a = x(insn.rn), b = x(insn.rm), r = a - b;
      set_flags_sub(a, b, r);
      set_x(insn.rd, r);
      return;
    }
    case Op::kAndReg:
      set_x(insn.rd, x(insn.rn) & x(insn.rm));
      return;
    case Op::kOrrReg:
      set_x(insn.rd, x(insn.rn) | x(insn.rm));
      return;
    case Op::kEorReg:
      set_x(insn.rd, x(insn.rn) ^ x(insn.rm));
      return;
    case Op::kAndsReg: {
      const u64 r = x(insn.rn) & x(insn.rm);
      pstate_.n = r >> 63;
      pstate_.z = r == 0;
      pstate_.c = pstate_.v = false;
      set_x(insn.rd, r);
      return;
    }
    case Op::kLslImm:
      set_x(insn.rd, x(insn.rn) << insn.shift);
      return;

    case Op::kB:
      pc_ = insn_pc + insn.offset;
      return;
    case Op::kBl:
      set_x(arch::kLrIndex, insn_pc + 4);
      pc_ = insn_pc + insn.offset;
      return;
    case Op::kBCond:
      if (cond_holds(insn.cond)) pc_ = insn_pc + insn.offset;
      return;
    case Op::kCbz:
      if (x(insn.rt) == 0) pc_ = insn_pc + insn.offset;
      return;
    case Op::kCbnz:
      if (x(insn.rt) != 0) pc_ = insn_pc + insn.offset;
      return;
    case Op::kBr:
      pc_ = x(insn.rn);
      return;
    case Op::kBlr:
      set_x(arch::kLrIndex, insn_pc + 4);
      pc_ = x(insn.rn);
      return;
    case Op::kRet:
      pc_ = x(insn.rn);
      return;

    case Op::kLdrImm:
    case Op::kStrImm:
    case Op::kLdrReg:
    case Op::kStrReg:
    case Op::kLdtr:
    case Op::kSttr:
      exec_ldst(insn);
      return;

    case Op::kMsrReg:
    case Op::kMrs:
    case Op::kMsrImm:
    case Op::kSys:
      exec_system(insn);
      return;
    case Op::kIsb:
      pending_insn_cycles_ += plat_.isb;
      return;
    case Op::kDsb:
    case Op::kDmb:
      pending_insn_cycles_ += plat_.dsb;
      return;

    case Op::kSvc:
      pending_elr_ = pc_;  // return to the instruction after SVC
      raise_sync(ExceptionClass::kSvc64, static_cast<u32>(insn.imm), 0, 0,
                 false);
      return;
    case Op::kHvc:
      if (pstate_.el == ExceptionLevel::kEl0) {
        pending_elr_ = insn_pc;
        raise_sync(ExceptionClass::kUnknown, 0, 0, 0, false);
        return;
      }
      pending_elr_ = pc_;
      raise_sync(ExceptionClass::kHvc64, static_cast<u32>(insn.imm), 0, 0,
                 false);
      return;
    case Op::kSmc:
      pending_elr_ = pc_;
      raise_sync(ExceptionClass::kSmc64, static_cast<u32>(insn.imm), 0, 0,
                 false);
      return;
    case Op::kBrk:
      pending_elr_ = insn_pc;
      raise_sync(ExceptionClass::kBrk64, static_cast<u32>(insn.imm), 0, 0,
                 false);
      return;
    case Op::kEret: {
      if (pstate_.el == ExceptionLevel::kEl0) {
        raise_sync(ExceptionClass::kUnknown, 0, 0, 0, false);
        return;
      }
      eret_from(pstate_.el);
      return;
    }
  }
}

u64 Core::reg_or_sp(unsigned i) const {
  // In address-generation contexts, register 31 is SP, not XZR.
  if (i == 31) return sp_[static_cast<int>(pstate_.el)];
  return x_[i];
}

void Core::set_flags_sub(u64 a, u64 b, u64 r) {
  pstate_.n = r >> 63;
  pstate_.z = r == 0;
  pstate_.c = a >= b;
  pstate_.v = ((a ^ b) & (a ^ r)) >> 63;
}

void Core::exec_ldst(const Insn& insn) {
  u64 base = reg_or_sp(insn.rn);
  u64 va = base;
  if (insn.op == Op::kLdrReg || insn.op == Op::kStrReg) {
    va += x(insn.rm) << insn.shift;
  } else {
    va += static_cast<u64>(insn.offset);
  }

  const bool unpriv = insn.is_unprivileged_ldst();
  const auto type = insn.is_load() ? AccessType::kRead : AccessType::kWrite;
  const auto tr = translate(va, type, unpriv);
  if (!tr.ok) {
    raise_abort(tr, type, va);
    return;
  }

  pending_mem_cycles_ += plat_.mem_access;
  if (insn.is_load()) {
    u64 v = pm_.read(tr.pa, insn.size);
    if (insn.sign_ext) v = static_cast<u64>(sign_extend(v, insn.size * 8));
    set_x(insn.rt, v);
  } else {
    pm_.write(tr.pa, insn.size, x(insn.rt));
  }

  if (watchpoints_armed_) check_watchpoints(va, type == AccessType::kWrite);
}

void Core::check_watchpoints(VirtAddr va, bool is_write) {
  (void)is_write;
  if (pstate_.el != ExceptionLevel::kEl0) return;  // baseline watches EL0
  static constexpr SysReg kPairs[][2] = {
      {SysReg::kDbgwvr0El1, SysReg::kDbgwcr0El1},
      {SysReg::kDbgwvr1El1, SysReg::kDbgwcr1El1},
      {SysReg::kDbgwvr2El1, SysReg::kDbgwcr2El1},
      {SysReg::kDbgwvr3El1, SysReg::kDbgwcr3El1},
  };
  for (const auto& pair : kPairs) {
    const u64 wcr = sysreg(pair[1]);
    if (!(wcr & 1)) continue;
    // WCR.MASK [28:24]: watch a 2^mask-byte naturally aligned region.
    const unsigned mask = (wcr >> 24) & 0x1f;
    const u64 wvr = sysreg(pair[0]);
    if ((va >> mask) == (wvr >> mask)) {
      pending_elr_ = pc_ - 4;
      raise_sync(ExceptionClass::kBrk64, /*iss=*/0x22, va, 0, false);
      return;
    }
  }
}

Cycles Core::sysreg_write_cost(SysReg r) const {
  switch (r) {
    case SysReg::kHcrEl2: return plat_.sysreg_write_hcr;
    case SysReg::kVttbrEl2: return plat_.sysreg_write_vttbr;
    case SysReg::kTtbr0El1: return plat_.sysreg_write_ttbr0;
    case SysReg::kPorEl0: return plat_.sysreg_write_por;
    default:
      if (arch::is_watchpoint_reg(r)) return plat_.dbg_reg_write;
      return plat_.sysreg_write;
  }
}

void Core::exec_system(const Insn& insn) {
  // Every arm of this function either charges the account directly or
  // emits a trace event; both need the batched charges flushed first so
  // ledger order (and therefore trace timestamps) match the unbatched
  // engine exactly.
  flush_pending();
  const u64 hcr = sysreg(SysReg::kHcrEl2);
  const auto el = pstate_.el;
  const u64 insn_pc = pc_ - 4;

  if (insn.op == Op::kMsrImm) {
    if (insn.pstate == arch::kPStatePan) {
      if (el == ExceptionLevel::kEl0) {
        pending_elr_ = insn_pc;
        raise_sync(ExceptionClass::kUnknown, 0, 0, 0, false);
        return;
      }
      pstate_.pan = insn.imm & 1;
      account_.charge(CostKind::kSysreg, plat_.pan_toggle);
      pan_toggle_.add();
      obs::trace().pan_toggle(pstate_.pan);
      return;
    }
    if (insn.pstate == arch::kPStateDaifSet ||
        insn.pstate == arch::kPStateDaifClr) {
      if (el == ExceptionLevel::kEl0) {
        pending_elr_ = insn_pc;
        raise_sync(ExceptionClass::kUnknown, 0, 0, 0, false);
        return;
      }
      pstate_.irq_masked = insn.pstate == arch::kPStateDaifSet;
      account_.charge(CostKind::kSysreg, plat_.sysreg_write);
      return;
    }
    pending_elr_ = insn_pc;
    raise_sync(ExceptionClass::kUnknown, 0, 0, 0, false);
    return;
  }

  if (insn.op == Op::kSys) {
    // DC/IC/AT/TLBI space. TLBI is CRn == 8.
    if (el == ExceptionLevel::kEl0) {
      pending_elr_ = insn_pc;
      raise_sync(ExceptionClass::kUnknown, 0, 0, 0, false);
      return;
    }
    if (insn.sys.crn == 8) {
      if (el == ExceptionLevel::kEl1 && (hcr & arch::hcr::kTtlb)) {
        pending_elr_ = insn_pc;
        raise_sync(ExceptionClass::kMsrMrsTrap, insn.raw & 0x1ffffff, 0, 0,
                   false);
        return;
      }
      tlb_.invalidate_vmid(current_vmid());
      account_.charge(CostKind::kSysreg, plat_.dsb);
      return;
    }
    // DC/IC/AT: charge a barrier-ish cost; AT additionally updates PAR_EL1.
    if (insn.sys.crn == 7 && insn.sys.crm == 8) {
      const auto tr = translate(x(insn.rt), AccessType::kRead, false);
      set_sysreg(SysReg::kParEl1, tr.ok ? (tr.pa & kAddrMask) : 1);
    }
    account_.charge(CostKind::kSysreg, plat_.dsb);
    return;
  }

  // MSR/MRS register forms.
  const bool is_read = insn.op == Op::kMrs;
  if (!insn.sysreg) {
    pending_elr_ = insn_pc;
    raise_sync(ExceptionClass::kUnknown, 0, 0, 0, false);
    return;
  }
  const SysReg r = *insn.sysreg;
  const auto& info = arch::sysreg_info(r);

  // EL0 may only touch min_el==0 registers.
  if (static_cast<u8>(el) < info.min_el) {
    pending_elr_ = insn_pc;
    if (el == ExceptionLevel::kEl1 && is_el2_reg(r)) {
      // Nested-virtualization style trap: EL2-register access from a guest
      // kernel routes to the hypervisor (the Lowvisor emulates it).
      raise_sync(ExceptionClass::kMsrMrsTrap, insn.raw & 0x1ffffff, 0, 0,
                 false);
    } else {
      raise_sync(ExceptionClass::kUnknown, 0, 0, 0, false);
    }
    return;
  }

  // HCR_EL2.TVM / TRVM: trap stage-1 control accesses from EL1 to EL2.
  if (el == ExceptionLevel::kEl1 && arch::is_stage1_control_reg(r)) {
    const bool trap = is_read ? (hcr & arch::hcr::kTrvm)
                              : (hcr & arch::hcr::kTvm);
    if (trap) {
      pending_elr_ = insn_pc;
      raise_sync(ExceptionClass::kMsrMrsTrap, insn.raw & 0x1ffffff, 0, 0,
                 false);
      return;
    }
  }

  if (is_read) {
    u64 v;
    if (arch::is_pmu_reg(r)) {
      // Live PMU value: the entry flush above already committed the open
      // counting interval, so a PMCCNTR read here is cycle-exact.
      v = pmu_read(r);
    } else {
      switch (r) {
        case SysReg::kNzcv: v = pstate_.to_spsr() & (u64{0xf} << 28); break;
        case SysReg::kDaif: v = u64{pstate_.irq_masked} << 7; break;
        default: v = sysreg(r); break;
      }
    }
    set_x(insn.rt, v);
    account_.charge(CostKind::kSysreg, plat_.sysreg_read);
    return;
  }

  const u64 v = x(insn.rt);
  switch (r) {
    case SysReg::kNzcv:
      pstate_.n = (v >> 31) & 1;
      pstate_.z = (v >> 30) & 1;
      pstate_.c = (v >> 29) & 1;
      pstate_.v = (v >> 28) & 1;
      break;
    case SysReg::kDaif:
      pstate_.irq_masked = (v >> 7) & 1;
      break;
    default:
      set_sysreg(r, v);
      if (r == SysReg::kTtbr0El1) {
        // The architectural signature of a LightZone domain switch: a bare
        // TTBR0 update with no TLB maintenance (§4.1.2). Gate-driven
        // switches funnel through this same MSR, so the impl-defined PMU
        // event counts both flavours.
        ttbr0_switch_.add();
        obs::trace().ttbr_switch(mem::ttbr_asid(v), v);
        if (pmu_active_) pmu_event(arch::pmu::kEvtLzDomainSwitch, el);
      }
      break;
  }
  account_.charge(CostKind::kSysreg, sysreg_write_cost(r));
}

Core::DecodedPage* Core::dpage_slot(PhysAddr ppage) {
  auto& slot = dpages_[page_index(ppage) & (kDecodedPages - 1)];
  if (!slot) slot = std::make_unique<DecodedPage>();
  DecodedPage& dp = *slot;
  if (dp.ppage != ppage) {
    // Conflict (or first use): retarget this slot only — no clear-all.
    dp.ppage = ppage;
    dp.host = pm_.page_ptr(ppage);
    dp.filled.fill(false);
  }
  return &dp;
}

const Insn& Core::decode_at(PhysAddr pa) {
  const PhysAddr ppage = page_floor(pa);
  DecodedPage* dp = cur_dpage_;
  if (dp == nullptr || dp->ppage != ppage) {
    dp = dpage_slot(ppage);
    cur_dpage_ = dp;  // slots are never freed, so this pointer stays valid
  }
  const u64 off = page_offset(pa);
  LZ_CHECK(off + 4 <= kPageSize);
  // Re-read the live word every fetch: self-modifying code re-decodes just
  // as the old value-keyed cache did, because a changed word never matches
  // the slot's remembered encoding.
  u32 word;
  std::memcpy(&word, dp->host + off, 4);
  const unsigned widx = static_cast<unsigned>(off >> 2);
  if (!dp->filled[widx] || dp->words[widx] != word) {
    dp->insns[widx] = arch::decode(word);
    dp->words[widx] = word;
    dp->filled[widx] = true;
    ++decode_count_;
  }
  return dp->insns[widx];
}

Core::MemResult Core::mem_read(VirtAddr va, u8 size) {
  MemResult r;
  const auto tr = translate(va, AccessType::kRead, false);
  if (!tr.ok) {
    pending_elr_ = pc_;
    raise_abort(tr, AccessType::kRead, va);
    return r;
  }
  account_.charge(CostKind::kMem, plat_.mem_access);
  r.ok = true;
  r.pa = tr.pa;
  r.value = pm_.read(tr.pa, size);
  return r;
}

Core::MemResult Core::mem_write(VirtAddr va, u8 size, u64 value) {
  MemResult r;
  const auto tr = translate(va, AccessType::kWrite, false);
  if (!tr.ok) {
    pending_elr_ = pc_;
    raise_abort(tr, AccessType::kWrite, va);
    return r;
  }
  account_.charge(CostKind::kMem, plat_.mem_access);
  pm_.write(tr.pa, size, value);
  r.ok = true;
  r.pa = tr.pa;
  return r;
}

}  // namespace lz::sim
