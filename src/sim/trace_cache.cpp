// Superblock trace tier: build, dispatch and invalidation (DESIGN.md §16).
//
// Accounting exactness argument, in one place. A trace only runs while its
// fetch memo is live (Core::memo_live, the L0 predicate): the micro-TLB
// slot its fetch translation was found in still carries the stamp it had
// then, that entry matches the lookup under the current ASID and VMID, and
// EL and PAN are unchanged. A slot's stamp moves on *every* kill of that
// slot (each invalidate flavour that removes it, alias evictions, random
// replacement by a refill or an L2->L1 promotion), so a live stamp implies
// the entry is still resident in the micro-TLB, and a matching key that the
// lookup would return it (a level holds at most one entry per key) — which
// means the interpreter's per-instruction fetch would have been either an
// L0 hit or an L1 lookup hit, and both are counted as `l1_hits` at zero
// cycle cost. Pre-summing `pending_l0_hits_ += n`, `pending_insn_ += n`
// and `pending_insn_cycles_ += t.cycles` at block entry is therefore
// byte-identical to stepping the block, and data accesses go through the
// very same translate()/PhysMem path the interpreter uses. The tag can
// only die mid-block in a load/store's refill or a system instruction,
// and either ends the block right after itself when it did, so the premise
// holds for every fetch the block pre-sums. A stopping op rolls the
// unexecuted remainder back (trace_unretire_after), leaving exactly ops
// [0, i] counted — the interpreter, too, counts an instruction as retired
// before execute() runs, faulting or not. A taken side exit (a conditional
// branch whose target is not the block start) is such a stopping op: the
// branch retires, the ops after it are rolled back and pc_ takes the
// target. A system instruction (kSys) rolls back *before* calling
// exec_system, whose entry flush then charges exactly what the
// interpreter's would, and re-adds the remainder only if the block goes on
// (trace_sys).
//
// Re-tagging keeps this exact. A stale trace takes the memo of the live L0
// fetch slot of its page only when that slot passes the same predicate
// (so the next fetch would be a zero-cost micro-TLB hit) and maps the
// trace's own frame (so the words it re-compares and runs are the ones the
// interpreter would fetch). The slot's stamp, entry and EL/PAN become the
// trace's: nothing a trace lowered depends on them, the ops that do
// (loads, stores, system instructions) read them live.
#include "sim/trace_cache.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "arch/decode.h"
#include "obs/counters.h"
#include "sim/core.h"
#include "support/bits.h"

namespace lz::sim {

using arch::ExceptionClass;
using arch::Insn;
using arch::Op;

namespace {

constexpr bool is_terminal(TraceOpKind k) { return k >= TraceOpKind::kB; }

// Lowers one decoded instruction into a trace micro-op, accumulating the
// platform kInsn cycles (base cost plus barrier extras) into `cyc`.
// System instructions (MSR/MRS/MSR-imm/SYS) lower to kSys, which runs the
// interpreter's exec_system; build_trace stores their decoded Insn.
// A conditional branch whose target is not `start_va` lowers to a side
// exit; one back to `start_va` stays terminal so the loop it closes chains.
// Returns false for everything that must stay on the interpreter slow
// path: exception generators, ERET, unprivileged LDTR/STTR, and
// unmodelled encodings.
bool lower(const arch::Platform& plat, const Insn& insn, u64 va, u64 start_va,
           TraceOp* out, u32* cyc) {
  TraceOp op;
  u32 c = static_cast<u32>(plat.insn_base);
  // ALU writes to register 31 are discarded by set_x(); when the op sets
  // no flags it is a pure no-op, so lower it as one (reads of operand
  // registers have no side effects).
  const bool dead_rd = insn.rd == 31;
  switch (insn.op) {
    case Op::kNop:
      break;
    case Op::kIsb:
      c += static_cast<u32>(plat.isb);
      break;
    case Op::kDsb:
    case Op::kDmb:
      c += static_cast<u32>(plat.dsb);
      break;

    case Op::kMovz:
      if (!dead_rd) {
        op.kind = TraceOpKind::kMovPre;
        op.rd = insn.rd;
        op.imm = insn.imm << (insn.hw * 16);
      }
      break;
    case Op::kMovn:
      if (!dead_rd) {
        op.kind = TraceOpKind::kMovPre;
        op.rd = insn.rd;
        op.imm = ~(insn.imm << (insn.hw * 16));
      }
      break;
    case Op::kMovk:
      if (!dead_rd) {
        const unsigned sh = insn.hw * 16;
        op.kind = TraceOpKind::kMovk;
        op.rd = insn.rd;
        op.imm = ~(u64{0xffff} << sh);
        op.aux = insn.imm << sh;
      }
      break;

    case Op::kAddImm:
    case Op::kSubImm:
      if (!dead_rd) {
        op.kind = insn.op == Op::kAddImm ? TraceOpKind::kAddImm
                                         : TraceOpKind::kSubImm;
        op.rd = insn.rd;
        op.rn = insn.rn;
        op.imm = insn.imm;
      }
      break;
    case Op::kSubsImm:
      op.kind = TraceOpKind::kSubsImm;
      op.rd = insn.rd;
      op.rn = insn.rn;
      op.imm = insn.imm;
      break;
    case Op::kAddReg:
    case Op::kSubReg:
    case Op::kAndReg:
    case Op::kOrrReg:
    case Op::kEorReg:
      if (!dead_rd) {
        switch (insn.op) {
          case Op::kAddReg: op.kind = TraceOpKind::kAddReg; break;
          case Op::kSubReg: op.kind = TraceOpKind::kSubReg; break;
          case Op::kAndReg: op.kind = TraceOpKind::kAndReg; break;
          case Op::kOrrReg: op.kind = TraceOpKind::kOrrReg; break;
          default: op.kind = TraceOpKind::kEorReg; break;
        }
        op.rd = insn.rd;
        op.rn = insn.rn;
        op.rm = insn.rm;
      }
      break;
    case Op::kSubsReg:
    case Op::kAndsReg:
      op.kind = insn.op == Op::kSubsReg ? TraceOpKind::kSubsReg
                                        : TraceOpKind::kAndsReg;
      op.rd = insn.rd;
      op.rn = insn.rn;
      op.rm = insn.rm;
      break;
    case Op::kLslImm:
      if (!dead_rd) {
        op.kind = TraceOpKind::kLslImm;
        op.rd = insn.rd;
        op.rn = insn.rn;
        op.shift = insn.shift;
      }
      break;

    case Op::kB:
      op.kind = TraceOpKind::kB;
      op.aux = va + static_cast<u64>(insn.offset);
      break;
    case Op::kBl:
      op.kind = TraceOpKind::kBl;
      op.imm = va + 4;  // link value
      op.aux = va + static_cast<u64>(insn.offset);
      break;
    case Op::kBCond:
    case Op::kCbz:
    case Op::kCbnz: {
      op.aux = va + static_cast<u64>(insn.offset);
      op.imm = va + 4;  // fallthrough
      const bool exit = op.aux != start_va;
      if (insn.op == Op::kBCond) {
        op.kind = exit ? TraceOpKind::kBCondX : TraceOpKind::kBCond;
        op.cond = insn.cond;
      } else {
        op.kind = insn.op == Op::kCbz
                      ? (exit ? TraceOpKind::kCbzX : TraceOpKind::kCbz)
                      : (exit ? TraceOpKind::kCbnzX : TraceOpKind::kCbnz);
        op.rm = insn.rt;
      }
      break;
    }
    case Op::kBr:
      op.kind = TraceOpKind::kBr;
      op.rn = insn.rn;
      break;
    case Op::kBlr:
      op.kind = TraceOpKind::kBlr;
      op.rn = insn.rn;
      op.imm = va + 4;
      break;
    case Op::kRet:
      op.kind = TraceOpKind::kRet;
      op.rn = insn.rn;
      break;

    case Op::kLdrImm:
    case Op::kStrImm:
    case Op::kLdrReg:
    case Op::kStrReg:
      op.kind = TraceOpKind::kLdSt;
      op.rd = insn.rt;  // data register
      op.rn = insn.rn;
      op.size = insn.size;
      if (insn.is_store()) op.flags |= kTrStore;
      if (insn.sign_ext) op.flags |= kTrSignExt;
      if (insn.op == Op::kLdrReg || insn.op == Op::kStrReg) {
        op.flags |= kTrRegOff;
        op.rm = insn.rm;
        op.shift = insn.shift;
      } else {
        op.imm = static_cast<u64>(insn.offset);
      }
      break;

    case Op::kMsrReg:
    case Op::kMrs:
    case Op::kMsrImm:
    case Op::kSys:
      op.kind = TraceOpKind::kSys;
      break;

    default:
      return false;  // exception-generating / unprivileged / unmodelled
  }
  *cyc += c - static_cast<u32>(plat.insn_base);
  *cyc += static_cast<u32>(plat.insn_base);
  op.cyc = *cyc;
  *out = op;
  return true;
}

}  // namespace

bool trace_tier_default() {
  static const bool on = [] {
    const char* v = std::getenv("LZ_TRACE_TIER");
    return !(v != nullptr && v[0] == '0' && v[1] == '\0');
  }();
  return on;
}

TracePtr make_trace(unsigned cap, unsigned sys_cap) {
  const std::size_t bytes = sizeof(Trace) +
                            (std::size_t{cap} + 1) * sizeof(TraceOp) +
                            std::size_t{sys_cap} * sizeof(Insn) +
                            std::size_t{cap} * sizeof(u32);
  auto* t = new (::operator new(bytes)) Trace;
  t->cap = static_cast<u16>(cap);
  t->sys_cap = static_cast<u16>(sys_cap);
  std::uninitialized_default_construct_n(t->ops(), cap + 1);
  std::uninitialized_default_construct_n(t->sys(), sys_cap);
  return TracePtr(t);
}

void TraceDeleter::operator()(Trace* t) const noexcept {
  t->~Trace();  // TraceOp, Insn and u32 storage is trivially destructible
  ::operator delete(t);
}

// Builds a trace starting at pc_ from the L0 fetch slot's memoized
// translation — a live slot hands over its memo (the physical page with
// its stamp, key and EL/PAN) with zero simulated side effects. If the slot
// is cold or stale the build is skipped; step() will fetch (and install
// it) first. A block that cannot form a trace (fewer than two lowerable
// ops) backs the slot off and allocates nothing. Returns the built trace,
// or nullptr.
Trace* Core::build_trace(TraceCache::Slot& s) {
  const u64 vpage = page_index(pc_);
  const TlbMemo& l0 = l0_fetch_[l0_index(vpage, kL0FetchSlots)].memo;
  if (!memo_live(l0, vpage)) return nullptr;
  const u8* host = pm_.page_ptr(l0.ppage);
  const u32 start_off = static_cast<u32>(page_offset(pc_));
  // Decode from a private copy of each word (not through the decoded-page
  // cache): ops and words must come from the same read even if another
  // core races a code write, and decode_count() keeps meaning exactly
  // "decoded-page cache misses". Lowering goes to the scratch first, so
  // the slot's block is only touched (or sized) once the build has
  // succeeded.
  auto& [ops, sys, words] = tcache_.scratch();
  unsigned n = 0;
  unsigned sys_n = 0;
  u32 cyc = 0;
  while (n < Trace::kMaxOps) {
    const u64 off = start_off + u64{n} * 4;
    if (off + 4 > kPageSize) break;  // traces never cross their code page
    u32 word;
    std::memcpy(&word, host + off, 4);
    const Insn insn = arch::decode(word);
    TraceOp op;
    if (!lower(plat_, insn, pc_ + u64{n} * 4, pc_, &op, &cyc)) break;
    words[n] = word;
    if (op.kind == TraceOpKind::kSys) {
      op.aux = sys_n;
      sys[sys_n++] = insn;
    }
    ops[n] = op;
    ++n;
    if (is_terminal(op.kind)) break;
  }
  // A one-op trace costs more than it saves, unless that op is a branch:
  // then the trace stands in for a whole step() (a lone RET ends the gate).
  if (n == 0 || (n == 1 && !is_terminal(ops[0].kind))) {
    s.back_off();
    return nullptr;
  }
  if (!s.trace || s.trace->cap < n || s.trace->sys_cap < sys_n) {
    s.trace = make_trace(n, sys_n);
  }
  Trace& t = *s.trace;
  std::copy_n(ops.data(), n, t.ops());
  t.ops()[n] = TraceOp{};
  t.ops()[n].kind = TraceOpKind::kEnd;  // dispatch sentinel (fall-off traces)
  std::copy_n(sys.data(), sys_n, t.sys());
  std::copy_n(words.data(), n, t.words());
  t.start_va = pc_;
  t.fetch = l0;
  t.n = static_cast<u16>(n);
  t.start_off = start_off;
  t.cycles = cyc;
  t.host = host;
  t.valid = true;
  if (tcount_.built.value() == 0) link_trace_counters();
  tcount_.built.add();
  return &t;
}

// Lists the trace counters as host counters once the tier has work to
// show, so a run that never builds a trace reports no `sim.trace.*` names.
void Core::link_trace_counters() {
  tcount_.built.link("sim.trace.built", /*host=*/true);
  tcount_.executed.link("sim.trace.executed", true);
  tcount_.insns.link("sim.trace.insns", true);
  tcount_.invalidated_smc.link("sim.trace.invalidated_smc", true);
  tcount_.invalidated_gen.link("sim.trace.invalidated_gen", true);
}

// Conditions the interpreter checks per instruction that a block cannot:
// the on_insn hook and armed watchpoints want per-insn work, a deliverable
// IRQ must be taken before the next instruction. (Only a kSys op can change
// them mid-block, and it re-checks them: inject_irq() is only called
// between run() steps or from the on_insn hook, which disables the tier.)
bool Core::needs_step() const {
  return on_insn || watchpoints_armed_ || (irq_pending_ && !pstate_.irq_masked);
}

// Re-tags a trace whose memo went stale when the live L0 fetch slot of its
// page maps the same frame: the code page's micro-TLB slot was refilled, or
// the lookup now hits another entry for the page (another ASID's), not
// other code. See the exactness argument at the top of this file.
bool Core::trace_retag(Trace& t) {
  const u64 vpage = page_index(t.start_va);
  const TlbMemo& l0 = l0_fetch_[l0_index(vpage, kL0FetchSlots)].memo;
  if (!memo_live(l0, vpage) || l0.ppage != t.fetch.ppage) return false;
  t.fetch = l0;
  return true;
}

u64 Core::try_trace(u64 remaining) {
  if (needs_step()) return 0;
  TraceCache::Slot& s = tcache_.slot(pc_);
  Trace* t = s.trace.get();
  if (t != nullptr && t->valid && t->start_va == pc_) {
    const bool live = trace_tags_live(*t);
    if (!live && s.defer != 0) {
      --s.defer;  // it staled itself lately (trace_sys): interpret this visit
      return 0;
    }
    if (!live && !trace_retag(*t)) {
      // The translation may have changed under the trace (TLBI, remote DVM
      // shootdown, a switch to another ASID or VMID over non-global code,
      // EL/PAN change) and no live fetch slot vouches for the frame:
      // discard and back off; a later visit rebuilds under the live context.
      t->valid = false;
      tcount_.invalidated_gen.add();
      s.back_off();
    } else if (std::memcmp(t->words(), t->host + t->start_off,
                           std::size_t{t->n} * 4) != 0) {
      // Self-modifying code: the live words no longer match what the trace
      // was lowered from. The interpreter re-reads and re-decodes.
      t->valid = false;
      tcount_.invalidated_smc.add();
      s.back_off();
    } else {
      if (live) s.backoff = s.defer = 0;  // stable: rebuild eagerly later
      return dispatch_trace(*t, remaining);
    }
  }
  if (s.hot_va != pc_) {
    s.hot_va = pc_;  // first visit: mark; build on the second
    return 0;
  }
  if (s.defer != 0) {
    --s.defer;  // invalidation backoff: let the interpreter run this block
    return 0;
  }
  t = build_trace(s);
  return t != nullptr ? dispatch_trace(*t, remaining) : 0;
}

// The per-dispatch conditions under which a valid trace still must not run
// as a block; 0 hands the instruction to the interpreter.
u64 Core::dispatch_trace(Trace& t, u64 remaining) {
  if (u64{t.n} > remaining) return 0;  // near max_steps: step exactly
  if (stop_pc_) {
    // The run stops exactly at the stop PC: a block may start there (the
    // run loop has already checked pc_) but never run through it.
    const u64 d = *stop_pc_ - t.start_va;
    if (d != 0 && d < u64{t.n} * 4) return 0;
  }
  return exec_trace(t, remaining);
}

u64 Core::exec_trace(Trace& t, u64 remaining) {
  // Pre-sum the whole block's accounting: base cycles, retired count, and
  // one micro-TLB fetch-hit credit per instruction (see the exactness
  // argument at the top of this file). A load/store or system instruction
  // that stops the block mid-way rolls the unexecuted remainder back.
  //
  // Block chaining: a terminal branch that lands back on this trace's own
  // start re-enters the op loop directly — no slot lookup, no live-word
  // memcmp, no tag check. The tags cannot have moved inside the block: the
  // only ops that can move them (a load/store's refill or own-page store,
  // a system instruction) end the block right after themselves when they
  // did, IRQ injection needs C++ to run, and cross-core writes to the code
  // page are caught by the entry memcmp of whichever block dispatches
  // next — the own-page store check covers this block.
  // Threaded-code dispatch (GNU labels-as-values): each handler ends in its
  // own indirect jump to the next op's handler, so the branch predictor
  // learns per-handler successor patterns instead of sharing one switch
  // site. A kEnd sentinel after the last op of fall-off traces removes the
  // per-op bounds check; terminal branch kinds jump straight to `done`.
  nested_faults_ = 0;  // the block's (memoized) fetches all succeed
  static const void* const kJump[] = {
      &&h_nop,    &&h_movpre, &&h_movk,   &&h_addimm,  &&h_subimm,
      &&h_subsimm, &&h_addreg, &&h_subreg, &&h_subsreg, &&h_andreg,
      &&h_orrreg, &&h_eorreg, &&h_andsreg, &&h_lslimm,  &&h_ldst,
      &&h_sys,    &&h_bcondx, &&h_cbzx,   &&h_cbnzx,   &&h_b,
      &&h_bl,     &&h_bcond,  &&h_cbz,    &&h_cbnz,    &&h_br,
      &&h_blr,    &&h_ret,    &&h_end};
  static_assert(sizeof(kJump) / sizeof(kJump[0]) ==
                static_cast<std::size_t>(TraceOpKind::kEnd) + 1);
#define LZ_TR_NEXT() \
  do {               \
    ++op;            \
    goto* kJump[static_cast<unsigned>(op->kind)]; \
  } while (0)
  const TraceOp* const ops = t.ops();
  const unsigned n = t.n;
  u64* const xr = x_.data();
  const u64 start_va = t.start_va;
  const u64 fallthrough_pc = start_va + u64{n} * 4;
  const u64 chain_limit = remaining - n;  // entry guarantees n <= remaining
  u64 retired = 0;    // completed prior iterations (chaining)
  u64 iters = 0;      // block executions, added to tcount_ on exit
  // Iterations whose accounting pre-sums are not yet materialized into the
  // pending_* scalars. Deferral is exact because no flush boundary can be
  // crossed while it is nonzero: the only C++ entry points inside a block
  // are trace_ldst and trace_sys, and their handlers materialize first.
  u64 lazy_iters = 0;
  const auto materialize = [&] {
    if (lazy_iters == 0) return;
    pending_insn_ += lazy_iters * n;
    pending_insn_cycles_ += lazy_iters * u64{t.cycles};
    pending_l0_hits_ += lazy_iters * n;
    lazy_iters = 0;
  };
  const TraceOp* op;
  unsigned i;  // the op that stopped the block
  u64 next_pc;

enter_block:
  ++iters;
  ++lazy_iters;
  next_pc = fallthrough_pc;  // fall-off-the-end default
  op = ops;
  goto* kJump[static_cast<unsigned>(op->kind)];

h_nop:
  LZ_TR_NEXT();
h_movpre:
  xr[op->rd] = op->imm;
  LZ_TR_NEXT();
h_movk:
  xr[op->rd] = (xr[op->rd] & op->imm) | op->aux;
  LZ_TR_NEXT();
h_addimm:
  xr[op->rd] = reg_or_sp(op->rn) + op->imm;
  LZ_TR_NEXT();
h_subimm:
  xr[op->rd] = reg_or_sp(op->rn) - op->imm;
  LZ_TR_NEXT();
h_subsimm: {
  const u64 a = xr[op->rn], b = op->imm, r = a - b;
  set_flags_sub(a, b, r);
  set_x(op->rd, r);
  LZ_TR_NEXT();
}
h_addreg:
  xr[op->rd] = xr[op->rn] + xr[op->rm];
  LZ_TR_NEXT();
h_subreg:
  xr[op->rd] = xr[op->rn] - xr[op->rm];
  LZ_TR_NEXT();
h_subsreg: {
  const u64 a = xr[op->rn], b = xr[op->rm], r = a - b;
  set_flags_sub(a, b, r);
  set_x(op->rd, r);
  LZ_TR_NEXT();
}
h_andreg:
  xr[op->rd] = xr[op->rn] & xr[op->rm];
  LZ_TR_NEXT();
h_orrreg:
  xr[op->rd] = xr[op->rn] | xr[op->rm];
  LZ_TR_NEXT();
h_eorreg:
  xr[op->rd] = xr[op->rn] ^ xr[op->rm];
  LZ_TR_NEXT();
h_andsreg: {
  const u64 r = xr[op->rn] & xr[op->rm];
  pstate_.n = r >> 63;
  pstate_.z = r == 0;
  pstate_.c = pstate_.v = false;
  set_x(op->rd, r);
  LZ_TR_NEXT();
}
h_lslimm:
  xr[op->rd] = xr[op->rn] << op->shift;
  LZ_TR_NEXT();
// Loads/stores and system instructions run C++ that can reach a flush
// boundary or move the tags, so their handlers materialize first. On a stop
// the op may have taken a trap whose handler ran nested code that rebuilt
// this very slot (possibly into a new block): nothing after reads the trace.
h_ldst:
  materialize();
  i = static_cast<unsigned>(op - ops);
  if (trace_ldst(t, *op, i)) LZ_TR_NEXT();
  goto stopped;
h_sys:
  materialize();
  i = static_cast<unsigned>(op - ops);
  if (trace_sys(t, *op, i)) LZ_TR_NEXT();
  goto stopped;
h_bcondx:
  if (!cond_holds(op->cond)) LZ_TR_NEXT();
  goto side_exit;
h_cbzx:
  if (xr[op->rm] != 0) LZ_TR_NEXT();
  goto side_exit;
h_cbnzx:
  if (xr[op->rm] == 0) LZ_TR_NEXT();
  goto side_exit;
h_b:
  next_pc = op->aux;
  goto h_end;
h_bl:
  xr[arch::kLrIndex] = op->imm;
  next_pc = op->aux;
  goto h_end;
h_bcond:
  next_pc = cond_holds(op->cond) ? op->aux : op->imm;
  goto h_end;
h_cbz:
  next_pc = xr[op->rm] == 0 ? op->aux : op->imm;
  goto h_end;
h_cbnz:
  next_pc = xr[op->rm] != 0 ? op->aux : op->imm;
  goto h_end;
h_blr:
  // Link before reading the target: BLR x30 jumps to the new link value,
  // matching execute().
  xr[arch::kLrIndex] = op->imm;
  next_pc = xr[op->rn];
  goto h_end;
h_br:
h_ret:
  next_pc = xr[op->rn];
  goto h_end;
h_end:
  retired += n;
  pc_ = next_pc;
  if (prof_on_) {
    materialize();
    trace_take_samples(t, n - 1);
  }
  if (next_pc == start_va && retired <= chain_limit) goto enter_block;
  materialize();
  tcount_.executed.add(iters);
  tcount_.insns.add(retired);
  return retired;

side_exit:  // taken: the branch retires, the ops after it do not
  materialize();
  i = static_cast<unsigned>(op - ops);
  if (prof_on_) trace_take_samples(t, i);
  trace_unretire_after(t, *op, i);
  pc_ = op->aux;
  goto stopped;

stopped:  // ops [0, i] retired, the rest rolled back; pc_ set by the op
  tcount_.executed.add(iters);
  tcount_.insns.add(retired + i + 1);
  return retired + i + 1;
#undef LZ_TR_NEXT
}

// Runs op `i`, a system instruction, through the interpreter's own
// exec_system and says whether the block may go on. The ops after it are
// rolled out of the pendings first, so exec_system's entry flush charges
// exactly ops [0, i] in the interpreter's ledger order; they are re-added
// only if everything the block's dispatch required still holds. Otherwise
// the block exits as after an own-page store: pc_ is wherever exec_system
// left it, and the run loop takes it from there.
bool Core::trace_sys(Trace& t, const TraceOp& op, unsigned i) {
  if (prof_on_) trace_take_samples(t, i);
  const u64 insn_pc = t.start_va + u64{i} * 4;
  trace_unretire_after(t, op, i);
  pc_ = insn_pc + 4;
  pending_elr_ = insn_pc;
  // Copied by value: a trap taken inside exec_system can run nested code
  // that rebuilds this very slot.
  const Insn insn = t.sys()[op.aux];
  const u64 excp_before = excp_entry_.value();
  exec_system(insn);
  // A trap may have rebuilt or freed the trace: test for one before `t`.
  if (excp_entry_.value() != excp_before || pc_ != insn_pc + 4 ||
      needs_step() || !t.valid) {
    return false;
  }
  if (!trace_tags_live(t)) {
    // The block's own system instruction staled its memo (a TLBI, or a
    // TTBR0 write to another ASID over non-global code). Back the slot
    // off: re-tagging it at every visit would pay a dispatch for the few
    // ops before this one.
    tcache_.slot(t.start_va).back_off();
    return false;
  }
  const u64 rest = u64{t.n} - i - 1;  // what trace_unretire_after took out
  pending_insn_ += rest;
  pending_l0_hits_ += rest;
  pending_insn_cycles_ += t.cycles - op.cyc;
  return true;
}

bool Core::trace_ldst(Trace& t, const TraceOp& op, unsigned i) {
  if (prof_on_) trace_take_samples(t, i);
  const u64 insn_pc = t.start_va + u64{i} * 4;
  u64 va = reg_or_sp(op.rn);
  if (op.flags & kTrRegOff) {
    va += x(op.rm) << op.shift;
  } else {
    va += op.imm;
  }
  const bool store = (op.flags & kTrStore) != 0;
  const auto type = store ? AccessType::kWrite : AccessType::kRead;
  const auto tr = translate(va, type, false);
  if (!tr.ok) {
    // The faulting instruction itself stays counted, exactly as the
    // interpreter counts an instruction before execute() runs.
    trace_unretire_after(t, op, i);
    pc_ = insn_pc + 4;
    pending_elr_ = insn_pc;
    raise_abort(tr, type, va);
    return false;
  }
  pending_mem_cycles_ += plat_.mem_access;
  if (!store) {
    u64 v = pm_.read(tr.pa, op.size);
    if (op.flags & kTrSignExt) {
      v = static_cast<u64>(sign_extend(v, op.size * 8));
    }
    set_x(op.rd, v);
  } else {
    pm_.write(tr.pa, op.size, x(op.rd));
    if (page_floor(tr.pa) == t.fetch.ppage) {
      // Store into the trace's own code page: the words after it may be
      // stale now, so the trace dies and the interpreter re-reads them.
      t.valid = false;
      tcount_.invalidated_smc.add();
      tcache_.slot(t.start_va).back_off();
    }
  }
  // The block goes on only while its code page's micro-TLB slot is
  // unkilled: a refill that replaced that slot took the fetch translation,
  // and then the fetches after this op are no longer provably free. The
  // interpreter fetches them and pays what the TLB charges, before any
  // later flush boundary can observe the difference.
  if (t.valid && tlb_.tag_live(t.fetch.slot)) return true;
  trace_unretire_after(t, op, i);
  pc_ = insn_pc + 4;
  return false;
}

// Op `i` of `t` is the last one the block retires: rolls the pre-summed
// accounting of the ops after it back out of the pendings. op.cyc is the
// cycle pre-sum through op i, so barrier extras on either side stay exact.
void Core::trace_unretire_after(const Trace& t, const TraceOp& op,
                                unsigned i) {
  const u64 rest = u64{t.n} - i - 1;
  pending_insn_ -= rest;
  pending_l0_hits_ -= rest;
  pending_insn_cycles_ -= t.cycles - op.cyc;
}

// Takes the profiler samples that fall at ops up to `i` of the running
// block, each at the op step() would take it at. Called with the block's
// pre-sums materialized, at each point where the block enters C++ anyway:
// before a load/store's translate, before a system op's exec_system, at a
// taken side exit and at the block's end. step() checks after charging an
// op's base cycles and before execute(), so op k's clock is the block's
// start clock plus ops[k - 1].cyc plus insn_base; a barrier's extra cycles
// (folded into its own cyc) count from the next op on. Only loads, stores
// and system ops charge beyond the pre-sums, and each is such a point, so
// the ledger now is the ledger at every op since the last one of them,
// which located the ops up to itself. The same ops change EL, PAN, VMID
// and ASID, so prof_take_samples reads the context of op k too.
void Core::trace_take_samples(Trace& t, unsigned i) {
  const TraceOp* const ops = t.ops();
  const Cycles start = account_.total() + pending_insn_cycles_ +
                       pending_mem_cycles_ - t.cycles + plat_.insn_base;
  const auto clock = [&](unsigned k) {
    return start + (k == 0 ? 0 : ops[k - 1].cyc);
  };
  if (clock(i) < prof_next_) return;
  unsigned k = i;  // the clock grows with k: back up to the first crossing
  while (k > 0 && ops[k - 1].kind != TraceOpKind::kLdSt &&
         ops[k - 1].kind != TraceOpKind::kSys && clock(k - 1) >= prof_next_) {
    --k;
  }
  for (; k <= i; ++k) {
    const Cycles now = clock(k);
    if (now >= prof_next_) prof_take_samples(now, t.start_va + u64{k} * 4);
  }
}

}  // namespace lz::sim
