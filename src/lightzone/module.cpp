#include "lightzone/module.h"

#include <algorithm>
#include <optional>
#include <span>

#include "obs/counters.h"
#include "obs/switch_probe.h"
#include "obs/trace.h"

namespace lz::core {

using arch::ExceptionClass;
using arch::ExceptionLevel;
using sim::CostKind;
using sim::SysReg;
using sim::TrapAction;
using sim::TrapInfo;

namespace {

// Registers moved by one direction of the nested EL1 context switch. The
// guest kernel and the LightZone process multiplex the *same* physical EL1
// register file, so each hop swaps the full EL1 context (but, unlike a
// conventional nested VM switch, not FP/SIMD, GIC or timer state — those
// are shared, §5.2.2).
constexpr std::size_t kNestedEl1Ctx = 20;
// Guest-kernel-module accesses served from the NEVE-style deferred page
// during one trap (instead of trapping to the Lowvisor each time).
constexpr std::size_t kDeferredAccesses = 6;

LzContext* ctx_of(kernel::Process& proc) {
  return dynamic_cast<LzContext*>(proc.extension());
}

// Unmap `va` from `tbl`, tolerating only "not mapped": a page may
// legitimately be absent from a sibling domain table, but any other unmap
// failure means a live translation could not be retired — callers must
// abort their transition rather than proceed with a stale alias.
Status unmap_if_mapped(mem::Stage1Table& tbl, VirtAddr va) {
  const Status s = tbl.unmap(va);
  if (s.is_ok() || s.errc() == Errc::kNotFound) return Status::ok();
  return s;
}

// Detach `va` from every live domain table of `ctx`; stops at the first
// failure other than "not mapped".
Status unmap_from_domains(LzContext& ctx, VirtAddr va) {
  for (auto& d : ctx.pgts) {
    if (d.in_use) LZ_RETURN_IF_ERROR(unmap_if_mapped(*d.tbl, va));
  }
  return Status::ok();
}

// Resident pages of [start, end) in ascending VA order, found with one
// pass over the resident pages: an lz_prot or region over a huge range
// costs what is resident in it, not what it spans.
std::vector<VirtAddr> resident_pages(const LzContext& ctx, VirtAddr start,
                                     VirtAddr end) {
  std::vector<VirtAddr> out;
  for (const auto& [vpage, page] : ctx.pages) {
    const VirtAddr va = vpage << kPageShift;
    if (va >= start && va < end) out.push_back(va);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool covered_by_region(const LzContext& ctx, VirtAddr va) {
  for (const auto& region : ctx.regions) {
    if (va >= region.start && va < region.end) return true;
  }
  return false;
}

// Unprotected memory: the identical (global) mapping every table holds,
// with user-mode permissions translated to kernel mode (UXN -> PXN).
mem::S1Attrs unprotected_attrs(const LzContext::LzPage& page,
                               const kernel::Vma& vma) {
  mem::S1Attrs a;
  a.user = false;
  a.read_only = !page.writable || !(vma.prot & kernel::kProtWrite);
  a.pxn = !page.executable;
  a.uxn = true;
  a.global = true;
  return a;
}

}  // namespace

// --- LzContext ---------------------------------------------------------------

LzContext::LzContext(LzModule& module, kernel::Process& proc,
                     const LzOptions& opts)
    : module_(module), host_(module.host()), proc_(proc), opts_(opts) {
  vmid = host_.alloc_vmid();
  stage2 = std::make_unique<mem::Stage2Table>(module.machine().mem(), vmid);
  gates.resize(opts_.max_gates);
}

// The VM's VMID goes back to the host; its TLB entries die at the
// allocator's next rollover if on_exit() did not already retire them.
LzContext::~LzContext() { host_.free_vmid(vmid); }

void LzContext::on_exit() {
  // No core has this VM entered, so after one VMID-scoped broadcast — it
  // covers every domain ASID, the global upper half and stage-2 alike — no
  // walker can cache a translation of it again, and every frame below goes
  // back after its invalidation.
  for (const auto& w : module_.world_) LZ_CHECK(w.active != this);
  auto& kern = module_.kern();
  module_.machine().tlbi_vmid_is(vmid);
  pgts.clear();  // table frames return through table_frame_ops
  upper.reset();
  for (const PhysAddr pa : code_pages) kern.free_frame(pa);
  for (const PhysAddr pa : ttbrtab_pages) kern.free_frame(pa);
  kern.free_frame(gatetab_pa);
  code_pages.clear();
  ttbrtab_pages.clear();
  gatetab_pa = 0;
  stage2.reset();
}

IntermAddr LzContext::ipa_of(PhysAddr real) {
  if (fake_phys_on()) {
    return fake.fake_of(page_floor(real)) | page_offset(real);
  }
  return real;
}

PhysAddr LzContext::pa_of(IntermAddr ipa) const {
  if (fake_phys_on()) {
    const auto real = fake.real_of(ipa);
    LZ_CHECK(real.has_value());
    return *real;
  }
  return ipa;
}

mem::FrameOps LzContext::table_frame_ops() {
  LzContext* cp = this;
  auto& kern = module_.kern();
  return mem::FrameOps{
      [cp, &kern] {
        // Table frames are kernel memory: stage-2 maps them read-only at
        // their fake address so the process can never edit its own
        // translations (§5.1.2), while the hardware walker can still
        // follow them.
        const PhysAddr pa = kern.alloc_frame();
        LZ_CHECK_OK(cp->stage2->map(cp->ipa_of(pa), pa,
                                    mem::S2Attrs{true, true, false, false}));
        return pa;
      },
      [cp, &kern](PhysAddr pa) {
        // Every table frame was stage-2-mapped at alloc, so the unmap can
        // only fail if the tables desynchronised — fail loudly, a silent
        // skip would leave the dead frame reachable read-only forever.
        LZ_CHECK_OK(cp->stage2->unmap(cp->ipa_of(pa)));
        kern.free_frame(pa);
      },
      fake_phys_on() ? &fake : nullptr};
}

u64 LzContext::isolation_table_pages() const {
  u64 total = stage2->table_pages();
  for (const auto& d : pgts) {
    if (d.tbl) total += d.tbl->table_pages();
  }
  if (upper) total += upper->table_pages();
  total += 1 /*gatetab*/ + ttbrtab_pages.size();
  return total;
}

// --- LzModule ----------------------------------------------------------------

LzModule::LzModule(hv::Host& host)
    : host_(host), world_(host.machine().num_cores()) {
  register_api_syscalls();
}

LzModule::LzModule(hv::Host& host, hv::GuestVm& vm)
    : host_(host), vm_(&vm), world_(host.machine().num_cores()) {
  register_api_syscalls();
}

void LzModule::register_api_syscalls() {
  auto& k = kern();
  k.register_syscall(lznr::kAlloc,
                     [this](kernel::Process& p, const kernel::SyscallArgs&)
                         -> u64 {
    auto* ctx = ctx_of(p);
    if (ctx == nullptr) return kernel::kEperm;
    const auto pgt = alloc_pgt(*ctx);
    return pgt.is_ok() ? static_cast<u64>(*pgt) : kernel::kEnomem;
  });
  k.register_syscall(lznr::kFree,
                     [this](kernel::Process& p,
                            const kernel::SyscallArgs& a) -> u64 {
    auto* ctx = ctx_of(p);
    if (ctx == nullptr) return kernel::kEperm;
    return free_pgt(*ctx, static_cast<int>(a.a[0])).is_ok() ? 0
                                                            : kernel::kEinval;
  });
  k.register_syscall(lznr::kProt,
                     [this](kernel::Process& p,
                            const kernel::SyscallArgs& a) -> u64 {
    auto* ctx = ctx_of(p);
    if (ctx == nullptr) return kernel::kEperm;
    return prot(*ctx, a.a[0], a.a[1], static_cast<int>(static_cast<i64>(a.a[2])),
                static_cast<u32>(a.a[3]))
                   .is_ok()
               ? 0
               : kernel::kEinval;
  });
  k.register_syscall(lznr::kMapGatePgt,
                     [this](kernel::Process& p,
                            const kernel::SyscallArgs& a) -> u64 {
    auto* ctx = ctx_of(p);
    if (ctx == nullptr) return kernel::kEperm;
    return map_gate_pgt(*ctx, static_cast<int>(a.a[0]),
                        static_cast<int>(a.a[1]))
                   .is_ok()
               ? 0
               : kernel::kEinval;
  });
  k.register_syscall(lznr::kSetGateEntry,
                     [this](kernel::Process& p,
                            const kernel::SyscallArgs& a) -> u64 {
    auto* ctx = ctx_of(p);
    if (ctx == nullptr) return kernel::kEperm;
    return set_gate_entry(*ctx, static_cast<int>(a.a[0]), a.a[1]).is_ok()
               ? 0
               : kernel::kEinval;
  });
}

LzModule::~LzModule() = default;

kernel::Kernel& LzModule::kern() {
  return nested() ? vm_->kern() : host_.kern();
}

u64 LzModule::lz_hcr(const LzContext& ctx) const {
  u64 hcr = arch::hcr::kVm | arch::hcr::kRw | arch::hcr::kTsc |
            arch::hcr::kTtlb | arch::hcr::kImo | arch::hcr::kFmo;
  if (!ctx.opts().allow_scalable) {
    // PAN-only processes may never touch stage-1 controls (§5.1.2); for
    // scalable processes TTBR0 updates must stay untrapped for the gate.
    hcr |= arch::hcr::kTvm | arch::hcr::kTrvm;
  }
  return hcr;
}

LzContext& LzModule::enter(kernel::Process& proc, const LzOptions& opts) {
  LZ_CHECK(proc.extension() == nullptr);
  auto owned = std::make_unique<LzContext>(*this, proc, opts);
  LzContext& ctx = *owned;
  proc.set_extension(std::move(owned));

  build_upper_half(ctx);

  // pgt 0 is the default domain table every process starts in.
  const auto pgt0 = alloc_pgt(ctx);
  LZ_CHECK(pgt0.is_ok() && *pgt0 == 0);

  if (!opts.allow_scalable) duplicate_kernel_table(ctx);

  // The process keeps its registers, PC and stack but now executes at EL1
  // with PAN enabled ("one-way ticket", Table 2).
  ctx.ctx = proc.ctx();
  arch::PState st;
  st.el = ExceptionLevel::kEl1;
  st.pan = true;
  st.sp_sel = true;
  ctx.ctx.spsr = st.to_spsr();
  ctx.ctx.ttbr0 = domain_ttbr(ctx, 0);
  ctx.ctx.ttbr1 = mem::make_ttbr(ctx.ipa_of(ctx.upper->root()), 0);
  ctx.ctx.vbar = UpperLayout::kStubVa;

  // Keep LightZone translations coherent with kernel-managed unmaps.
  kern().on_unmap = [this](kernel::Process& p, VirtAddr va) {
    if (auto* c = ctx_of(p)) sync_unmap(*c, va);
  };
  return ctx;
}

Result<int> LzModule::alloc_pgt(LzContext& ctx) {
  if (!ctx.opts().allow_scalable && !ctx.pgts.empty()) {
    // PAN-only processes have exactly one table.
    return err(Errc::kFailedPrecondition,
               "lz_alloc: PAN-only process already has its table");
  }
  // Find a free slot or append.
  std::size_t id = ctx.pgts.size();
  for (std::size_t i = 0; i < ctx.pgts.size(); ++i) {
    if (!ctx.pgts[i].in_use) {
      id = i;
      break;
    }
  }
  // A table's ASID is its slot id + 1 (ASID 0 tags the upper table), so
  // no two live tables share one, and free_pgt's VMID-wide TLBI retires a
  // slot's entries before the slot and its ASID can be reused.
  if (id >= static_cast<std::size_t>(kMaxDomainTables)) {
    return err(Errc::kResourceExhausted, "lz_alloc: out of domain tables");
  }
  if (id == ctx.pgts.size()) ctx.pgts.emplace_back();

  auto& slot = ctx.pgts[id];
  const u16 asid = static_cast<u16>(id + 1);
  slot.tbl = std::make_unique<mem::Stage1Table>(machine().mem(), asid,
                                                ctx.table_frame_ops());
  // Tag the table with the stage-2 regime it runs under, so the BBM
  // write-protocol oracle can match broadcast TLBI scopes against it.
  slot.tbl->set_vmid(ctx.vmid);
  slot.in_use = true;

  // Copy already-resident unprotected pages so switching into this table
  // does not fault on code/stack that every domain shares.
  for (const auto& [vpage, page] : ctx.pages) {
    if (page.is_protected) continue;
    (void)copy_unprotected_page(ctx, *slot.tbl, vpage << kPageShift, page);
  }

  write_ttbrtab(ctx, static_cast<int>(id), domain_ttbr(ctx, static_cast<int>(id)));
  return static_cast<int>(id);
}

Status LzModule::free_pgt(LzContext& ctx, int pgt) {
  if (pgt <= 0 || static_cast<std::size_t>(pgt) >= ctx.pgts.size() ||
      !ctx.pgts[pgt].in_use) {
    return err(Errc::kNoPgt, "lz_free: bad pgt id");
  }
  // Break-before-make: retire the TTBRTab slot, broadcast the invalidation
  // to every core, and only then release the table frames. Another core may
  // be executing in this process's VM with the stale translation cached.
  write_ttbrtab(ctx, pgt, 0);

  // Dissolve the dead domain's memory grants before the table goes away.
  // Regions must never name a freed table: fault_in_page attaches pages
  // through ctx.pgts[region.pgt].tbl, so a surviving region would make the
  // next fault on its range walk a released Stage1Table. The ranges revert
  // to whatever still covers them (surviving overlapping regions, or the
  // default unprotected global mapping); resident pages are detached now
  // and re-faulted below, the same eager re-apply discipline prot() uses.
  std::vector<VirtAddr> refault;
  for (std::size_t i = 0; i < ctx.regions.size();) {
    const auto& region = ctx.regions[i];
    if (region.pgt != pgt) {
      ++i;
      continue;
    }
    for (const VirtAddr va : resident_pages(ctx, region.start, region.end)) {
      LZ_RETURN_IF_ERROR(unmap_from_domains(ctx, va));
      refault.push_back(va);
    }
    ctx.regions.erase(ctx.regions.begin() + static_cast<std::ptrdiff_t>(i));
  }

  // Releasing the table also retires each table frame's read-only stage-2
  // mapping (table_frame_ops), so the broadcast must come *after* it: one
  // VMID-scoped invalidation then covers the stage-1 detaches above and
  // the stage-2 teardown alike, before any frame or fake address can be
  // recycled by the next lz_alloc with different rights.
  ctx.pgts[pgt].tbl.reset();
  ctx.pgts[pgt].in_use = false;
  machine().tlbi_vmid_is(ctx.vmid);
  for (const VirtAddr va : refault) {
    LZ_RETURN_IF_ERROR(fault_in_page(ctx, va, false, false));
  }
  return Status::ok();
}

u64 LzModule::domain_ttbr(LzContext& ctx, int pgt_id) {
  auto& d = ctx.pgts[pgt_id];
  LZ_CHECK(d.in_use);
  return mem::make_ttbr(ctx.ipa_of(d.tbl->root()), d.tbl->asid());
}

Status LzModule::prot(LzContext& ctx, VirtAddr addr, u64 len, int pgt,
                      u32 perm) {
  if (!page_aligned(addr) || len == 0) {
    return err(Errc::kBadRange, "lz_prot: unaligned or empty region");
  }
  if (pgt != kPgtAll &&
      (pgt < 0 || static_cast<std::size_t>(pgt) >= ctx.pgts.size() ||
       !ctx.pgts[pgt].in_use)) {
    return err(Errc::kNoPgt, "lz_prot: bad pgt id");
  }
  const VirtAddr end = addr + page_ceil(len);
  // A range already claimed by a *different* specific domain cannot be
  // re-claimed: that would silently merge two isolation domains. (Repeated
  // grants to the same table and kPgtAll overlays stay legal.)
  for (const auto& region : ctx.regions) {
    if (addr >= region.end || end <= region.start) continue;
    if (region.pgt != kPgtAll && pgt != kPgtAll && region.pgt != pgt) {
      return err(Errc::kBadRange,
                 "lz_prot: range overlaps a different domain's region");
    }
  }
  ctx.regions.push_back(LzContext::ProtRegion{addr, end, pgt, perm});

  // Re-apply protection to already-resident pages: detach from all tables,
  // broadcast the invalidation (another core may run a sibling domain of
  // this process), then fault the new attachment in.
  for (const VirtAddr va : resident_pages(ctx, addr, end)) {
    ctx.pages.at(page_index(va)).is_protected = true;
    LZ_RETURN_IF_ERROR(unmap_from_domains(ctx, va));
    machine().tlbi_va_all_asid_is(page_index(va), ctx.vmid);
    LZ_RETURN_IF_ERROR(fault_in_page(ctx, va, false, false));
  }
  return Status::ok();
}

Status LzModule::map_gate_pgt(LzContext& ctx, int pgt, int gate) {
  if (gate < 0 || static_cast<u32>(gate) >= ctx.opts().max_gates) {
    return err(Errc::kBadGate, "lz_map_gate_pgt: bad gate id");
  }
  if (pgt < 0 || static_cast<std::size_t>(pgt) >= ctx.pgts.size() ||
      !ctx.pgts[pgt].in_use) {
    return err(Errc::kNoPgt, "lz_map_gate_pgt: bad pgt id");
  }
  ctx.gates[gate].pgt = pgt;
  write_gatetab(ctx, gate);
  return Status::ok();
}

Status LzModule::set_gate_entry(LzContext& ctx, int gate, VirtAddr entry) {
  if (gate < 0 || static_cast<u32>(gate) >= ctx.opts().max_gates) {
    return err(Errc::kBadGate, "lz_set_gate_entry: bad gate id");
  }
  ctx.gates[gate].entry = entry;
  write_gatetab(ctx, gate);
  return Status::ok();
}

// --- Upper half --------------------------------------------------------------

void LzModule::build_upper_half(LzContext& ctx) {
  auto& pm = machine().mem();
  ctx.upper = std::make_unique<mem::Stage1Table>(pm, /*asid=*/0,
                                                 ctx.table_frame_ops());
  ctx.upper->set_vmid(ctx.vmid);

  const mem::S1Attrs code_attrs{/*valid=*/true, /*user=*/false,
                                /*read_only=*/true, /*uxn=*/true,
                                /*pxn=*/false, /*global=*/true, /*af=*/true};
  const mem::S1Attrs data_attrs{/*valid=*/true, /*user=*/false,
                                /*read_only=*/true, /*uxn=*/true,
                                /*pxn=*/true, /*global=*/true, /*af=*/true};
  const mem::S2Attrs s2_code{true, true, false, true};
  const mem::S2Attrs s2_data{true, true, false, false};

  // Forwarding stub (EL1 vector page of the API library).
  {
    const PhysAddr frame = kern().alloc_frame();
    ctx.code_pages.push_back(frame);
    build_stub_page().install(pm, frame);
    LZ_CHECK_OK(ctx.upper->map(UpperLayout::kStubVa, ctx.ipa_of(frame),
                               code_attrs));
    LZ_CHECK_OK(ctx.stage2->map(ctx.ipa_of(frame), frame, s2_code));
  }

  // Call-gate code pages.
  const u64 gate_bytes = u64{ctx.opts().max_gates} * UpperLayout::kGateStride;
  const u64 gate_pages = page_ceil(gate_bytes) / kPageSize;
  std::vector<PhysAddr> gate_frames(gate_pages);
  for (u64 i = 0; i < gate_pages; ++i) {
    gate_frames[i] = kern().alloc_frame();
    ctx.code_pages.push_back(gate_frames[i]);
    LZ_CHECK_OK(ctx.upper->map(UpperLayout::kGateCodeVa + i * kPageSize,
                               ctx.ipa_of(gate_frames[i]), code_attrs));
    LZ_CHECK_OK(ctx.stage2->map(ctx.ipa_of(gate_frames[i]), gate_frames[i],
                                s2_code));
  }
  for (u32 g = 0; g < ctx.opts().max_gates; ++g) {
    auto code = build_gate_code(g, ctx.opts().max_gates);
    const u64 off = u64{g} * UpperLayout::kGateStride;
    code.install(pm, gate_frames[off / kPageSize] + page_offset(off));
  }

  // GateTab (one frame holds 256 {ENTRY, PGTID} pairs).
  LZ_CHECK(ctx.opts().max_gates * 16 <= kPageSize);
  ctx.gatetab_pa = kern().alloc_frame();
  LZ_CHECK_OK(ctx.upper->map(UpperLayout::kGateTabVa, ctx.ipa_of(ctx.gatetab_pa),
                             data_attrs));
  LZ_CHECK_OK(ctx.stage2->map(ctx.ipa_of(ctx.gatetab_pa), ctx.gatetab_pa,
                              s2_data));
}

void LzModule::write_ttbrtab(LzContext& ctx, int pgt_id, u64 ttbr_value) {
  const u64 page_idx = static_cast<u64>(pgt_id) / 512;  // 512 u64s per page
  while (ctx.ttbrtab_pages.size() <= page_idx) {
    const u64 i = ctx.ttbrtab_pages.size();
    const PhysAddr frame = kern().alloc_frame();
    ctx.ttbrtab_pages.push_back(frame);
    const mem::S1Attrs data_attrs{true, false, true, true, true, true, true};
    LZ_CHECK_OK(ctx.upper->map(UpperLayout::kTtbrTabVa + i * kPageSize,
                               ctx.ipa_of(frame), data_attrs));
    LZ_CHECK_OK(ctx.stage2->map(ctx.ipa_of(frame), frame,
                                mem::S2Attrs{true, true, false, false}));
  }
  const PhysAddr frame = ctx.ttbrtab_pages[page_idx];
  machine().mem().write(frame + (pgt_id % 512) * 8, 8, ttbr_value);
}

void LzModule::write_gatetab(LzContext& ctx, int gate_id) {
  const auto& g = ctx.gates[gate_id];
  machine().mem().write(ctx.gatetab_pa + u64{static_cast<u32>(gate_id)} * 16,
                        8, g.entry);
  machine().mem().write(
      ctx.gatetab_pa + u64{static_cast<u32>(gate_id)} * 16 + 8, 8,
      g.pgt < 0 ? 0 : static_cast<u64>(g.pgt));
}

// --- Paging ------------------------------------------------------------------

bool LzModule::sanitize_page(LzContext& ctx, PhysAddr frame) {
  if (!ctx.opts().sanitize) return true;  // insn_san = 0 (ablation)
  const u32* words =
      reinterpret_cast<const u32*>(machine().mem().page_ptr(frame));
  const auto result = sanitize_words(
      std::span<const u32>(words, kPageSize / 4), ctx.opts().san_mode);
  ++ctx.sanitized_pages;
  static obs::Counter& pass = obs::bank_counter("lz.module.sanitize_pass");
  static obs::Counter& fail = obs::bank_counter("lz.module.sanitize_fail");
  (result.ok ? pass : fail).add();
  // Scanning 1024 words costs real kernel time.
  machine().charge(CostKind::kDispatch,
                   (kPageSize / 4) * machine().platform().insn_base);
  return result.ok;
}

Status LzModule::map_page_in_table(LzContext& ctx, mem::Stage1Table& tbl,
                                   VirtAddr va,
                                   const LzContext::LzPage& page,
                                   const mem::S1Attrs& attrs) {
  const auto existing = tbl.lookup(va);
  if (!existing.ok) return tbl.map(va, page.ipa, attrs);
  if (existing.attrs == attrs) return Status::ok();
  if (mem::s1_tightens(existing.attrs, attrs)) {
    // Removing rights (including global->nG) must break-before-make: a
    // stale entry with the wider permissions may be cached on any core.
    LZ_RETURN_IF_ERROR(tbl.unmap(va));
    machine().tlbi_va_all_asid_is(page_index(va), ctx.vmid);
    return tbl.map(va, page.ipa, attrs);
  }
  return tbl.protect(va, attrs);
}

Status LzModule::stage2_apply(LzContext& ctx, IntermAddr ipa, PhysAddr real,
                              const mem::S2Attrs& s2) {
  const auto cur = ctx.stage2->lookup(ipa);
  if (!cur.ok) return ctx.stage2->map(ipa, real, s2);
  if (cur.attrs == s2) return Status::ok();
  if (mem::s2_tightens(cur.attrs, s2)) {
    // The W^X transitions retire the stage-2 entry before re-faulting, so
    // today this branch is defensive; keep it protocol-correct for any
    // future caller that tightens a live entry directly.
    LZ_RETURN_IF_ERROR(ctx.stage2->unmap(ipa));
    machine().tlbi_vmid_is(ctx.vmid);
    return ctx.stage2->map(ipa, real, s2);
  }
  return ctx.stage2->protect(ipa, s2);
}

Status LzModule::fault_in_page(LzContext& ctx, VirtAddr va, bool want_write,
                               bool want_exec) {
  va = page_floor(va);
  auto& proc = ctx.proc();
  const kernel::Vma* vma = proc.find_vma(va);
  if (vma == nullptr) return err(Errc::kNotFound, "no vma");
  if (want_exec && !(vma->prot & kernel::kProtExec)) {
    return err(Errc::kPermissionDenied, "vma not executable");
  }
  if (want_write && !(vma->prot & kernel::kProtWrite)) {
    return err(Errc::kPermissionDenied, "vma not writable");
  }

  // Make sure the kernel-managed table has the frame (same VA -> same
  // physical frame as the kernel's own translation, §5.1.2).
  LZ_RETURN_IF_ERROR(kern().populate_page(proc, va, vma->prot));
  const auto kwalk = proc.pgt().lookup(va);
  LZ_CHECK(kwalk.ok);
  const PhysAddr real = page_floor(kwalk.out_addr);

  auto [it, inserted] = ctx.pages.try_emplace(page_index(va));
  LzContext::LzPage& page = it->second;
  if (inserted) {
    page.real = real;
    page.ipa = ctx.ipa_of(real);
    page.writable = (vma->prot & kernel::kProtWrite) != 0;
  }

  // W^X state machine with break-before-make (§6.3).
  if (want_exec && !page.exec_sanitized) {
    if (page.writable) {
      // Break: retire every writable mapping — the stage-1 aliases and the
      // stage-2 write permission — before the sanitizer runs; the eager
      // remap below re-establishes stage-2 without write. A failed unmap
      // would leave a writable alias live across the verdict, so errors
      // abort the exec transition instead of being discarded.
      LZ_RETURN_IF_ERROR(retire_page(ctx, va, page.ipa));
      page.writable = false;
    }
    if (!sanitize_page(ctx, page.real)) {
      return err(Errc::kPermissionDenied, "sensitive instruction in page");
    }
    page.exec_sanitized = true;
    page.executable = true;
  }
  if (want_write && page.executable) {
    // JIT-style flip back to writable: the page loses execute rights and
    // its sanitizer verdict. Same break discipline as the exec transition —
    // in particular the stage-2 entry is retired here rather than having
    // its execute bit stripped in place below, which would leave a stale
    // executable translation live until the TLBI.
    LZ_RETURN_IF_ERROR(retire_page(ctx, va, page.ipa));
    page.executable = false;
    page.exec_sanitized = false;
    page.writable = true;
  }

  // Compute attachments from protection regions.
  bool covered = false;
  struct Attachment {
    int pgt;
    mem::S1Attrs attrs;
  };
  std::vector<Attachment> attachments;
  for (const auto& region : ctx.regions) {
    if (va < region.start || va >= region.end) continue;
    covered = true;
    mem::S1Attrs a;
    a.user = (region.perm & kLzUser) != 0;
    // Least privilege: overlay permission intersected with the VMA's.
    a.read_only = !((region.perm & kLzWrite) &&
                    (vma->prot & kernel::kProtWrite) && page.writable);
    const bool exec = (region.perm & kLzExec) &&
                      (vma->prot & kernel::kProtExec) && page.executable;
    a.pxn = !exec;
    a.uxn = true;
    a.global = region.pgt == kPgtAll;
    attachments.push_back({region.pgt, a});
  }
  page.is_protected = covered;

  if (!covered) {
    attachments.push_back({kPgtAll, unprotected_attrs(page, *vma)});
  }

  // Coalesce to one final attribute set per table before touching any
  // descriptor (last covering region wins, exactly the state the old
  // apply-in-order loop converged to). Applying the intermediate states
  // used to rewrite live PTEs once per region — and the second write
  // tightens whenever a kPgtAll overlay precedes a domain region (e.g.
  // dropping the global bit), which violates break-before-make.
  std::vector<std::optional<mem::S1Attrs>> final_attrs(ctx.pgts.size());
  for (const auto& at : attachments) {
    if (at.pgt == kPgtAll) {
      for (std::size_t i = 0; i < ctx.pgts.size(); ++i) {
        if (ctx.pgts[i].in_use) final_attrs[i] = at.attrs;
      }
    } else {
      // free_pgt() dissolves a dead domain's regions, so an attachment can
      // only name a live table; fail loudly rather than walk a freed one.
      LZ_CHECK(ctx.pgts[at.pgt].in_use);
      final_attrs[at.pgt] = at.attrs;
    }
  }
  for (std::size_t i = 0; i < ctx.pgts.size(); ++i) {
    if (!final_attrs[i].has_value()) continue;
    LZ_RETURN_IF_ERROR(map_page_in_table(ctx, *ctx.pgts[i].tbl, va, page,
                                         *final_attrs[i]));
  }
  finish_fault(ctx, va, page);
  return Status::ok();
}

Status LzModule::copy_unprotected_page(LzContext& ctx, mem::Stage1Table& tbl,
                                       VirtAddr va,
                                       const LzContext::LzPage& page) {
  auto& proc = ctx.proc();
  const kernel::Vma* vma = proc.find_vma(va);
  // Every fault_in_page of an unprotected page writes the same global
  // descriptor into every live table, so pgt 0 (never freed) stands for
  // all older tables. Unless it holds exactly this page's unprotected
  // mapping (a region covers the page, a failed exec flip left it
  // unmapped, or a kernel mprotect changed its VMA's rights), take the
  // full fault path, which brings every table to it break-before-make.
  const auto held = ctx.pgts[0].tbl->lookup(va);
  if (vma == nullptr || covered_by_region(ctx, va) || !held.ok ||
      held.out_addr != page.ipa ||
      !(held.attrs == unprotected_attrs(page, *vma))) {
    return fault_in_page(ctx, va, /*want_write=*/false, /*want_exec=*/false);
  }
  LZ_RETURN_IF_ERROR(kern().populate_page(proc, va, vma->prot));
  LZ_CHECK(proc.pgt().lookup(va).ok);
  LZ_RETURN_IF_ERROR(tbl.map(va, page.ipa, held.attrs));
  finish_fault(ctx, va, page);
  return Status::ok();
}

void LzModule::finish_fault(LzContext& ctx, VirtAddr va,
                            const LzContext::LzPage& page) {
  // Eagerly establish stage-2 during the stage-1 fault (§5.2) unless the
  // ablation disables it.
  if (ctx.opts().eager_stage2 || ctx.stage2->lookup(page.ipa).ok) {
    LZ_CHECK_OK(stage2_apply(
        ctx, page.ipa, page.real,
        mem::S2Attrs{true, true, page.writable, page.executable}));
  }
  machine().tlbi_va_all_asid_is(page_index(va), ctx.vmid);

  // Mapping work costs: a handful of table-walk writes.
  machine().charge(CostKind::kMem, 8 * machine().platform().mem_access);
}

Status LzModule::retire_page(LzContext& ctx, VirtAddr va, IntermAddr ipa) {
  LZ_RETURN_IF_ERROR(unmap_from_domains(ctx, va));
  if (ctx.stage2->lookup(ipa).ok) LZ_CHECK_OK(ctx.stage2->unmap(ipa));
  machine().tlbi_va_all_asid_is(page_index(va), ctx.vmid);
  return Status::ok();
}

void LzModule::sync_unmap(LzContext& ctx, VirtAddr va) {
  auto it = ctx.pages.find(page_index(va));
  if (it == ctx.pages.end()) return;
  LZ_CHECK_OK(retire_page(ctx, va, it->second.ipa));
  if (ctx.fake_phys_on()) {
    ctx.fake.erase_real(it->second.real);
  }
  ctx.pages.erase(it);
}

void LzModule::duplicate_kernel_table(LzContext& ctx) {
  // PAN mode: the process gets a kernel-managed duplicate of its stage-1
  // table with user-mode permissions translated to kernel mode (§5.1.2).
  auto& proc = ctx.proc();
  std::vector<VirtAddr> vas;
  proc.pgt().for_each([&vas](VirtAddr va, u64) { vas.push_back(va); });
  for (const VirtAddr va : vas) {
    (void)fault_in_page(ctx, va, /*want_write=*/false, /*want_exec=*/false);
  }
}

// --- Execution ---------------------------------------------------------------

void LzModule::enter_world(LzContext& ctx) {
  PerCoreWorld& w = world();
  LZ_CHECK(w.active == nullptr);
  auto& core = machine().core();
  const auto probe = obs::switch_scope<obs::SwitchKind::kLzWorldEnter>(
      machine().account(), {.vmid = ctx.vmid});
  w.saved_hcr = core.sysreg(SysReg::kHcrEl2);
  w.saved_vttbr = core.sysreg(SysReg::kVttbrEl2);
  host_.write_hcr(lz_hcr(ctx));
  host_.write_vttbr(ctx.stage2->vttbr());
  core.set_handler(ExceptionLevel::kEl1, nullptr);  // stub owns EL1 vectors
  host_.push_delegate(this);
  w.active = &ctx;
}

void LzModule::enter_el1(LzContext& ctx) {
  enter_world(ctx);
  auto& core = machine().core();
  core.pstate().el = ExceptionLevel::kEl1;
  core.set_sysreg(SysReg::kTtbr0El1, domain_ttbr(ctx, 0));
  core.set_sysreg(SysReg::kTtbr1El1, ctx.ctx.ttbr1);
  core.set_sysreg(SysReg::kVbarEl1, ctx.ctx.vbar);
}

void LzModule::exit_world(LzContext& ctx) {
  PerCoreWorld& w = world();
  LZ_CHECK(w.active == &ctx);
  const auto probe = obs::switch_scope<obs::SwitchKind::kLzWorldExit>(
      machine().account(), {.arg = 1, .vmid = ctx.vmid});
  host_.pop_delegate(this);
  host_.write_hcr(w.saved_hcr);
  host_.write_vttbr(w.saved_vttbr);
  w.active = nullptr;
}

sim::RunResult LzModule::run(LzContext& ctx, u64 max_steps) {
  auto& core = machine().core();
  enter_world(ctx);

  // Load the LightZone process's EL1 context.
  auto& c = ctx.ctx;
  for (unsigned i = 0; i < 31; ++i) core.set_x(i, c.x[i]);
  const auto st = arch::PState::from_spsr(c.spsr);
  core.pstate() = st;
  core.set_sp(ExceptionLevel::kEl1, c.sp);
  core.set_pc(c.pc);
  core.set_sysreg(SysReg::kTtbr0El1, c.ttbr0);
  core.set_sysreg(SysReg::kTtbr1El1, c.ttbr1);
  core.set_sysreg(SysReg::kVbarEl1, c.vbar);
  machine().charge(CostKind::kGpr, machine().platform().gpr_save_all());

  const auto result = core.run(max_steps);

  if (ctx.proc().alive()) {
    for (unsigned i = 0; i < 31; ++i) c.x[i] = core.x(i);
    c.sp = core.sp(ExceptionLevel::kEl1);
    c.pc = core.pc();
    c.spsr = core.pstate().to_spsr();
    c.ttbr0 = core.sysreg(SysReg::kTtbr0El1);
  }
  exit_world(ctx);
  return result;
}

Result<Cycles> LzModule::exec_gate_switch(LzContext& ctx, int gate) {
  LZ_CHECK(active() == &ctx);
  auto& core = machine().core();
  if (gate < 0 || static_cast<u32>(gate) >= ctx.opts().max_gates) {
    return err(Errc::kBadGate, "gate switch: bad gate id");
  }
  const VirtAddr entry = ctx.gates[gate].entry;
  if (entry == 0) {
    return err(Errc::kNoGate, "gate switch: gate has no registered entry");
  }
  if (ctx.gates[gate].pgt < 0) {
    return err(Errc::kNoGate, "gate switch: gate has no table mapped");
  }
  const int pgt = ctx.gates[gate].pgt;
  const u16 asid =
      static_cast<std::size_t>(pgt) < ctx.pgts.size() && ctx.pgts[pgt].in_use
          ? ctx.pgts[pgt].tbl->asid()
          : 0;
  // Measure on the calling core's own ledger: machine().cycles() sums every
  // core and would fold concurrent work into this switch.
  auto probe = obs::switch_scope<obs::SwitchKind::kLzGate>(
      machine().account(),
      {.arg = static_cast<u64>(gate), .vmid = ctx.vmid, .asid = asid});
  core.set_x(30, entry);
  core.set_pc(UpperLayout::gate_va(static_cast<u32>(gate)));
  // The gate runs through the batched engine and stops at the legal entry;
  // a failed check's BRK kills the process, whose handler stops the run.
  if (ctx.proc().alive()) core.run(64, entry);
  return probe.close();
}

Cycles LzModule::exec_set_pan(LzContext& ctx, bool pan) {
  LZ_CHECK(active() == &ctx);
  auto& core = machine().core();
  auto probe = obs::switch_scope<obs::SwitchKind::kLzPan>(
      machine().account(), {.arg = pan, .vmid = ctx.vmid});
  core.pstate().pan = pan;
  machine().charge(CostKind::kInsn, machine().platform().insn_base);
  machine().charge(CostKind::kSysreg, machine().platform().pan_toggle);
  return probe.close();
}

// --- Trap handling -----------------------------------------------------------

sim::TrapAction LzModule::kill(LzContext& ctx, const std::string& reason) {
  static obs::Counter& killed = obs::bank_counter("lz.module.killed");
  killed.add();
  ctx.proc().mark_killed("LightZone: " + reason);
  return TrapAction::kStop;
}

sim::TrapAction LzModule::on_el2_trap(const TrapInfo& info) {
  LzContext* ctx = active();
  if (ctx == nullptr) return TrapAction::kStop;
  ++ctx->traps;
  auto& core = machine().core();
  const auto& plat = machine().platform();

  switch (info.ec) {
    case ExceptionClass::kHvc64: {
      // Only the API library's forwarding stub may hypercall.
      const u64 elr2 = core.sysreg(SysReg::kElrEl2);
      if (elr2 < UpperLayout::kStubVa ||
          elr2 >= UpperLayout::kStubVa + kPageSize) {
        return kill(*ctx, "unexpected hypercall from application code");
      }
      const u64 esr1 = core.sysreg(SysReg::kEsrEl1);
      const auto probe = obs::switch_scope<obs::SwitchKind::kLzHvcForward>(
          machine().account(),
          {.arg = static_cast<u64>(arch::esr_ec(esr1)),
           .vmid = ctx->vmid,
           .esr = static_cast<u32>(esr1)});
      if (nested()) charge_nested_entry(*ctx);
      // §5.2.1: HCR_EL2/VTTBR_EL2 are *retained* while the host kernel
      // serves the trap; the ablation charges the conventional switches.
      if (!nested() && !host_.conditional_sysreg_opt()) {
        machine().charge(CostKind::kSysreg,
                         2 * (plat.sysreg_write_hcr + plat.sysreg_write_vttbr));
      }
      const auto action = handle_forwarded(*ctx);
      if (nested() && action == TrapAction::kResume) charge_nested_exit(*ctx);
      return action;
    }
    case ExceptionClass::kDataAbortLowerEl:
    case ExceptionClass::kInsnAbortLowerEl: {
      if (!info.stage2) return kill(*ctx, "unexpected lower-EL stage-1 abort");
      ++ctx->s2_faults;
      static obs::Counter& s2_fault = obs::bank_counter("lz.module.s2_fault");
      s2_fault.add();
      obs::trace().stage2_fault(info.ipa, ctx->vmid);
      // Stage-2 fault: with eager mapping this means the process reached
      // outside its VM; with the ablation it can be a legitimate deferred
      // stage-2 fill.
      if (!ctx->opts().eager_stage2) {
        const u64 ipa = page_floor(info.ipa);
        // Find the page by IPA and resync the stage-2 entry to the page's
        // current rights. The entry may already exist with narrower
        // permissions (a W^X transition widened the page since the fill):
        // stage2_apply handles absent/stale entries alike, where a blind
        // map() used to abort on kAlreadyExists. Only a fault on an entry
        // that is already in sync is a real violation.
        for (auto& [vp, pg] : ctx->pages) {
          if (page_floor(pg.ipa) != ipa) continue;
          const mem::S2Attrs s2{true, true, pg.writable, pg.executable};
          const auto cur = ctx->stage2->lookup(page_floor(pg.ipa));
          if (cur.ok && cur.attrs == s2) break;  // rights correct: escape
          LZ_CHECK_OK(stage2_apply(*ctx, page_floor(pg.ipa), pg.real, s2));
          machine().charge(CostKind::kDispatch, plat.dispatch_lz);
          core.eret_from(ExceptionLevel::kEl2);
          return TrapAction::kResume;
        }
      }
      return kill(*ctx, "stage-2 fault: access outside the process VM");
    }
    case ExceptionClass::kIrq: {
      // §5.1.3: interrupts trap kernel-mode processes directly to the
      // hypervisor, which invokes the kernel's interrupt handling and
      // resumes the process.
      machine().charge(CostKind::kDispatch,
                       plat.dispatch_lz + plat.dispatch_kernel);
      core.eret_from(ExceptionLevel::kEl2);
      return TrapAction::kResume;
    }
    case ExceptionClass::kMsrMrsTrap:
      return kill(*ctx, "trapped privileged system-register access");
    case ExceptionClass::kSmc64:
      return kill(*ctx, "SMC from kernel-mode process");
    default:
      return kill(*ctx, "unexpected EL2 trap");
  }
}

sim::TrapAction LzModule::handle_forwarded(LzContext& ctx) {
  auto& core = machine().core();
  const auto& plat = machine().platform();
  machine().charge(CostKind::kDispatch, plat.dispatch_lz);

  const u64 esr1 = core.sysreg(SysReg::kEsrEl1);
  const auto ec1 = arch::esr_ec(esr1);
  switch (ec1) {
    case ExceptionClass::kSvc64: {
      kern().dispatch_syscall(ctx.proc(), core);
      if (!ctx.proc().alive()) return TrapAction::kStop;
      // The interrupted PC of a LightZone process sits in ELR_EL1 (the
      // stub's final ERET consumes it); signal delivery redirects it.
      kern().maybe_deliver_pending(ctx.proc(), core, ExceptionLevel::kEl1);
      core.eret_from(ExceptionLevel::kEl2);
      return TrapAction::kResume;
    }
    case ExceptionClass::kDataAbortSameEl:
    case ExceptionClass::kInsnAbortSameEl: {
      ++ctx.s1_faults;
      static obs::Counter& s1_fault = obs::bank_counter("lz.module.s1_fault");
      s1_fault.add();
      const auto action =
          handle_lz_fault(ctx, core.sysreg(SysReg::kFarEl1), esr1);
      if (action == TrapAction::kResume) core.eret_from(ExceptionLevel::kEl2);
      return action;
    }
    case ExceptionClass::kBrk64: {
      const u16 imm = static_cast<u16>(arch::esr_iss(esr1) & 0xffff);
      if (imm == UpperLayout::kGateBrkImm) {
        return kill(ctx, "call-gate check failed (illegal TTBR0 or entry)");
      }
      return kill(ctx, "breakpoint in kernel-mode process");
    }
    case ExceptionClass::kUnknown:
      return kill(ctx, "undefined or banned instruction");
    default:
      return kill(ctx, "unhandled forwarded exception");
  }
}

sim::TrapAction LzModule::handle_lz_fault(LzContext& ctx, VirtAddr far,
                                          u64 esr_el1) {
  auto& core = machine().core();
  const auto& plat = machine().platform();
  machine().charge(CostKind::kGpr, plat.gpr_save_all());
  machine().charge(CostKind::kDispatch, plat.dispatch_kernel);
  machine().charge(CostKind::kGpr, plat.gpr_save_all());

  const u32 iss = arch::esr_iss(esr_el1);
  const bool is_exec = arch::esr_ec(esr_el1) == ExceptionClass::kInsnAbortSameEl;
  const bool is_write = !is_exec && arch::iss_is_write(iss);
  const bool permission = arch::is_permission_fault(arch::iss_fault_status(iss));

  const u64 vpage = page_index(far);
  auto it = ctx.pages.find(vpage);

  if (permission) {
    LzContext::LzPage* page = it == ctx.pages.end() ? nullptr : &it->second;
    if (page != nullptr) {
      // W^X transitions are the only legitimate permission faults.
      const kernel::Vma* vma = ctx.proc().find_vma(far);
      if (is_exec && vma != nullptr && (vma->prot & kernel::kProtExec) &&
          !page->executable) {
        const Status s = fault_in_page(ctx, far, false, /*want_exec=*/true);
        if (!s.is_ok()) return kill(ctx, s.message());
        return TrapAction::kResume;
      }
      if (is_write && vma != nullptr && (vma->prot & kernel::kProtWrite) &&
          page->executable) {
        const Status s = fault_in_page(ctx, far, /*want_write=*/true, false);
        if (!s.is_ok()) return kill(ctx, s.message());
        return TrapAction::kResume;
      }
      if (page->is_protected) {
        return kill(ctx, "illegal access to protected domain (permission)");
      }
    }
    return kill(ctx, "permission fault");
  }

  // Translation fault. Distinguish a demand fault from a domain violation:
  // a protected page unmapped in the *current* domain table is a violation.
  const u64 cur_ttbr = core.sysreg(SysReg::kTtbr0El1);
  int cur_pgt = -1;
  for (std::size_t i = 0; i < ctx.pgts.size(); ++i) {
    if (ctx.pgts[i].in_use &&
        domain_ttbr(ctx, static_cast<int>(i)) == cur_ttbr) {
      cur_pgt = static_cast<int>(i);
      break;
    }
  }
  if (cur_pgt < 0 && mem::classify_va(far) == mem::VaRange::kLower) {
    return kill(ctx, "executing with unregistered TTBR0");
  }

  bool covered_by_any = false;
  bool covered_by_current = false;
  for (const auto& region : ctx.regions) {
    if (far < region.start || far >= region.end) continue;
    covered_by_any = true;
    if (region.pgt == kPgtAll || region.pgt == cur_pgt) {
      covered_by_current = true;
    }
  }
  if (covered_by_any && !covered_by_current) {
    return kill(ctx, "illegal access to protected domain (unmapped here)");
  }

  const Status s = fault_in_page(ctx, far, is_write, is_exec);
  if (!s.is_ok()) return kill(ctx, s.message());
  return TrapAction::kResume;
}

// --- Nested (guest LightZone) charging, §5.2.2 -------------------------------

void LzModule::charge_nested_entry(LzContext& ctx) {
  auto& m = machine();
  const auto& plat = m.platform();
  m.charge(CostKind::kDispatch, plat.dispatch_lowvisor);
  // The Lowvisor writes the process context straight into the pt_regs page
  // it shares with the guest kernel — one copy instead of two.
  m.charge(CostKind::kGpr,
           plat.gpr_save_all() * (ctx.opts().shared_ptregs ? 1 : 2));
  // Both worlds use the physical EL1 register file: swap it.
  hv::charge_sysreg_save(m, kNestedEl1Ctx);
  hv::charge_sysreg_restore(m, kNestedEl1Ctx);
  host_.write_vttbr(vm_->stage2().vttbr());
  host_.write_hcr(vm_->vm_hcr());
  // Enter the guest kernel.
  m.charge(CostKind::kExcp,
           plat.eret(ExceptionLevel::kEl2, ExceptionLevel::kEl1));
  // Guest-module register bookkeeping through the deferred page (or, in
  // the ablation, one trap per access).
  if (ctx.opts().deferred_sysregs) {
    m.charge(CostKind::kMem, kDeferredAccesses * plat.mem_access);
  } else {
    m.charge(CostKind::kExcp,
             kDeferredAccesses *
                 (plat.excp(ExceptionLevel::kEl1, ExceptionLevel::kEl2) +
                  plat.eret(ExceptionLevel::kEl2, ExceptionLevel::kEl1) +
                  plat.dispatch_lowvisor));
  }
  // Rescheduling invalidates the cached shared-pt_regs pointer (drives the
  // fluctuation range the paper reports for this row of Table 4).
  if (kern().sched_generation() != ctx.last_sched_gen) {
    m.charge(CostKind::kDispatch, plat.ptregs_locate);
    ctx.last_sched_gen = kern().sched_generation();
  }
}

void LzModule::charge_nested_exit(LzContext& ctx) {
  auto& m = machine();
  const auto& plat = m.platform();
  // Guest kernel hypercalls back into the Lowvisor.
  m.charge(CostKind::kExcp,
           plat.excp(ExceptionLevel::kEl1, ExceptionLevel::kEl2));
  m.charge(CostKind::kDispatch, plat.dispatch_lowvisor);
  hv::charge_sysreg_save(m, kNestedEl1Ctx);
  hv::charge_sysreg_restore(m, kNestedEl1Ctx);
  host_.write_vttbr(ctx.stage2->vttbr());
  host_.write_hcr(lz_hcr(ctx));
  m.charge(CostKind::kGpr, plat.gpr_save_all());
  // The final ERET back into the stub is performed (and charged) by the
  // caller via Core::eret_from.
}

}  // namespace lz::core
