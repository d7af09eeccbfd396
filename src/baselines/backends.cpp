#include "baselines/backends.h"

#include "baselines/cca.h"
#include "baselines/poe.h"

namespace lz::baseline {

using arch::ExceptionLevel;
using core::BackendKind;
using core::Env;
using sim::CostKind;

namespace {
// lightzone/module.h's kPgtAll, restated so the models share the shadow
// oracle's independence from the implementation under test.
constexpr int kPgtAll = -1;
// Stand-in arena for the Watchpoint backend's 16 slots (one page each)
// until an lz_prot names the process's own, away from the standard
// code/heap/stack layout.
constexpr VirtAddr kWpArenaBase = 0x40000000;
}  // namespace

ModelBackend::ModelBackend(Env& env, u32 max_gates)
    : env_(env), max_gates_(max_gates), gates_(max_gates) {
  pgts_.push_back(1);  // enter allocates pgt 0, the default domain
}

void ModelBackend::add_vma(VirtAddr start, VirtAddr end, bool write,
                           bool exec) {
  vmas_.push_back(Vma{start, end, write, exec});
}

void ModelBackend::charge_kernel_roundtrip() {
  auto& m = machine();
  const auto& p = plat();
  const auto kernel_el = env_.placement == Env::Placement::kGuest
                             ? ExceptionLevel::kEl1
                             : ExceptionLevel::kEl2;
  m.charge(CostKind::kExcp, p.excp(ExceptionLevel::kEl0, kernel_el));
  m.charge(CostKind::kGpr, 2 * p.gpr_save_all());
  m.charge(CostKind::kDispatch, p.dispatch_kernel);
  m.charge(CostKind::kExcp, p.eret(kernel_el, ExceptionLevel::kEl0));
}

u64 ModelBackend::domain_pages(int pgt) const {
  u64 pages = 0;
  for (const auto& r : regions_) {
    if (r.pgt == pgt) pages += (r.end - r.start) / kPageSize;
  }
  return pages;
}

Result<int> ModelBackend::alloc() {
  charge_kernel_roundtrip();
  std::size_t id = pgts_.size();
  for (std::size_t i = 0; i < pgts_.size(); ++i) {
    if (!pgts_[i]) {
      id = i;
      break;
    }
  }
  if (id >= static_cast<std::size_t>(max_domains())) {
    return err(Errc::kResourceExhausted, "backend: domain table full");
  }
  if (id == pgts_.size()) pgts_.push_back(0);
  pgts_[id] = 1;
  const int pgt = static_cast<int>(id);
  LZ_RETURN_IF_ERROR(on_alloc(pgt));
  return pgt;
}

Status ModelBackend::free_domain(int pgt) {
  charge_kernel_roundtrip();
  if (pgt <= 0 || !pgt_live(pgt)) {
    return err(Errc::kNoPgt, "backend: free of dead pgt");
  }
  on_free(pgt);
  pgts_[pgt] = 0;
  std::erase_if(regions_, [pgt](const Region& r) { return r.pgt == pgt; });
  return Status::ok();
}

Status ModelBackend::prot(VirtAddr addr, u64 len, int pgt, u32 perm) {
  (void)perm;  // overlay permissions never affect the Status
  charge_kernel_roundtrip();
  if (!page_aligned(addr) || len == 0) {
    return err(Errc::kBadRange, "backend: unaligned or empty range");
  }
  if (pgt != kPgtAll && !pgt_live(pgt)) {
    return err(Errc::kNoPgt, "backend: prot on dead pgt");
  }
  const VirtAddr end = addr + page_ceil(len);
  for (const auto& region : regions_) {
    if (addr >= region.end || end <= region.start) continue;
    if (region.pgt != kPgtAll && pgt != kPgtAll && region.pgt != pgt) {
      return err(Errc::kBadRange, "backend: range grabbed by another domain");
    }
  }
  regions_.push_back(Region{addr, end, pgt});
  on_prot(addr, end, pgt);
  return Status::ok();
}

Status ModelBackend::map_gate_pgt(int pgt, int gate) {
  charge_kernel_roundtrip();
  if (!gate_in_range(gate)) {
    return err(Errc::kBadGate, "backend: gate id out of range");
  }
  if (!pgt_live(pgt)) return err(Errc::kNoPgt, "backend: map of dead pgt");
  gates_[gate].pgt = pgt;
  return Status::ok();
}

Status ModelBackend::set_gate_entry(int gate, VirtAddr entry) {
  charge_kernel_roundtrip();
  if (!gate_in_range(gate)) {
    return err(Errc::kBadGate, "backend: gate id out of range");
  }
  gates_[gate].entry = entry;
  return Status::ok();
}

Result<Cycles> ModelBackend::switch_to(int gate) {
  if (!gate_in_range(gate)) {
    return err(Errc::kBadGate, "backend: switch to gate out of range");
  }
  if (gates_[gate].entry == 0 || gates_[gate].pgt < 0) {
    return err(Errc::kNoGate, "backend: gate not fully registered");
  }
  // Same contract as the live module: validation passes for a gate whose
  // table died, but executing the switch is lethal (zeroed TTBRTab slot);
  // drivers consult the shadow's gate_runnable before calling.
  LZ_CHECK(pgt_live(gates_[gate].pgt));
  auto& m = machine();
  const Cycles start = m.account().total();
  do_switch(gates_[gate].pgt);
  current_ = gates_[gate].pgt;
  return m.account().total() - start;
}

Status ModelBackend::touch(VirtAddr va, bool want_write, bool want_exec) {
  // Demand fault: exception into the kernel either way, one PTE install on
  // the validated path.
  charge_kernel_roundtrip();
  va = page_floor(va);
  const Vma* vma = nullptr;
  for (const auto& v : vmas_) {
    if (va >= v.start && va < v.end) {
      vma = &v;
      break;
    }
  }
  if (vma == nullptr) return err(Errc::kNotFound, "backend: no VMA");
  if (want_exec && !vma->exec) {
    return err(Errc::kPermissionDenied, "backend: VMA not executable");
  }
  if (want_write && !vma->write) {
    return err(Errc::kPermissionDenied, "backend: VMA not writable");
  }
  machine().charge(CostKind::kMem, plat().mem_access);
  return Status::ok();
}

Cycles ModelBackend::access(VirtAddr va) {
  auto& m = machine();
  const Cycles start = m.account().total();
  m.charge(CostKind::kMem, plat().mem_access);
  do_access(va);
  return m.account().total() - start;
}

WatchpointBackend::WatchpointBackend(Env& env, u32 max_gates)
    : ModelBackend(env, max_gates), wp_(*env.host, env.vm.get()) {
  LZ_CHECK_OK(wp_.setup_arena(kWpArenaBase, kPageSize,
                              WatchpointIsolation::kMaxDomains));
}

void WatchpointBackend::on_prot(VirtAddr start, VirtAddr end, int pgt) {
  if (arena_from_prot_ || pgt < 1) return;
  const u64 slot = end - start;
  const u64 before = static_cast<u64>(pgt - 1) * slot;
  if (start < before) return;
  // Registering the arena is one more ioctl; a region that breaks the
  // layout is accepted (validation is shared) but stays unwatched.
  if (!wp_.setup_arena(start - before, slot, WatchpointIsolation::kMaxDomains)
           .is_ok()) {
    return;
  }
  arena_from_prot_ = true;
  if (current_domain() != 0) do_switch(current_domain());
}

void WatchpointBackend::do_switch(int pgt) {
  if (pgt == 0) {
    wp_.exit_domains();
  } else {
    wp_.switch_to(pgt - 1);
  }
}

LwcBackend::LwcBackend(Env& env, u32 max_gates)
    : ModelBackend(env, max_gates), lwc_(*env.host, env.vm.get()) {
  ctx_of_[0] = lwc_.create_context();  // the default domain's context
}

Status LwcBackend::on_alloc(int pgt) {
  // One lwC context per domain; re-allocating a freed pgt id makes a fresh
  // context (ids only grow — lwC has no destroy in the modelled subset).
  ctx_of_[pgt] = lwc_.create_context();
  return Status::ok();
}

std::shared_ptr<ModelBackend> make_backend(BackendKind kind, Env& env,
                                           u32 max_gates) {
  LZ_CHECK(kind != BackendKind::kTtbrPan);  // needs a process: see below
  std::shared_ptr<ModelBackend> be;
  switch (kind) {
    case BackendKind::kPoe:
      be = std::make_shared<PoeBackend>(env, max_gates);
      break;
    case BackendKind::kCca:
      be = std::make_shared<CcaBackend>(env, max_gates);
      break;
    case BackendKind::kWatchpoint:
      be = std::make_shared<WatchpointBackend>(env, max_gates);
      break;
    case BackendKind::kLwc:
      be = std::make_shared<LwcBackend>(env, max_gates);
      break;
    case BackendKind::kTtbrPan:
      return nullptr;  // unreachable (LZ_CHECK above)
  }
  be->add_vma(Env::kCodeVa, Env::kCodeVa + Env::kCodeLen, /*write=*/false,
              /*exec=*/true);
  be->add_vma(Env::kHeapVa, Env::kHeapVa + Env::kHeapLen, /*write=*/true,
              /*exec=*/false);
  be->add_vma(Env::kStackTop - Env::kStackLen, Env::kStackTop,
              /*write=*/true, /*exec=*/false);
  return be;
}

core::LzProc make_backend_proc(BackendKind kind, Env& env) {
  if (kind == BackendKind::kTtbrPan) {
    return core::LzProc::enter(*env.module, env.new_process(),
                               /*allow_scalable=*/true, /*insn_san=*/1);
  }
  return core::LzProc(make_backend(kind, env));
}

}  // namespace lz::baseline
