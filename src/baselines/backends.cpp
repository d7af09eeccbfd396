#include "baselines/backends.h"

#include <string>

#include "baselines/cca.h"
#include "baselines/poe.h"

namespace lz::baseline {

using arch::ExceptionLevel;
using core::BackendKind;
using core::Env;
using sim::CostKind;

namespace {
// Stand-in arena for the Watchpoint backend's 16 slots (one page each)
// until an lz_prot names the process's own, away from the standard
// code/heap/stack layout.
constexpr VirtAddr kWpArenaBase = 0x40000000;

// The shadow table's verdict on verb `what` as a Status.
Status verdict(Errc errc, const char* what) {
  if (errc == Errc::kOk) return Status::ok();
  return err(errc, std::string("backend: ") + what);
}
}  // namespace

ModelBackend::ModelBackend(BackendKind kind, Env& env, u32 max_gates)
    : env_(env),
      kind_(kind),
      table_(max_gates, /*allow_scalable=*/true, core::max_domains(kind)) {
  add_env_vmas(table_);
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

Result<int> ModelBackend::alloc() {
  charge_kernel_roundtrip();
  const auto out = table_.alloc();
  LZ_RETURN_IF_ERROR(verdict(out.errc, "lz_alloc"));
  LZ_RETURN_IF_ERROR(on_alloc(out.pgt));
  return out.pgt;
}

Status ModelBackend::free_domain(int pgt) {
  charge_kernel_roundtrip();
  if (pgt > 0 && table_.pgt_live(pgt)) on_free(pgt);
  return verdict(table_.free_pgt(pgt), "lz_free");
}

Status ModelBackend::prot(VirtAddr addr, u64 len, int pgt, u32 perm) {
  charge_kernel_roundtrip();
  LZ_RETURN_IF_ERROR(verdict(table_.prot(addr, len, pgt, perm), "lz_prot"));
  on_prot(addr, addr + page_ceil(len), pgt);
  return Status::ok();
}

Status ModelBackend::map_gate_pgt(int pgt, int gate) {
  charge_kernel_roundtrip();
  return verdict(table_.map_gate_pgt(pgt, gate), "lz_map_gate_pgt");
}

Status ModelBackend::set_gate_entry(int gate, VirtAddr entry) {
  charge_kernel_roundtrip();
  return verdict(table_.set_gate_entry(gate, entry), "lz_set_gate_entry");
}

Result<Cycles> ModelBackend::switch_to(int gate) {
  LZ_RETURN_IF_ERROR(verdict(table_.gate_switch(gate), "gate switch"));
  // Same contract as the live module: validation passes for a gate whose
  // table died, but executing the switch is lethal (zeroed TTBRTab slot);
  // drivers consult the shadow's gate_runnable before calling.
  LZ_CHECK(table_.gate_runnable(gate));
  const int pgt = table_.gate_pgt(gate);
  auto& m = machine();
  const Cycles start = m.account().total();
  do_switch(pgt);
  current_ = pgt;
  return m.account().total() - start;
}

Status ModelBackend::touch(VirtAddr va, bool want_write, bool want_exec) {
  // Demand fault: exception into the kernel either way, one PTE install on
  // the validated path.
  charge_kernel_roundtrip();
  LZ_RETURN_IF_ERROR(
      verdict(table_.touch(va, want_write, want_exec), "touch"));
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
    : ModelBackend(BackendKind::kWatchpoint, env, max_gates),
      wp_(*env.host, env.vm.get()) {
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
    : ModelBackend(BackendKind::kLwc, env, max_gates),
      lwc_(*env.host, env.vm.get()) {
  ctx_of_[0] = lwc_.create_context();  // the default domain's context
}

Status LwcBackend::on_alloc(int pgt) {
  // One lwC context per domain; re-allocating a freed pgt id makes a fresh
  // context (ids only grow — lwC has no destroy in the modelled subset).
  ctx_of_[pgt] = lwc_.create_context();
  return Status::ok();
}

void add_env_vmas(check::ShadowTable2& table) {
  table.add_vma(Env::kCodeVa, Env::kCodeVa + Env::kCodeLen, /*write=*/false,
                /*exec=*/true);
  table.add_vma(Env::kHeapVa, Env::kHeapVa + Env::kHeapLen, /*write=*/true,
                /*exec=*/false);
  table.add_vma(Env::kStackTop - Env::kStackLen, Env::kStackTop,
                /*write=*/true, /*exec=*/false);
}

std::shared_ptr<ModelBackend> make_backend(BackendKind kind, Env& env,
                                           u32 max_gates) {
  LZ_CHECK(kind != BackendKind::kTtbrPan);  // needs a process: see below
  switch (kind) {
    case BackendKind::kPoe:
      return std::make_shared<PoeBackend>(env, max_gates);
    case BackendKind::kCca:
      return std::make_shared<CcaBackend>(env, max_gates);
    case BackendKind::kWatchpoint:
      return std::make_shared<WatchpointBackend>(env, max_gates);
    case BackendKind::kLwc:
      return std::make_shared<LwcBackend>(env, max_gates);
    case BackendKind::kTtbrPan:
      break;
  }
  return nullptr;  // unreachable (LZ_CHECK above)
}

core::LzProc make_backend_proc(BackendKind kind, Env& env) {
  if (kind == BackendKind::kTtbrPan) {
    return core::LzProc::enter(*env.module, env.new_process(),
                               /*allow_scalable=*/true, /*insn_san=*/1);
  }
  return core::LzProc(make_backend(kind, env));
}

}  // namespace lz::baseline
