#include "baselines/lwc.h"

namespace lz::baseline {

using arch::ExceptionLevel;
using sim::CostKind;

namespace {
// Kernel-side registers the lwC switch moves beyond the normal syscall
// save: thread state, TTBR0 + ASID bookkeeping, and the context structure.
constexpr std::size_t kLwcCtxRegs = 16;
}  // namespace

LwcIsolation::LwcIsolation(hv::Host& host, hv::GuestVm* vm)
    : host_(host), vm_(vm) {}

kernel::Kernel& LwcIsolation::kern() {
  return vm_ != nullptr ? vm_->kern() : host_.kern();
}

int LwcIsolation::create_context() {
  contexts_.push_back(Ctx{});
  return static_cast<int>(contexts_.size()) - 1;
}

Status LwcIsolation::attach(int ctx_id, VirtAddr base, u64 len) {
  if (ctx_id < 0 || ctx_id >= context_count()) {
    return err(Errc::kInvalidArgument, "lwc: bad context");
  }
  contexts_[ctx_id].private_regions.emplace_back(base, len);
  return Status::ok();
}

Cycles LwcIsolation::charge_syscall_roundtrip() {
  auto& m = host_.machine();
  const auto& plat = m.platform();
  const Cycles start = m.account().total();
  const auto kernel_el =
      vm_ == nullptr ? ExceptionLevel::kEl2 : ExceptionLevel::kEl1;
  m.charge(CostKind::kExcp, plat.excp(ExceptionLevel::kEl0, kernel_el));
  m.charge(CostKind::kGpr, 2 * plat.gpr_save_all());
  m.charge(CostKind::kDispatch, plat.dispatch_kernel);
  m.charge(CostKind::kExcp, plat.eret(kernel_el, ExceptionLevel::kEl0));
  return m.account().total() - start;
}

Cycles LwcIsolation::switch_to(int ctx_id) {
  LZ_CHECK(ctx_id >= 0 && ctx_id < context_count());
  auto& m = host_.machine();
  const auto& plat = m.platform();
  const Cycles start = m.account().total();
  charge_syscall_roundtrip();
  // Kernel-side context switch: swap the page table (TTBR0), move the
  // per-context kernel state, and touch lwC bookkeeping structures. A
  // guest kernel performs the register traffic at the cheaper EL1 rate.
  const Cycles rw = vm_ == nullptr
                        ? plat.sysreg_read + plat.sysreg_write
                        : plat.sysreg_read_el1 + plat.sysreg_write_el1;
  m.charge(CostKind::kSysreg, kLwcCtxRegs * rw);
  m.charge(CostKind::kSysreg, plat.sysreg_write_ttbr0 + plat.isb);
  m.charge(CostKind::kDispatch, plat.dispatch_lwc);
  m.charge(CostKind::kMem, 24 * plat.mem_access);
  current_ = ctx_id;
  return m.account().total() - start;
}

Cycles LwcIsolation::switch_cost_estimate() const {
  const auto& plat = host_.machine().platform();
  const auto kernel_el =
      vm_ == nullptr ? ExceptionLevel::kEl2 : ExceptionLevel::kEl1;
  const Cycles rw = vm_ == nullptr
                        ? plat.sysreg_read + plat.sysreg_write
                        : plat.sysreg_read_el1 + plat.sysreg_write_el1;
  return plat.excp(ExceptionLevel::kEl0, kernel_el) +
         plat.eret(kernel_el, ExceptionLevel::kEl0) +
         2 * plat.gpr_save_all() + plat.dispatch_kernel +
         kLwcCtxRegs * rw +
         plat.sysreg_write_ttbr0 + plat.isb +
         plat.dispatch_lwc + 24 * plat.mem_access;
}

}  // namespace lz::baseline
