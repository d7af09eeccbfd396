#include "kernel/kernel.h"

#include <algorithm>
#include <thread>

#include "obs/counters.h"
#include "obs/span.h"

namespace lz::kernel {

using sim::CostKind;

namespace {

// Kernel-level activity shared by host and guest kernels (`kernel.*`).
struct KernelCounters {
  obs::Counter& syscall = obs::registry().counter("kernel.syscall.dispatched");
  obs::Counter& fault_minor = obs::registry().counter("kernel.fault.minor");
  obs::Counter& fault_sigsegv = obs::registry().counter("kernel.fault.sigsegv");
  obs::Counter& signal_delivered =
      obs::registry().counter("kernel.signal.delivered");
  obs::Counter& signal_return =
      obs::registry().counter("kernel.signal.returned");
  obs::Counter& ctx_save = obs::registry().counter("kernel.ctx.save");
  obs::Counter& ctx_load = obs::registry().counter("kernel.ctx.load");
};

KernelCounters& kernel_counters() {
  static KernelCounters c;
  return c;
}

}  // namespace

Process::Process(Kernel& kernel, u32 pid, u16 asid)
    : kernel_(kernel),
      pid_(pid),
      asid_(asid),
      // Page-table frames come from the managing kernel so that guest
      // kernels get them stage-2 mapped like any other frame they own.
      pgt_(std::make_unique<mem::Stage1Table>(
          kernel.machine().mem(), asid,
          mem::FrameOps{[&kernel] { return kernel.alloc_frame(); },
                        [&kernel](PhysAddr pa) { kernel.free_frame(pa); }})) {
  // The kernel's break-before-make shootdowns name (ASID, tlb_vmid); tag
  // the table so the BBM write-protocol oracle matches that scope.
  pgt_->set_vmid(kernel.tlb_vmid());
}

const Vma* Process::find_vma(VirtAddr va) const {
  for (const auto& vma : vmas_) {
    if (vma.contains(va)) return &vma;
  }
  return nullptr;
}

Kernel::Kernel(sim::Machine& machine, std::string name, FrameHook frame_hook)
    : machine_(machine), name_(std::move(name)),
      frame_hook_(std::move(frame_hook)),
      asids_(0xffff, [this] { machine_.tlbi_vmid_is(tlb_vmid_); }) {
  install_default_syscalls();
}

Kernel::~Kernel() = default;

Process& Kernel::create_process() {
  std::lock_guard<std::recursive_mutex> lock(mm_mu_);
  const u32 pid = next_pid_++;
  const auto id = asids_.alloc();
  LZ_CHECK(id.has_value());  // 65,535 live processes
  const auto asid = static_cast<u16>(*id);
  auto proc = std::make_unique<Process>(*this, pid, asid);
  auto [it, ok] = procs_.emplace(pid, std::move(proc));
  LZ_CHECK(ok);
  Process& p = *it->second;
  p.ctx().ttbr0 = p.pgt().ttbr();
  arch::PState el0;
  el0.el = arch::ExceptionLevel::kEl0;
  p.ctx().spsr = el0.to_spsr();
  return p;
}

Process* Kernel::find(u32 pid) {
  std::lock_guard<std::recursive_mutex> lock(mm_mu_);
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : it->second.get();
}

void Kernel::destroy(Process& proc) {
  std::lock_guard<std::recursive_mutex> lock(mm_mu_);
  if (auto* ext = proc.extension()) ext->on_exit();
  // Break-before-make, as in munmap but for the whole address space: clear
  // every user descriptor, one ASID-scoped broadcast covers them all (user
  // pages are never global), and only then do the frames go back. The
  // page-table frames follow with the Process.
  std::vector<std::pair<VirtAddr, PhysAddr>> pages;
  proc.pgt().for_each([&](VirtAddr va, u64 desc) {
    pages.emplace_back(va, mem::pte::addr(desc));
  });
  for (const auto& [va, pa] : pages) LZ_CHECK_OK(proc.pgt().unmap(va));
  if (!pages.empty()) machine_.tlbi_asid_is(proc.asid(), tlb_vmid_);
  for (const auto& [va, pa] : pages) free_frame(pa);
  pages_mapped_ -= pages.size();
  asids_.free(proc.asid());
  procs_.erase(proc.pid());
}

PhysAddr Kernel::alloc_frame() {
  const PhysAddr pa = machine_.mem().alloc_frame();
  if (frame_hook_) frame_hook_(pa);
  return pa;
}

void Kernel::free_frame(PhysAddr pa) { machine_.mem().free_frame(pa); }

// --- Virtual memory ----------------------------------------------------------

namespace {

mem::S1Attrs user_attrs(u8 prot) {
  mem::S1Attrs a;
  a.user = true;
  a.read_only = !(prot & kProtWrite);
  a.uxn = !(prot & kProtExec);
  a.pxn = true;      // user pages are never privileged-executable
  a.global = false;  // per-process ASID tagging
  return a;
}

}  // namespace

Status Kernel::mmap(Process& proc, VirtAddr va, u64 len, u8 prot,
                    bool populate) {
  std::lock_guard<std::recursive_mutex> lock(mm_mu_);
  if (!page_aligned(va) || len == 0) {
    return err(Errc::kInvalidArgument, "mmap alignment");
  }
  const VirtAddr end = va + page_ceil(len);
  for (const auto& vma : proc.vmas()) {
    if (va < vma.end && vma.start < end) {
      return err(Errc::kAlreadyExists, "mmap overlap");
    }
  }
  proc.vmas().push_back(Vma{va, end, prot});
  if (populate) {
    for (VirtAddr p = va; p < end; p += kPageSize) {
      LZ_RETURN_IF_ERROR(populate_page(proc, p, prot));
    }
  }
  return Status::ok();
}

Status Kernel::populate_page(Process& proc, VirtAddr va, u8 prot) {
  std::lock_guard<std::recursive_mutex> lock(mm_mu_);
  va = page_floor(va);
  const auto walk = proc.pgt().lookup(va);
  if (walk.ok) return Status::ok();  // already present
  const PhysAddr frame = alloc_frame();
  LZ_RETURN_IF_ERROR(proc.pgt().map(va, frame, user_attrs(prot)));
  ++pages_mapped_;
  return Status::ok();
}

Status Kernel::munmap(Process& proc, VirtAddr va, u64 len) {
  std::lock_guard<std::recursive_mutex> lock(mm_mu_);
  const VirtAddr end = va + page_ceil(len);
  auto& vmas = proc.vmas();
  for (auto it = vmas.begin(); it != vmas.end(); ++it) {
    if (it->start == va && it->end == end) {
      for (VirtAddr p = va; p < end; p += kPageSize) {
        const auto walk = proc.pgt().lookup(p);
        if (walk.ok) {
          // Break-before-make: clear the descriptor, broadcast the
          // shootdown to every core, and only then release the frame —
          // a remote core must never translate through a freed frame.
          // User pages are never global, so TLBI VAE1IS scoped to the
          // process's own ASID suffices.
          LZ_CHECK_OK(proc.pgt().unmap(p));
          machine_.tlbi_va_is(page_index(p), proc.asid(), tlb_vmid_);
          if (on_unmap) on_unmap(proc, p);
          free_frame(page_floor(walk.out_addr));
          --pages_mapped_;
        }
      }
      vmas.erase(it);
      return Status::ok();
    }
  }
  return err(Errc::kNotFound, "munmap: no matching vma");
}

Status Kernel::mprotect(Process& proc, VirtAddr va, u64 len, u8 prot) {
  std::lock_guard<std::recursive_mutex> lock(mm_mu_);
  const VirtAddr end = va + page_ceil(len);
  for (auto& vma : proc.vmas()) {
    if (vma.start <= va && end <= vma.end) {
      // Split handling kept simple: protection change applies to the whole
      // request range; VMA bookkeeping tracks the covering region's prot
      // only when the range covers it exactly.
      if (vma.start == va && vma.end == end) vma.prot = prot;
      for (VirtAddr p = va; p < end; p += kPageSize) {
        const auto walk = proc.pgt().lookup(p);
        if (walk.ok) {
          // Break-before-make (ARM ARM D8.14): invalidate the descriptor,
          // broadcast, then install the new permissions — never rewrite a
          // live descriptor in place while other cores may hold it. The
          // page belongs to one non-global regime, so the ASID-scoped
          // TLBI VAE1IS form is the correct (and cheapest) one.
          LZ_CHECK_OK(proc.pgt().unmap(p));
          machine_.tlbi_va_is(page_index(p), proc.asid(), tlb_vmid_);
          LZ_CHECK_OK(
              proc.pgt().map(p, page_floor(walk.out_addr), user_attrs(prot)));
        }
      }
      return Status::ok();
    }
  }
  return err(Errc::kNotFound, "mprotect: range not covered by one vma");
}

Kernel::FaultOutcome Kernel::handle_user_fault(Process& proc, VirtAddr va,
                                               bool is_write, bool is_exec,
                                               bool permission_fault) {
  std::lock_guard<std::recursive_mutex> lock(mm_mu_);
  const auto sigsegv = [] {
    kernel_counters().fault_sigsegv.add();
    return FaultOutcome::kSigsegv;
  };
  const Vma* vma = proc.find_vma(va);
  if (vma == nullptr) return sigsegv();
  if (is_exec && !(vma->prot & kProtExec)) return sigsegv();
  if (is_write && !(vma->prot & kProtWrite)) return sigsegv();
  if (!is_write && !is_exec && !(vma->prot & kProtRead)) {
    return sigsegv();
  }
  if (permission_fault) return sigsegv();  // real violation
  LZ_CHECK_OK(populate_page(proc, va, vma->prot));
  ++proc.minor_faults;
  kernel_counters().fault_minor.add();
  return FaultOutcome::kHandled;
}

bool Kernel::copy_to_user(Process& proc, VirtAddr dst, const void* src,
                          u64 len) {
  std::lock_guard<std::recursive_mutex> lock(mm_mu_);
  const auto* bytes = static_cast<const u8*>(src);
  while (len > 0) {
    const Vma* vma = proc.find_vma(dst);
    if (vma == nullptr) return false;
    if (!populate_page(proc, dst, vma->prot).is_ok()) return false;
    const auto walk = proc.pgt().lookup(page_floor(dst));
    if (!walk.ok) return false;
    const u64 chunk = std::min(len, kPageSize - page_offset(dst));
    machine_.mem().write_bytes(page_floor(walk.out_addr) + page_offset(dst),
                               bytes, chunk);
    dst += chunk;
    bytes += chunk;
    len -= chunk;
  }
  return true;
}

bool Kernel::copy_from_user(Process& proc, VirtAddr src, void* dst, u64 len) {
  std::lock_guard<std::recursive_mutex> lock(mm_mu_);
  auto* bytes = static_cast<u8*>(dst);
  while (len > 0) {
    const auto walk = proc.pgt().lookup(page_floor(src));
    if (!walk.ok) return false;
    const u64 chunk = std::min(len, kPageSize - page_offset(src));
    machine_.mem().read_bytes(page_floor(walk.out_addr) + page_offset(src),
                              bytes, chunk);
    src += chunk;
    bytes += chunk;
    len -= chunk;
  }
  return true;
}

// --- Syscalls ----------------------------------------------------------------

void Kernel::register_syscall(u32 nr, SyscallHandler handler) {
  syscalls_[nr] = std::move(handler);
}

void Kernel::register_ioctl_device(u64 fd, IoctlHandler handler) {
  ioctl_devices_[fd] = std::move(handler);
}

void Kernel::dispatch_syscall(Process& proc, sim::Core& core) {
  const auto& plat = machine_.platform();
  kernel_counters().syscall.add();
  const obs::SpanScope span(obs::SpanKind::kSyscall, core.x(8), tlb_vmid_,
                            proc.asid());
  // Kernel entry: save pt_regs, dispatch through the syscall table.
  machine_.charge(CostKind::kGpr, plat.gpr_save_all());
  machine_.charge(CostKind::kDispatch, plat.dispatch_kernel);

  SyscallArgs args;
  args.nr = static_cast<u32>(core.x(8));
  for (int i = 0; i < 6; ++i) args.a[i] = core.x(i);

  if (args.nr == nr::kRtSigreturn) {
    // Restores the whole frame (registers, PC, PSTATE.PAN, TTBR0); the
    // caller's ERET path then resumes the interrupted context.
    if (!signal_return(proc, core)) proc.mark_killed("bad signal frame");
    machine_.charge(CostKind::kGpr, plat.gpr_save_all());
    return;
  }

  u64 ret = kEnosys;
  auto it = syscalls_.find(args.nr);
  if (it != syscalls_.end()) ret = it->second(proc, args);
  core.set_x(0, ret);

  machine_.charge(CostKind::kGpr, plat.gpr_save_all());  // restore on exit
}

void Kernel::install_default_syscalls() {
  register_syscall(nr::kEmpty, [](Process&, const SyscallArgs&) -> u64 {
    return 0;  // empty roundtrip for trap microbenchmarks
  });
  register_syscall(nr::kGetpid, [](Process& p, const SyscallArgs&) -> u64 {
    return p.pid();
  });
  register_syscall(nr::kGettid, [](Process& p, const SyscallArgs&) -> u64 {
    return p.pid();
  });
  register_syscall(nr::kSchedYield, [this](Process&, const SyscallArgs&) {
    bump_sched_generation();
    return u64{0};
  });
  register_syscall(nr::kExit, [](Process& p, const SyscallArgs& a) -> u64 {
    p.mark_exited(static_cast<int>(a.a[0]));
    return 0;
  });
  register_syscall(nr::kExitGroup, [](Process& p, const SyscallArgs& a) {
    p.mark_exited(static_cast<int>(a.a[0]));
    return u64{0};
  });
  register_syscall(nr::kWrite, [this](Process& p, const SyscallArgs& a) -> u64 {
    std::string buf(a.a[2], '\0');
    if (!copy_from_user(p, a.a[1], buf.data(), buf.size())) return kEfault;
    p.stdout_buf() += buf;
    return a.a[2];
  });
  register_syscall(nr::kMmap, [this](Process& p, const SyscallArgs& a) -> u64 {
    const u8 prot = static_cast<u8>(a.a[2]);
    const Status s = mmap(p, a.a[0], a.a[1], prot);
    return s.is_ok() ? a.a[0] : kEinval;
  });
  register_syscall(nr::kMunmap,
                   [this](Process& p, const SyscallArgs& a) -> u64 {
    return munmap(p, a.a[0], a.a[1]).is_ok() ? 0 : kEinval;
  });
  register_syscall(nr::kMprotect,
                   [this](Process& p, const SyscallArgs& a) -> u64 {
    return mprotect(p, a.a[0], a.a[1], static_cast<u8>(a.a[2])).is_ok()
               ? 0
               : kEinval;
  });
  register_syscall(nr::kRtSigaction,
                   [](Process& p, const SyscallArgs& a) -> u64 {
    const int signo = static_cast<int>(a.a[0]);
    if (signo < 0 || signo >= 32) return kEinval;
    p.sigactions()[signo].handler = a.a[1];
    return 0;
  });
  register_syscall(nr::kIoctl,
                   [](Process&, const SyscallArgs&) -> u64 {
    return kEinval;  // replaced by dispatch in hv layers that own a core
  });
}

// --- Signals -----------------------------------------------------------------

namespace {
// Signal frame layout (all u64): x0..x30, pc, spsr, ttbr0, tpidr.
constexpr u64 kSigFrameWords = 31 + 4;
}  // namespace

bool Kernel::deliver_signal(Process& proc, sim::Core& core, int signo) {
  if (signo < 0 || signo >= 32) return false;
  const VirtAddr handler = proc.sigactions()[signo].handler;
  if (handler == 0) return false;

  // Build the frame in kernel space, then copy it to the user stack.
  std::array<u64, kSigFrameWords> frame;
  for (unsigned i = 0; i < 31; ++i) frame[i] = core.x(i);
  frame[31] = core.pc();
  frame[32] = core.pstate().to_spsr();  // embeds PAN (§6)
  frame[33] = core.sysreg(sim::SysReg::kTtbr0El1);  // embeds domain (§6)
  frame[34] = core.sysreg(sim::SysReg::kTpidrEl0);

  const u64 sp_el = static_cast<int>(core.pstate().el);
  u64 sp = core.sp(static_cast<arch::ExceptionLevel>(sp_el));
  sp -= kSigFrameWords * 8;
  if (!copy_to_user(proc, sp, frame.data(), kSigFrameWords * 8)) return false;

  core.set_sp(static_cast<arch::ExceptionLevel>(sp_el), sp);
  core.set_x(0, static_cast<u64>(signo));
  core.set_x(1, sp);  // frame pointer handed to the handler
  core.set_pc(handler);
  return true;
}

bool Kernel::signal_return(Process& proc, sim::Core& core) {
  // The frame sits at the interrupted context's SP (the handler ran on it).
  const auto target_el = arch::PState::from_spsr(
      core.sysreg(core.pstate().el == arch::ExceptionLevel::kEl2
                      ? sim::SysReg::kSpsrEl2
                      : sim::SysReg::kSpsrEl1)).el;
  const u64 sp = core.sp(target_el);
  std::array<u64, kSigFrameWords> frame;
  if (!copy_from_user(proc, sp, frame.data(), kSigFrameWords * 8)) {
    return false;
  }
  for (unsigned i = 0; i < 31; ++i) core.set_x(i, frame[i]);
  // The caller resumes the process with a normal ERET: route the restored
  // PC and PSTATE (which embeds PAN, §6) through the exception-return
  // registers of whichever level performs it.
  core.set_sysreg(sim::SysReg::kElrEl1, frame[31]);
  core.set_sysreg(sim::SysReg::kSpsrEl1, frame[32]);
  core.set_sysreg(sim::SysReg::kElrEl2, frame[31]);
  core.set_sysreg(sim::SysReg::kSpsrEl2, frame[32]);
  core.set_sysreg(sim::SysReg::kTtbr0El1, frame[33]);  // restores the domain
  core.set_sysreg(sim::SysReg::kTpidrEl0, frame[34]);
  const auto st = arch::PState::from_spsr(frame[32]);
  core.set_sp(st.el, sp + kSigFrameWords * 8);
  machine_.charge(CostKind::kSysreg, machine_.platform().sysreg_write_ttbr0);
  kernel_counters().signal_return.add();
  return true;
}

bool Kernel::maybe_deliver_pending(Process& proc, sim::Core& core,
                                   arch::ExceptionLevel elr_el) {
  const int signo = proc.pending_signal;
  if (signo == 0) return false;
  if (signo < 0 || signo >= 32 || proc.sigactions()[signo].handler == 0) {
    proc.pending_signal = 0;
    return false;
  }
  proc.pending_signal = 0;

  const bool el2 = elr_el == arch::ExceptionLevel::kEl2;
  const u64 elr = core.sysreg(el2 ? sim::SysReg::kElrEl2 : sim::SysReg::kElrEl1);
  const u64 spsr =
      core.sysreg(el2 ? sim::SysReg::kSpsrEl2 : sim::SysReg::kSpsrEl1);

  std::array<u64, kSigFrameWords> frame;
  for (unsigned i = 0; i < 31; ++i) frame[i] = core.x(i);
  frame[31] = elr;   // interrupted PC
  frame[32] = spsr;  // interrupted PSTATE (embeds PAN, §6)
  frame[33] = core.sysreg(sim::SysReg::kTtbr0El1);  // the active domain (§6)
  frame[34] = core.sysreg(sim::SysReg::kTpidrEl0);

  const auto target_el = arch::PState::from_spsr(spsr).el;
  u64 sp = core.sp(target_el) - kSigFrameWords * 8;
  if (!copy_to_user(proc, sp, frame.data(), kSigFrameWords * 8)) {
    proc.mark_killed("signal frame push failed");
    return false;
  }
  core.set_sp(target_el, sp);
  core.set_x(0, static_cast<u64>(signo));
  core.set_x(1, sp);
  // Divert the exception return into the handler (the PSTATE part of the
  // return is unchanged: the handler runs at the interrupted EL).
  core.set_sysreg(el2 ? sim::SysReg::kElrEl2 : sim::SysReg::kElrEl1,
                  proc.sigactions()[signo].handler);
  machine_.charge(CostKind::kDispatch, machine_.platform().dispatch_kernel);
  kernel_counters().signal_delivered.add();
  return true;
}

void Kernel::save_ctx(Process& proc, sim::Core& core) {
  auto& ctx = proc.ctx();
  for (unsigned i = 0; i < 31; ++i) ctx.x[i] = core.x(i);
  const auto el = core.pstate().el;
  ctx.sp = core.sp(el);
  ctx.pc = core.pc();
  ctx.spsr = core.pstate().to_spsr();
  ctx.ttbr0 = core.sysreg(sim::SysReg::kTtbr0El1);
  ctx.tpidr = core.sysreg(sim::SysReg::kTpidrEl0);
  machine_.charge(CostKind::kGpr, machine_.platform().gpr_save_all());
  kernel_counters().ctx_save.add();
}

// --- SMP scheduling ----------------------------------------------------------

unsigned Kernel::submit(CoreTask task) {
  std::unique_lock<std::mutex> lock(sched_mu_);
  const unsigned core = rr_next_;
  rr_next_ = (rr_next_ + 1) % machine_.num_cores();
  lock.unlock();
  run_on(core, std::move(task));
  return core;
}

void Kernel::run_on(unsigned core_id, CoreTask task) {
  LZ_CHECK(core_id < machine_.num_cores());
  // Capture the enqueuing thread's span context here, not in the worker:
  // the queue hop is where causality would otherwise break.
  const u64 span_parent = obs::SpanTracer::current();
  std::lock_guard<std::mutex> lock(sched_mu_);
  if (run_queues_.size() < machine_.num_cores()) {
    run_queues_.resize(machine_.num_cores());
  }
  run_queues_[core_id].push_back({std::move(task), span_parent});
}

std::size_t Kernel::queued_tasks() const {
  std::lock_guard<std::mutex> lock(sched_mu_);
  std::size_t n = 0;
  for (const auto& q : run_queues_) n += q.size();
  return n;
}

void Kernel::schedule() {
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (run_queues_.size() < machine_.num_cores()) {
      run_queues_.resize(machine_.num_cores());
    }
  }
  // One OS thread per simulated core that has work. Each worker binds to
  // its core, so every machine accessor inside a task resolves to that
  // core's TLB/account/sysregs; tasks may run_on() more work while running
  // (their own queue or another core's — the worker drains until empty).
  std::vector<std::thread> workers;
  for (unsigned id = 0; id < machine_.num_cores(); ++id) {
    bool has_work;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      has_work = !run_queues_[id].empty();
    }
    if (!has_work) continue;
    workers.emplace_back([this, id] {
      sim::Machine::CoreBinding bind(machine_, id);
      for (;;) {
        QueuedTask task;
        {
          std::lock_guard<std::mutex> lock(sched_mu_);
          auto& q = run_queues_[id];
          if (q.empty()) break;
          task = std::move(q.front());
          q.pop_front();
        }
        // Re-establish the submitter's span as the ambient parent and run
        // the task under its own span, so cross-core work stays attached
        // to the request that queued it.
        obs::SpanTracer::Adopt adopt(task.span_parent);
        obs::SpanScope span(obs::SpanKind::kTask, id);
        task.fn(id);
      }
    });
  }
  for (auto& w : workers) w.join();
  bump_sched_generation();
}

void Kernel::load_ctx(Process& proc, sim::Core& core) {
  auto& ctx = proc.ctx();
  for (unsigned i = 0; i < 31; ++i) core.set_x(i, ctx.x[i]);
  const auto st = arch::PState::from_spsr(ctx.spsr);
  core.pstate() = st;
  core.set_sp(st.el, ctx.sp);
  core.set_pc(ctx.pc);
  core.set_sysreg(sim::SysReg::kTtbr0El1, ctx.ttbr0);
  core.set_sysreg(sim::SysReg::kTpidrEl0, ctx.tpidr);
  machine_.charge(CostKind::kGpr, machine_.platform().gpr_save_all());
  machine_.charge(CostKind::kSysreg, machine_.platform().sysreg_write_ttbr0);
  kernel_counters().ctx_load.add();
}

}  // namespace lz::kernel
