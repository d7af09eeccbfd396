// The kernel model: process table, virtual-memory management (demand
// paging over VMAs), syscall dispatch, signals, and a simple scheduler
// generation counter. One Kernel instance serves as the host kernel
// (logically at EL2 under VHE) and further instances serve as guest
// kernels (at EL1 inside VMs) — the trap-routing layers in src/hv wire
// each instance to the simulated core.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/process.h"
#include "sim/machine.h"
#include "support/id_allocator.h"

namespace lz::kernel {

// Linux arm64 syscall numbers for the modelled subset.
namespace nr {
inline constexpr u32 kIoctl = 29;
inline constexpr u32 kRead = 63;
inline constexpr u32 kWrite = 64;
inline constexpr u32 kExit = 93;
inline constexpr u32 kExitGroup = 94;
inline constexpr u32 kSchedYield = 124;
inline constexpr u32 kRtSigaction = 134;
inline constexpr u32 kRtSigreturn = 139;
inline constexpr u32 kGetpid = 172;
inline constexpr u32 kGettid = 178;
inline constexpr u32 kBrk = 214;
inline constexpr u32 kMunmap = 215;
inline constexpr u32 kMmap = 222;
inline constexpr u32 kMprotect = 226;
inline constexpr u32 kGetrandom = 278;
// Not a real Linux call: an empty syscall for trap microbenchmarks, like
// the paper's "empty trap-and-return roundtrip" (Table 4).
inline constexpr u32 kEmpty = 0x0fff;
}  // namespace nr

// Classic -errno style results.
inline constexpr u64 kEfault = static_cast<u64>(-14);
inline constexpr u64 kEinval = static_cast<u64>(-22);
inline constexpr u64 kEnosys = static_cast<u64>(-38);
inline constexpr u64 kEnomem = static_cast<u64>(-12);
inline constexpr u64 kEperm = static_cast<u64>(-1);

struct SyscallArgs {
  u64 a[6];
  u32 nr;
};

class Kernel {
 public:
  // `frame_hook` is invoked for every frame the kernel hands to a process
  // (guest kernels use it to get the frame identity-mapped in stage-2).
  using FrameHook = std::function<void(PhysAddr)>;

  Kernel(sim::Machine& machine, std::string name,
         FrameHook frame_hook = nullptr);
  ~Kernel();

  sim::Machine& machine() { return machine_; }
  const std::string& name() const { return name_; }

  // VMID tagging this kernel's EL1&0 translations carry in the TLB: 0 for
  // the host (stage-2 off), the VM's VMID for a guest kernel. Break-before-
  // make shootdowns must target it, or a guest kernel would invalidate the
  // host's entries and leave its own stale ones live.
  u16 tlb_vmid() const { return tlb_vmid_; }
  void set_tlb_vmid(u16 vmid) { tlb_vmid_ = vmid; }

  // --- Processes -------------------------------------------------------------
  Process& create_process();
  Process* find(u32 pid);
  void destroy(Process& proc);

  // --- Virtual memory --------------------------------------------------------
  Status mmap(Process& proc, VirtAddr va, u64 len, u8 prot,
              bool populate = false);
  Status munmap(Process& proc, VirtAddr va, u64 len);
  Status mprotect(Process& proc, VirtAddr va, u64 len, u8 prot);

  // Demand-page one address; returns false if the access is illegal and
  // the process should be killed.
  enum class FaultOutcome { kHandled, kSigsegv };
  FaultOutcome handle_user_fault(Process& proc, VirtAddr va, bool is_write,
                                 bool is_exec, bool permission_fault);

  // Allocate + map a frame at `va` with `prot` right now (pre-population).
  Status populate_page(Process& proc, VirtAddr va, u8 prot);

  // Frame allocation routed through the hook.
  PhysAddr alloc_frame();
  void free_frame(PhysAddr pa);

  // Copy between kernel and user memory through the process page table
  // (get_user / put_user analogue; no PAN issues — the kernel uses its
  // own mapping of the frame).
  bool copy_to_user(Process& proc, VirtAddr dst, const void* src, u64 len);
  bool copy_from_user(Process& proc, VirtAddr src, void* dst, u64 len);

  // --- Syscalls --------------------------------------------------------------
  using SyscallHandler = std::function<u64(Process&, const SyscallArgs&)>;
  void register_syscall(u32 nr, SyscallHandler handler);
  // Reads the syscall ABI (x8, x0..x5) from the core, dispatches, and
  // writes the result to x0. Charges the kernel's dispatch cost.
  void dispatch_syscall(Process& proc, sim::Core& core);

  // ioctl device registry (the Watchpoint/lwC baselines are "devices").
  using IoctlHandler =
      std::function<u64(Process&, u64 cmd, u64 arg, sim::Core& core)>;
  void register_ioctl_device(u64 fd, IoctlHandler handler);

  // --- Signals ---------------------------------------------------------------
  // Push a signal frame (x0-x30, pc, spsr — which embeds PAN — and TTBR0,
  // per §6) and divert the core to the handler. Returns false if no
  // handler is installed.
  bool deliver_signal(Process& proc, sim::Core& core, int signo);
  // rt_sigreturn: pop the frame at the current SP and restore everything,
  // including PSTATE.PAN and the TTBR0 domain selection.
  bool signal_return(Process& proc, sim::Core& core);
  // Mark a signal pending; it is delivered at the next trap boundary.
  void queue_signal(Process& proc, int signo) { proc.pending_signal = signo; }
  // Called by the trap layers on the way out of a syscall: if a signal is
  // pending and handled, push the frame (saving the interrupted PC/PSTATE
  // from ELR/SPSR of `elr_el` — which embed PAN and pair with TTBR0, §6)
  // and divert the exception return to the handler.
  bool maybe_deliver_pending(Process& proc, sim::Core& core,
                             arch::ExceptionLevel elr_el);

  // --- Context switching -----------------------------------------------------
  void save_ctx(Process& proc, sim::Core& core);
  void load_ctx(Process& proc, sim::Core& core);

  // Scheduler epoch: bumped by sched_yield and by the benches to model
  // reschedules (drives the pt_regs relocation cost range in Table 4).
  u64 sched_generation() const {
    return sched_generation_.load(std::memory_order_relaxed);
  }
  void bump_sched_generation() {
    sched_generation_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- SMP scheduling --------------------------------------------------------
  // Per-core FIFO run queues over the machine's simulated cores. A task is
  // arbitrary work pinned to one core (typically "drive this process /
  // LzProc"); schedule() spawns one std::thread per core with work, binds
  // it to that core (Machine::CoreBinding), drains the queues concurrently
  // and joins. Tasks may enqueue further tasks while running.
  using CoreTask = std::function<void(unsigned core_id)>;
  // Round-robin placement across cores; returns the chosen core id.
  // Enqueuing captures the caller's innermost open span (obs), so the
  // worker's task span stays causally linked to the submitting request
  // across the queue hop (free when span tracing is disarmed).
  unsigned submit(CoreTask task);
  // Pinned placement.
  void run_on(unsigned core_id, CoreTask task);
  // Run until every queue is empty; returns with all workers joined.
  void schedule();
  std::size_t queued_tasks() const;

  // Invoked for every page the kernel unmaps from a process, so subsystems
  // mirroring translations (the LightZone module, §5.1.2) stay in sync.
  std::function<void(Process&, VirtAddr)> on_unmap;

  // Memory accounting for §9's overhead numbers.
  u64 pages_mapped() const { return pages_mapped_; }

 private:
  void install_default_syscalls();

  sim::Machine& machine_;
  std::string name_;
  FrameHook frame_hook_;
  // One kernel serves all cores: the process table and every VM operation
  // (mmap/munmap/mprotect/fault/copy_*) serialise on the mm lock, the same
  // contract as a kernel's mmap_lock. Recursive because mmap(populate=true)
  // and copy_to_user re-enter populate_page. Syscall/ioctl registries are
  // set up single-threaded before schedule() and read-only afterwards.
  mutable std::recursive_mutex mm_mu_;
  u32 next_pid_ = 1;
  u16 tlb_vmid_ = 0;
  // Process ASIDs: a dead process's ASID returns only after a rollover,
  // whose covering TLBI (VMALLE1IS in tlb_vmid_) retires its entries.
  IdAllocator asids_;
  std::unordered_map<u32, std::unique_ptr<Process>> procs_;
  std::unordered_map<u32, SyscallHandler> syscalls_;
  std::unordered_map<u64, IoctlHandler> ioctl_devices_;
  std::atomic<u64> sched_generation_{0};
  u64 pages_mapped_ = 0;

  // A queued task plus the span context it was submitted under (0 when
  // span tracing is disarmed or the submitter had no open span).
  struct QueuedTask {
    CoreTask fn;
    u64 span_parent = 0;
  };

  mutable std::mutex sched_mu_;
  std::vector<std::deque<QueuedTask>> run_queues_;
  unsigned rr_next_ = 0;
};

}  // namespace lz::kernel
