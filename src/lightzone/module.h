// The LightZone kernel module (§4.1.1, §5, §6).
//
// One module instance serves one kernel: the host-kernel module runs
// LightZone processes of the host, and a guest-kernel module (paired with
// the Lowvisor, §5.2.2) runs LightZone processes of a guest VM. Either way
// the process executes *exclusively in EL1 of its own per-process VM*:
//
//   * CPU virtualization: HCR_EL2 confines the process (stage-2 on, SMC and
//     TLB maintenance trapped; TVM/TRVM additionally set for PAN-mode
//     processes so stage-1 control registers cannot be touched).
//   * Memory virtualization: kernel-managed stage-1 domain tables map
//     virtual addresses to *fake* physical pages allocated in fault order
//     (§5.1.2) and a per-process stage-2 table maps fake pages to the real
//     frames; the stage-1 table frames themselves are read-only in stage-2.
//   * Trap handling: the EL1 vector of the process is the API library's
//     forwarding stub (real simulated code); it forwards syscalls and
//     stage-1 faults to this module with HVC (§5.1.3), and the module
//     invokes the kernel's own syscall table.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "hv/guest.h"
#include "hv/host.h"
#include "lightzone/gate.h"
#include "lightzone/sanitizer.h"
#include "mem/fake_phys.h"

namespace lz::core {

inline constexpr int kPgtAll = -1;  // lz_prot: attach to every page table
// Domain tables one LightZone process can hold, the default pgt 0
// included: a table's ASID is its id + 1 (ASID 0 tags the upper table), and
// ASIDs are 16 bits, so ids run 0..0xfffe.
inline constexpr int kMaxDomainTables = 0xffff;

// Syscall numbers of the LightZone API (the user-space library issues
// these; the kernel module serves them — §4.1.1). A process that already
// entered LightZone reaches them through the normal forwarded-SVC path.
namespace lznr {
inline constexpr u32 kAlloc = 0x2001;        // -> pgt id
inline constexpr u32 kFree = 0x2002;         // (pgt)
inline constexpr u32 kProt = 0x2003;         // (addr, len, pgt, perm)
inline constexpr u32 kMapGatePgt = 0x2004;   // (pgt, gate)
inline constexpr u32 kSetGateEntry = 0x2005; // (gate, entry)
}  // namespace lznr

// lz_prot permission bits (Table 2).
enum LzPerm : u32 {
  kLzRead = 1,
  kLzWrite = 2,
  kLzExec = 4,
  // "User" marks the PTE as a user page: accessible from the kernel-mode
  // process only while PAN is disabled (the PAN isolation mechanism).
  kLzUser = 8,
};

struct LzOptions {
  bool allow_scalable = true;               // lz_enter arg 1
  SanitizeMode san_mode = SanitizeMode::kTtbr;  // lz_enter arg 2
  bool sanitize = true;  // insn_san == 0 disables static scanning entirely
  u32 max_gates = 256;
  // §5.2 / §5.1.2 optimisations (switchable for ablation benches).
  bool eager_stage2 = true;     // map stage-2 during the stage-1 fault
  bool fake_phys = true;        // randomised fake-physical layer
  bool shared_ptregs = true;    // nested: share pt_regs page with Lowvisor
  bool deferred_sysregs = true; // nested: NEVE-style deferred register page
};

class LzModule;

// Per-process LightZone state, attached to the kernel's Process object.
class LzContext : public kernel::ProcessExtension {
 public:
  LzContext(LzModule& module, kernel::Process& proc, const LzOptions& opts);
  ~LzContext() override;
  // Process exit: tears the VM down and returns its frames (module.cpp).
  void on_exit() override;

  kernel::Process& proc() { return proc_; }
  const LzOptions& opts() const { return opts_; }

  struct DomainPgt {
    std::unique_ptr<mem::Stage1Table> tbl;
    bool in_use = false;
  };
  struct GateInfo {
    VirtAddr entry = 0;  // legal return address (static, pre-registered)
    int pgt = -1;        // target page table id
  };
  struct ProtRegion {
    VirtAddr start = 0, end = 0;
    int pgt = kPgtAll;
    u32 perm = 0;
  };
  struct LzPage {
    PhysAddr real = 0;
    IntermAddr ipa = 0;      // fake physical page (== real w/o randomisation)
    bool is_protected = false;
    bool exec_sanitized = false;
    bool writable = false;   // current W^X state
    bool executable = false;
  };

  LzModule& module_;
  hv::Host& host_;  // outlives the context, which frees its VMID there
  kernel::Process& proc_;
  LzOptions opts_;

  u16 vmid = 0;
  std::unique_ptr<mem::Stage2Table> stage2;
  mem::FakePhysMap fake;
  std::vector<DomainPgt> pgts;              // id -> domain stage-1 table
  std::unique_ptr<mem::Stage1Table> upper;  // TTBR1 half (stub/gates/tables)
  std::vector<GateInfo> gates;
  std::vector<ProtRegion> regions;
  std::unordered_map<u64, LzPage> pages;    // vpage -> state

  // Physical frames of the two gate tables (module-written, RO to the VM).
  PhysAddr gatetab_pa = 0;
  std::vector<PhysAddr> ttbrtab_pages;  // indexed by pgt_id / 512
  // The other upper-half data frames: forwarding stub and gate code pages.
  std::vector<PhysAddr> code_pages;

  // Saved EL1 execution context of the LightZone process.
  kernel::CpuCtx ctx;
  u64 last_sched_gen = ~u64{0};

  // Statistics (benchmarks & EXPERIMENTS.md).
  u64 s1_faults = 0;
  u64 s2_faults = 0;
  u64 traps = 0;
  u64 sanitized_pages = 0;

  // Whether stage-1 descriptors hold fake pages (the §5.1.2 layer is on).
  bool fake_phys_on() const { return opts_.allow_scalable && opts_.fake_phys; }
  // IPA of a real frame under this context's addressing scheme.
  IntermAddr ipa_of(PhysAddr real);
  // Inverse (module-side use only; the process never sees real frames).
  PhysAddr pa_of(IntermAddr ipa) const;
  // FrameOps for a kernel-managed stage-1 table of this context: frames
  // come from the kernel, get registered at their fake address, and are
  // mapped read-only in stage-2 (§5.1.2).
  mem::FrameOps table_frame_ops();

  // Memory-overhead accounting (§9): frames used by domain tables, the
  // upper half and stage-2.
  u64 isolation_table_pages() const;
};

class LzModule : public hv::TrapDelegate {
 public:
  // Host-kernel module.
  explicit LzModule(hv::Host& host);
  // Guest-kernel module operating with Lowvisor assistance (§5.2.2): the
  // LightZone processes belong to `vm`'s guest kernel and every trap takes
  // the nested forwarding path.
  LzModule(hv::Host& host, hv::GuestVm& vm);
  ~LzModule() override;

  bool nested() const { return vm_ != nullptr; }
  hv::Host& host() { return host_; }
  kernel::Kernel& kern();  // the kernel this module is loaded into
  sim::Machine& machine() { return host_.machine(); }

  // --- Table 2 API (kernel side) ---------------------------------------------
  // Every call reports failure through Status/Result with errno-style
  // codes (Errc::kNoPgt / kBadRange / kBadGate / kNoGate / …); the
  // user-space library translates them to C ints at the Table-2 boundary.
  // lz_enter: move `proc` into its per-process virtual environment.
  LzContext& enter(kernel::Process& proc, const LzOptions& opts);
  // lz_alloc: new stage-1 domain page table; returns its id.
  Result<int> alloc_pgt(LzContext& ctx);
  // lz_free.
  Status free_pgt(LzContext& ctx, int pgt);
  // lz_prot: attach [addr, addr+len) to `pgt` (or kPgtAll) with overlay.
  Status prot(LzContext& ctx, VirtAddr addr, u64 len, int pgt, u32 perm);
  // lz_map_gate_pgt.
  Status map_gate_pgt(LzContext& ctx, int pgt, int gate);
  // Register the static legal entry of a gate (the address after the
  // lz_switch_to_ttbr_gate macro; fixed "before compilation", §6.2).
  Status set_gate_entry(LzContext& ctx, int gate, VirtAddr entry);

  // --- Execution ---------------------------------------------------------------
  // Runs the process (kernel mode, own VM) from ctx.ctx until it exits,
  // is killed, or max_steps elapse.
  sim::RunResult run(LzContext& ctx, u64 max_steps = 10'000'000);

  // Executes the real call-gate code on the core in the current LightZone
  // context (must be called between enter_world/exit_world or during run);
  // returns the cycles the switch consumed on the calling core, or
  // kBadGate / kNoGate when the gate id or its registration is invalid.
  Result<Cycles> exec_gate_switch(LzContext& ctx, int gate);
  // Toggle PAN by executing the MSR PAN instruction path cost.
  Cycles exec_set_pan(LzContext& ctx, bool pan);

  // World management for fine-grained driving (benchmarks). Worlds are
  // per core: each core may have its own LightZone process entered.
  void enter_world(LzContext& ctx);
  void exit_world(LzContext& ctx);
  // enter_world, then stand at EL1 in the default domain on the calling
  // core: TTBR0 = domain_ttbr(ctx, 0), TTBR1 and VBAR from the process's
  // context. PSTATE.PAN is left for the caller to set.
  void enter_el1(LzContext& ctx);
  LzContext* active() { return world().active; }

  // --- TrapDelegate -----------------------------------------------------------
  sim::TrapAction on_el2_trap(const sim::TrapInfo& info) override;

  // HCR_EL2 while one of this module's processes executes.
  u64 lz_hcr(const LzContext& ctx) const;

  // TTBR value (fake root + ASID) the hardware sees for a domain table.
  u64 domain_ttbr(LzContext& ctx, int pgt_id);

  // Pre-fault a page into the LightZone tables (setup/warm-up paths).
  Status touch_page(LzContext& ctx, VirtAddr va, bool want_write,
                    bool want_exec) {
    return fault_in_page(ctx, va, want_write, want_exec);
  }

  // Charged when the kernel unmaps process memory: synchronise LightZone
  // tables (§5.1.2 "synchronized with the kernel-managed page tables").
  void sync_unmap(LzContext& ctx, VirtAddr va);

 private:
  friend class LzContext;

  void register_api_syscalls();
  sim::TrapAction handle_forwarded(LzContext& ctx);
  sim::TrapAction handle_lz_fault(LzContext& ctx, VirtAddr far, u64 esr_el1);
  sim::TrapAction kill(LzContext& ctx, const std::string& reason);

  // Fault-in one page for the LightZone process, applying protection
  // regions, permission translation, sanitizing and W^X.
  Status fault_in_page(LzContext& ctx, VirtAddr va, bool want_write,
                       bool want_exec);
  Status map_page_in_table(LzContext& ctx, mem::Stage1Table& tbl, VirtAddr va,
                           const LzContext::LzPage& page,
                           const mem::S1Attrs& attrs);
  // lz_alloc's copy of a resident unprotected page: when pgt 0 already
  // holds its unprotected mapping, the per-fault steps of fault_in_page
  // written into `tbl` (the new table) alone; otherwise fault_in_page.
  Status copy_unprotected_page(LzContext& ctx, mem::Stage1Table& tbl,
                               VirtAddr va, const LzContext::LzPage& page);
  // Break-before-make for one resident page: detach `va` from every live
  // domain table and retire its stage-2 entry, then one VA-scoped TLBI
  // across every ASID of the VMID.
  Status retire_page(LzContext& ctx, VirtAddr va, IntermAddr ipa);
  // The tail every fault-in shares: stage-2, the TLBI, the mapping charge.
  void finish_fault(LzContext& ctx, VirtAddr va,
                    const LzContext::LzPage& page);
  // Bring the stage-2 entry for `ipa` to exactly `s2`, break-before-make:
  // absent -> map, equal -> no-op, widening -> in-place protect, tightening
  // -> unmap + broadcast TLBI + remap.
  Status stage2_apply(LzContext& ctx, IntermAddr ipa, PhysAddr real,
                      const mem::S2Attrs& s2);
  bool sanitize_page(LzContext& ctx, PhysAddr frame);

  // Build the upper half (stub, gates, GateTab/TTBRTab) for a new context.
  void build_upper_half(LzContext& ctx);
  void write_ttbrtab(LzContext& ctx, int pgt_id, u64 ttbr_value);
  void write_gatetab(LzContext& ctx, int gate_id);

  // Duplicate the kernel-managed table into pgts[0] (PAN mode, §5.1.2).
  void duplicate_kernel_table(LzContext& ctx);

  // Nested-path charging (§5.2.2).
  void charge_nested_entry(LzContext& ctx);
  void charge_nested_exit(LzContext& ctx);

  hv::Host& host_;
  hv::GuestVm* vm_ = nullptr;
  // World state one core owns: the LightZone context it is executing and
  // the host HCR/VTTBR values to restore on exit. Indexed by the calling
  // thread's core binding (mirrors hv::Host::PerCore); no lock — only the
  // owning core's thread touches its slot.
  struct PerCoreWorld {
    LzContext* active = nullptr;
    u64 saved_hcr = 0;
    u64 saved_vttbr = 0;
  };
  PerCoreWorld& world(unsigned core_id) { return world_[core_id]; }
  PerCoreWorld& world() { return world(machine().current_core_id()); }
  std::vector<PerCoreWorld> world_;
};

}  // namespace lz::core
