// Cost-model IsolationBackends (DESIGN.md §14).
//
// ModelBackend re-states the Table-2 validation semantics of the live
// LightZone module (and of check::ShadowTable2) over plain bookkeeping —
// live pgt slots, a gate table, protection regions, VMAs — and delegates
// the *mechanism* to subclass hooks that charge the simulated clock:
//
//   WatchpointBackend  — the §8 debug-register baseline [23] promoted onto
//                        the IsolationBackend interface (16-domain cap from
//                        the four DBGW pairs; ioctl + 8 register writes per
//                        switch, via the existing WatchpointIsolation).
//   LwcBackend         — light-weight contexts [31]: every switch is a
//                        syscall plus heavy kernel bookkeeping, via the
//                        existing LwcIsolation.
//   PoeBackend (poe.h) — FEAT_S1POE / MPK-flavour overlay keys.
//   CcaBackend (cca.h) — CCA/RME granule protection.
//
// Because validation is identical across backends, the fuzz driver's
// differential oracle runs unchanged against any of them; only the cycles
// charged differ.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "baselines/lwc.h"
#include "baselines/watchpoint.h"
#include "lightzone/api.h"

namespace lz::baseline {

class ModelBackend : public core::IsolationBackend {
 public:
  ModelBackend(core::Env& env, u32 max_gates);

  Result<int> alloc() override;
  Status free_domain(int pgt) override;
  Status prot(VirtAddr addr, u64 len, int pgt, u32 perm) override;
  Status map_gate_pgt(int pgt, int gate) override;
  Status set_gate_entry(int gate, VirtAddr entry) override;
  Result<Cycles> switch_to(int gate) override;
  // No PAN-class fast path in the modelled rivals.
  Cycles set_pan(bool) override { return 0; }
  Status touch(VirtAddr va, bool want_write, bool want_exec) override;
  Cycles access(VirtAddr va) override;
  u32 max_gates() const override { return max_gates_; }
  core::BackendStats stats() const override { return stats_; }

  // Process layout the touch() validation checks against (read permission
  // is implicit, as in kernel VMAs).
  void add_vma(VirtAddr start, VirtAddr end, bool write, bool exec);

  int current_domain() const { return current_; }

 protected:
  // Mechanism hooks. The base charges the kernel entry/exit every verb
  // pays (Table-2 calls are syscalls for every modelled mechanism); hooks
  // add the mechanism-specific work on the validated path.
  virtual Status on_alloc(int pgt) {
    (void)pgt;
    return Status::ok();
  }
  virtual void on_free(int pgt) { (void)pgt; }
  virtual void on_prot(VirtAddr start, VirtAddr end, int pgt) {
    (void)start, (void)end, (void)pgt;
  }
  // Move the calling thread from current_domain() to `pgt` (live, valid).
  virtual void do_switch(int pgt) = 0;
  // Extra cost of one data access beyond the L1 hit the base charges.
  virtual void do_access(VirtAddr va) { (void)va; }

  sim::Machine& machine() { return *env_.machine; }
  const arch::Platform& plat() { return machine().platform(); }
  void charge_kernel_roundtrip();
  // Pages covered by `pgt`'s private protection regions.
  u64 domain_pages(int pgt) const;

  core::Env& env_;
  core::BackendStats stats_;

 private:
  struct Region {
    VirtAddr start = 0, end = 0;
    int pgt = -1;
  };
  struct Gate {
    VirtAddr entry = 0;
    int pgt = -1;
  };
  struct Vma {
    VirtAddr start = 0, end = 0;
    bool write = false, exec = false;
  };

  bool pgt_live(int pgt) const {
    return pgt >= 0 && static_cast<std::size_t>(pgt) < pgts_.size() &&
           pgts_[pgt];
  }
  bool gate_in_range(int gate) const {
    return gate >= 0 && static_cast<u32>(gate) < max_gates_;
  }

  u32 max_gates_;
  int current_ = 0;
  std::vector<char> pgts_;  // slot i = pgt id i live? (slot 0: default)
  std::vector<Gate> gates_;
  std::vector<Region> regions_;
  std::vector<Vma> vmas_;
};

// §8 Watchpoint baseline on the backend interface. The four DBGW pairs
// watch a 16-slot arena: pgt p owns slot p-1, and the default domain (pgt
// 0) watches every slot, so alloc() exhausts at id 17 — the one place the
// shared validation diverges per backend, mirrored by ShadowTable2's
// backend tag. The arena is the process's own layout: the first private
// lz_prot that fits the §8 constraint (equal power-of-two slots in an
// arena aligned to its size, slot p-1 at the region) re-bases it there;
// until then a private arena at 0x40000000 stands in.
class WatchpointBackend final : public ModelBackend {
 public:
  WatchpointBackend(core::Env& env, u32 max_gates);

  core::BackendKind kind() const override {
    return core::BackendKind::kWatchpoint;
  }

 protected:
  void on_prot(VirtAddr start, VirtAddr end, int pgt) override;
  void do_switch(int pgt) override;

 private:
  WatchpointIsolation wp_;
  bool arena_from_prot_ = false;
};

// lwC baseline [31] on the backend interface: one kernel context per
// domain, created at lz_alloc; the switch is LwcIsolation's full syscall +
// bookkeeping path.
class LwcBackend final : public ModelBackend {
 public:
  LwcBackend(core::Env& env, u32 max_gates);

  core::BackendKind kind() const override { return core::BackendKind::kLwc; }

 protected:
  Status on_alloc(int pgt) override;
  void do_switch(int pgt) override { lwc_.switch_to(ctx_of_.at(pgt)); }

 private:
  LwcIsolation lwc_;
  std::unordered_map<int, int> ctx_of_;  // pgt id -> lwC context id
};

// Construct a model backend of `kind` over `env`, pre-loaded with the
// standard Env process layout (code RX, heap RW, stack RW VMAs). Returns
// the ModelBackend type so callers can extend the VMA map (add_vma).
// kTtbrPan has no model — it needs a real process (use make_backend_proc).
std::shared_ptr<ModelBackend> make_backend(core::BackendKind kind,
                                           core::Env& env,
                                           u32 max_gates = 256);

// Uniform entry point for benches and tests: an LzProc speaking `kind`.
// For kTtbrPan this creates a fresh process and enters the real module
// (allow_scalable, TTBR sanitizer); for the others it wraps make_backend.
core::LzProc make_backend_proc(core::BackendKind kind, core::Env& env);

}  // namespace lz::baseline
