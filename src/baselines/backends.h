// Cost-model IsolationBackends (DESIGN.md §14).
//
// ModelBackend keeps its Table-2 state — live pgt slots, the gate table,
// protection regions, VMAs — in a check::ShadowTable2 and takes every
// verdict from it, so each model validates exactly as the fuzz driver's
// shadow oracle predicts. What the base adds is the kernel round-trip every
// verb pays; the *mechanism* is subclass hooks that charge the simulated
// clock:
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
// The one per-backend validation difference, the domain cap, comes from
// core::max_domains(kind). Only the cycles charged differ across models.
#pragma once

#include <memory>
#include <unordered_map>

#include "baselines/lwc.h"
#include "baselines/watchpoint.h"
#include "check/shadow.h"
#include "lightzone/api.h"

namespace lz::baseline {

class ModelBackend : public core::IsolationBackend {
 public:
  ModelBackend(core::BackendKind kind, core::Env& env, u32 max_gates);

  core::BackendKind kind() const override { return kind_; }

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
  u32 max_gates() const override { return table_.max_gates(); }
  core::BackendStats stats() const override { return stats_; }

  int current_domain() const { return current_; }

 protected:
  // Mechanism hooks, run on the validated path only. The base charges the
  // kernel entry/exit every verb pays (Table-2 calls are syscalls for every
  // modelled mechanism); hooks add the mechanism-specific work.
  virtual Status on_alloc(int pgt) {
    (void)pgt;
    return Status::ok();
  }
  // Runs while `pgt` and its regions are still in the table.
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
  const check::ShadowTable2& table() const { return table_; }

  core::Env& env_;
  core::BackendStats stats_;

 private:
  core::BackendKind kind_;
  check::ShadowTable2 table_;
  int current_ = 0;
};

// §8 Watchpoint baseline on the backend interface. The four DBGW pairs
// watch a 16-slot arena: pgt p owns slot p-1, and the default domain (pgt
// 0) watches every slot, so alloc() exhausts at id 17 — the one place the
// shared validation diverges per backend (core::max_domains). The arena
// is the process's own layout: the first private lz_prot that fits the §8
// constraint (equal power-of-two slots in an arena aligned to its size,
// slot p-1 at the region) re-bases it there; until then a private arena
// at 0x40000000 stands in.
class WatchpointBackend final : public ModelBackend {
 public:
  WatchpointBackend(core::Env& env, u32 max_gates);

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

 protected:
  Status on_alloc(int pgt) override;
  void do_switch(int pgt) override { lwc_.switch_to(ctx_of_.at(pgt)); }

 private:
  LwcIsolation lwc_;
  std::unordered_map<int, int> ctx_of_;  // pgt id -> lwC context id
};

// Env::new_process's layout (code RX, heap RW, stack RW) as the VMAs of a
// Table-2 model: what touch() validates against.
void add_env_vmas(check::ShadowTable2& table);

// Construct a model backend of `kind` over `env`; its touch() checks the
// standard Env process layout (add_env_vmas). kTtbrPan has no model — it
// needs a real process (use make_backend_proc).
std::shared_ptr<ModelBackend> make_backend(core::BackendKind kind,
                                           core::Env& env,
                                           u32 max_gates = 256);

// Uniform entry point for benches and tests: an LzProc speaking `kind`.
// For kTtbrPan this creates a fresh process and enters the real module
// (allow_scalable, TTBR sanitizer); for the others it wraps make_backend.
core::LzProc make_backend_proc(core::BackendKind kind, core::Env& env);

}  // namespace lz::baseline
