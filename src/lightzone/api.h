// User-facing LightZone API (Table 2) and scenario wiring.
//
//   Env       — one evaluation scenario: a simulated SoC (Carmel or
//               Cortex-A55) with one or more cores, a VHE host, optionally
//               a guest VM, and the LightZone module loaded into the host
//               or guest kernel. Built from Env::Options.
//   LzProc    — the API library's view of one process that entered
//               LightZone: lz_alloc / lz_free / lz_prot / lz_map_gate_pgt /
//               lz_switch_to_ttbr_gate / set_pan. Calls report failure
//               through Status/Result (Errc::kNoPgt, kBadRange, kBadGate,
//               kNoGate, …); the `table2` shims below translate to the C
//               int ABI at the library boundary.
//
// `lz_switch_to_ttbr_gate` executes the real TTBR1-mapped call-gate code on
// the simulated core; `set_pan` performs the PAN toggle. Both return the
// cycles consumed, which is what the Table 5 microbenchmark measures.
#pragma once

#include <memory>

#include "lightzone/backend.h"
#include "lightzone/module.h"
#include "obs/switch_probe.h"

namespace lz::core {

struct Env {
  enum class Placement { kHost, kGuest };

  // Scenario builder. Each knob reads as prose at the call site and new
  // knobs never reshuffle an argument list:
  //
  //   Env env(Env::Options()
  //               .platform(arch::Platform::cortex_a55())
  //               .placement(Env::Placement::kGuest)
  //               .cores(4));
  class Options {
   public:
    Options& platform(const arch::Platform& p) {
      platform_ = &p;
      return *this;
    }
    Options& placement(Placement p) {
      placement_ = p;
      return *this;
    }
    Options& seed(u64 s) {
      seed_ = s;
      return *this;
    }
    Options& cores(unsigned n) {
      cores_ = n;
      return *this;
    }
    Options& mem_bytes(u64 b) {
      mem_bytes_ = b;
      return *this;
    }

   private:
    friend struct Env;
    const arch::Platform* platform_ = &arch::Platform::cortex_a55();
    Placement placement_ = Placement::kHost;
    u64 seed_ = 42;
    unsigned cores_ = 1;
    u64 mem_bytes_ = u64{4} << 30;
  };

  explicit Env(const Options& opts);
  Env() : Env(Options()) {}
  ~Env();

  // The kernel that owns LightZone processes (host kernel or guest kernel).
  kernel::Kernel& kern();

  // Create a process with a conventional layout: code, heap, and stack
  // VMAs (addresses in layout constants below).
  kernel::Process& new_process();

  // Counter scoping: construction snapshots the process-global lz::obs
  // registry, and this returns only what moved since — so back-to-back
  // scenarios in one binary never bleed into each other's reports.
  obs::Snapshot counters_delta() const;

  static constexpr VirtAddr kCodeVa = 0x400000;
  static constexpr u64 kCodeLen = 1 << 20;
  static constexpr VirtAddr kHeapVa = 0x10000000;
  static constexpr u64 kHeapLen = 64ull << 20;
  static constexpr VirtAddr kStackTop = 0x7ff0000000;
  static constexpr u64 kStackLen = 1 << 20;

  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<hv::Host> host;
  std::unique_ptr<hv::GuestVm> vm;  // only for Placement::kGuest
  std::unique_ptr<LzModule> module;
  Placement placement;

 private:
  obs::Snapshot obs_baseline_;
};

class LzProc {
 public:
  // lz_enter(allow_scalable, insn_san): one-way ticket into the
  // per-process virtual environment (§4.1.1). Always yields the real
  // LightZone mechanism (a TtbrPanBackend over the kernel module).
  static LzProc enter(LzModule& module, kernel::Process& proc,
                      bool allow_scalable, int insn_san,
                      const LzOptions* overrides = nullptr);

  // An LzProc speaking any other IsolationBackend (POE, CCA, Watchpoint,
  // lwC cost models — see baselines/backends.h). Table-2 verbs dispatch
  // identically; the module()/ctx()/proc()/run() surface is TTBR-only.
  explicit LzProc(std::shared_ptr<IsolationBackend> backend)
      : backend_(std::move(backend)) {}

  // --- Table 2 ----------------------------------------------------------------
  // Status-carrying forms, dispatched through the selected backend. Error
  // codes: kNoPgt (pgt id not live), kBadRange (unaligned/empty/overlapping
  // range), kBadGate (gate id out of range), kNoGate (gate not fully
  // registered), kResourceExhausted (table/key space).
  Result<int> lz_alloc() { return backend_->alloc(); }
  Status lz_free(int pgt) { return backend_->free_domain(pgt); }
  Status lz_prot(VirtAddr addr, u64 len, int pgt, u32 perm) {
    return backend_->prot(addr, len, pgt, perm);
  }
  Status lz_map_gate_pgt(int pgt, int gate) {
    return backend_->map_gate_pgt(pgt, gate);
  }
  // Registers the gate's static legal entry (the return point after the
  // lz_switch_to_ttbr_gate macro; fixed before compilation, §6.2).
  Status lz_set_gate_entry(int gate, VirtAddr entry) {
    return backend_->set_gate_entry(gate, entry);
  }

  // Executes the domain switch (the real call-gate instruction sequence on
  // the TTBR backend); returns the cycles consumed on the calling core.
  // The cost feeds the switch probe's backend row (obs/switch_probe.h):
  // with the metrics plane armed it lands in the backend-labeled
  // `lz.backend.switch_cycles{backend=,domain=}` family, so cross-mechanism
  // sweeps can compare Table-2 costs per backend from one exposition.
  Result<Cycles> lz_switch_to_ttbr_gate(int gate) {
    auto r = backend_->switch_to(gate);
    if (r.is_ok()) {
      obs::record_switch<obs::SwitchKind::kBackendSwitch>(
          {.arg = static_cast<u64>(gate), .backend = backend_->name()}, *r);
    }
    return r;
  }
  // MSR PAN, #imm.
  Cycles set_pan(bool pan) { return backend_->set_pan(pan); }

  // World management for benchmarks that drive switches directly.
  void enter_world() { backend_->enter_world(); }
  void exit_world() { backend_->exit_world(); }

  sim::RunResult run(u64 max_steps = 10'000'000) {
    return module().run(ctx(), max_steps);
  }

  IsolationBackend& backend() { return *backend_; }
  const IsolationBackend& backend() const { return *backend_; }

  // TTBR-backend-only accessors (the module/context only exist there).
  LzContext& ctx() {
    LZ_CHECK(ctx_ != nullptr);
    return *ctx_;
  }
  const LzContext& ctx() const {
    LZ_CHECK(ctx_ != nullptr);
    return *ctx_;
  }
  LzModule& module() {
    LZ_CHECK(module_ != nullptr);
    return *module_;
  }
  kernel::Process& proc() { return ctx().proc(); }

 private:
  LzProc(std::shared_ptr<IsolationBackend> backend, LzModule& module,
         LzContext& ctx)
      : backend_(std::move(backend)), module_(&module), ctx_(&ctx) {}
  std::shared_ptr<IsolationBackend> backend_;
  LzModule* module_ = nullptr;  // non-null only for the TTBR+PAN backend
  LzContext* ctx_ = nullptr;
};

// --- Table-2 C boundary ------------------------------------------------------
// Thin int shims with the exact Table-2 signature: 0 / pgt-id on success,
// a negative errno on failure (the same values the kernel module returns
// through the forwarded-SVC path). New code should call the Status API on
// LzProc directly; these exist for the C ABI only.
//
// Every shim funnels through one Status→int mapping (`errno_of` via
// `to_c_int` below), so the translation cannot drift between verbs:
//
//   Errc                                  C return   errno
//   ------------------------------------  ---------  --------
//   kOk                                    0 / id     —
//   kResourceExhausted                     -12        ENOMEM
//   kPermissionDenied, kFailedPrecondition -1         EPERM
//   kNotFound                              -2         ENOENT
//   kNoPgt, kBadRange, kBadGate, kNoGate,
//   kInvalidArgument, everything else      -22        EINVAL
namespace table2 {

// Errc -> -errno translation used by every shim.
int errno_of(const Status& s);

// The single Status→int helper all five verbs share: a Status maps to its
// errno; a Result<int> additionally carries the id on success.
inline int to_c_int(const Status& s) { return errno_of(s); }
inline int to_c_int(const Result<int>& r) {
  return r.is_ok() ? *r : errno_of(r.status());
}

int lz_alloc(LzProc& p);  // >= 0 pgt id, or -errno
int lz_free(LzProc& p, int pgt);
int lz_prot(LzProc& p, VirtAddr addr, u64 len, int pgt, u32 perm);
int lz_map_gate_pgt(LzProc& p, int pgt, int gate);
int lz_set_gate_entry(LzProc& p, int gate, VirtAddr entry);

}  // namespace table2

}  // namespace lz::core
