// IsolationBackend — the pluggable mechanism seam behind LzProc.
//
// The Table-2 verbs (lz_alloc / lz_free / lz_prot / lz_map_gate_pgt /
// lz_switch_to_ttbr_gate) are a mechanism-neutral contract: carve an
// address space into protection domains, bind domains to call gates, and
// switch between them. LightZone's bet (TTBR0 switching + PAN at EL1) is
// one way to implement that contract; POE/MPK overlay keys, CCA granule
// protection, hardware watchpoints and lwC contexts are rivals. This
// interface lets every mechanism run the same workloads on the same
// calibrated cycle framework, so Table 5 / Fig. 3 comparisons are
// apples-to-apples instead of paper-vs-paper.
//
// Contract (DESIGN.md §14 has the full statement):
//   * Verbs return the same Status/Result vocabulary the LightZone module
//     uses (kNoPgt, kBadRange, kBadGate, kNoGate, kResourceExhausted, …)
//     with identical validation semantics — the ShadowTable2 differential
//     oracle runs unchanged against any backend.
//   * All mechanism costs are charged to the simulated clock through
//     sim::Machine::charge using the *existing* CostKind set; a backend
//     never invents cost kinds or registers counters at static init (both
//     would break the byte-identical golden reports).
//   * TLB interaction is part of the model: a backend that switches
//     domains without TLB maintenance (TTBR+ASID, POE) must not charge
//     kTlbi on the switch path; one that invalidates (key recycling,
//     granule delegation) must.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "lightzone/module.h"

namespace lz::core {

enum class BackendKind : u8 {
  kTtbrPan,     // the real LightZone module (TTBR0 switch + PAN at EL1)
  kPoe,         // FEAT_S1POE / MPK-style overlay keys (POR_EL0)
  kCca,         // CCA/RME granule protection (GPT delegate + GPC walks)
  kWatchpoint,  // DBGW* debug-register baseline [23]
  kLwc,         // light-weight contexts baseline [31]
};

const char* to_string(BackendKind kind);
// Parses the --backend flag spelling ("ttbr_pan", "poe", "cca",
// "watchpoint", "lwc"); nullopt for anything else.
std::optional<BackendKind> backend_from_string(std::string_view name);
// The domain-table cap lz_alloc exhausts at, counting the default pgt 0:
// the four DBGW pairs give Watchpoint 16 watched slots on top of it; every
// other mechanism scales to the 2^16 id space.
int max_domains(BackendKind kind);

// Mechanism-side tallies a backend may expose for reporting. Plain struct,
// not obs counters: registering counters lazily per backend would leak into
// later scenarios' snapshots in the same binary.
struct BackendStats {
  u64 key_recycles = 0;     // POE: domain switches that had to steal a key
  u64 shootdown_pages = 0;  // POE: pages re-tagged during key recycling
  u64 gpt_walks = 0;        // CCA: granule-protection-check fetches
  u64 delegations = 0;      // CCA: granules delegated via lz_prot
  u64 undelegations = 0;    // CCA: granules released via lz_free
};

class IsolationBackend {
 public:
  virtual ~IsolationBackend() = default;

  virtual BackendKind kind() const = 0;
  std::string_view name() const { return to_string(kind()); }

  // --- Table-2 verbs ----------------------------------------------------------
  virtual Result<int> alloc() = 0;
  virtual Status free_domain(int pgt) = 0;
  virtual Status prot(VirtAddr addr, u64 len, int pgt, u32 perm) = 0;
  virtual Status map_gate_pgt(int pgt, int gate) = 0;
  virtual Status set_gate_entry(int gate, VirtAddr entry) = 0;

  // Switch the calling thread to `gate`'s domain; returns the cycles the
  // switch consumed on the calling core.
  virtual Result<Cycles> switch_to(int gate) = 0;
  // The PAN fast path; mechanisms without an equivalent charge nothing.
  virtual Cycles set_pan(bool pan) = 0;

  // Demand fault-in (setup/warm-up paths) and one 8-byte data access in
  // the current domain (the measured body of the switch benchmarks).
  virtual Status touch(VirtAddr va, bool want_write, bool want_exec) = 0;
  virtual Cycles access(VirtAddr va) = 0;

  // World management for benchmarks that drive switches directly.
  virtual void enter_world() {}
  virtual void exit_world() {}

  int max_domains() const { return core::max_domains(kind()); }
  virtual u32 max_gates() const = 0;
  virtual BackendStats stats() const { return {}; }
};

// The reference implementation: forwards every verb to the live LightZone
// kernel module. Pure indirection — a virtual call costs zero simulated
// cycles, so routing LzProc through this class leaves every cycle total
// and golden report byte-identical to the pre-refactor direct calls.
class TtbrPanBackend final : public IsolationBackend {
 public:
  TtbrPanBackend(LzModule& module, LzContext& ctx)
      : module_(&module), ctx_(&ctx) {}

  BackendKind kind() const override { return BackendKind::kTtbrPan; }

  Result<int> alloc() override { return module_->alloc_pgt(*ctx_); }
  Status free_domain(int pgt) override { return module_->free_pgt(*ctx_, pgt); }
  Status prot(VirtAddr addr, u64 len, int pgt, u32 perm) override {
    return module_->prot(*ctx_, addr, len, pgt, perm);
  }
  Status map_gate_pgt(int pgt, int gate) override {
    return module_->map_gate_pgt(*ctx_, pgt, gate);
  }
  Status set_gate_entry(int gate, VirtAddr entry) override {
    return module_->set_gate_entry(*ctx_, gate, entry);
  }
  Result<Cycles> switch_to(int gate) override {
    return module_->exec_gate_switch(*ctx_, gate);
  }
  Cycles set_pan(bool pan) override { return module_->exec_set_pan(*ctx_, pan); }
  Status touch(VirtAddr va, bool want_write, bool want_exec) override {
    return module_->touch_page(*ctx_, va, want_write, want_exec);
  }
  Cycles access(VirtAddr va) override;
  void enter_world() override { module_->enter_world(*ctx_); }
  void exit_world() override { module_->exit_world(*ctx_); }
  u32 max_gates() const override { return ctx_->opts().max_gates; }

  LzModule& module() { return *module_; }
  LzContext& ctx() { return *ctx_; }

 private:
  LzModule* module_;
  LzContext* ctx_;
};

}  // namespace lz::core
