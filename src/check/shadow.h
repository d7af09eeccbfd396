// ShadowTable2 — the fuzz harness's reference model of the Table-2 API.
//
// A deliberately boring re-statement of lightzone/module.cpp's validation
// semantics in plain STL containers: no page tables, no frames, no TLBs —
// just which pgt ids are live, which gates are registered, and which
// regions/VMAs exist. The fuzz driver (fuzz.h, bench/fuzz_table2) runs
// every generated call against both the live module and this model and
// reports a `shadow.status` divergence when the Status codes disagree.
// Because the two implementations share no code, a bug has to appear in
// both independently to slip through.
#pragma once

#include <vector>

#include "lightzone/backend.h"
#include "support/status.h"
#include "support/types.h"

namespace lz::check {

class ShadowTable2 {
 public:
  // Mirrors the process layout the predictions depend on (Env::new_process
  // VMAs; read permission is implicit — every VMA here is readable).
  struct Vma {
    u64 start = 0, end = 0;
    bool write = false, exec = false;
  };

  // The backend tag selects the one place validation is backend-specific:
  // the domain cap lz_alloc exhausts at (17 for the Watchpoint baseline:
  // its four DBGW pairs watch 16 slots, plus the default domain; 2^16
  // everywhere else). It also labels fuzz results so counter comparisons
  // across different backends are rejected instead of reported as
  // spurious divergence (fuzz.h).
  ShadowTable2(u32 max_gates, bool allow_scalable,
               core::BackendKind backend = core::BackendKind::kTtbrPan);

  core::BackendKind backend() const { return backend_; }

  void add_vma(u64 start, u64 end, bool write, bool exec);

  // Each call predicts the Errc the live module must return (Errc::kOk for
  // success) and advances the shadow state exactly when the live call would
  // advance the module's. `alloc` additionally predicts the returned id.
  struct AllocOutcome {
    Errc errc = Errc::kOk;
    int pgt = -1;
  };
  AllocOutcome alloc();
  Errc free_pgt(int pgt);
  Errc prot(u64 addr, u64 len, int pgt, u32 perm);
  Errc map_gate_pgt(int pgt, int gate);
  Errc set_gate_entry(int gate, u64 entry);
  Errc touch(u64 va, bool want_write, bool want_exec);

  // Predicted verdict of exec_gate_switch's validation (which runs before
  // any instruction executes, so error paths are always safe to probe).
  Errc gate_switch(int gate) const;
  // True when really executing the switch is safe *and* must succeed: the
  // validation passes and the mapped table is still live. A gate whose
  // table was freed passes validation but switches through a zeroed
  // TTBRTab slot, which architecturally kills the process — the driver
  // records such ops as skipped instead of running them.
  bool gate_runnable(int gate) const;

  int live_pgts() const;

 private:
  struct Region {
    u64 start = 0, end = 0;
    int pgt = -1;
  };
  struct Gate {
    u64 entry = 0;
    int pgt = -1;
  };

  bool pgt_live(int pgt) const {
    return pgt >= 0 && static_cast<std::size_t>(pgt) < pgts_.size() &&
           pgts_[pgt];
  }
  bool gate_in_range(int gate) const {
    return gate >= 0 && static_cast<u32>(gate) < max_gates_;
  }

  u32 max_gates_;
  bool allow_scalable_;
  core::BackendKind backend_;
  std::vector<char> pgts_;  // slot i = pgt id i live? (slot 0: default table)
  std::vector<Gate> gates_;
  std::vector<Region> regions_;
  std::vector<Vma> vmas_;
};

}  // namespace lz::check
