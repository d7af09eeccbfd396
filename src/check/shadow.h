// ShadowTable2 — the one plain-container model of the Table-2 API.
//
// A deliberately boring re-statement of lightzone/module.cpp's validation
// semantics in plain STL containers: no page tables, no frames, no TLBs —
// just which pgt ids are live, which gates are registered, and which
// regions/VMAs exist. It has two clients:
//
//   * the fuzz driver (fuzz.h, bench/fuzz_table2) runs every generated call
//     against both the live module and this model and reports a
//     `shadow.status` divergence when the Status codes disagree. The two
//     implementations share no code, so a bug has to appear in both
//     independently to slip through;
//   * the cost-model backends (baselines/backends.h) keep their Table-2
//     state here and take every verdict from it, so they validate exactly
//     as the shadow predicts by construction.
//
// Sits in lz_check, below lz_core: the domain cap comes in as a number
// (core::max_domains of the backend being modelled).
#pragma once

#include <vector>

#include "support/status.h"
#include "support/types.h"

namespace lz::check {

class ShadowTable2 {
 public:
  // lightzone/module.h's kPgtAll (a protection region shared by every
  // domain), restated so the model stays independent of the module.
  static constexpr int kPgtAll = -1;

  // Mirrors the process layout the predictions depend on (Env::new_process
  // VMAs; read permission is implicit — every VMA here is readable).
  struct Vma {
    u64 start = 0, end = 0;
    bool write = false, exec = false;
  };

  // `max_domains` is the domain cap lz_alloc exhausts at, counting the
  // default pgt 0.
  ShadowTable2(u32 max_gates, bool allow_scalable, int max_domains);

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

  // Read accessors for the cost-model backends' mechanism hooks.
  bool pgt_live(int pgt) const {
    return pgt >= 0 && static_cast<std::size_t>(pgt) < pgts_.size() &&
           pgts_[pgt];
  }
  // The pgt `gate` is mapped to (-1 if none); `gate` must be in range.
  int gate_pgt(int gate) const { return gates_.at(gate).pgt; }
  // Pages covered by `pgt`'s own protection regions.
  u64 domain_pages(int pgt) const;
  u32 max_gates() const { return max_gates_; }

 private:
  struct Region {
    u64 start = 0, end = 0;
    int pgt = -1;
  };
  struct Gate {
    u64 entry = 0;
    int pgt = -1;
  };

  bool gate_in_range(int gate) const {
    return gate >= 0 && static_cast<u32>(gate) < max_gates_;
  }

  u32 max_gates_;
  bool allow_scalable_;
  int max_domains_;
  std::vector<char> pgts_;  // slot i = pgt id i live? (slot 0: default table)
  std::vector<Gate> gates_;
  std::vector<Region> regions_;
  std::vector<Vma> vmas_;
};

}  // namespace lz::check
