// CCA/granule-protection-flavour IsolationBackend (NanoZone-style,
// PAPERS.md).
//
// Arm RME partitions physical memory with a Granule Protection Table that
// every translation consults via a granule protection check (GPC). The
// modelled compartment scheme:
//
//   * lz_prot delegates the range's granules to the target domain — one
//     monitor round-trip per call plus a per-granule GPT update
//     (Platform::gpt_delegate); lz_free undelegates them back.
//   * A domain switch asks the monitor to select the target domain's view
//     (SMC round-trip + a GPTBR-class register write + ISB). No TLB or GPC
//     flush: GPC results are cached alongside TLB entries.
//   * A (un)delegate transition invalidates the granule's cached GPC
//     result, so the FIRST access to that granule afterwards pays a GPT
//     walk (Platform::gpt_walk) — delegation is expensive and its cost
//     tails into the access stream, while steady-state switching is cheap.
#pragma once

#include "baselines/backends.h"
#include "mem/gpt.h"

namespace lz::baseline {

class CcaBackend final : public ModelBackend {
 public:
  CcaBackend(core::Env& env, u32 max_gates)
      : ModelBackend(core::BackendKind::kCca, env, max_gates) {}

  const mem::GranuleProtectionTable& gpt() const { return gpt_; }

 protected:
  void on_free(int pgt) override;
  void on_prot(VirtAddr start, VirtAddr end, int pgt) override;
  void do_switch(int pgt) override;
  void do_access(VirtAddr va) override;

 private:
  // SMC into the monitor (the EL2 host stands in for EL3 — sysreg.h).
  void charge_monitor_roundtrip();

  mem::GranuleProtectionTable gpt_;
};

}  // namespace lz::baseline
