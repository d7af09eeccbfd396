// POE/MPK-flavour IsolationBackend (Complets-style, PAPERS.md).
//
// FEAT_S1POE: every PTE carries a 4-bit permission-overlay index, and
// POR_EL0 holds sixteen 4-bit permission fields — one per overlay key. A
// domain switch is a single unprivileged POR_EL0 write plus an ISB: the
// overlay applies at access time, so key-tagged TLB entries stay valid and
// the switch needs NO TLB maintenance (the mechanism's headline win over
// TTBR switching).
//
// The catch this model keeps honest: sixteen keys (one pinned to the
// default domain) bound the number of simultaneously switchable domains.
// A switch to a domain without a key steals one round-robin from another
// domain, which means re-tagging the incoming domain's PTEs and a
// broadcast TLBI to purge entries still carrying the old tag — MPK's
// pkey-recycling shootdown, charged on exactly the switches that recycle.
#pragma once

#include <unordered_map>

#include "baselines/backends.h"

namespace lz::baseline {

class PoeBackend final : public ModelBackend {
 public:
  // POR_EL0: sixteen 4-bit permission fields.
  static constexpr int kNumKeys = 16;

  PoeBackend(core::Env& env, u32 max_gates);

  // One key is always the calling domain's; the POR value grants it and
  // the default key (shared code/stack stay reachable).
  static u64 por_value(int key) {
    constexpr u64 kRwx = 0b0111;
    return (kRwx << (4 * key)) | kRwx;
  }

  int key_of(int pgt) const {
    const auto it = key_of_.find(pgt);
    return it == key_of_.end() ? -1 : it->second;
  }

 protected:
  void on_free(int pgt) override;
  void do_switch(int pgt) override;

 private:
  int assign_key(int pgt);

  std::unordered_map<int, int> key_of_;  // pgt id -> overlay key
  int owner_[kNumKeys];                  // overlay key -> pgt id (-1 free)
  int next_victim_ = 1;                  // round-robin over keys 1..15
};

}  // namespace lz::baseline
