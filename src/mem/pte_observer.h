// PTE write-protocol observation hooks (consumed by the lz::check
// break-before-make oracle, DESIGN.md §15).
//
// Stage1Table/Stage2Table route every descriptor store through
// notify_pte_write, and the Machine's DVM broadcast paths publish TLBI and
// DSB events; an installed PteWriteObserver replays Casemate's per-location
// automaton over that stream. The hooks live in lz::mem so the page-table
// owners take no dependency on the checker: with no observer installed each
// notify is one relaxed atomic load and nothing else — no simulated cycles,
// no counters, no allocation.
#pragma once

#include "obs/trace.h"
#include "support/types.h"

namespace lz::mem {

class PhysMem;

// One descriptor store, observed at the point of the write. `pm` plus
// `desc_pa` identify the location — descriptor PAs recycle across PhysMem
// instances and across table frees within one instance, hence the explicit
// free/teardown notifications below.
struct PteWrite {
  bool stage2 = false;   // stage-2 table (in_addr is then an IPA)
  const PhysMem* pm = nullptr;
  PhysAddr desc_pa = 0;  // machine PA of the 8-byte descriptor slot
  u64 in_addr = 0;       // page-aligned input VA (stage-1) / IPA (stage-2)
  unsigned level = 0;    // architectural lookup level of the descriptor
  u64 old_desc = 0;
  u64 new_desc = 0;
  u16 asid = 0;          // owning Stage1Table's ASID (0 for stage-2)
  u16 vmid = 0;          // owning translation regime's VMID
};

struct TlbiEvent {
  obs::TlbScope scope = obs::TlbScope::kAll;
  u64 vpage = 0;  // kVa / kVaAllAsid
  u16 asid = 0;   // kVa / kAsid
  u16 vmid = 0;   // every scope except kAll
};

class PteWriteObserver {
 public:
  virtual ~PteWriteObserver() = default;
  virtual void on_pte_write(const PteWrite& w) = 0;
  virtual void on_tlbi(const TlbiEvent& e) = 0;
  virtual void on_dsb() = 0;
  // A table frame is being released with its contents still live (dead-ASID/
  // dead-VMID teardown): per-location state keyed inside the frame must be
  // dropped before the allocator recycles the PA.
  virtual void on_table_free(const PhysMem* pm, PhysAddr table_pa) = 0;
  // The whole address space is going away.
  virtual void on_phys_mem_destroyed(const PhysMem* pm) = 0;
};

// Process-global observer registration. Returns the previous observer.
PteWriteObserver* set_pte_write_observer(PteWriteObserver* obs);
PteWriteObserver* pte_write_observer();

inline void notify_pte_write(const PteWrite& w) {
  if (PteWriteObserver* o = pte_write_observer()) o->on_pte_write(w);
}
inline void notify_tlbi(const TlbiEvent& e) {
  if (PteWriteObserver* o = pte_write_observer()) o->on_tlbi(e);
}
inline void notify_dsb() {
  if (PteWriteObserver* o = pte_write_observer()) o->on_dsb();
}
inline void notify_table_free(const PhysMem* pm, PhysAddr table_pa) {
  if (PteWriteObserver* o = pte_write_observer()) {
    o->on_table_free(pm, table_pa);
  }
}
inline void notify_phys_mem_destroyed(const PhysMem* pm) {
  if (PteWriteObserver* o = pte_write_observer()) {
    o->on_phys_mem_destroyed(pm);
  }
}

}  // namespace lz::mem
