// Combined-stage software TLB, two levels (micro-TLB + main TLB), tagged
// with ASID and VMID and honouring the global bit. This is where LightZone's
// domain-switch economics come from: per-page-table ASIDs let TTBR0 updates
// skip TLB invalidation entirely (§4.1.2), and marking unprotected memory
// global keeps its entries shared across all domains (§8.2).
//
// Thread-safety: every operation but commit_l1_hits() and stats() takes
// the per-Tlb mutex. In the SMP machine each core owns one Tlb, so the lock
// is uncontended on the local path and only taken remotely by DVM
// broadcast invalidations (`TLBI ...IS` walking all cores' TLBs, see
// sim::Machine::tlbi_*_is). The counters behind stats() are the only count
// of TLB events, each with one writer at a time: only the owning core
// looks up and commits hits, and invalidations hold the mutex.
//
// Coherence invariant: within each level, at most one entry can match any
// (vpage, asid, vmid) lookup — place() evicts every aliasing entry (the
// architecturally CONSTRAINED-UNPREDICTABLE global/non-global mix for one
// page included) before installing a new one. Across levels, entries are
// written by insert() and cleared by the invalidate_* walkers in both
// levels under one lock hold, and L2→L1 promotion copies the L2 value
// verbatim, so the two levels never hold different attributes for the same
// key. The lz::check TLB-vs-walk oracle re-verifies the visible half of
// this invariant against the live page tables at every hit.
//
// Index: each level keeps, next to its slot array, a hash chain over its
// valid slots keyed by (vmid, vpage) and a bitmap of valid slots, both
// under the same mutex. Invariant: slot i is on the chain of bucket
// (slots[i].vmid, slots[i].vpage) and has its bit set exactly when
// slots[i].valid. So lookup, alias eviction and the per-VA invalidations
// walk one page's chain, the ASID/VMID/all scopes and valid_entries() visit
// only set bits, and a refill finds the lowest free slot with one
// find-first-zero per 64 slots — TLB maintenance costs what it matches, not
// the level's capacity. The index never decides anything the linear scan
// did not: an entry still lands in the lowest free slot, else in
// rng.below(size); the same entries die; the same stamps move.
// Links are u16 slot numbers, so each level holds fewer than 0xffff entries.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mem/pte.h"
#include "obs/counters.h"
#include "support/rng.h"
#include "support/types.h"

namespace lz::mem {

// What a lookup matches on (Tlb::matches): the page, the VMID and, unless
// the entry is global, the ASID.
struct TlbKey {
  u64 vpage = 0;    // VA >> 12
  u16 asid = 0;
  u16 vmid = 0;
  bool global = false;   // matches any ASID within its VMID
  bool valid = false;

  friend bool operator==(const TlbKey&, const TlbKey&) = default;
};

struct TlbEntry : TlbKey {
  bool stage2_on = false;
  u64 ipa_page = 0;      // stage-1 output (== ppage when stage-2 off)
  PhysAddr ppage = 0;    // final machine frame
  S1Attrs s1;
  S2Attrs s2;            // meaningful when stage2_on
  // Provenance: the table roots this entry was derived from. Not part of
  // the lookup key (hardware TLBs match VA/ASID/VMID only) — the lz::check
  // TLB-vs-walk oracle uses them to tell an invalidation-scoping bug (same
  // translation context, tables changed under the entry) from the
  // architecturally legal use of a stale-but-matching entry after software
  // rewrites TTBR/VTTBR without a TLBI.
  PhysAddr s1_root = 0;
  PhysAddr s2_root = 0;  // 0 when stage2_on is false

  friend bool operator==(const TlbEntry&, const TlbEntry&) = default;
};

struct TlbStats {
  u64 l1_hits = 0;
  u64 l2_hits = 0;
  u64 misses = 0;
  u64 invalidations = 0;

  u64 lookups() const { return l1_hits + l2_hits + misses; }
  // Fraction of lookups served from either TLB level (0 when idle).
  double hit_rate() const {
    const u64 n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(l1_hits + l2_hits) / n;
  }
};

class Tlb {
 public:
  // `counter_domain` names a second prefix the counters are linked under
  // (e.g. "sim.core1.tlb"); every Tlb links `mem.tlb`, so those names sum
  // all TLBs in the process and keep their meaning under SMP.
  Tlb(std::size_t l1_entries, std::size_t l2_entries, u64 seed = 42,
      std::string counter_domain = {});

  // The micro-TLB slot an entry was found in or placed into, and that
  // slot's stamp at the moment: (stamp count << 16) | slot. See the L0
  // coherence protocol below. kNoTag (no micro-TLB) is never live.
  using Tag = u64;
  static constexpr Tag kNoTag = 0;
  static constexpr Tag kSlotMask = 0xffff;

  struct Hit {
    TlbEntry entry;     // copied out under the lock; stays valid after it
    Cycles extra_cost;  // 0 on micro-TLB hit, tlb_l2_hit on main-TLB hit
    bool from_l1;
    // The micro-TLB slot holding `entry` when the lock was released (after
    // any promotion), with its stamp: the L0 install tag.
    Tag tag;
  };

  // The one match rule: whether `e` answers a lookup of (vpage, asid, vmid).
  // A global entry matches every ASID of its VMID. The Core-side memos of
  // TLB hits (L0 slots, traces) decide their liveness with it too.
  static bool matches(const TlbKey& e, u64 vpage, u16 asid, u16 vmid) {
    // One compare for the ASID and VMID, with a global entry's ASID masked
    // out: the L0 fast path runs this on every access.
    const u32 asid_diff = (e.asid ^ asid) & (e.global ? 0u : 0xffffu);
    return e.valid && e.vpage == vpage && ((e.vmid ^ vmid) | asid_diff) == 0;
  }

  // Look up (vpage, asid, vmid). Promotes main-TLB hits into the micro-TLB.
  std::optional<Hit> lookup(u64 vpage, u16 asid, u16 vmid, Cycles l2_hit_cost);

  // Returns the tag of the micro-TLB slot the new entry was placed into,
  // with the same meaning as Hit::tag.
  Tag insert(const TlbEntry& e);

  // Invalidation scopes, one per architectural TLBI flavour:
  //   invalidate_all          TLBI ALLE1   — everything
  //   invalidate_vmid         TLBI VMALLE1 — one VMID, all ASIDs + global
  //   invalidate_asid         TLBI ASIDE1  — non-global entries of one ASID
  //   invalidate_va           TLBI VAE1    — one page: the ASID's non-global
  //                                          entry plus any global entry
  //   invalidate_va_all_asid  TLBI VAAE1   — one page across every ASID
  void invalidate_all();
  void invalidate_vmid(u16 vmid);
  void invalidate_asid(u16 asid, u16 vmid);
  void invalidate_va(u64 vpage, u16 asid, u16 vmid);
  void invalidate_va_all_asid(u64 vpage, u16 vmid);

  // --- L0 coherence protocol --------------------------------------------------
  // Every micro-TLB slot carries a stamp, moved by each kill of that slot:
  // an invalidation that removes its entry, an alias eviction, a random
  // replacement. A refill or promotion into a free slot leaves it alone
  // (the slot's last kill already moved it). A Core-side L0 entry or trace
  // tagged with slot i at stamp S is usable only while tag_live() and
  // matches(entry, vpage, current ASID, current VMID): an unmoved stamp
  // proves slot i still holds exactly the entry the tag was handed out
  // with, and when that entry matches the lookup key (at most one entry per
  // level does) the locked lookup would find it there — so an L0 hit is
  // observationally identical to that micro-TLB hit (same zero cost, same
  // stats line). A refill that evicts some other slot leaves every other
  // tag live.
  //
  // The stamps are relaxed atomics: the owning core reads them locklessly
  // on every access, and remote DVM shootdowns move them under the TLB
  // mutex. Cross-core visibility therefore rides on the caller's existing
  // synchronization (the machine models TLBI ...IS + DSB as synchronous),
  // exactly like the entry arrays themselves.
  bool tag_live(Tag tag) const {
    return stamps_[tag & kSlotMask].load(std::memory_order_relaxed) == tag;
  }
  // The current stamp of micro-TLB slot i (tests and the reference model).
  Tag stamp(u16 i) const { return stamps_[i].load(std::memory_order_relaxed); }

  // Batched stats path for Core's L0 cache, owning core only (no lock):
  // credit `n` micro-TLB hits, so the l1_hit count matches the unbatched
  // engine once the owning core flushes (see Core's flush contract).
  void commit_l1_hits(u64 n) { l1_hits_.add(n); }

  // Counts since construction (registry reset() leaves them alone). Exact
  // from a quiesced machine or the owning core's thread.
  TlbStats stats() const {
    return {l1_hits_.value(), l2_hits_.value(), misses_.value(),
            invalidations_.value()};
  }
  std::size_t valid_entries() const;

 private:
  // Two entries alias when some single lookup could match both (same page
  // and VMID, overlapping ASID scope — a global entry overlaps every ASID).
  static bool aliases(const TlbEntry& a, const TlbEntry& b) {
    return a.valid && a.vpage == b.vpage && a.vmid == b.vmid &&
           (a.global || b.global || a.asid == b.asid);
  }
  // One level: its slots plus the (vmid, vpage) chain index and the valid
  // bitmap described at the top of this file.
  class Level {
   public:
    static constexpr u16 kNil = 0xffff;

    explicit Level(std::size_t entries);

    std::size_t size() const { return slots_.size(); }
    TlbEntry& operator[](u16 i) { return slots_[i]; }
    // The slot matching (vpage, asid, vmid), or kNil.
    u16 find(u64 vpage, u16 asid, u16 vmid) const;
    // Lowest-numbered invalid slot, or kNil when the level is full.
    u16 first_free() const;
    // Stores `e` in slot i, indexing it if it is valid. The slot must be
    // invalid (kill() it first).
    void fill(u16 i, const TlbEntry& e);
    // Invalidates the valid slot i and drops it from the index.
    void kill(u16 i);
    // Calls f(i) for every valid slot on (vmid, vpage)'s chain; f may kill i.
    template <class F>
    void for_each_on_chain(u16 vmid, u64 vpage, F&& f);
    // Calls f(i) for every valid slot, lowest first; f may kill i.
    template <class F>
    void for_each_valid(F&& f);
    std::size_t valid_count() const;

   private:
    std::size_t bucket(u16 vmid, u64 vpage) const;

    std::vector<TlbEntry> slots_;
    std::vector<u16> head_;         // bucket -> first slot on its chain
    std::vector<u16> next_, prev_;  // chain links, per slot
    std::vector<u64> valid_;        // bit i <=> slots_[i].valid
    std::size_t mask_ = 0;          // bucket count - 1
  };

  // Stores `e` in `level`, evicting its aliases, and returns the slot.
  u16 place(Level& level, const TlbEntry& e);
  // Kills the valid slot i of `level`; a micro-TLB slot's stamp moves.
  void kill(Level& level, u16 i);
  // The tag of micro-TLB slot i (kNoTag for Level::kNil).
  Tag tag_of(u16 i) const { return i == Level::kNil ? kNoTag : stamp(i); }
  // Kills every valid entry of both levels that `dead` selects.
  template <class Pred>
  void kill_valid_if(Pred&& dead);
  // Kills every entry of both levels on (vmid, vpage)'s chain that `dead`
  // selects.
  template <class Pred>
  void kill_on_chain_if(u16 vmid, u64 vpage, Pred&& dead);

  mutable std::mutex mu_;
  Level l1_;
  Level l2_;
  Rng rng_;
  // One stamp per micro-TLB slot (at least one, so kNoTag indexes a stamp
  // it never equals). Stamp i is (count << 16) | i, count starting at 1.
  std::unique_ptr<std::atomic<Tag>[]> stamps_;

  obs::OwnedCounter l1_hits_, l2_hits_, misses_, invalidations_;
};

}  // namespace lz::mem
