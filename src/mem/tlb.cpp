#include "mem/tlb.h"

#include <algorithm>
#include <bit>

#include "obs/trace.h"
#include "support/status.h"

namespace lz::mem {

Tlb::Tlb(std::size_t l1_entries, std::size_t l2_entries, u64 seed,
         std::string counter_domain)
    : l1_(l1_entries),
      l2_(l2_entries),
      rng_(seed),
      stamps_(new std::atomic<Tag>[std::max<std::size_t>(l1_entries, 1)]) {
  for (std::size_t i = 0; i < std::max<std::size_t>(l1_entries, 1); ++i) {
    stamps_[i].store((Tag{1} << 16) | i, std::memory_order_relaxed);
  }
  const std::pair<obs::OwnedCounter*, const char*> counters[] = {
      {&l1_hits_, ".l1_hit"},
      {&l2_hits_, ".l2_hit"},
      {&misses_, ".miss"},
      {&invalidations_, ".invalidation"}};
  for (const auto& [c, event] : counters) {
    c->link(std::string("mem.tlb") + event);
    if (!counter_domain.empty()) c->link(counter_domain + event);
  }
}

// --- Level: slots + (vmid, vpage) chains + valid bitmap ----------------------

Tlb::Level::Level(std::size_t entries)
    : slots_(entries),
      next_(entries, kNil),
      prev_(entries, kNil),
      valid_((entries + 63) / 64, 0) {
  LZ_CHECK(entries < kNil);  // u16 links, kNil reserved
  std::size_t buckets = 1;
  while (buckets < 2 * entries) buckets *= 2;  // load factor <= 1/2
  head_.assign(buckets, kNil);
  mask_ = buckets - 1;
}

std::size_t Tlb::Level::bucket(u16 vmid, u64 vpage) const {
  u64 h = (vpage ^ (u64{vmid} << 48)) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return static_cast<std::size_t>(h) & mask_;
}

u16 Tlb::Level::find(u64 vpage, u16 asid, u16 vmid) const {
  for (u16 i = head_[bucket(vmid, vpage)]; i != kNil; i = next_[i]) {
    if (matches(slots_[i], vpage, asid, vmid)) return i;
  }
  return kNil;
}

u16 Tlb::Level::first_free() const {
  for (std::size_t w = 0; w < valid_.size(); ++w) {
    const u64 free = ~valid_[w];
    if (free == 0) continue;
    const std::size_t i = w * 64 + std::countr_zero(free);
    return i < slots_.size() ? static_cast<u16>(i) : kNil;  // tail padding
  }
  return kNil;
}

void Tlb::Level::fill(u16 i, const TlbEntry& e) {
  slots_[i] = e;
  if (!e.valid) return;
  valid_[i / 64] |= u64{1} << (i % 64);
  u16& head = head_[bucket(e.vmid, e.vpage)];
  prev_[i] = kNil;
  next_[i] = head;
  if (head != kNil) prev_[head] = i;
  head = i;
}

void Tlb::Level::kill(u16 i) {
  TlbEntry& e = slots_[i];
  e.valid = false;
  valid_[i / 64] &= ~(u64{1} << (i % 64));
  if (prev_[i] != kNil) {
    next_[prev_[i]] = next_[i];
  } else {
    head_[bucket(e.vmid, e.vpage)] = next_[i];
  }
  if (next_[i] != kNil) prev_[next_[i]] = prev_[i];
}

template <class F>
void Tlb::Level::for_each_on_chain(u16 vmid, u64 vpage, F&& f) {
  for (u16 i = head_[bucket(vmid, vpage)]; i != kNil;) {
    const u16 next = next_[i];  // f may unlink i
    f(i);
    i = next;
  }
}

template <class F>
void Tlb::Level::for_each_valid(F&& f) {
  for (std::size_t w = 0; w < valid_.size(); ++w) {
    for (u64 bits = valid_[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<u16>(w * 64 + std::countr_zero(bits)));
    }
  }
}

std::size_t Tlb::Level::valid_count() const {
  std::size_t n = 0;
  for (const u64 w : valid_) n += std::popcount(w);
  return n;
}

// --- Tlb ---------------------------------------------------------------------

std::optional<Tlb::Hit> Tlb::lookup(u64 vpage, u16 asid, u16 vmid,
                                    Cycles l2_hit_cost) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const u16 i = l1_.find(vpage, asid, vmid); i != Level::kNil) {
    l1_hits_.add();
    return Hit{l1_[i], 0, true, tag_of(i)};
  }
  if (const u16 i = l2_.find(vpage, asid, vmid); i != Level::kNil) {
    l2_hits_.add();
    const TlbEntry copy = l2_[i];
    return Hit{copy, l2_hit_cost, false, tag_of(place(l1_, copy))};  // promote
  }
  misses_.add();
  return std::nullopt;
}

Tlb::Tag Tlb::insert(const TlbEntry& e) {
  std::lock_guard<std::mutex> lock(mu_);
  const u16 slot = place(l1_, e);
  place(l2_, e);
  return tag_of(slot);
}

void Tlb::kill(Level& level, u16 i) {
  level.kill(i);
  if (&level == &l1_) {
    stamps_[i].fetch_add(Tag{1} << 16, std::memory_order_relaxed);
  }
}

u16 Tlb::place(Level& level, const TlbEntry& e) {
  if (level.size() == 0) return Level::kNil;
  // Evict every entry a lookup for `e`'s page could also match, not just
  // the first: refreshing one slot while a second aliasing copy survives
  // (e.g. a global entry ahead of a per-ASID one) would leave a stale
  // translation that random replacement can later expose. Aliases share
  // `e`'s (vmid, vpage), so they are all on its chain.
  level.for_each_on_chain(e.vmid, e.vpage, [&](u16 i) {
    if (aliases(level[i], e)) kill(level, i);
  });
  u16 slot = level.first_free();
  if (slot == Level::kNil) {
    slot = static_cast<u16>(rng_.below(level.size()));  // random replacement
    kill(level, slot);
  }
  level.fill(slot, e);
  return slot;
}

template <class Pred>
void Tlb::kill_valid_if(Pred&& dead) {
  for (Level* level : {&l1_, &l2_}) {
    level->for_each_valid([&](u16 i) {
      if (dead((*level)[i])) kill(*level, i);
    });
  }
}

template <class Pred>
void Tlb::kill_on_chain_if(u16 vmid, u64 vpage, Pred&& dead) {
  for (Level* level : {&l1_, &l2_}) {
    level->for_each_on_chain(vmid, vpage, [&](u16 i) {
      if (dead((*level)[i])) kill(*level, i);
    });
  }
}

void Tlb::invalidate_all() {
  std::lock_guard<std::mutex> lock(mu_);
  invalidations_.add();
  obs::trace().tlb_inval(obs::TlbScope::kAll, 0, 0);
  kill_valid_if([](const TlbEntry&) { return true; });
}

void Tlb::invalidate_vmid(u16 vmid) {
  std::lock_guard<std::mutex> lock(mu_);
  invalidations_.add();
  obs::trace().tlb_inval(obs::TlbScope::kVmid, 0, vmid);
  kill_valid_if([&](const TlbEntry& e) { return e.vmid == vmid; });
}

void Tlb::invalidate_asid(u16 asid, u16 vmid) {
  std::lock_guard<std::mutex> lock(mu_);
  invalidations_.add();
  obs::trace().tlb_inval(obs::TlbScope::kAsid, asid, vmid);
  kill_valid_if([&](const TlbEntry& e) {
    return e.vmid == vmid && !e.global && e.asid == asid;
  });
}

void Tlb::invalidate_va(u64 vpage, u16 asid, u16 vmid) {
  std::lock_guard<std::mutex> lock(mu_);
  invalidations_.add();
  obs::trace().tlb_inval(obs::TlbScope::kVa, asid, vmid);
  // TLBI VAE1: the ASID's own entry for the page, plus any global entry
  // (global translations are not ASID-tagged, so a per-VA invalidate
  // always reaches them). Other ASIDs' non-global entries survive.
  kill_on_chain_if(vmid, vpage, [&](const TlbEntry& e) {
    return e.vmid == vmid && e.vpage == vpage && (e.global || e.asid == asid);
  });
}

void Tlb::invalidate_va_all_asid(u64 vpage, u16 vmid) {
  std::lock_guard<std::mutex> lock(mu_);
  invalidations_.add();
  obs::trace().tlb_inval(obs::TlbScope::kVaAllAsid, 0, vmid);
  kill_on_chain_if(vmid, vpage, [&](const TlbEntry& e) {
    return e.vmid == vmid && e.vpage == vpage;
  });
}

std::size_t Tlb::valid_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return l2_.valid_count();
}

}  // namespace lz::mem
