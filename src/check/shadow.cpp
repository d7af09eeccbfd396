#include "check/shadow.h"

#include "support/types.h"

namespace lz::check {

ShadowTable2::ShadowTable2(u32 max_gates, bool allow_scalable,
                           int max_domains)
    : max_gates_(max_gates),
      allow_scalable_(allow_scalable),
      max_domains_(max_domains),
      gates_(max_gates) {
  pgts_.push_back(1);  // lz_enter allocates pgt 0, the default domain
}

void ShadowTable2::add_vma(u64 start, u64 end, bool write, bool exec) {
  vmas_.push_back(Vma{start, end, write, exec});
}

ShadowTable2::AllocOutcome ShadowTable2::alloc() {
  if (!allow_scalable_) {
    // PAN-only processes own exactly one table (made at enter).
    return {Errc::kFailedPrecondition, -1};
  }
  std::size_t id = pgts_.size();
  for (std::size_t i = 0; i < pgts_.size(); ++i) {
    if (!pgts_[i]) {
      id = i;
      break;
    }
  }
  if (id >= static_cast<std::size_t>(max_domains_)) {
    return {Errc::kResourceExhausted, -1};
  }
  if (id == pgts_.size()) pgts_.push_back(0);
  pgts_[id] = 1;
  return {Errc::kOk, static_cast<int>(id)};
}

Errc ShadowTable2::free_pgt(int pgt) {
  if (pgt <= 0 || !pgt_live(pgt)) return Errc::kNoPgt;
  pgts_[pgt] = 0;
  // lz_free dissolves the dead domain's grants: its regions disappear, so
  // the ranges they claimed become prot-able by other domains again.
  std::erase_if(regions_, [pgt](const Region& r) { return r.pgt == pgt; });
  return Errc::kOk;
}

Errc ShadowTable2::prot(u64 addr, u64 len, int pgt, u32 perm) {
  (void)perm;  // overlay permissions never affect the Status
  if (!page_aligned(addr) || len == 0) return Errc::kBadRange;
  if (pgt != kPgtAll && !pgt_live(pgt)) return Errc::kNoPgt;
  const u64 end = addr + page_ceil(len);
  for (const auto& region : regions_) {
    if (addr >= region.end || end <= region.start) continue;
    if (region.pgt != kPgtAll && pgt != kPgtAll && region.pgt != pgt) {
      return Errc::kBadRange;
    }
  }
  regions_.push_back(Region{addr, end, pgt});
  return Errc::kOk;
}

Errc ShadowTable2::map_gate_pgt(int pgt, int gate) {
  if (!gate_in_range(gate)) return Errc::kBadGate;
  if (!pgt_live(pgt)) return Errc::kNoPgt;
  gates_[gate].pgt = pgt;
  return Errc::kOk;
}

Errc ShadowTable2::set_gate_entry(int gate, u64 entry) {
  if (!gate_in_range(gate)) return Errc::kBadGate;
  gates_[gate].entry = entry;
  return Errc::kOk;
}

Errc ShadowTable2::touch(u64 va, bool want_write, bool want_exec) {
  va = page_floor(va);
  const Vma* vma = nullptr;
  for (const auto& v : vmas_) {
    if (va >= v.start && va < v.end) {
      vma = &v;
      break;
    }
  }
  if (vma == nullptr) return Errc::kNotFound;
  if (want_exec && !vma->exec) return Errc::kPermissionDenied;
  if (want_write && !vma->write) return Errc::kPermissionDenied;
  // The sanitizer accepts the zero-filled pages a fuzzed process touches,
  // so the want_exec path cannot fail past the VMA checks.
  return Errc::kOk;
}

Errc ShadowTable2::gate_switch(int gate) const {
  if (!gate_in_range(gate)) return Errc::kBadGate;
  if (gates_[gate].entry == 0) return Errc::kNoGate;
  if (gates_[gate].pgt < 0) return Errc::kNoGate;
  return Errc::kOk;
}

bool ShadowTable2::gate_runnable(int gate) const {
  return gate_switch(gate) == Errc::kOk && pgt_live(gates_[gate].pgt);
}

u64 ShadowTable2::domain_pages(int pgt) const {
  u64 pages = 0;
  for (const auto& r : regions_) {
    if (r.pgt == pgt) pages += (r.end - r.start) / kPageSize;
  }
  return pages;
}

}  // namespace lz::check
