#include "check/bbm.h"

#include <cstdio>
#include <string>
#include <vector>

#include "check/check.h"
#include "mem/page_table.h"
#include "mem/pte.h"

namespace lz::check {

namespace {

std::string hex(u64 v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string where(const mem::PteWrite& w) {
  return std::string(w.stage2 ? "stage-2" : "stage-1") + " desc_pa=" +
         hex(w.desc_pa) + " in_addr=" + hex(w.in_addr) + " level=" +
         std::to_string(w.level) + " asid=" + std::to_string(w.asid) +
         " vmid=" + std::to_string(w.vmid) + " old=" + hex(w.old_desc) +
         " new=" + hex(w.new_desc);
}

bool is_leaf(const mem::PteWrite& w) {
  return w.stage2 ? w.level == mem::kStage2LeafLevel
                  : w.level == mem::kStage1Levels - 1;
}

}  // namespace

BbmMonitor& BbmMonitor::instance() {
  static BbmMonitor mon;
  return mon;
}

void BbmMonitor::install() { mem::set_pte_write_observer(&instance()); }

void BbmMonitor::uninstall() {
  if (installed()) mem::set_pte_write_observer(nullptr);
}

bool BbmMonitor::installed() {
  return mem::pte_write_observer() == &instance();
}

BbmMonitor::Stats BbmMonitor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BbmMonitor::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  locs_.clear();
  pending_ = 0;
  stats_ = Stats{};
}

void BbmMonitor::on_pte_write(const mem::PteWrite& w) {
  if (!enabled()) return;
  std::vector<Divergence> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.writes;
    const bool old_valid = mem::pte::valid(w.old_desc);
    const bool new_valid = mem::pte::valid(w.new_desc);
    const Key key{w.pm, w.desc_pa};

    if (!old_valid && !new_valid) return;  // rewriting an invalid slot

    if (old_valid && !new_valid) {
      // Break: capture the identity a covering TLBI must name. The global
      // bit comes from the descriptor that was live — a stale nG=0 entry
      // serves every ASID, so ASID-scoped TLBIs can never retire it.
      Loc& loc = locs_[key];
      if (loc.state != LocState::kInvalidUnclean &&
          loc.state != LocState::kInvalidTlbied) {
        ++pending_;
      }
      loc.state = LocState::kInvalidUnclean;
      loc.stage2 = w.stage2;
      loc.global =
          !w.stage2 && is_leaf(w) && mem::pte::s1_attrs(w.old_desc).global;
      loc.vpage = page_index(w.in_addr);
      loc.asid = w.asid;
      loc.vmid = w.vmid;
      return;
    }

    auto it = locs_.find(key);
    if (!old_valid && new_valid) {
      // Make: only legal over a clean location (or one this monitor has
      // never seen — frames arrive zeroed from the allocator).
      if (it != locs_.end()) {
        if (it->second.state == LocState::kInvalidUnclean) {
          ++stats_.violations;
          found.push_back(Divergence{
              "bbm.remap_unclean",
              "valid write over broken location with no covering TLBI: " +
                  where(w)});
        } else if (it->second.state == LocState::kInvalidTlbied) {
          ++stats_.violations;
          found.push_back(Divergence{
              "bbm.remap_before_dsb",
              "valid write raced ahead of the DSB completing the TLBI: " +
                  where(w)});
        }
        if (it->second.state == LocState::kInvalidUnclean ||
            it->second.state == LocState::kInvalidTlbied) {
          --pending_;
        }
      }
      Loc& loc = locs_[key];
      loc.state = LocState::kValid;
      loc.stage2 = w.stage2;
      loc.global =
          !w.stage2 && is_leaf(w) && mem::pte::s1_attrs(w.new_desc).global;
      loc.vpage = page_index(w.in_addr);
      loc.asid = w.asid;
      loc.vmid = w.vmid;
    } else {
      // valid -> valid. Identical bits are a no-op; otherwise the change
      // must not move the output address or remove rights in place.
      if (w.old_desc == w.new_desc) return;
      if (mem::pte::addr(w.old_desc) != mem::pte::addr(w.new_desc)) {
        ++stats_.violations;
        found.push_back(Divergence{
            "bbm.oa_change",
            "in-place output-address change on live descriptor: " + where(w)});
      } else if (is_leaf(w)) {
        const bool tighten =
            w.stage2 ? mem::s2_tightens(mem::pte::s2_attrs(w.old_desc),
                                        mem::pte::s2_attrs(w.new_desc))
                     : mem::s1_tightens(mem::pte::s1_attrs(w.old_desc),
                                        mem::pte::s1_attrs(w.new_desc));
        if (tighten) {
          ++stats_.violations;
          found.push_back(Divergence{
              "bbm.tighten_in_place",
              "in-place permission tightening on live descriptor: " +
                  where(w)});
        }
      }
      Loc& loc = locs_[key];
      if (loc.state == LocState::kInvalidUnclean ||
          loc.state == LocState::kInvalidTlbied) {
        --pending_;  // out-of-sync: the write re-validated it regardless
      }
      loc.state = LocState::kValid;
      loc.stage2 = w.stage2;
      loc.global =
          !w.stage2 && is_leaf(w) && mem::pte::s1_attrs(w.new_desc).global;
      loc.vpage = page_index(w.in_addr);
      loc.asid = w.asid;
      loc.vmid = w.vmid;
    }
  }
  for (auto& d : found) report(std::move(d));
}

void BbmMonitor::on_tlbi(const mem::TlbiEvent& e) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.tlbis;
  if (pending_ == 0) return;
  using S = obs::TlbScope;
  for (auto& [key, loc] : locs_) {
    if (loc.state != LocState::kInvalidUnclean) continue;
    bool covers = false;
    if (e.scope == S::kAll) {
      covers = true;
    } else if (e.vmid != loc.vmid) {
      covers = false;
    } else if (loc.stage2) {
      // Simplification (DESIGN.md §15): the model TLB caches only combined
      // final translations, so any maintenance naming the VMID retires
      // stale stage-2 state; there is no separate IPA-scoped invalidate.
      covers = true;
    } else {
      switch (e.scope) {
        case S::kVmid:
          covers = true;
          break;
        case S::kAsid:
          covers = !loc.global && e.asid == loc.asid;
          break;
        case S::kVaAllAsid:
          covers = e.vpage == loc.vpage;
          break;
        case S::kVa:
          covers =
              e.vpage == loc.vpage && (loc.global || e.asid == loc.asid);
          break;
        case S::kAll:
          covers = true;
          break;
      }
    }
    if (covers) loc.state = LocState::kInvalidTlbied;
  }
}

void BbmMonitor::on_dsb() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.dsbs;
  if (pending_ == 0) return;
  for (auto& [key, loc] : locs_) {
    if (loc.state == LocState::kInvalidTlbied) {
      loc.state = LocState::kInvalidClean;
      --pending_;
    }
  }
}

void BbmMonitor::on_table_free(const mem::PhysMem* pm, PhysAddr table_pa) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = locs_.begin(); it != locs_.end();) {
    if (it->first.pm == pm && it->first.desc_pa >= table_pa &&
        it->first.desc_pa < table_pa + kPageSize) {
      if (it->second.state == LocState::kInvalidUnclean ||
          it->second.state == LocState::kInvalidTlbied) {
        --pending_;
      }
      it = locs_.erase(it);
    } else {
      ++it;
    }
  }
}

void BbmMonitor::on_phys_mem_destroyed(const mem::PhysMem* pm) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = locs_.begin(); it != locs_.end();) {
    if (it->first.pm == pm) {
      if (it->second.state == LocState::kInvalidUnclean ||
          it->second.state == LocState::kInvalidTlbied) {
        --pending_;
      }
      it = locs_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace lz::check
