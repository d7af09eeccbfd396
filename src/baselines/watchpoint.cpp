#include "baselines/watchpoint.h"

#include <bit>

namespace lz::baseline {

using arch::ExceptionLevel;
using sim::CostKind;
using sim::SysReg;

std::vector<WpRange> complement_ranges(u64 hole, u64 num_slots,
                                       std::size_t max_ranges) {
  std::vector<WpRange> out;
  // Left part [0, hole): peel the largest power-of-two block that starts
  // at the current position and stays inside the range.
  u64 pos = 0;
  while (pos < hole) {
    u64 size = std::bit_floor(hole - pos);
    // Alignment: block must be aligned to its size.
    while (pos % size != 0) size >>= 1;
    out.push_back(WpRange{pos, size});
    pos += size;
  }
  // Right part [hole+1, num_slots).
  pos = hole + 1;
  while (pos < num_slots) {
    u64 size = std::bit_floor(num_slots - pos);
    while (pos % size != 0) size >>= 1;
    out.push_back(WpRange{pos, size});
    pos += size;
  }
  if (out.size() > max_ranges) return {};
  return out;
}

WatchpointIsolation::WatchpointIsolation(hv::Host& host, hv::GuestVm* vm)
    : host_(host), vm_(vm) {}

kernel::Kernel& WatchpointIsolation::kern() {
  return vm_ != nullptr ? vm_->kern() : host_.kern();
}

Status WatchpointIsolation::setup_arena(VirtAddr base, u64 slot_size,
                                        int num_domains) {
  if (num_domains < 1 || num_domains > kMaxDomains) {
    return err(Errc::kInvalidArgument, "watchpoint: 1..16 domains");
  }
  if (!page_aligned(base) || std::popcount(slot_size) != 1 ||
      slot_size < kPageSize) {
    return err(Errc::kInvalidArgument, "watchpoint: bad arena layout");
  }
  if (base % (slot_size * std::bit_ceil(static_cast<u64>(num_domains))) !=
      0) {
    return err(Errc::kInvalidArgument,
               "watchpoint: arena must be aligned to its own size");
  }
  arena_base_ = base;
  slot_size_ = slot_size;
  num_domains_ = num_domains;
  exit_domains();
  return Status::ok();
}

Cycles WatchpointIsolation::charge_ioctl_roundtrip() {
  auto& m = host_.machine();
  const auto& plat = m.platform();
  const Cycles start = m.account().total();
  if (vm_ == nullptr) {
    // Host process: EL0 -> EL2 (VHE) syscall round-trip.
    m.charge(CostKind::kExcp, plat.excp(ExceptionLevel::kEl0,
                                        ExceptionLevel::kEl2));
    m.charge(CostKind::kGpr, 2 * plat.gpr_save_all());
    m.charge(CostKind::kDispatch, plat.dispatch_kernel);
    m.charge(CostKind::kExcp, plat.eret(ExceptionLevel::kEl2,
                                        ExceptionLevel::kEl0));
  } else {
    // Guest process: EL0 -> EL1 inside the VM.
    m.charge(CostKind::kExcp, plat.excp(ExceptionLevel::kEl0,
                                        ExceptionLevel::kEl1));
    m.charge(CostKind::kGpr, 2 * plat.gpr_save_all());
    m.charge(CostKind::kDispatch, plat.dispatch_kernel);
    m.charge(CostKind::kExcp, plat.eret(ExceptionLevel::kEl1,
                                        ExceptionLevel::kEl0));
  }
  return m.account().total() - start;
}

void WatchpointIsolation::program_watchpoints(int hole_domain) {
  auto& m = host_.machine();
  auto& core = m.core();
  const auto& plat = m.platform();
  static constexpr SysReg kPairs[][2] = {
      {SysReg::kDbgwvr0El1, SysReg::kDbgwcr0El1},
      {SysReg::kDbgwvr1El1, SysReg::kDbgwcr1El1},
      {SysReg::kDbgwvr2El1, SysReg::kDbgwcr2El1},
      {SysReg::kDbgwvr3El1, SysReg::kDbgwcr3El1},
  };
  std::vector<WpRange> ranges;
  // The arena is padded to a power-of-two slot count; watching the unused
  // tail slots is harmless and keeps the binary range decomposition within
  // the four watchpoint pairs for every hole position.
  const u64 padded = std::bit_ceil(static_cast<u64>(num_domains_));
  if (hole_domain < 0) {
    ranges.push_back(WpRange{0, padded});
  } else {
    ranges = complement_ranges(static_cast<u64>(hole_domain), padded);
  }
  LZ_CHECK(!ranges.empty() || padded == 1);
  LZ_CHECK(ranges.size() <= 4);

  const Cycles wr_cost =
      vm_ == nullptr ? plat.dbg_reg_write_el2 : plat.dbg_reg_write;
  for (std::size_t i = 0; i < 4; ++i) {
    u64 wvr = 0, wcr = 0;
    if (i < ranges.size()) {
      const u64 bytes = ranges[i].slots * slot_size_;
      wvr = arena_base_ + ranges[i].begin_slot * slot_size_;
      const unsigned mask = std::countr_zero(bytes);
      wcr = 1 | (u64{mask} << 24);
    }
    core.set_sysreg(kPairs[i][0], wvr);
    core.set_sysreg(kPairs[i][1], wcr);
    // The access-control algorithm always rewrites all four pairs (§8).
    m.charge(CostKind::kSysreg, 2 * wr_cost);
  }
  // Range-decomposition bookkeeping in the handler.
  m.charge(CostKind::kDispatch, plat.dispatch_wp_algo);
}

Cycles WatchpointIsolation::switch_to(int domain) {
  LZ_CHECK(domain >= 0 && domain < num_domains_);
  auto& m = host_.machine();
  const Cycles start = m.account().total();
  charge_ioctl_roundtrip();
  program_watchpoints(domain);
  return m.account().total() - start;
}

Cycles WatchpointIsolation::exit_domains() {
  auto& m = host_.machine();
  const Cycles start = m.account().total();
  charge_ioctl_roundtrip();
  program_watchpoints(-1);
  return m.account().total() - start;
}

Cycles WatchpointIsolation::switch_cost_estimate() const {
  const auto& plat = host_.machine().platform();
  const Cycles trap =
      vm_ == nullptr
          ? plat.excp(ExceptionLevel::kEl0, ExceptionLevel::kEl2) +
                plat.eret(ExceptionLevel::kEl2, ExceptionLevel::kEl0)
          : plat.excp(ExceptionLevel::kEl0, ExceptionLevel::kEl1) +
                plat.eret(ExceptionLevel::kEl1, ExceptionLevel::kEl0);
  const Cycles wr =
      vm_ == nullptr ? plat.dbg_reg_write_el2 : plat.dbg_reg_write;
  return trap + 2 * plat.gpr_save_all() + plat.dispatch_kernel + 8 * wr +
         plat.dispatch_wp_algo;
}

}  // namespace lz::baseline
