#include "obs/switch_probe.h"

#include <string>

namespace lz::obs {

namespace {

// The banks' counters that are not switch rows.
constexpr const char* kCompanions[] = {
    "lz.module.s1_fault",       "lz.module.s2_fault",
    "lz.module.sanitize_pass",  "lz.module.sanitize_fail",
    "lz.module.killed",         "hv.world.sysreg_saved",
    "hv.world.sysreg_restored", "hv.guest.stage2_fatal"};

// "lz.module.gate_switch" -> "lz.module."
std::string_view bank_of(std::string_view name) {
  return name.substr(0, name.find('.', name.find('.') + 1) + 1);
}

// The registered domain label, else the process's, else "vmid<v>".
std::string tenant_label(u16 vmid, u16 asid) {
  std::string label = domain_label(vmid, asid);
  if (label.empty() && asid != 0) label = domain_label(vmid, 0);
  if (label.empty()) label = "vmid" + std::to_string(vmid);
  return label;
}

}  // namespace

Counter& bank_counter(std::string_view name) {
  const std::string_view bank = bank_of(name);
  for (const SwitchRow& row : kSwitchRows) {
    if (row.counter != nullptr && bank_of(row.counter) == bank) {
      registry().counter(row.counter);
    }
  }
  for (const char* companion : kCompanions) {
    if (bank_of(companion) == bank) registry().counter(companion);
  }
  return registry().counter(name);
}

void detail::record_switch_family(SwitchKind kind, const SwitchArgs& args,
                                  Cycles delta) {
  const SwitchRow& row = kSwitchRows[static_cast<std::size_t>(kind)];
  LabelSet labels;
  if (row.labels == SwitchLabels::kBackendDomain) {
    labels.set(LabelKey::kBackend, args.backend);
    labels.set(LabelKey::kDomain, args.arg);
  } else {
    labels.set(LabelKey::kTenant, tenant_label(args.vmid, args.asid));
    if (row.labels == SwitchLabels::kTenantDomain) {
      labels.set(LabelKey::kDomain, u64{args.asid});
    }
  }
  metrics().histogram_family(row.family).with(labels).record(delta);
}

}  // namespace lz::obs
