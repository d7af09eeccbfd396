// Switch instruments, one row at a time. Every domain and world switch the
// model performs feeds a fixed set of instruments: a registry counter, an
// instant trace event, a duration span, a flat latency histogram and a
// per-tenant metric family (each optional per switch kind). This test arms
// the trace, the span tracer and the metrics plane, drives each switch kind
// once, and checks that exactly that kind's instruments moved — no more,
// no fewer — so a switch can neither lose an instrument nor feed a
// neighbour's.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "baselines/backends.h"
#include "hv/world.h"
#include "lightzone/api.h"
#include "lightzone/gate.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/machine.h"

namespace lz {
namespace {

using core::Env;
using core::LzProc;
using sim::SysReg;

// Every switch instrument, as "<plane>:<name>" keys.
const std::vector<std::string> kCounters = {
    "lz.module.gate_switch", "lz.module.pan_toggle", "lz.module.world_enter",
    "lz.module.world_exit",  "lz.module.hvc_forward", "hv.world.vm_exit",
    "hv.world.vm_entry",     "hv.guest.kvm_hypercall", "hv.guest.hvc_forward",
    "sim.dvm.broadcast"};
const std::vector<std::string> kHistograms = {
    "lz.gate.switch_cycles", "lz.pan.switch_cycles", "lz.world.switch_cycles",
    "lz.hvc.forward_cycles", "hv.world.vm_switch_cycles",
    "sim.dvm.shootdown_cycles"};
const std::vector<std::string> kFamilies = {
    "lz.tenant.gate_switch_cycles", "lz.tenant.pan_switch_cycles",
    "lz.tenant.world_switch_cycles", "lz.tenant.hvc_forward_cycles",
    "lz.backend.switch_cycles"};
const std::vector<obs::SpanKind> kSpans = {
    obs::SpanKind::kGateSwitch, obs::SpanKind::kPanSwitch,
    obs::SpanKind::kWorldSwitch, obs::SpanKind::kHvcForward};

std::string event_key(const obs::Event& e) {
  std::string key = std::string("event:") + obs::to_string(e.kind);
  if (e.kind == obs::EventKind::kWorldSwitch) {
    key += std::string(".") +
           obs::to_string(static_cast<obs::WorldKind>(e.b1));
  }
  return key;
}

bool is_switch_event(obs::EventKind kind) {
  return kind == obs::EventKind::kGateSwitch ||
         kind == obs::EventKind::kPanToggle ||
         kind == obs::EventKind::kWorldSwitch ||
         kind == obs::EventKind::kHvcForward;
}

// Current value of every switch instrument.
std::map<std::string, u64> ReadInstruments() {
  std::map<std::string, u64> out;
  for (const auto& name : kCounters) out["counter:" + name] = 0;
  for (const auto& [name, value] : obs::registry().snapshot()) {
    auto it = out.find("counter:" + name);
    if (it != out.end()) it->second = value;
  }
  for (const auto& name : kHistograms) {
    const obs::Histogram* h = obs::histograms().find(name);
    out["hist:" + name] = h == nullptr ? 0 : h->count();
  }
  for (const auto& name : kFamilies) out["family:" + name] = 0;
  for (const obs::HistogramFamily* fam : obs::metrics().histogram_families()) {
    auto it = out.find("family:" + fam->name());
    if (it == out.end()) continue;
    for (const auto& s : fam->series()) it->second += s.inst->count();
  }
  for (const obs::SpanKind kind : kSpans) {
    out[std::string("span:") + obs::to_string(kind)] =
        obs::spans().completed_of(kind);
  }
  for (const obs::Event& e : obs::trace().events()) {
    if (is_switch_event(e.kind)) ++out[event_key(e)];
  }
  return out;
}

std::set<std::string> Moved(const std::map<std::string, u64>& before,
                            const std::map<std::string, u64>& after) {
  std::set<std::string> moved;
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    if (it == before.end() ? value != 0 : it->second != value) {
      moved.insert(key);
    }
  }
  return moved;
}

// Each switch kind's instruments.
const std::vector<std::string> kLzGate = {
    "counter:lz.module.gate_switch", "event:gate-switch", "span:gate-switch",
    "hist:lz.gate.switch_cycles", "family:lz.tenant.gate_switch_cycles"};
const std::vector<std::string> kLzPan = {
    "counter:lz.module.pan_toggle", "event:pan-toggle", "span:pan-switch",
    "hist:lz.pan.switch_cycles", "family:lz.tenant.pan_switch_cycles"};
const std::vector<std::string> kLzEnter = {
    "counter:lz.module.world_enter", "event:world-switch.lz-enter",
    "span:world-switch", "hist:lz.world.switch_cycles",
    "family:lz.tenant.world_switch_cycles"};
const std::vector<std::string> kLzExit = {
    "counter:lz.module.world_exit", "event:world-switch.lz-exit",
    "span:world-switch", "hist:lz.world.switch_cycles",
    "family:lz.tenant.world_switch_cycles"};
const std::vector<std::string> kLzHvc = {
    "counter:lz.module.hvc_forward", "event:hvc-forward", "span:hvc-forward",
    "hist:lz.hvc.forward_cycles", "family:lz.tenant.hvc_forward_cycles"};
const std::vector<std::string> kVmExit = {"counter:hv.world.vm_exit",
                                          "hist:hv.world.vm_switch_cycles"};
const std::vector<std::string> kVmEntry = {"counter:hv.world.vm_entry",
                                           "hist:hv.world.vm_switch_cycles"};
const std::vector<std::string> kKvmHypercall = {
    "counter:hv.guest.kvm_hypercall", "span:world-switch"};
const std::vector<std::string> kGuestHvc = {
    "counter:hv.guest.hvc_forward", "event:hvc-forward", "span:hvc-forward"};
const std::vector<std::string> kDvm = {"counter:sim.dvm.broadcast",
                                       "hist:sim.dvm.shootdown_cycles"};
const std::vector<std::string> kBackend = {"family:lz.backend.switch_cycles"};

std::set<std::string> Union(
    std::initializer_list<const std::vector<std::string>*> rows,
    std::initializer_list<const char*> extra = {}) {
  std::set<std::string> out;
  for (const auto* row : rows) out.insert(row->begin(), row->end());
  out.insert(extra.begin(), extra.end());
  return out;
}

struct Case {
  const char* name;
  std::function<void()> drive;
  std::set<std::string> moves;
};

class SwitchProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_all();
    obs::trace().arm(1 << 16);
    obs::spans().arm(1 << 16);
    obs::metrics().enable();
  }
  void TearDown() override {
    obs::trace().disarm();
    obs::spans().disarm();
    obs::reset_all();
  }
};

TEST_F(SwitchProbeTest, EachSwitchMovesExactlyItsOwnInstruments) {
  // A TTBR-mode LightZone process with domain 1 behind gate 1.
  Env lz_env(Env::Options().platform(arch::Platform::cortex_a55()));
  auto& proc = lz_env.new_process();
  LzProc lz = LzProc::enter(*lz_env.module, proc, true, 1);
  auto& module = lz.module();
  auto& ctx = lz.ctx();
  auto& core = lz_env.machine->core();
  const int pgt1 = lz.lz_alloc().value();
  ASSERT_TRUE(lz.lz_map_gate_pgt(pgt1, 1).is_ok());
  ASSERT_TRUE(lz.lz_set_gate_entry(1, Env::kCodeVa + 0x40).is_ok());
  const auto load_el1 = [&] {
    core.pstate().el = arch::ExceptionLevel::kEl1;
    core.set_sysreg(SysReg::kTtbr0El1, module.domain_ttbr(ctx, 0));
    core.set_sysreg(SysReg::kTtbr1El1, ctx.ctx.ttbr1);
    core.set_sysreg(SysReg::kVbarEl1, ctx.ctx.vbar);
  };

  // A guest VM (its hypervisor world switches) and a 2-core machine (its
  // TLB maintenance broadcasts).
  Env vm_env(Env::Options().placement(Env::Placement::kGuest));
  Env smp_env(Env::Options().cores(2));

  // A cost-model backend: its switches record only the backend family.
  Env poe_env(Env::Options().backend(core::BackendKind::kPoe));
  LzProc poe(baseline::make_backend(core::BackendKind::kPoe, poe_env));
  const int poe_pgt = poe.lz_alloc().value();
  ASSERT_TRUE(poe.lz_map_gate_pgt(poe_pgt, 1).is_ok());
  ASSERT_TRUE(poe.lz_set_gate_entry(1, Env::kCodeVa + 0x40).is_ok());

  const std::vector<Case> cases = {
      {"lz world enter", [&] { module.enter_world(ctx); },
       Union({&kLzEnter})},
      {"lz gate switch",
       [&] {
         load_el1();
         ASSERT_TRUE(module.exec_gate_switch(ctx, 1).is_ok());
       },
       Union({&kLzGate})},
      {"lz pan switch", [&] { module.exec_set_pan(ctx, false); },
       Union({&kLzPan})},
      {"lz hvc forward",
       [&] {
         // The stub forwards an empty syscall: ELR_EL2 points into the
         // stub page and ESR_EL1 holds the original SVC syndrome.
         core.set_sysreg(SysReg::kElrEl2, core::UpperLayout::kStubVa + 4);
         core.set_sysreg(SysReg::kSpsrEl2, core.pstate().to_spsr());
         core.set_sysreg(SysReg::kEsrEl1,
                         arch::make_esr(arch::ExceptionClass::kSvc64, 0));
         core.set_x(8, kernel::nr::kEmpty);
         sim::TrapInfo info;
         info.target = arch::ExceptionLevel::kEl2;
         info.from = arch::ExceptionLevel::kEl1;
         info.ec = arch::ExceptionClass::kHvc64;
         EXPECT_EQ(module.on_el2_trap(info), sim::TrapAction::kResume);
       },
       Union({&kLzHvc})},
      {"lz world exit", [&] { module.exit_world(ctx); }, Union({&kLzExit})},
      {"vm exit cost", [&] { hv::charge_full_vm_exit(*vm_env.machine); },
       Union({&kVmExit})},
      {"vm entry cost", [&] { hv::charge_full_vm_entry(*vm_env.machine); },
       Union({&kVmEntry})},
      // The round trip's full world switches land in the VM cost rows,
      // and its two hops are marked by plain VM world-switch events.
      {"kvm hypercall round trip",
       [&] { EXPECT_GT(vm_env.vm->kvm_hypercall_roundtrip(), 0u); },
       Union({&kKvmHypercall, &kVmExit, &kVmEntry},
             {"event:world-switch.vm-exit", "event:world-switch.vm-entry"})},
      {"guest hvc forward",
       [&] {
         sim::TrapInfo info;
         info.target = arch::ExceptionLevel::kEl2;
         info.from = arch::ExceptionLevel::kEl1;
         info.ec = arch::ExceptionClass::kHvc64;
         info.esr = arch::make_esr(arch::ExceptionClass::kHvc64, 0);
         EXPECT_EQ(vm_env.vm->on_el2_trap(info), sim::TrapAction::kResume);
       },
       Union({&kGuestHvc})},
      {"dvm shootdown", [&] { smp_env.machine->tlbi_all_is(); },
       Union({&kDvm})},
      {"model backend gate switch",
       [&] { ASSERT_TRUE(poe.lz_switch_to_ttbr_gate(1).is_ok()); },
       Union({&kBackend})},
  };

  // Warm the gate once so the measured switch is the steady-state path,
  // and start the hypercall round trip from inside its VM.
  module.enter_world(ctx);
  load_el1();
  ASSERT_TRUE(module.exec_gate_switch(ctx, 1).is_ok());
  module.exit_world(ctx);
  vm_env.vm->enter_vm();

  for (const Case& c : cases) {
    const auto before = ReadInstruments();
    c.drive();
    const auto moved = Moved(before, ReadInstruments());
    EXPECT_EQ(moved, c.moves) << c.name;
  }
  EXPECT_TRUE(proc.alive()) << proc.kill_reason();
  vm_env.vm->exit_vm();
}

}  // namespace
}  // namespace lz
