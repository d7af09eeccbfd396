#include "lightzone/api.h"

#ifdef LZ_CONF_CHECK
#include "check/bbm.h"
#endif

namespace lz::core {

Env::Env(const Options& opts)
    : placement(opts.placement_), backend(opts.backend_) {
#ifdef LZ_CONF_CHECK
  // Arm the break-before-make write-protocol oracle (DESIGN.md §15) for
  // every scenario. It charges no simulated cycles and registers no obs
  // counters while quiet, so golden reports stay byte-identical; any PTE
  // store that violates the protocol is a fail-stop divergence.
  check::BbmMonitor::install();
#endif
  // Snapshot before construction: wiring the machine/host registers (and
  // possibly bumps) counters, and those belong to this scenario's delta.
  obs_baseline_ = obs::registry().snapshot();
  machine = std::make_unique<sim::Machine>(*opts.platform_, opts.seed_,
                                           opts.cores_, opts.mem_bytes_);
  host = std::make_unique<hv::Host>(*machine);
  if (placement == Placement::kGuest) {
    vm = std::make_unique<hv::GuestVm>(*host, "vm0");
    // Guest-kernel module + Lowvisor collaboration (§5.2.2).
    module = std::make_unique<LzModule>(*host, *vm);
  } else {
    module = std::make_unique<LzModule>(*host);
  }
}

Env::~Env() = default;

obs::Snapshot Env::counters_delta() const {
  return obs::Registry::delta(obs_baseline_, obs::registry().snapshot());
}

kernel::Kernel& Env::kern() {
  return placement == Placement::kGuest ? vm->kern() : host->kern();
}

kernel::Process& Env::new_process() {
  auto& k = kern();
  auto& proc = k.create_process();
  LZ_CHECK_OK(k.mmap(proc, kCodeVa, kCodeLen,
                     kernel::kProtRead | kernel::kProtExec));
  LZ_CHECK_OK(k.mmap(proc, kHeapVa, kHeapLen,
                     kernel::kProtRead | kernel::kProtWrite));
  LZ_CHECK_OK(k.mmap(proc, kStackTop - kStackLen, kStackLen,
                     kernel::kProtRead | kernel::kProtWrite));
  proc.ctx().sp = kStackTop - 64;
  proc.ctx().pc = kCodeVa;
  return proc;
}

LzProc LzProc::enter(LzModule& module, kernel::Process& proc,
                     bool allow_scalable, int insn_san,
                     const LzOptions* overrides) {
  LzOptions opts;
  if (overrides != nullptr) opts = *overrides;
  opts.allow_scalable = allow_scalable;
  opts.sanitize = insn_san != 0;
  opts.san_mode = insn_san == 2 ? SanitizeMode::kPan : SanitizeMode::kTtbr;
  LzContext& ctx = module.enter(proc, opts);
  return LzProc(std::make_shared<TtbrPanBackend>(module, ctx), module, ctx);
}

namespace table2 {

int errno_of(const Status& s) {
  switch (s.errc()) {
    case Errc::kOk:
      return 0;
    case Errc::kResourceExhausted:
      return -12;  // -ENOMEM
    case Errc::kPermissionDenied:
    case Errc::kFailedPrecondition:
      return -1;  // -EPERM
    case Errc::kNotFound:
      return -2;  // -ENOENT
    default:
      // kNoPgt / kBadRange / kBadGate / kNoGate / kInvalidArgument / …
      return -22;  // -EINVAL
  }
}

int lz_alloc(LzProc& p) { return to_c_int(p.lz_alloc()); }

int lz_free(LzProc& p, int pgt) { return to_c_int(p.lz_free(pgt)); }

int lz_prot(LzProc& p, VirtAddr addr, u64 len, int pgt, u32 perm) {
  return to_c_int(p.lz_prot(addr, len, pgt, perm));
}

int lz_map_gate_pgt(LzProc& p, int pgt, int gate) {
  return to_c_int(p.lz_map_gate_pgt(pgt, gate));
}

int lz_set_gate_entry(LzProc& p, int gate, VirtAddr entry) {
  return to_c_int(p.lz_set_gate_entry(gate, entry));
}

}  // namespace table2

}  // namespace lz::core
