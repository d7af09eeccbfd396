#include "check/fuzz.h"

#include <optional>
#include <string>

#include "baselines/backends.h"
#include "check/shadow.h"
#include "lightzone/api.h"
#include "support/rng.h"

namespace lz::check {

namespace {

using core::Env;
using core::LzProc;

// Fuzzed surface: gates and heap pages the generator aims at. Gate ids
// beyond kGates and the occasional wild value exercise the error paths.
constexpr unsigned kGates = 8;
constexpr unsigned kArenaPages = 32;

int pick_pgt(Rng& rng) {
  const u64 r = rng.below(10);
  if (r == 0) return -1;     // kPgtAll for prot, invalid elsewhere
  if (r == 1) return 70000;  // never-allocated id
  return static_cast<int>(rng.below(kGates));
}

int pick_gate(Rng& rng) {
  const u64 r = rng.below(12);
  if (r == 0) return -1;    // below the gate table
  if (r == 1) return 4096;  // beyond any max_gates we configure
  return static_cast<int>(rng.below(kGates));
}

struct Stream {
  std::optional<LzProc> lz;
  std::optional<ShadowTable2> shadow;
  std::vector<u8> statuses;
  std::vector<Divergence> divergences;
  u64 skipped = 0;
};

void fuzz_stream(const FuzzConfig& cfg, Stream& st, unsigned s) {
  auto& lz = *st.lz;
  auto& shadow = *st.shadow;
  const bool live = cfg.backend == core::BackendKind::kTtbrPan;

  // The live module executes real gate code at EL1 in the process's own
  // translation regime (on the core this stream is bound to); the model
  // backends only charge the clock, so they need no world entry or
  // register state.
  if (live) lz.module().enter_el1(lz.ctx());

  // Stream-indexed seed: the op sequence must not depend on which core (or
  // how many cores) the stream lands on.
  Rng rng(cfg.seed ^ (0x9e3779b97f4a7c15ULL * (s + 1)));

  auto record = [&st, s](const char* op, Errc want, const Status& got) {
    st.statuses.push_back(static_cast<u8>(got.errc()));
    if (got.errc() != want) {
      st.divergences.push_back(Divergence{
          "shadow.status",
          std::string(op) + " stream=" + std::to_string(s) + " op#" +
              std::to_string(st.statuses.size() - 1) + ": shadow predicts " +
              errc_name(want) + ", module returned " +
              errc_name(got.errc())});
    }
  };

  for (int i = 0; i < cfg.ops_per_stream; ++i) {
    switch (rng.below(7)) {
      case 0: {  // lz_alloc
        const auto want = shadow.alloc();
        const auto got = lz.lz_alloc();
        record("lz_alloc", want.errc, got.status());
        if (got.is_ok() && want.errc == Errc::kOk &&
            got.value() != want.pgt) {
          st.divergences.push_back(Divergence{
              "shadow.status",
              "lz_alloc stream=" + std::to_string(s) +
                  ": shadow predicts pgt " + std::to_string(want.pgt) +
                  ", module returned " + std::to_string(got.value())});
        }
        break;
      }
      case 1: {  // lz_free
        const int pgt = pick_pgt(rng);
        record("lz_free", shadow.free_pgt(pgt), lz.lz_free(pgt));
        break;
      }
      case 2: {  // lz_prot
        u64 addr = Env::kHeapVa + rng.below(kArenaPages) * kPageSize;
        if (rng.chance(0.1)) addr += 8;  // unaligned → kBadRange
        const u64 len = kPageSize * rng.below(4);  // 0 → kBadRange
        const int pgt = pick_pgt(rng);
        u32 perm = core::kLzRead;
        if (rng.chance(0.5)) perm |= core::kLzWrite;
        record("lz_prot", shadow.prot(addr, len, pgt, perm),
               lz.lz_prot(addr, len, pgt, perm));
        break;
      }
      case 3: {  // lz_map_gate_pgt
        const int pgt = pick_pgt(rng);
        const int gate = pick_gate(rng);
        record("lz_map_gate_pgt", shadow.map_gate_pgt(pgt, gate),
               lz.lz_map_gate_pgt(pgt, gate));
        break;
      }
      case 4: {  // lz_set_gate_entry
        const int gate = pick_gate(rng);
        const u64 entry = rng.chance(0.15) ? 0 : Env::kCodeVa + 0x40;
        record("lz_set_gate_entry", shadow.set_gate_entry(gate, entry),
               lz.lz_set_gate_entry(gate, entry));
        break;
      }
      case 5: {  // touch (demand fault-in)
        const u64 r = rng.below(8);
        u64 va;
        if (r < 5) {
          va = Env::kHeapVa + rng.below(kArenaPages) * kPageSize;
        } else if (r == 5) {
          va = Env::kCodeVa + rng.below(16) * kPageSize;
        } else if (r == 6) {
          va = Env::kStackTop - Env::kStackLen + rng.below(16) * kPageSize;
        } else {
          va = 0x900000000ULL + rng.below(4) * kPageSize;  // no VMA
        }
        const bool want_write = rng.chance(0.5);
        const bool want_exec = rng.chance(0.2);
        record("touch", shadow.touch(va, want_write, want_exec),
               lz.backend().touch(va, want_write, want_exec));
        break;
      }
      case 6: {  // gate switch
        const int gate = pick_gate(rng);
        const Errc want = shadow.gate_switch(gate);
        if (want == Errc::kOk && !shadow.gate_runnable(gate)) {
          // Validation would pass, but the mapped table died: really
          // executing the switch kills the process. Record and move on.
          st.statuses.push_back(kSkippedOp);
          ++st.skipped;
          break;
        }
        record("gate_switch", want,
               lz.lz_switch_to_ttbr_gate(gate).status());
        break;
      }
    }
  }

  if (live) lz.exit_world();
}

}  // namespace

FuzzResult run_table2_fuzz(const FuzzConfig& cfg) {
  const arch::Platform& plat =
      cfg.platform != nullptr ? *cfg.platform : arch::Platform::cortex_a55();
  const unsigned streams = cfg.streams != 0 ? cfg.streams : cfg.cores;

  Env env(Env::Options().platform(plat).cores(cfg.cores).seed(cfg.seed));
  auto& machine = *env.machine;

  // Deterministic setup: every stream's process is prepared sequentially on
  // the main thread (same discipline as the SMP microbenches) so frame
  // allocation — and with it every table layout — is schedule-independent.
  std::vector<Stream> ss(streams);
  for (unsigned s = 0; s < streams; ++s) {
    const unsigned core = s % cfg.cores;
    sim::Machine::CoreBinding bind(machine, core);
    // make_backend_proc reduces to LzProc::enter for kTtbrPan, so the live
    // path's table layout is bit-for-bit what it was before backends.
    ss[s].lz.emplace(baseline::make_backend_proc(cfg.backend, env));
    ss[s].shadow.emplace(ss[s].lz->backend().max_gates(),
                         /*allow_scalable=*/true,
                         core::max_domains(cfg.backend));
    baseline::add_env_vmas(*ss[s].shadow);
  }

  // Concurrent phase: streams sharing a core queue behind each other on
  // that core's worker; streams on different cores really run in parallel.
  for (unsigned s = 0; s < streams; ++s) {
    env.kern().run_on(s % cfg.cores, [&cfg, &ss, s](unsigned) {
      fuzz_stream(cfg, ss[s], s);
    });
  }
  env.kern().schedule();

  FuzzResult out;
  out.backend = cfg.backend;
  out.counters = env.counters_delta();
  u64 h = 1469598103934665603ULL;  // FNV-1a offset basis
  constexpr u64 kPrime = 1099511628211ULL;
  for (auto& st : ss) {
    for (const u8 b : st.statuses) {
      h = (h ^ b) * kPrime;
    }
    h = (h ^ 0xFFu) * kPrime;  // stream separator
    out.total_ops += st.statuses.size();
    out.skipped += st.skipped;
    out.status_streams.push_back(std::move(st.statuses));
    for (auto& d : st.divergences) out.divergences.push_back(std::move(d));
  }
  out.status_hash = h;
  return out;
}

std::vector<std::string> diff_fuzz_counters(const FuzzResult& a,
                                            const FuzzResult& b,
                                            const IgnoreFn& ignore) {
  if (a.backend != b.backend) {
    return {std::string("backend mismatch: cannot compare counters from "
                        "--backend ") +
            core::to_string(a.backend) + " against --backend " +
            core::to_string(b.backend) +
            "; rerun both sides with the same backend"};
  }
  return diff_counters(a.counters, b.counters, ignore);
}

}  // namespace lz::check
