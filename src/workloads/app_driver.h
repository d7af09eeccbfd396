// Shared machinery for the three application benchmarks (§9): one
// evaluation configuration = platform x placement x isolation row. The
// driver owns a full Env (machine + host + optional guest VM + module) with
// one worker process per core, drives every row through the Table-2 verbs
// of an IsolationBackend (executing the *real* call gate / PAN toggle on
// the LightZone rows, the modelled mechanism on the others), and exposes
// the event-level cost hooks the application models charge: per-syscall
// costs (measured from real trap round-trips), per-domain setup work, and
// TLB-miss costs under the active paging depth.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "lightzone/api.h"
#include "workloads/microbench.h"

namespace lz::workload {

// One evaluated configuration of Figs. 3-5. `backend` names the isolation
// mechanism (empty = vanilla); the two LightZone rows both run the live
// module, `pan` entering the process without allow_scalable so every
// protected slot sits in the one PAN domain. The setup fields are the
// row's calibration: the amortised work of creating one domain in kernel
// round trips, table/PTE updates and kernel instructions, and whether RME
// granule protection adds a delegation per domain and a GPT walk per TLB
// fill.
struct Row {
  const char* label = nullptr;  // the row's name in results keys
  std::optional<core::BackendKind> backend = std::nullopt;
  bool pan = false;
  u32 setup_syscalls = 0;
  u32 setup_mem_accesses = 0;
  u32 setup_insns = 0;
  bool gpt = false;

  // The LightZone process (stage 2, EL1) rather than a modelled rival.
  bool lightzone() const { return backend == core::BackendKind::kTtbrPan; }
  bool operator==(const Row& o) const {
    return backend == o.backend && pan == o.pan;
  }
};

inline constexpr Row kVanilla{.label = "vanilla"};
// One lz_prot module call (a LightZone syscall) + PTE updates.
inline constexpr Row kLzPan{.label = "LightZone-PAN",
                            .backend = core::BackendKind::kTtbrPan,
                            .pan = true,
                            .setup_syscalls = 1,
                            .setup_mem_accesses = 12};
// One batched setup call: lz_alloc + lz_prot + lz_map_gate_pgt are issued
// together when a key domain is created.
inline constexpr Row kLzTtbr{.label = "LightZone-TTBR",
                             .backend = core::BackendKind::kTtbrPan,
                             .setup_syscalls = 1,
                             .setup_mem_accesses = 40};
inline constexpr Row kWatchpoint{.label = "Watchpoint",
                                 .backend = core::BackendKind::kWatchpoint,
                                 .setup_syscalls = 1,
                                 .setup_mem_accesses = 8};
// lwCreate is a heavyweight fork-like call.
inline constexpr Row kLwc{.label = "lwC",
                          .backend = core::BackendKind::kLwc,
                          .setup_syscalls = 3,
                          .setup_insns = 400};
// One setup call + per-page PTE overlay-index re-tags.
inline constexpr Row kPoe{.label = "POE-keys",
                          .backend = core::BackendKind::kPoe,
                          .setup_syscalls = 1,
                          .setup_mem_accesses = 16};
// The SMC to the monitor plus the granule delegation dominate creation.
inline constexpr Row kCca{.label = "CCA-GPT",
                          .backend = core::BackendKind::kCca,
                          .setup_syscalls = 1,
                          .gpt = true};
inline constexpr Row kRows[] = {kVanilla, kLzPan, kLzTtbr, kWatchpoint,
                                kLwc,     kPoe,   kCca};

// The rows Figs. 3-5 plot: vanilla and the paper's four mechanisms for the
// default ttbr_pan, vanilla and row_of(backend) for any other backend.
std::vector<Row> figure_rows(core::BackendKind backend);

// Domains `row` can isolate besides the default one (unlimited = 2^16 - 1;
// vanilla isolates none).
int domain_cap(const Row& row);

struct AppConfig {
  const arch::Platform* platform = &arch::Platform::cortex_a55();
  Placement placement = Placement::kHost;
  Row row = kVanilla;
  u64 seed = 42;
  // Worker processes, one per core of the machine (httpd only).
  unsigned workers = 1;
};

class AppDriver {
 public:
  explicit AppDriver(const AppConfig& config);
  ~AppDriver();

  sim::Machine& machine() { return *env_->machine; }
  void charge_app(Cycles c) {
    env_->machine->charge(sim::CostKind::kWorkload, c);
  }

  // --- Domains ----------------------------------------------------------------
  // Create `count` isolation domains over page-aligned slots starting at
  // `base`, each `slot` bytes, in every worker. Domain d sits behind gate
  // d+1 and gate 0 returns to the default domain; PAN instead keeps every
  // slot in its one protected domain. Past the backend's cap, domain d
  // shares domain (d mod cap)'s gate target and its own slot stays
  // unprotected (Watchpoint's scalability failure).
  void setup_domains(VirtAddr base, u64 slot, int count);

  // One-way switch of the calling thread's worker granting access to
  // `domain` (the real gate / PAN toggle / modelled switch), and back to
  // the default domain. Return the cycles consumed.
  Cycles enter_domain(int domain);
  Cycles exit_domain();

  // Amortised per-domain setup work, from the row's calibration.
  Cycles domain_setup_cost() const;

  // --- Per-event costs ----------------------------------------------------------
  // `count` syscalls of the application under this configuration (vanilla
  // process vs kernel-mode LightZone process), each measured from real runs.
  void charge_syscalls(int count) {
    env_->machine->charge(sim::CostKind::kDispatch,
                          static_cast<Cycles>(count) * syscall_cost_);
  }

  // One TLB miss of application data under the active translation depth
  // (native 4-level walk; +stage-2 depth for LightZone processes; the
  // fake-physical layer defeats walk-cache locality for TTBR mode).
  Cycles tlb_miss_cost(bool huge_pages = false) const;
  void charge_tlb_misses(double count, bool huge_pages = false) {
    env_->machine->charge(
        sim::CostKind::kTlb,
        static_cast<Cycles>(count * tlb_miss_cost(huge_pages)));
  }

  // --- The calling thread's worker ----------------------------------------
  // Workers are bound to cores: worker w is the one whose core the calling
  // thread drives (core 0 when unbound).
  core::Env& env() { return *env_; }
  kernel::Process& proc() { return *worker().proc; }
  // The LightZone context (nullptr unless the row runs the live module).
  core::LzContext* lz_ctx();
  // Memory accounting for §9's overhead numbers.
  u64 isolation_table_pages() {
    return lz_ctx() != nullptr ? lz_ctx()->isolation_table_pages() : 0;
  }

 private:
  struct Worker {
    kernel::Process* proc = nullptr;
    std::optional<core::LzProc> lz;  // empty = vanilla
  };

  Worker& worker() { return workers_[machine().current_core_id()]; }
  void setup_worker(Worker& w);
  void populate_and_enter_el0(Worker& w);

  AppConfig config_;
  std::unique_ptr<core::Env> env_;
  std::vector<Worker> workers_;
  VirtAddr base_ = 0;
  u64 slot_ = 0;
  int domains_ = 0;
  Cycles syscall_cost_ = 0;
};

}  // namespace lz::workload
