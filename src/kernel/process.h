// Process model: an address space (kernel-managed stage-1 table + VMA
// list), a saved CPU context, signal state, and an extension slot the
// LightZone module attaches its per-process state to.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "arch/pstate.h"
#include "mem/page_table.h"
#include "support/types.h"

namespace lz::kernel {

enum ProtBits : u8 {
  kProtNone = 0,
  kProtRead = 1,
  kProtWrite = 2,
  kProtExec = 4,
};

struct Vma {
  VirtAddr start = 0;
  VirtAddr end = 0;  // exclusive
  u8 prot = kProtNone;

  bool contains(VirtAddr va) const { return va >= start && va < end; }
  u64 pages() const { return (end - start) / kPageSize; }
};

// Saved CPU context (per thread; the model runs one hardware core, the
// kernel multiplexes contexts onto it — this is Linux's pt_regs analogue).
struct CpuCtx {
  std::array<u64, 31> x{};
  u64 sp = 0;
  u64 pc = 0;
  u64 spsr = 0;    // includes PAN bit and EL
  u64 ttbr0 = 0;   // stage-1 base + ASID
  u64 ttbr1 = 0;   // upper-half base (LightZone processes)
  u64 vbar = 0;    // EL1 vector base (LightZone forwarding stub)
  u64 tpidr = 0;
};

struct SigAction {
  VirtAddr handler = 0;  // 0 = default (terminate)
};

// Subsystems (LightZone) attach per-process state through this interface.
class ProcessExtension {
 public:
  virtual ~ProcessExtension() = default;
  // Process exit (Kernel::destroy): return every frame the extension holds,
  // break-before-make, before the kernel frees the process's own pages.
  // Not called when the whole kernel is torn down with its machine.
  virtual void on_exit() {}
};

class Kernel;

class Process {
 public:
  Process(Kernel& kernel, u32 pid, u16 asid);

  Kernel& kernel() { return kernel_; }
  u32 pid() const { return pid_; }
  u16 asid() const { return asid_; }

  mem::Stage1Table& pgt() { return *pgt_; }
  const mem::Stage1Table& pgt() const { return *pgt_; }

  std::vector<Vma>& vmas() { return vmas_; }
  const Vma* find_vma(VirtAddr va) const;

  CpuCtx& ctx() { return ctx_; }

  bool alive() const { return alive_; }
  int exit_code() const { return exit_code_; }
  const std::string& kill_reason() const { return kill_reason_; }
  void mark_exited(int code) {
    alive_ = false;
    exit_code_ = code;
  }
  void mark_killed(std::string reason) {
    alive_ = false;
    exit_code_ = -1;
    kill_reason_ = std::move(reason);
  }

  // Signal state.
  std::array<SigAction, 32>& sigactions() { return sigactions_; }

  // Extension slot (LightZone per-process context).
  void set_extension(std::unique_ptr<ProcessExtension> ext) {
    ext_ = std::move(ext);
  }
  ProcessExtension* extension() { return ext_.get(); }

  // Bytes written via the write() syscall (observable test output).
  std::string& stdout_buf() { return stdout_buf_; }

  // Fault bookkeeping.
  u64 minor_faults = 0;
  // One pending (not yet delivered) signal; 0 = none.
  int pending_signal = 0;

 private:
  Kernel& kernel_;
  u32 pid_;
  u16 asid_;
  std::unique_ptr<mem::Stage1Table> pgt_;
  std::vector<Vma> vmas_;
  CpuCtx ctx_;
  bool alive_ = true;
  int exit_code_ = 0;
  std::string kill_reason_;
  std::array<SigAction, 32> sigactions_{};
  std::unique_ptr<ProcessExtension> ext_;
  std::string stdout_buf_;
};

}  // namespace lz::kernel
