// Key vault: the §9.1 scenario. A server holds many per-session AES keys;
// each key lives in its own LightZone TTBR domain. Crypto code reaches a
// key only through that key's call gate, so a memory-disclosure bug (a
// Heartbleed-style over-read, CVE-2014-0160) in the request path cannot
// leak *other* sessions' keys.
//
// The example (1) serves legitimate requests — fetching each key through
// its gate and CBC-encrypting a buffer with it — and then (2) runs the
// exploit: code that has a valid gate for session 0 tries to read session
// 1's key directly. LightZone terminates it.
#include <cstdio>
#include <cstring>

#include "lightzone/api.h"
#include "sim/assembler.h"
#include "workloads/crypto/aes.h"

using namespace lz;
using namespace lz::core;

namespace {

constexpr int kSessions = 8;

VirtAddr key_va(int session) {
  return Env::kHeapVa + static_cast<u64>(session) * kPageSize;
}

struct Vault {
  Env env;
  kernel::Process* proc;
  std::unique_ptr<LzProc> lz;
  std::array<u8, 16> keys[kSessions];

  Vault() : env(Env::Options().platform(arch::Platform::cortex_a55())) {
    proc = &env.new_process();
    lz = std::make_unique<LzProc>(
        LzProc::enter(*env.module, *proc, true, /*insn_san=*/1));
    // One domain + one gate per session key.
    for (int s = 0; s < kSessions; ++s) {
      const int pgt = lz->lz_alloc().value();
      LZ_CHECK(pgt >= 1);
      LZ_CHECK(lz->lz_prot(key_va(s), kPageSize, pgt, kLzRead).is_ok());
      LZ_CHECK(lz->lz_map_gate_pgt(pgt, s).is_ok());
      for (auto& b : keys[s]) b = static_cast<u8>(0x10 * s + (&b - keys[s].data()));
      env.kern().copy_to_user(*proc, key_va(s), keys[s].data(), 16);
      // Fault the key page into the LightZone tables now.
      LZ_CHECK_OK(lz->module().touch_page(lz->ctx(), key_va(s), false, false));
    }
  }

  // Serve one request for `session`: enter the key's domain through the
  // real call gate, read the key through the MMU, encrypt, leave.
  bool serve(int session, const u8* plaintext, u8* out, std::size_t len) {
    auto& module = lz->module();
    auto& ctx = lz->ctx();
    auto& core = env.machine->core();
    LZ_CHECK(module.set_gate_entry(ctx, session, Env::kCodeVa + 0x40).is_ok());

    module.enter_el1(ctx);
    LZ_CHECK(module.exec_gate_switch(ctx, session).is_ok());

    u8 key[16];
    bool ok = true;
    for (u64 off = 0; off < 16; off += 8) {
      const auto r = core.mem_read(key_va(session) + off, 8);
      ok = ok && r.ok;
      if (r.ok) std::memcpy(key + off, &r.value, 8);
    }
    LZ_CHECK(module.exec_gate_switch(ctx, 0).is_ok());  // revoke access
    module.exit_world(ctx);
    if (!ok) return false;

    const auto expanded = workload::crypto::aes_expand_key(key);
    u8 iv[16] = {};
    std::memcpy(out, plaintext, len);
    workload::crypto::aes_cbc_encrypt(expanded, iv, out, len);
    return true;
  }
};

}  // namespace

int main() {
  std::printf("Key vault: %d session keys, one TTBR domain each\n\n",
              kSessions);
  Vault vault;

  // Legitimate traffic.
  const u8 msg[32] = "attack at dawn..padded to 32B..";
  for (int s = 0; s < kSessions; ++s) {
    u8 ct[32];
    LZ_CHECK(vault.serve(s, msg, ct, sizeof(ct)));
    std::printf("session %d: ct[0..7] = ", s);
    for (int i = 0; i < 8; ++i) std::printf("%02x", ct[i]);
    std::printf("\n");
  }

  // The exploit: runs with a *valid* gate into session 0's domain but then
  // dereferences session 1's key page (the over-read).
  std::printf("\nexploit: session-0 code over-reads into session 1's key\n");
  auto& proc = *vault.proc;
  sim::Asm a;
  a.mov_imm64(17, UpperLayout::gate_va(0));  // legitimate: enter domain 0
  a.blr(17);
  const VirtAddr entry = Env::kCodeVa + a.size_bytes();
  a.mov_imm64(1, key_va(0));
  a.ldr(2, 1, 0);          // fine: own key
  a.mov_imm64(1, key_va(1));
  a.ldr(3, 1, 0);          // Heartbleed: neighbouring session's key
  a.movz(8, kernel::nr::kExit);
  a.svc(0);
  LZ_CHECK_OK(vault.env.kern().populate_page(
      proc, Env::kCodeVa, kernel::kProtRead | kernel::kProtExec));
  const auto walk = proc.pgt().lookup(Env::kCodeVa);
  a.install(vault.env.machine->mem(), page_floor(walk.out_addr));
  LZ_CHECK(vault.lz->lz_set_gate_entry(0, entry).is_ok());

  vault.lz->run();
  std::printf("own key read:      x2 = %llx (succeeded)\n",
              static_cast<unsigned long long>(
                  vault.env.machine->core().x(2)));
  std::printf("foreign key read:  process %s\n",
              proc.alive() ? "SURVIVED (isolation FAILED)"
                           : proc.kill_reason().c_str());
  std::printf("x3 (stolen key) = %llx\n",
              static_cast<unsigned long long>(
                  vault.env.machine->core().x(3)));
  LZ_CHECK(!proc.alive());
  LZ_CHECK(vault.env.machine->core().x(3) == 0);
  std::printf("\nsession 1's key never left its domain.\n");
  return 0;
}
