#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "check/fuzz_a64.h"
#include "lightzone/api.h"
#include "spans.h"
#include "support/rng.h"
#include "workloads/crypto/aes.h"

namespace lzbench {

namespace {

using lz::Cycles;
using lz::Rng;
using lz::VirtAddr;
using lz::core::Env;
using lz::core::LzProc;
namespace crypto = lz::workload::crypto;

constexpr uint64_t kPage = lz::kPageSize;
// The legal re-entry point every gate returns to (the instruction after
// the caller's switch macro).
constexpr VirtAddr kGateEntry = Env::kCodeVa + 0x40;

double seconds_since(int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

// Set-up must succeed; a failed call there aborts the run.
void require(const lz::Status& s, const char* what) {
  if (!s.is_ok()) throw std::runtime_error(std::string(what) + ": " + s.to_string());
}

// Modelled per-event charges: one forwarded syscall of a LightZone process
// and one stage-1 TLB miss under the extra stage-2 levels.
Cycles lz_syscall_cycles(const lz::arch::Platform& p) {
  using lz::arch::ExceptionLevel;
  return p.excp(ExceptionLevel::kEl1, ExceptionLevel::kEl2) +
         p.gpr_save_all() + p.dispatch_lz +
         p.eret(ExceptionLevel::kEl2, ExceptionLevel::kEl1);
}
Cycles tlb_miss_cycles(const lz::arch::Platform& p, unsigned s1_levels) {
  return (s1_levels + 3) * p.tlb_walk_per_level;
}

// A LightZone process on core 0 of a fresh single-core Cortex-A55 Env,
// entered into its world the way the API library leaves it before user
// code runs: kernel mode, domain 0's table live.
struct LzScenario {
  std::unique_ptr<Env> env;
  lz::kernel::Process* proc = nullptr;
  std::optional<LzProc> lz;

  ~LzScenario() { leave(); }

  lz::sim::Core& core() { return env->machine->core(); }
  lz::sim::Machine& machine() { return *env->machine; }

  void build_env(uint64_t seed) {
    env = std::make_unique<Env>(
        Env::Options().platform(lz::arch::Platform::cortex_a55()).seed(seed));
  }
  void enter_process(bool scalable, int insn_san) {
    proc = &env->new_process();
    lz.emplace(LzProc::enter(*env->module, *proc, scalable, insn_san));
  }
  void enter_world(bool pan) {
    auto& module = lz->module();
    auto& ctx = lz->ctx();
    lz->enter_world();
    core().pstate().el = lz::arch::ExceptionLevel::kEl1;
    if (pan) core().pstate().pan = true;
    core().set_sysreg(lz::sim::SysReg::kTtbr0El1, module.domain_ttbr(ctx, 0));
    core().set_sysreg(lz::sim::SysReg::kTtbr1El1, ctx.ctx.ttbr1);
    core().set_sysreg(lz::sim::SysReg::kVbarEl1, ctx.ctx.vbar);
  }
  void leave() {
    if (lz && lz->module().active() == &lz->ctx()) lz->exit_world();
  }
  // Drops the process (and its LightZone context) but keeps the Env.
  void drop_process() {
    leave();
    lz.reset();
    env->kern().destroy(*proc);
    proc = nullptr;
  }

  bool gate(int g) {
    const Span s(Layer::kGateSwitch);
    return lz->lz_switch_to_ttbr_gate(g).is_ok();
  }
  lz::sim::Core::MemResult read8(VirtAddr va) {
    const Span s(Layer::kMemRead);
    return core().mem_read(va, 8);
  }
  bool write8(VirtAddr va, uint64_t v) {
    const Span s(Layer::kMemWrite);
    return core().mem_write(va, 8, v).ok;
  }
};

// --- nginx_ttbr --------------------------------------------------------------
// One request of the Fig-3 Nginx model under LightZone-TTBR: 64 key
// domains, 37 gated crypto calls per request (gate in, two 8-byte key
// reads, gate out), one AES-128-CBC over the 1 KiB response, and the
// per-request charges (syscalls, TLB misses, application compute).
class NginxTtbr final : public Workload {
 public:
  static constexpr int kKeys = 64;
  static constexpr int kCalls = 37;
  static constexpr int kSyscalls = 6;
  static constexpr int kTlbMisses = 40;
  static constexpr Cycles kAppCycles = 905'000;

  SetupTimes setup(uint64_t seed) override {
    SetupTimes t;
    sc_ = std::make_unique<LzScenario>();
    rng_ = Rng(seed);
    int64_t t0 = now_ns();
    sc_->build_env(seed);
    t.env_s = seconds_since(t0);

    t0 = now_ns();
    sc_->enter_process(/*scalable=*/true, /*insn_san=*/1);
    t.enter_s = seconds_since(t0);

    t0 = now_ns();
    LzProc& lz = *sc_->lz;
    require(lz.lz_map_gate_pgt(0, 0), "map gate 0");
    require(lz.lz_set_gate_entry(0, kGateEntry), "gate 0 entry");
    for (int k = 0; k < kKeys; ++k) {
      const auto pgt = lz.lz_alloc();
      require(pgt.status(), "lz_alloc");
      require(lz.lz_prot(key_va(k), kPage, *pgt,
                         lz::core::kLzRead | lz::core::kLzWrite),
              "lz_prot");
      require(lz.lz_map_gate_pgt(*pgt, k + 1), "lz_map_gate_pgt");
      require(lz.lz_set_gate_entry(k + 1, kGateEntry), "lz_set_gate_entry");
      require(lz.module().touch_page(lz.ctx(), key_va(k), true, false),
              "touch");
    }
    sc_->enter_world(/*pan=*/false);
    t.domains_s = seconds_since(t0);

    t0 = now_ns();
    // Keys go in through their own domains, which also warms every gate.
    for (int k = 0; k < kKeys; ++k) {
      for (auto& b : keys_[k]) b = static_cast<uint8_t>(rng_.next());
      uint64_t lo = 0, hi = 0;
      std::memcpy(&lo, keys_[k].data(), 8);
      std::memcpy(&hi, keys_[k].data() + 8, 8);
      const bool ok = sc_->gate(k + 1) && sc_->write8(key_va(k), lo) &&
                      sc_->write8(key_va(k) + 8, hi) && sc_->gate(0);
      if (!ok) throw std::runtime_error("nginx_ttbr: key install failed");
    }
    for (auto& b : response_) b = static_cast<uint8_t>(rng_.next());
    t.data_s = seconds_since(t0);

    const auto& plat = lz::arch::Platform::cortex_a55();
    request_charge_ = (kSyscalls + 1) * lz_syscall_cycles(plat);
    tlb_charge_ = kTlbMisses * tlb_miss_cycles(plat, 4);
    start_cycles_ = sc_->machine().cycles();
    digest_ = kFnvBasis;
    return t;
  }

  bool op(uint64_t index) override {
    auto& machine = sc_->machine();
    const int k = static_cast<int>(rng_.below(kKeys));
    const VirtAddr va = key_va(k);
    machine.charge(lz::sim::CostKind::kDispatch, request_charge_);
    bool ok = true;
    for (int c = 0; c < kCalls; ++c) {
      ok &= sc_->gate(k + 1);
      const auto lo = sc_->read8(va);
      const auto hi = sc_->read8(va + 8);
      ok &= sc_->gate(0);
      uint8_t key[crypto::kAesKeySize];
      std::memcpy(key, &lo.value, 8);
      std::memcpy(key + 8, &hi.value, 8);
      ok &= lo.ok && hi.ok && std::memcmp(key, keys_[k].data(), 16) == 0;
      if (c != 0) continue;
      crypto::AesKey expanded;
      {
        const Span s(Layer::kAesExpand);
        expanded = crypto::aes_expand_key(key);
      }
      uint8_t iv[crypto::kAesBlockSize] = {};
      std::memcpy(iv, &index, sizeof(index));
      std::array<uint8_t, 1024> buf = response_;
      {
        const Span s(Layer::kAesCbc);
        crypto::aes_cbc_encrypt(expanded, iv, buf.data(), buf.size());
      }
      // CBC chains every block into the last one.
      uint64_t tail = 0;
      std::memcpy(&tail, buf.data() + buf.size() - 8, 8);
      digest_ = fold(digest_, tail);
    }
    machine.charge(lz::sim::CostKind::kTlb, tlb_charge_);
    machine.charge(lz::sim::CostKind::kWorkload, kAppCycles);
    digest_ = fold(digest_, static_cast<uint64_t>(k));
    return ok;
  }

  Fingerprint fingerprint() const override {
    return {sc_->machine().cycles() - start_cycles_, digest_};
  }

 private:
  static VirtAddr key_va(int k) { return Env::kHeapVa + static_cast<uint64_t>(k) * kPage; }

  std::unique_ptr<LzScenario> sc_;
  Rng rng_;
  std::array<std::array<uint8_t, 16>, kKeys> keys_{};
  std::array<uint8_t, 1024> response_{};
  Cycles request_charge_ = 0, tlb_charge_ = 0, start_cycles_ = 0;
  uint64_t digest_ = kFnvBasis;
};

// --- nvm_pan -----------------------------------------------------------------
// One Fig-5 search under LightZone-PAN: PAN off, 13 translated 8-byte
// reads of one of 8 buffer pages, a host substring search, a 7,000-8,500
// cycle charge, PAN back on. No guest code runs.
class NvmPan final : public Workload {
 public:
  static constexpr int kBuffers = 8;
  static constexpr int kReads = 13;
  static constexpr std::size_t kWindow = kReads * 8;
  static constexpr std::size_t kNeedle = 4;

  SetupTimes setup(uint64_t seed) override {
    SetupTimes t;
    sc_ = std::make_unique<LzScenario>();
    rng_ = Rng(seed);
    int64_t t0 = now_ns();
    sc_->build_env(seed);
    t.env_s = seconds_since(t0);

    t0 = now_ns();
    sc_->enter_process(/*scalable=*/false, /*insn_san=*/2);
    t.enter_s = seconds_since(t0);

    t0 = now_ns();
    LzProc& lz = *sc_->lz;
    for (int b = 0; b < kBuffers; ++b) {
      require(lz.lz_prot(buf_va(b), kPage, lz::core::kPgtAll,
                         lz::core::kLzRead | lz::core::kLzWrite |
                             lz::core::kLzUser),
              "lz_prot");
      require(lz.module().touch_page(lz.ctx(), buf_va(b), true, false),
              "touch");
    }
    sc_->enter_world(/*pan=*/true);
    t.domains_s = seconds_since(t0);

    t0 = now_ns();
    // Text over an 8-letter alphabet; the needle is planted in about half
    // of the buffers and may also occur by chance.
    for (auto& c : needle_) c = static_cast<char>('a' + rng_.below(8));
    for (int b = 0; b < kBuffers; ++b) {
      auto& text = text_[b];
      for (auto& c : text) {
        c = rng_.below(6) == 0 ? ' ' : static_cast<char>('a' + rng_.below(8));
      }
      if (rng_.chance(0.5)) {
        std::memcpy(text.data() + rng_.below(kWindow - kNeedle + 1),
                    needle_.data(), kNeedle);
      }
      expected_[b] = std::string_view(text.data(), kWindow)
                         .find(std::string_view(needle_.data(), kNeedle)) !=
                     std::string_view::npos;
      lz.set_pan(false);
      bool ok = true;
      for (int r = 0; r < kReads; ++r) {
        uint64_t v = 0;
        std::memcpy(&v, text.data() + 8 * r, 8);
        ok &= sc_->write8(buf_va(b) + 8 * r, v);
      }
      lz.set_pan(true);
      if (!ok) throw std::runtime_error("nvm_pan: buffer install failed");
    }
    t.data_s = seconds_since(t0);

    const auto& plat = lz::arch::Platform::cortex_a55();
    tlb_charge_ = tlb_miss_cycles(plat, 2) / 2;  // 0.5 misses, huge pages
    start_cycles_ = sc_->machine().cycles();
    digest_ = kFnvBasis;
    return t;
  }

  bool op(uint64_t) override {
    LzProc& lz = *sc_->lz;
    const int b = static_cast<int>(rng_.below(kBuffers));
    {
      const Span s(Layer::kSetPan);
      lz.set_pan(false);
    }
    std::array<char, kWindow> window{};
    bool ok = true;
    for (int r = 0; r < kReads; ++r) {
      const auto v = sc_->read8(buf_va(b) + 8 * r);
      ok &= v.ok;
      std::memcpy(window.data() + 8 * r, &v.value, 8);
    }
    const bool found = std::string_view(window.data(), kWindow)
                           .find(std::string_view(needle_.data(), kNeedle)) !=
                       std::string_view::npos;
    auto& machine = sc_->machine();
    machine.charge(lz::sim::CostKind::kWorkload, rng_.range(7'000, 8'500));
    machine.charge(lz::sim::CostKind::kTlb, tlb_charge_);
    {
      const Span s(Layer::kSetPan);
      lz.set_pan(true);
    }
    ok &= window == text_[b] && found == expected_[b];
    digest_ = fold(digest_, static_cast<uint64_t>(b) << 1 | (found ? 1 : 0));
    return ok;
  }

  Fingerprint fingerprint() const override {
    return {sc_->machine().cycles() - start_cycles_, digest_};
  }

 private:
  static VirtAddr buf_va(int b) { return Env::kHeapVa + static_cast<uint64_t>(b) * kPage; }

  std::unique_ptr<LzScenario> sc_;
  Rng rng_;
  std::array<char, kNeedle> needle_{};
  std::array<std::array<char, kWindow>, kBuffers> text_{};
  std::array<bool, kBuffers> expected_{};
  Cycles tlb_charge_ = 0, start_cycles_ = 0;
  uint64_t digest_ = kFnvBasis;
};

// --- domain_churn ------------------------------------------------------------
// One domain lifecycle on a LightZone-TTBR process: lz_alloc, lz_prot of
// one page, gate mapping, touch, an isolation probe, gate in, write and
// read back, gate out, and lz_free of the oldest of kLive live domains.
class DomainChurn final : public Workload {
 public:
  static constexpr int kLive = 8;
  static constexpr int kPages = 2 * kLive;  // a page is reused once free
  // Each lifecycle takes a fresh ASID from a 16-bit counter; a new process
  // starts well before it could wrap.
  static constexpr uint64_t kAllocsPerProcess = 4'096;

  SetupTimes setup(uint64_t seed) override {
    SetupTimes t;
    sc_ = std::make_unique<LzScenario>();
    rng_ = Rng(seed);
    int64_t t0 = now_ns();
    sc_->build_env(seed);
    t.env_s = seconds_since(t0);

    t0 = now_ns();
    sc_->enter_process(/*scalable=*/true, /*insn_san=*/1);
    t.enter_s = seconds_since(t0);

    t0 = now_ns();
    start_process_domains();
    t.domains_s = seconds_since(t0);

    t0 = now_ns();
    bool ok = true;
    for (int i = 0; i < kLive; ++i) ok &= lifecycle(/*free_oldest=*/false);
    if (!ok) throw std::runtime_error("domain_churn: initial domains failed");
    t.data_s = seconds_since(t0);

    start_cycles_ = sc_->machine().cycles();
    digest_ = kFnvBasis;
    return t;
  }

  bool op(uint64_t) override {
    if (cursor_ >= kAllocsPerProcess) {
      sc_->drop_process();
      sc_->enter_process(/*scalable=*/true, /*insn_san=*/1);
      start_process_domains();
      bool ok = true;
      for (int i = 0; i < kLive; ++i) ok &= lifecycle(false);
      if (!ok) return false;
    }
    return lifecycle(/*free_oldest=*/true);
  }

  Fingerprint fingerprint() const override {
    return {sc_->machine().cycles() - start_cycles_, digest_};
  }
  // Every block holds one process restart.
  uint64_t period_ops() const override { return kAllocsPerProcess; }

 private:
  void start_process_domains() {
    LzProc& lz = *sc_->lz;
    require(lz.lz_map_gate_pgt(0, 0), "map gate 0");
    require(lz.lz_set_gate_entry(0, kGateEntry), "gate 0 entry");
    sc_->enter_world(/*pan=*/false);
    live_count_ = 0;
    live_head_ = 0;
    cursor_ = 0;
  }

  bool lifecycle(bool free_oldest) {
    LzProc& lz = *sc_->lz;
    auto& core = sc_->core();
    const VirtAddr va = Env::kHeapVa + (cursor_ % kPages) * kPage;
    const int gate = 1 + static_cast<int>(cursor_ % (kLive + 1));
    ++cursor_;  // one lz_alloc per lifecycle
    const lz::Result<int> pgt = [&] {
      const Span s(Layer::kAlloc);
      return lz.lz_alloc();
    }();
    if (!pgt.is_ok()) return false;
    bool ok = true;
    {
      const Span s(Layer::kProt);
      ok &= lz.lz_prot(va, kPage, *pgt, lz::core::kLzRead | lz::core::kLzWrite).is_ok();
    }
    {
      const Span s(Layer::kMapGate);
      ok &= lz.lz_map_gate_pgt(*pgt, gate).is_ok();
    }
    {
      const Span s(Layer::kMapGate);
      ok &= lz.lz_set_gate_entry(gate, kGateEntry).is_ok();
    }
    {
      const Span s(Layer::kTouch);
      ok &= lz.module().touch_page(lz.ctx(), va, true, false).is_ok();
    }
    // Isolation probe: from gate 0's table the live domain's page must
    // not translate.
    {
      const Span s(Layer::kTranslate);
      ok &= !core.translate(va, lz::sim::AccessType::kRead, false).ok;
    }
    const uint64_t value = rng_.next();
    ok &= sc_->gate(gate);
    ok &= sc_->write8(va, value);
    const auto back = sc_->read8(va);
    ok &= sc_->gate(0);
    ok &= back.ok && back.value == value;
    digest_ = fold(fold(digest_, static_cast<uint64_t>(*pgt)), back.value);

    live_[(live_head_ + live_count_) % (kLive + 1)] = *pgt;
    ++live_count_;
    if (free_oldest) {
      const int oldest = live_[live_head_];
      live_head_ = (live_head_ + 1) % (kLive + 1);
      --live_count_;
      const Span s(Layer::kFree);
      ok &= lz.lz_free(oldest).is_ok();
    }
    return ok;
  }

  std::unique_ptr<LzScenario> sc_;
  Rng rng_;
  std::array<int, kLive + 1> live_{};  // pgt ids, oldest at live_head_
  int live_head_ = 0, live_count_ = 0;
  uint64_t cursor_ = 0;
  Cycles start_cycles_ = 0;
  uint64_t digest_ = kFnvBasis;
};

// --- a64_streams -------------------------------------------------------------
// One wave of encoded-A64 streams: a run_a64_fuzz call with kStreamsPerOp
// streams on one core, so every stream pays 1/kStreamsPerOp of the call's
// own Env and worker thread. (With one stream per call that fixed part is
// most of the op and swings 2x with the host's load; README.md.) Call seeds
// come from a fixed corpus, which every kCorpus-long stretch of ops runs
// once, in an order drawn from the seed: every seed does the same work. The
// few calls with a stream that sends lz_prot a huge length, so that
// LzModule::prot walks it page by page for about half a second, are left
// out of the corpus (README.md).
class A64Streams final : public Workload {
 public:
  // Corpus entries tried; `slow` ones are skipped, leaving entries().
  static constexpr uint32_t kCorpus = 512;
  static constexpr uint32_t kScanned = 4096;  // kSlowCalls covers these
  static constexpr uint64_t kCorpusBase = 0x5eed0000;
  static constexpr unsigned kStreamsPerOp = 8;
  static constexpr uint32_t kWarmCalls = 8;

  static uint64_t call_seed(uint32_t j) { return kCorpusBase + j; }
  static bool slow(uint32_t j);

  static lz::check::FuzzA64Result run(uint64_t call_seed) {
    lz::check::FuzzA64Config cfg;
    cfg.seed = call_seed;
    cfg.cores = 1;
    cfg.streams = kStreamsPerOp;
    const Span s(Layer::kA64Fuzz);
    return lz::check::run_a64_fuzz(cfg);
  }

  SetupTimes setup(uint64_t seed) override {
    SetupTimes t;
    rng_ = Rng(seed);
    seen_.assign(kCorpus, 0);
    order_.clear();
    for (uint32_t j = 0; j < kCorpus; ++j) {
      if (!slow(j)) order_.push_back(j);
    }
    // Each op builds its own Env; time one here for the setup.env split.
    int64_t t0 = now_ns();
    { const Env env; }
    t.env_s = seconds_since(t0);

    // Warm the host allocator and code paths on a fixed prefix of the
    // corpus, the same for every seed.
    t0 = now_ns();
    for (uint32_t j = 0, n = 0; n < kWarmCalls; ++j) {
      if (slow(j)) continue;
      (void)run(call_seed(j));
      ++n;
    }
    t.data_s = seconds_since(t0);

    sim_ = 0;
    words_ = 0;
    digest_ = kFnvBasis;
    return t;
  }

  bool op(uint64_t index) override {
    // A fresh Fisher-Yates shuffle of the corpus at the start of each pass.
    const std::size_t pos = index % order_.size();
    if (pos == 0) {
      for (std::size_t k = order_.size() - 1; k > 0; --k) {
        std::swap(order_[k], order_[rng_.below(k + 1)]);
      }
    }
    const uint32_t j = order_[pos];
    const auto r = run(call_seed(j));
    words_ += r.total_words;
    for (const auto& [name, v] : r.counters) {
      if (name == "sim.core.insn_retired") sim_ += v;
    }
    digest_ = fold(digest_, r.outcome_hash);
    // Streams replay byte-identically: every repeat of a corpus entry must
    // reproduce the outcome hash of its first run.
    bool ok = r.total_streams == kStreamsPerOp && r.outcome_hash != 0;
    if (seen_[j] == 0) {
      seen_[j] = r.outcome_hash;
    } else {
      ok &= seen_[j] == r.outcome_hash;
    }
    return ok;
  }

  Fingerprint fingerprint() const override { return {sim_, digest_}; }
  uint64_t words() const override { return words_; }
  // Every block runs the whole corpus.
  uint64_t period_ops() const override { return order_.size(); }

 private:
  Rng rng_;
  std::vector<uint32_t> order_;  // corpus entries, this pass's order
  std::vector<uint64_t> seen_;
  uint64_t sim_ = 0, words_ = 0;
  uint64_t digest_ = kFnvBasis;
};

// The 30 corpus entries `lzbench --scan-a64 4096` finds above 50 ms (0.55
// to 15 s each); the other 4,066 take under 4 ms, 0.95 ms on average.
constexpr uint32_t kSlowCalls[] = {
    11,   20,   34,   112,  144,  794,  860,  1199, 1567, 1591,
    1764, 2077, 2125, 2255, 2302, 2346, 2403, 2565, 2683, 2711,
    3040, 3136, 3146, 3573, 3574, 3580, 3708, 3770, 3880, 4012};

bool A64Streams::slow(uint32_t j) {
  return std::find(std::begin(kSlowCalls), std::end(kSlowCalls), j) !=
         std::end(kSlowCalls);
}

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> kNames = {
      "nginx_ttbr", "nvm_pan", "domain_churn", "a64_streams"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "nginx_ttbr") return std::make_unique<NginxTtbr>();
  if (name == "nvm_pan") return std::make_unique<NvmPan>();
  if (name == "domain_churn") return std::make_unique<DomainChurn>();
  if (name == "a64_streams") return std::make_unique<A64Streams>();
  return nullptr;
}

std::vector<double> scan_a64_corpus(uint32_t count) {
  std::vector<double> out;
  for (uint32_t j = 0; j < count && j < A64Streams::kScanned; ++j) {
    const int64_t t0 = now_ns();
    (void)A64Streams::run(A64Streams::call_seed(j));
    out.push_back(seconds_since(t0));
  }
  return out;
}

}  // namespace lzbench
