// Application-workload tests: AES correctness (FIPS-197 vectors), the
// event models' bookkeeping, and the headline shapes of Figures 3-5
// (who wins, in what order, and roughly by how much).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <iterator>
#include <string>

#include "support/rng.h"
#include "workloads/crypto/aes.h"
#include "workloads/dbms.h"
#include "workloads/httpd.h"
#include "workloads/nvm.h"

namespace lz::workload {
namespace {

// --- AES ----------------------------------------------------------------------

TEST(AesTest, Fips197Vector) {
  // FIPS-197 Appendix B.
  const u8 key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                      0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  u8 block[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                  0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const u8 expected[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                           0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  const auto expanded = crypto::aes_expand_key(key);
  crypto::aes_encrypt_block(expanded, block);
  EXPECT_EQ(std::memcmp(block, expected, 16), 0);
}

TEST(AesTest, KeyExpansionMatchesFips197) {
  const u8 key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                      0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const auto expanded = crypto::aes_expand_key(key);
  // w4 of the FIPS-197 key schedule example: a0fafe17.
  EXPECT_EQ(expanded.round_keys[16], 0xa0);
  EXPECT_EQ(expanded.round_keys[17], 0xfa);
  EXPECT_EQ(expanded.round_keys[18], 0xfe);
  EXPECT_EQ(expanded.round_keys[19], 0x17);
  // w43 ends b6630ca6.
  EXPECT_EQ(expanded.round_keys[43 * 4 + 0], 0xb6);
  EXPECT_EQ(expanded.round_keys[43 * 4 + 3], 0xa6);
}

TEST(AesTest, CbcChainsBlocks) {
  const u8 key[16] = {};
  const u8 iv[16] = {};
  const auto expanded = crypto::aes_expand_key(key);
  u8 data[32] = {};
  crypto::aes_cbc_encrypt(expanded, iv, data, sizeof(data));
  // Identical plaintext blocks must differ under CBC.
  EXPECT_NE(std::memcmp(data, data + 16, 16), 0);
}

// FIPS-197 Appendix C.1: the AES-128 example vector.
TEST(AesTest, Fips197AppendixC1) {
  u8 key[16], block[16];
  for (unsigned i = 0; i < 16; ++i) {
    key[i] = static_cast<u8>(i);
    block[i] = static_cast<u8>(i * 0x11);
  }
  const u8 expected[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                           0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  crypto::aes_encrypt_block(crypto::aes_expand_key(key), block);
  EXPECT_EQ(std::memcmp(block, expected, 16), 0);
}

// NIST SP 800-38A F.2.1, CBC-AES128.Encrypt.
TEST(AesTest, Sp80038aCbcVectors) {
  const u8 key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                      0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  u8 iv[16];
  for (unsigned i = 0; i < 16; ++i) iv[i] = static_cast<u8>(i);
  u8 data[64] = {
      0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e,
      0x11, 0x73, 0x93, 0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03,
      0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf, 0x8e, 0x51, 0x30,
      0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19,
      0x1a, 0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b,
      0x17, 0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10};
  const u8 expected[64] = {
      0x76, 0x49, 0xab, 0xac, 0x81, 0x19, 0xb2, 0x46, 0xce, 0xe9, 0x8e,
      0x9b, 0x12, 0xe9, 0x19, 0x7d, 0x50, 0x86, 0xcb, 0x9b, 0x50, 0x72,
      0x19, 0xee, 0x95, 0xdb, 0x11, 0x3a, 0x91, 0x76, 0x78, 0xb2, 0x73,
      0xbe, 0xd6, 0xb8, 0xe3, 0xc1, 0x74, 0x3b, 0x71, 0x16, 0xe6, 0x9e,
      0x22, 0x22, 0x95, 0x16, 0x3f, 0xf1, 0xca, 0xa1, 0x68, 0x1f, 0xac,
      0x09, 0x12, 0x0e, 0xca, 0x30, 0x75, 0x86, 0xe1, 0xa7};
  crypto::aes_cbc_encrypt(crypto::aes_expand_key(key), iv, data,
                          sizeof(data));
  EXPECT_EQ(std::memcmp(data, expected, sizeof(data)), 0);
}

// Byte-wise textbook AES-128 (FIPS-197 §5.1), with its S-box derived from
// the GF(2^8) inverse and the affine map rather than copied from a table:
// an independent reference for the table-driven implementation.
namespace ref {

u8 gmul(u8 a, u8 b) {
  u8 p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = static_cast<u8>((a << 1) ^ ((a >> 7) * 0x1b));
    b >>= 1;
  }
  return p;
}

std::array<u8, 256> make_sbox() {
  std::array<u8, 256> sbox{};
  for (unsigned x = 0; x < 256; ++x) {
    u8 inv = 0;
    for (unsigned y = 1; y < 256 && x != 0; ++y) {
      if (gmul(static_cast<u8>(x), static_cast<u8>(y)) == 1) {
        inv = static_cast<u8>(y);
        break;
      }
    }
    u8 s = 0x63;
    for (int r = 0; r < 5; ++r) {
      s ^= static_cast<u8>(inv << r | inv >> (8 - r));
    }
    sbox[x] = s;
  }
  return sbox;
}

void encrypt_block(const crypto::AesKey& key, u8 s[16]) {
  static const std::array<u8, 256> sbox = make_sbox();
  const u8* rk = key.round_keys.data();
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
  for (std::size_t round = 1; round <= crypto::kAesRounds; ++round) {
    for (int i = 0; i < 16; ++i) s[i] = sbox[s[i]];
    u8 t[16];  // ShiftRows: state is column-major, s[col*4 + row]
    for (int col = 0; col < 4; ++col) {
      for (int row = 0; row < 4; ++row) {
        t[col * 4 + row] = s[((col + row) % 4) * 4 + row];
      }
    }
    for (int col = 0; col < 4; ++col) {
      const u8* a = t + col * 4;
      for (int row = 0; row < 4; ++row) {
        s[col * 4 + row] =
            round == crypto::kAesRounds
                ? a[row]
                : static_cast<u8>(gmul(2, a[row]) ^ gmul(3, a[(row + 1) % 4]) ^
                                  a[(row + 2) % 4] ^ a[(row + 3) % 4]);
      }
    }
    for (int i = 0; i < 16; ++i) s[i] ^= rk[round * 16 + i];
  }
}

}  // namespace ref

TEST(AesTest, CbcMatchesByteWiseReference) {
  Rng rng(20261017);
  std::array<u8, 1024> data, want;
  for (int trial = 0; trial < 256; ++trial) {
    u8 key[16], iv[16];
    for (u8& b : key) b = static_cast<u8>(rng.next());
    for (u8& b : iv) b = static_cast<u8>(rng.next());
    for (u8& b : data) b = static_cast<u8>(rng.next());
    const auto expanded = crypto::aes_expand_key(key);
    want = data;
    u8 chain[16];
    std::memcpy(chain, iv, 16);
    for (std::size_t off = 0; off < want.size(); off += 16) {
      for (int i = 0; i < 16; ++i) want[off + i] ^= chain[i];
      ref::encrypt_block(expanded, want.data() + off);
      std::memcpy(chain, want.data() + off, 16);
    }
    crypto::aes_cbc_encrypt(expanded, iv, data.data(), data.size());
    ASSERT_EQ(data, want) << "trial " << trial;
  }
}

// --- Shared fixtures -----------------------------------------------------------

AppConfig cfg(const arch::Platform& plat, Placement placement,
              const Row& row) {
  return AppConfig{&plat, placement, row, 42};
}

// Throughput loss at saturation: 1 - T_prot/T_base = delta/(base+delta),
// which is what the paper reports.
double httpd_loss(const arch::Platform& plat, Placement placement,
                  const Row& row, HttpdParams params) {
  const auto base = run_httpd(cfg(plat, placement, kVanilla), params)[0];
  const auto prot = run_httpd(cfg(plat, placement, row), params)[0];
  return 100.0 * (prot.cycles_per_request - base.cycles_per_request) /
         prot.cycles_per_request;
}

// --- Fig. 3 shapes --------------------------------------------------------------

TEST(HttpdTest, CarmelHostLossOrdering) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::carmel());
  p.requests = 300;
  const double pan =
      httpd_loss(arch::Platform::carmel(), Placement::kHost,
                 kLzPan, p);
  const double ttbr =
      httpd_loss(arch::Platform::carmel(), Placement::kHost,
                 kLzTtbr, p);
  const double wp =
      httpd_loss(arch::Platform::carmel(), Placement::kHost,
                 kWatchpoint, p);
  const double lwc = httpd_loss(arch::Platform::carmel(), Placement::kHost,
                                kLwc, p);
  // Paper: 1.35% / 5.65% / 45.46% / 59.03%.
  EXPECT_NEAR(pan, 1.35, 1.0);
  EXPECT_NEAR(ttbr, 5.65, 1.5);
  EXPECT_NEAR(wp, 45.46, 7.0);
  EXPECT_NEAR(lwc, 59.03, 9.0);
  EXPECT_LT(pan, ttbr);
  EXPECT_LT(ttbr, wp);
  EXPECT_LT(wp, lwc);
}

TEST(HttpdTest, CarmelGuestLightZonePaysNestedTraps) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::carmel());
  p.requests = 300;
  const double pan = httpd_loss(arch::Platform::carmel(), Placement::kGuest,
                                kLzPan, p);
  // Paper: 25.24% — slow LightZone<->guest-kernel switching on Carmel.
  EXPECT_NEAR(pan, 25.24, 6.0);
}

TEST(HttpdTest, CortexLossesAreSmall) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::cortex_a55());
  p.requests = 300;
  for (auto placement : {Placement::kHost, Placement::kGuest}) {
    const double pan = httpd_loss(arch::Platform::cortex_a55(), placement,
                                  kLzPan, p);
    const double ttbr = httpd_loss(arch::Platform::cortex_a55(), placement,
                                   kLzTtbr, p);
    // Paper: 0.91/1.98 (PAN), 3.01/2.03 (TTBR).
    EXPECT_LT(pan, 3.5);
    EXPECT_LT(ttbr, 4.5);
    EXPECT_LT(pan, ttbr);
  }
}

TEST(HttpdTest, ThroughputSaturatesWithConcurrency) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::cortex_a55());
  p.requests = 100;
  const AppConfig c = cfg(arch::Platform::cortex_a55(), Placement::kHost,
                          kVanilla);
  const auto r = run_httpd(c, p)[0];
  const double t1 = httpd_throughput_rps(r, p, c, 1);
  const double t8 = httpd_throughput_rps(r, p, c, 8);
  const double t64 = httpd_throughput_rps(r, p, c, 64);
  EXPECT_GT(t8, t1 * 1.2);          // rising region (saturates early: 1 worker)
  EXPECT_NEAR(t64, t8, t8 * 0.01);  // flat at the plateau
}

TEST(HttpdTest, CryptoActuallyRuns) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::cortex_a55());
  p.requests = 50;
  const auto a = run_httpd(cfg(arch::Platform::cortex_a55(), Placement::kHost,
                               kVanilla),
                           p)[0];
  const auto b = run_httpd(cfg(arch::Platform::cortex_a55(), Placement::kHost,
                               kLzTtbr),
                           p)[0];
  EXPECT_NE(a.response_checksum, 0);
  // Same keys, same plaintext, same seed: identical ciphertext regardless
  // of the isolation mechanism (protection must not change results).
  EXPECT_EQ(a.response_checksum, b.response_checksum);
}

TEST(HttpdTest, PageTableMemoryOverheadScalesWithDomains) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::cortex_a55());
  p.requests = 10;
  const auto pan = run_httpd(cfg(arch::Platform::cortex_a55(),
                                 Placement::kHost, kLzPan),
                             p)[0];
  const auto ttbr = run_httpd(cfg(arch::Platform::cortex_a55(),
                                  Placement::kHost, kLzTtbr),
                              p)[0];
  // §9.1: scalable isolation has much higher page-table overhead (one
  // stage-1 table per key) than PAN (one table).
  EXPECT_GT(ttbr.isolation_table_pages, 3 * pan.isolation_table_pages);
}

// --- Fig. 4 shapes --------------------------------------------------------------

// Throughput loss at the CPU-bound plateau (tps is 1/cpu there).
double dbms_loss(const arch::Platform& plat, Placement placement,
                 const Row& row, DbmsParams params) {
  const auto base = run_dbms(cfg(plat, placement, kVanilla), params);
  const auto prot = run_dbms(cfg(plat, placement, row), params);
  return 100.0 * (prot.cpu_cycles_per_txn - base.cpu_cycles_per_txn) /
         prot.cpu_cycles_per_txn;
}

TEST(DbmsTest, CarmelHostShape) {
  DbmsParams p = DbmsParams::defaults(arch::Platform::carmel());
  p.transactions = 200;
  const double pan = dbms_loss(arch::Platform::carmel(), Placement::kHost,
                               kLzPan, p);
  const double ttbr = dbms_loss(arch::Platform::carmel(), Placement::kHost,
                                kLzTtbr, p);
  const double wp = dbms_loss(arch::Platform::carmel(), Placement::kHost,
                              kWatchpoint, p);
  const double lwc = dbms_loss(arch::Platform::carmel(), Placement::kHost,
                               kLwc, p);
  // Paper: near-zero / 3.79% / 8.35% / 11.80%.
  EXPECT_LT(pan, 2.0);
  EXPECT_NEAR(ttbr, 3.79, 1.5);
  EXPECT_NEAR(wp, 8.35, 2.5);
  EXPECT_NEAR(lwc, 11.80, 4.0);
  EXPECT_LT(pan, ttbr);
  EXPECT_LT(ttbr, wp);
  EXPECT_LT(wp, lwc);
}

TEST(DbmsTest, RowOperationsExecute) {
  DbmsParams p = DbmsParams::defaults(arch::Platform::cortex_a55());
  p.transactions = 50;
  const auto base = run_dbms(cfg(arch::Platform::cortex_a55(),
                                 Placement::kHost, kVanilla),
                             p);
  const auto prot = run_dbms(cfg(arch::Platform::cortex_a55(),
                                 Placement::kHost, kLzTtbr),
                             p);
  EXPECT_NE(base.rows_checksum, 0u);
  EXPECT_EQ(base.rows_checksum, prot.rows_checksum);
}

TEST(DbmsTest, ThroughputPlateausWithThreads) {
  DbmsParams p = DbmsParams::defaults(arch::Platform::carmel());
  p.transactions = 100;
  const AppConfig c =
      cfg(arch::Platform::carmel(), Placement::kHost, kVanilla);
  const auto r = run_dbms(c, p);
  const double t1 = dbms_tps(r, p, c, 1, 8);
  const double t8 = dbms_tps(r, p, c, 8, 8);
  const double t32 = dbms_tps(r, p, c, 32, 8);
  EXPECT_GT(t8, t1 * 3);
  EXPECT_NEAR(t32, t8, t8 * 0.35);
}

// --- Fig. 5 shapes --------------------------------------------------------------

TEST(NvmTest, CarmelHostOverheads) {
  NvmParams p;
  p.searches = 3000;
  p.buffers = 8;
  const auto base = run_nvm(
      cfg(arch::Platform::carmel(), Placement::kHost, kVanilla), p);
  const auto pan = run_nvm(
      cfg(arch::Platform::carmel(), Placement::kHost, kLzPan), p);
  const auto ttbr = run_nvm(
      cfg(arch::Platform::carmel(), Placement::kHost, kLzTtbr), p);
  // Paper: PAN 1.75%, TTBR 12.92% on the host.
  EXPECT_NEAR(nvm_overhead_pct(pan, base), 1.75, 1.5);
  EXPECT_NEAR(nvm_overhead_pct(ttbr, base), 12.92, 3.5);
  EXPECT_EQ(base.matches, 3000u);  // every search finds the needle
  EXPECT_EQ(pan.matches, 3000u);
}

TEST(NvmTest, CortexOverheadsAreMinimal) {
  NvmParams p;
  p.searches = 3000;
  p.buffers = 8;
  const auto base = run_nvm(cfg(arch::Platform::cortex_a55(),
                                Placement::kHost, kVanilla),
                            p);
  const auto pan = run_nvm(cfg(arch::Platform::cortex_a55(),
                               Placement::kHost, kLzPan),
                           p);
  const auto ttbr = run_nvm(cfg(arch::Platform::cortex_a55(),
                                Placement::kHost, kLzTtbr),
                            p);
  // Paper: PAN 0.26%, TTBR 1.81%.
  EXPECT_LT(nvm_overhead_pct(pan, base), 1.5);
  EXPECT_LT(nvm_overhead_pct(ttbr, base), 3.8);
}

TEST(NvmTest, OverheadStableAcrossDomainCounts) {
  // Scalability: going from 4 to 64 buffers must not blow up the TTBR
  // overhead (ASID-tagged tables keep switches cheap).
  NvmParams p4;
  p4.searches = 2000;
  p4.buffers = 4;
  NvmParams p64 = p4;
  p64.buffers = 64;
  const auto base4 = run_nvm(cfg(arch::Platform::cortex_a55(),
                                 Placement::kHost, kVanilla),
                             p4);
  const auto ttbr4 = run_nvm(cfg(arch::Platform::cortex_a55(),
                                 Placement::kHost, kLzTtbr),
                             p4);
  const auto base64 = run_nvm(cfg(arch::Platform::cortex_a55(),
                                  Placement::kHost, kVanilla),
                              p64);
  const auto ttbr64 = run_nvm(cfg(arch::Platform::cortex_a55(),
                                  Placement::kHost, kLzTtbr),
                              p64);
  const double o4 = nvm_overhead_pct(ttbr4, base4);
  const double o64 = nvm_overhead_pct(ttbr64, base64);
  EXPECT_LT(o64, o4 * 2 + 2.0);
}

// Parameterised sweep: every (platform, placement) pair keeps the paper's
// ordering LightZone-PAN <= LightZone-TTBR on the NVM benchmark.
class NvmOrdering
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NvmOrdering, PanBeatsTtbr) {
  const auto& plat = std::get<0>(GetParam()) == 0
                         ? arch::Platform::cortex_a55()
                         : arch::Platform::carmel();
  const auto placement =
      std::get<1>(GetParam()) == 0 ? Placement::kHost : Placement::kGuest;
  NvmParams p;
  p.searches = 1200;
  p.buffers = 8;
  const auto base = run_nvm(cfg(plat, placement, kVanilla), p);
  const auto pan = run_nvm(cfg(plat, placement, kLzPan), p);
  const auto ttbr = run_nvm(cfg(plat, placement, kLzTtbr), p);
  EXPECT_LT(nvm_overhead_pct(pan, base), nvm_overhead_pct(ttbr, base));
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, NvmOrdering,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0, 1)));

// --- The driver over IsolationBackend --------------------------------------------

// The refactor gate: every row of kRows x {httpd, dbms, nvm} on Cortex host
// and Carmel guest, pinned exactly (EXPECT_DOUBLE_EQ, not a tolerance) to
// the values each workload produced when the driver still switched over a
// per-mechanism enum. 64 keys, 17 dbms domains and 20 buffers also cross
// Watchpoint's 16-slot cap.
TEST(AppDriverTest, ReproducesPreRefactorRowsExactly) {
  struct Pin {
    double httpd_cycles, httpd_checksum;
    u64 httpd_pages;
    double dbms_cycles;
    u64 dbms_checksum, dbms_pages;
    double nvm_cycles;
    u64 nvm_matches, nvm_pages;
  };
  const struct {
    const arch::Platform& plat;
    Placement placement;
    Pin pins[std::size(kRows)];  // in kRows order
  } kCombos[] = {
      {arch::Platform::cortex_a55(),
       Placement::kHost,
       {{909250, 8309, 0u, 1216749, 31553277891120u, 0u, 7793.1966666666667,
         300u, 0u},
        {913354, 8309, 15u, 1229526, 31553277891120u, 15u, 7830.7299999999996,
         300u, 15u},
        {919940.59999999998, 8309, 268u, 1245816, 31553277891120u, 80u,
         7955.5966666666664, 300u, 92u},
        {977277, 8309, 0u, 1249689, 31553277891120u, 0u, 9623.1966666666667,
         300u, 0u},
        {1095331, 8309, 0u, 1311635, 31553277891120u, 0u, 12787.196666666667,
         300u, 0u},
        {911666.75, 8309, 0u, 1217757, 31553277891120u, 0u,
         7859.6933333333336, 300u, 0u},
        {930449, 8309, 0u, 1233001, 31553277891120u, 0u, 8321.1966666666667,
         300u, 0u}}},
      {arch::Platform::carmel(),
       Placement::kGuest,
       {{682660, 8309, 0u, 2654885, 31553277891120u, 0u, 7844.9700000000003,
         300u, 0u},
        {906768, 8309, 15u, 3023576, 31553277891120u, 15u, 8052.5699999999997,
         300u, 15u},
        {953210.90000000002, 8309, 268u, 3124734, 31553277891120u, 80u,
         9009.4699999999993, 300u, 92u},
        {888127, 8309, 0u, 2754137, 31553277891120u, 0u, 13358.969999999999,
         300u, 0u},
        {1062885, 8309, 0u, 2847735, 31553277891120u, 0u, 17994.970000000001,
         300u, 0u},
        {698990.75, 8309, 0u, 2662085, 31553277891120u, 0u,
         8296.5599999999995, 300u, 0u},
        {886153, 8309, 0u, 2770997, 31553277891120u, 0u, 13170.969999999999,
         300u, 0u}}},
  };
  for (const auto& combo : kCombos) {
    for (std::size_t i = 0; i < std::size(kRows); ++i) {
      SCOPED_TRACE(std::string(kRows[i].label) + " @ " +
                   std::to_string(combo.plat.freq_ghz) + " GHz");
      const AppConfig c = cfg(combo.plat, combo.placement, kRows[i]);
      const Pin& pin = combo.pins[i];
      HttpdParams hp = HttpdParams::defaults(combo.plat);
      hp.requests = 20;
      const auto h = run_httpd(c, hp);
      ASSERT_EQ(h.size(), 1u);
      EXPECT_DOUBLE_EQ(h[0].cycles_per_request, pin.httpd_cycles);
      EXPECT_DOUBLE_EQ(h[0].response_checksum, pin.httpd_checksum);
      EXPECT_EQ(h[0].isolation_table_pages, pin.httpd_pages);
      DbmsParams dp = DbmsParams::defaults(combo.plat);
      dp.transactions = 20;
      const auto d = run_dbms(c, dp);
      EXPECT_DOUBLE_EQ(d.cpu_cycles_per_txn, pin.dbms_cycles);
      EXPECT_EQ(d.rows_checksum, pin.dbms_checksum);
      EXPECT_EQ(d.isolation_table_pages, pin.dbms_pages);
      NvmParams np;
      np.searches = 300;
      np.buffers = 20;
      const auto n = run_nvm(c, np);
      EXPECT_DOUBLE_EQ(n.cycles_per_search, pin.nvm_cycles);
      EXPECT_EQ(n.matches, pin.nvm_matches);
      EXPECT_EQ(n.isolation_table_pages, pin.nvm_pages);
    }
  }
}

// N workers run the 1-worker setup on their own cores: a 2-worker server is
// deterministic across runs, and its worker 0 is the 1-worker server. The
// one exception is POE, whose key recycling broadcasts a TLB shootdown that
// costs the initiating core more on a bigger machine; every other row's
// request path is core-local.
TEST(AppDriverTest, TwoWorkerHttpdIsDeterministicAndWorkerZeroIsTheReference) {
  HttpdParams p = HttpdParams::defaults(arch::Platform::cortex_a55());
  p.requests = 20;
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.label);
    AppConfig c = cfg(arch::Platform::cortex_a55(), Placement::kHost, row);
    const auto one = run_httpd(c, p);
    c.workers = 2;
    const auto a = run_httpd(c, p);
    const auto b = run_httpd(c, p);
    ASSERT_EQ(a.size(), 2u);
    for (std::size_t w = 0; w < 2; ++w) {
      EXPECT_DOUBLE_EQ(a[w].cycles_per_request, b[w].cycles_per_request);
      EXPECT_DOUBLE_EQ(a[w].response_checksum, b[w].response_checksum);
      EXPECT_EQ(a[w].isolation_table_pages, b[w].isolation_table_pages);
    }
    if (row == kPoe) {
      EXPECT_GT(a[0].cycles_per_request, one[0].cycles_per_request);
    } else {
      EXPECT_DOUBLE_EQ(a[0].cycles_per_request, one[0].cycles_per_request);
    }
    EXPECT_DOUBLE_EQ(a[0].response_checksum, one[0].response_checksum);
    EXPECT_EQ(a[0].isolation_table_pages, one[0].isolation_table_pages);
    // Worker 1 draws its own keys: a different ciphertext stream.
    EXPECT_NE(a[1].response_checksum, a[0].response_checksum);
  }
}

// Would a data load of `va` on `core` be refused? Either the translation
// faults (the exception entry is undone so the driver can carry on), or,
// at EL0, an armed DBGW watchpoint covers `va` — the debug exception an
// LDR would take (Core::check_watchpoints).
bool refused(sim::Core& core, VirtAddr va) {
  const arch::PState pstate = core.pstate();
  const u64 pc = core.pc();
  if (!core.mem_read(va, 8).ok) {
    core.pstate() = pstate;
    core.set_pc(pc);
    return true;
  }
  if (pstate.el != arch::ExceptionLevel::kEl0) return false;
  static constexpr sim::SysReg kPairs[][2] = {
      {sim::SysReg::kDbgwvr0El1, sim::SysReg::kDbgwcr0El1},
      {sim::SysReg::kDbgwvr1El1, sim::SysReg::kDbgwcr1El1},
      {sim::SysReg::kDbgwvr2El1, sim::SysReg::kDbgwcr2El1},
      {sim::SysReg::kDbgwvr3El1, sim::SysReg::kDbgwcr3El1},
  };
  for (const auto& pair : kPairs) {
    const u64 wcr = core.sysreg(pair[1]);
    const unsigned mask = (wcr >> 24) & 0x1f;
    if ((wcr & 1) && (va >> mask) == (core.sysreg(pair[0]) >> mask)) {
      return true;
    }
  }
  return false;
}

// Isolation through the driver, 20 domains: inside domain d its own slot
// reads and every other protected slot is refused (PAN has one domain, so
// there all slots read; Watchpoint protects only the slots under its
// cap), and after exit_domain every protected slot is refused.
TEST(AppDriverTest, IsolationHoldsThroughTheDriver) {
  constexpr int kDomains = 20;
  const VirtAddr base = core::Env::kHeapVa;
  const auto slot = [&](int d) {
    return base + static_cast<u64>(d) * kPageSize;
  };
  for (const Row& row : {kLzPan, kLzTtbr, kWatchpoint}) {
    SCOPED_TRACE(row.label);
    AppDriver driver(
        cfg(arch::Platform::cortex_a55(), Placement::kHost, row));
    driver.setup_domains(base, kPageSize, kDomains);
    auto& core = driver.machine().core();
    const int protected_slots = row == kWatchpoint ? 16 : kDomains;
    for (int d = 0; d < protected_slots; ++d) {
      driver.enter_domain(d);
      EXPECT_FALSE(refused(core, slot(d))) << "own slot " << d;
      for (int e = 0; e < protected_slots; ++e) {
        if (e == d) continue;
        EXPECT_EQ(refused(core, slot(e)), row != kLzPan)
            << "domain " << d << " reading slot " << e;
      }
      driver.exit_domain();
      for (int e = 0; e < protected_slots; ++e) {
        EXPECT_TRUE(refused(core, slot(e)))
            << "after exit from " << d << ", slot " << e;
      }
    }
    EXPECT_TRUE(driver.proc().alive());
  }
}

}  // namespace
}  // namespace lz::workload
