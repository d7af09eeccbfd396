#include "workloads/crypto/aes.h"

#include <array>
#include <bit>
#include <cstring>

#include "support/status.h"

namespace lz::workload::crypto {
namespace {

constexpr u8 kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16,
};

constexpr u8 kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                          0x20, 0x40, 0x80, 0x1b, 0x36};

constexpr u8 xtime(u8 x) {
  return static_cast<u8>((x << 1) ^ ((x >> 7) * 0x1b));
}

// Round tables: kTe[0][x] is the MixColumns column (2·S[x], S[x], S[x],
// 3·S[x]) packed big-endian (row 0 in the top byte); kTe[k] is kTe[0]
// rotated right by 8k bits, i.e. the same column entering at row k.
constexpr std::array<std::array<u32, 256>, 4> make_te() {
  std::array<std::array<u32, 256>, 4> te{};
  for (unsigned x = 0; x < 256; ++x) {
    const u32 s = kSbox[x];
    const u32 s2 = xtime(static_cast<u8>(s));
    const u32 w = s2 << 24 | s << 16 | s << 8 | (s2 ^ s);
    for (unsigned k = 0; k < 4; ++k) te[k][x] = std::rotr(w, 8 * k);
  }
  return te;
}
constexpr auto kTe = make_te();

// The state is column-major (byte s[col*4 + row]); a column is one word with
// row 0 in the top byte, so loads and stores are byte-order neutral.
u32 load_col(const u8* p) {
  return u32{p[0]} << 24 | u32{p[1]} << 16 | u32{p[2]} << 8 | u32{p[3]};
}

void store_col(u8* p, u32 w) {
  p[0] = static_cast<u8>(w >> 24);
  p[1] = static_cast<u8>(w >> 16);
  p[2] = static_cast<u8>(w >> 8);
  p[3] = static_cast<u8>(w);
}

u8 byte_of(u32 w, unsigned row) { return static_cast<u8>(w >> (24 - 8 * row)); }

}  // namespace

AesKey aes_expand_key(const u8 key[kAesKeySize]) {
  AesKey out;
  std::memcpy(out.round_keys.data(), key, 16);
  for (int i = 4; i < 44; ++i) {
    u8 temp[4];
    std::memcpy(temp, out.round_keys.data() + (i - 1) * 4, 4);
    if (i % 4 == 0) {
      const u8 t0 = temp[0];
      temp[0] = static_cast<u8>(kSbox[temp[1]] ^ kRcon[i / 4]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (int b = 0; b < 4; ++b) {
      out.round_keys[i * 4 + b] =
          static_cast<u8>(out.round_keys[(i - 4) * 4 + b] ^ temp[b]);
    }
  }
  return out;
}

void aes_encrypt_block(const AesKey& key, u8 block[kAesBlockSize]) {
  const u8* rk = key.round_keys.data();
  std::array<u32, 4> s;
  for (unsigned c = 0; c < 4; ++c) {
    s[c] = load_col(block + 4 * c) ^ load_col(rk + 4 * c);
  }
  // Rounds 1..9: SubBytes, ShiftRows (column c takes row r from column
  // c + r) and MixColumns are one lookup per byte; AddRoundKey is the XOR.
  for (std::size_t round = 1; round < kAesRounds; ++round) {
    rk += kAesBlockSize;
    std::array<u32, 4> t;
    for (unsigned c = 0; c < 4; ++c) {
      t[c] = kTe[0][byte_of(s[c], 0)] ^ kTe[1][byte_of(s[(c + 1) % 4], 1)] ^
             kTe[2][byte_of(s[(c + 2) % 4], 2)] ^
             kTe[3][byte_of(s[(c + 3) % 4], 3)] ^ load_col(rk + 4 * c);
    }
    s = t;
  }
  // Last round: no MixColumns, so SubBytes reads kSbox directly.
  rk += kAesBlockSize;
  for (unsigned c = 0; c < 4; ++c) {
    const u32 w = u32{kSbox[byte_of(s[c], 0)]} << 24 |
                  u32{kSbox[byte_of(s[(c + 1) % 4], 1)]} << 16 |
                  u32{kSbox[byte_of(s[(c + 2) % 4], 2)]} << 8 |
                  u32{kSbox[byte_of(s[(c + 3) % 4], 3)]};
    store_col(block + 4 * c, w ^ load_col(rk + 4 * c));
  }
}

void aes_cbc_encrypt(const AesKey& key, const u8 iv[kAesBlockSize], u8* data,
                     std::size_t len) {
  LZ_CHECK(len % kAesBlockSize == 0);
  u8 chain[kAesBlockSize];
  std::memcpy(chain, iv, kAesBlockSize);
  for (std::size_t off = 0; off < len; off += kAesBlockSize) {
    for (std::size_t i = 0; i < kAesBlockSize; ++i) data[off + i] ^= chain[i];
    aes_encrypt_block(key, data + off);
    std::memcpy(chain, data + off, kAesBlockSize);
  }
}

}  // namespace lz::workload::crypto
