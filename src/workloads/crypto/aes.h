// AES-128 (FIPS-197): key expansion, single-block encryption and CBC mode.
// Used by the HTTPS-server workload: session keys live in *simulated
// protected memory*, are fetched through the core's translation machinery
// (so PAN/TTBR isolation is genuinely exercised), and then encrypt real
// buffers. Encryption is byte-correct (verified against the FIPS-197 and
// SP 800-38A vectors and a byte-wise reference in tests).
//
// The rounds are T-table lookups whose addresses depend on key and data, so
// this is not constant-time: it is the model's host-side cipher, not one to
// protect real secrets with.
#pragma once

#include <array>
#include <cstddef>

#include "support/types.h"

namespace lz::workload::crypto {

inline constexpr std::size_t kAesBlockSize = 16;
inline constexpr std::size_t kAesKeySize = 16;
inline constexpr std::size_t kAesRounds = 10;

struct AesKey {
  // Expanded round keys: (rounds + 1) * 16 bytes.
  std::array<u8, (kAesRounds + 1) * kAesBlockSize> round_keys;
};

// Expand a 128-bit cipher key.
AesKey aes_expand_key(const u8 key[kAesKeySize]);

// Encrypt one 16-byte block in place.
void aes_encrypt_block(const AesKey& key, u8 block[kAesBlockSize]);

// CBC-encrypt `len` bytes (must be a multiple of 16) in place.
void aes_cbc_encrypt(const AesKey& key, const u8 iv[kAesBlockSize], u8* data,
                     std::size_t len);

}  // namespace lz::workload::crypto
