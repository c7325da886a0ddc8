// The SHA-256 compression and AES-CTR kernels that Sha256 and aes_ctr
// choose between (DESIGN.md §21), named so tests/crypto and
// bench/pairing_micro can run each one directly. Not part of the crypto
// API: everything else calls Sha256 / aes_ctr, which pick a kernel once
// per process by CPUID.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace maabe::crypto::detail {

/// FIPS 180-4 compression of `blocks` consecutive 64-byte blocks into
/// `state` (h0..h7), byte-oriented portable code.
void sha256_blocks_portable(uint32_t state[8], const uint8_t* data, size_t blocks);

/// True when this build carries the SHA-NI kernel (x86-64, GCC or Clang)
/// and CPUID reports sha, sse4.1 and ssse3. Computed once.
bool sha_ni_available();

/// The same compression on sha256rnds2/sha256msg1/sha256msg2. Call only
/// when sha_ni_available().
void sha256_blocks_shani(uint32_t state[8], const uint8_t* data, size_t blocks);

/// CTR keystream XOR with the portable block cipher: the counter block
/// starts at `iv` (16 bytes) and its low 32 bits count up big-endian,
/// wrapping mod 2^32.
Bytes aes_ctr_portable(const Aes& aes, ByteView iv, ByteView data);

/// True when this build carries the AES-NI kernel and CPUID reports aes
/// and sse4.1. Computed once.
bool aes_ni_available();

/// The same keystream on aesenc/aesenclast, eight blocks in flight. Call
/// only when aes_ni_available().
Bytes aes_ctr_aesni(const Aes& aes, ByteView iv, ByteView data);

}  // namespace maabe::crypto::detail
