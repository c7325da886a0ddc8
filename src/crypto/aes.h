// AES-128/192/256 block cipher (FIPS 197) and CTR mode.
//
// The paper's hybrid data format encrypts each data component with a
// symmetric content key; this module provides that cipher. The block
// cipher and key schedule are table-free byte-oriented code. CTR mode
// runs on AES-NI, eight blocks in flight, when CPUID reports aes and
// sse4.1, and on the byte-oriented block cipher everywhere else; the
// choice is made once per process, and both kernels (crypto/kernels.h)
// produce the same keystream.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace maabe::crypto {

class Aes {
 public:
  /// Key must be 16, 24 or 32 bytes. Throws CryptoError otherwise.
  explicit Aes(ByteView key);

  static constexpr size_t kBlockSize = 16;

  /// Encrypts a single 16-byte block in place.
  void encrypt_block(uint8_t block[kBlockSize]) const;
  /// Decrypts a single 16-byte block in place.
  void decrypt_block(uint8_t block[kBlockSize]) const;

  /// Number of rounds: 10, 12 or 14.
  int rounds() const { return rounds_; }
  /// Round key r in 0..rounds(), 16 bytes in FIPS-197 state order, the
  /// byte layout aesenc takes as is.
  const uint8_t* round_key(int r) const { return round_keys_[r]; }

 private:
  uint8_t round_keys_[15][16];
  int rounds_ = 0;
};

/// CTR-mode keystream XOR: encryption and decryption are the same
/// operation. `iv` must be 16 bytes (it is used as the initial counter
/// block; the low 32 bits increment big-endian per block and wrap
/// mod 2^32).
Bytes aes_ctr(ByteView key, ByteView iv, ByteView data);

}  // namespace maabe::crypto
