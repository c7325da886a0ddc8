// SHA-256 (FIPS 180-4), written from scratch for this reproduction.
//
// Used as the random oracle H:{0,1}* -> Z_p of the paper (via
// pairing::hash_to_zr), as the hash-to-group primitive needed by the
// Lewko-Waters baseline, inside HMAC, and as the core of the
// deterministic random bit generator; the cloud layer hashes every
// transport frame, quorum reply and stored file with it.
//
// The compression runs on SHA-NI when CPUID reports sha, sse4.1 and
// ssse3, and on portable byte-oriented code everywhere else; the choice
// is made once per process, and both kernels (crypto/kernels.h) produce
// the same digests.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace maabe::crypto {

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  /// Streams more input.
  void update(ByteView data);
  /// Finishes and returns the 32-byte digest; the object must not be
  /// reused afterwards (construct a fresh one).
  Bytes finish();

  /// One-shot convenience.
  static Bytes digest(ByteView data);

 private:
  uint32_t h_[8];
  uint8_t buf_[kBlockSize];
  size_t buf_len_ = 0;
  uint64_t total_len_ = 0;
  bool finished_ = false;
};

}  // namespace maabe::crypto
