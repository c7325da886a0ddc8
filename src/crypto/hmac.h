// HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//
// Used by the hybrid layer for encrypt-then-MAC integrity on data
// components and by the KDF that turns a GT element into a content key.
#pragma once

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace maabe::crypto {

/// Incremental HMAC-SHA-256 under one key. The key's ipad and opad blocks
/// are hashed once, at construction; every message starts from copies of
/// those two states, so one context MACs many messages without rekeying.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteView key);

  /// Streams more of the current message.
  void update(ByteView data) { inner_.update(data); }
  /// The tag of everything streamed since construction or the last
  /// finish(); the context then starts a fresh message under the same key.
  Bytes finish();

 private:
  Sha256 inner_pad_;  // state after the key's ipad block
  Sha256 outer_pad_;  // state after the key's opad block
  Sha256 inner_;      // inner_pad_ plus the current message
};

/// HMAC-SHA-256 of `data` under `key` (any key length).
Bytes hmac_sha256(ByteView key, ByteView data);

/// HKDF-style expansion: derives `out_len` bytes from input keying
/// material and a context/label string, via HMAC-SHA-256
/// (extract with a fixed salt, then expand).
Bytes kdf(ByteView ikm, std::string_view label, size_t out_len);

}  // namespace maabe::crypto
