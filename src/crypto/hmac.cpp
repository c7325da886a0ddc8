#include "crypto/hmac.h"

#include "common/errors.h"

namespace maabe::crypto {

HmacSha256::HmacSha256(ByteView key) {
  constexpr size_t kBlock = Sha256::kBlockSize;
  uint8_t k[kBlock] = {};
  if (key.size() > kBlock) {
    const Bytes hashed = Sha256::digest(key);
    std::copy(hashed.begin(), hashed.end(), k);
  } else {
    std::copy(key.begin(), key.end(), k);
  }

  uint8_t ipad[kBlock], opad[kBlock];
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_pad_.update(ipad);
  outer_pad_.update(opad);
  inner_ = inner_pad_;
}

Bytes HmacSha256::finish() {
  const Bytes inner_digest = inner_.finish();
  inner_ = inner_pad_;
  Sha256 outer = outer_pad_;
  outer.update(inner_digest);
  return outer.finish();
}

Bytes hmac_sha256(ByteView key, ByteView data) {
  HmacSha256 mac(key);
  mac.update(data);
  return mac.finish();
}

Bytes kdf(ByteView ikm, std::string_view label, size_t out_len) {
  if (out_len == 0 || out_len > 255 * Sha256::kDigestSize)
    throw CryptoError("kdf: bad output length");
  // Extract with a fixed application salt, whose pad states are hashed
  // once per process.
  static const HmacSha256 kSalted(bytes_of("maabe/kdf/v1"));
  HmacSha256 extract = kSalted;
  extract.update(ikm);
  // Expand: T(i) = HMAC(PRK, T(i-1) || label || i), all under one PRK
  // context.
  HmacSha256 expand(extract.finish());
  const ByteView label_bytes(reinterpret_cast<const uint8_t*>(label.data()), label.size());
  Bytes out;
  Bytes t;
  uint8_t counter = 1;
  while (out.size() < out_len) {
    expand.update(t);
    expand.update(label_bytes);
    expand.update(ByteView(&counter, 1));
    ++counter;
    t = expand.finish();
    out.insert(out.end(), t.begin(), t.end());
  }
  out.resize(out_len);
  return out;
}

}  // namespace maabe::crypto
