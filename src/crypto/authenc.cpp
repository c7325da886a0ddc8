#include "crypto/authenc.h"

#include "common/errors.h"
#include "common/wire.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"

namespace maabe::crypto {

namespace {

constexpr size_t kIvSize = 16;
constexpr size_t kTagSize = 32;

// Independent subkeys: bytes [0, 32) encrypt, bytes [32, 64) authenticate.
Bytes derive(ByteView key) {
  if (key.size() != kContentKeySize) throw CryptoError("authenc: key must be 32 bytes");
  return kdf(key, "authenc/subkeys", 64);
}
ByteView enc_key(const Bytes& keys) { return ByteView(keys).first(32); }
ByteView mac_key(const Bytes& keys) { return ByteView(keys).subspan(32); }

// The tag over var_bytes(aad) || iv || ct (Writer's layout), streamed
// through the MAC without assembling that buffer.
Bytes mac_tag(ByteView key, ByteView iv, ByteView ct, ByteView aad) {
  HmacSha256 mac(key);
  mac.update(var_bytes_prefix(aad));
  mac.update(aad);
  mac.update(iv);
  mac.update(ct);
  return mac.finish();
}

}  // namespace

Bytes seal(ByteView key, ByteView plaintext, ByteView aad, Drbg& rng) {
  const Bytes keys = derive(key);
  const Bytes iv = rng.bytes(kIvSize);
  const Bytes ct = aes_ctr(enc_key(keys), iv, plaintext);
  const Bytes tag = mac_tag(mac_key(keys), iv, ct, aad);
  Bytes out;
  out.reserve(iv.size() + ct.size() + tag.size());
  out.insert(out.end(), iv.begin(), iv.end());
  out.insert(out.end(), ct.begin(), ct.end());
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

Bytes open(ByteView key, ByteView box, ByteView aad) {
  if (box.size() < kIvSize + kTagSize) throw CryptoError("authenc: box too short");
  const Bytes keys = derive(key);
  const ByteView iv = box.subspan(0, kIvSize);
  const ByteView ct = box.subspan(kIvSize, box.size() - kIvSize - kTagSize);
  const ByteView tag = box.subspan(box.size() - kTagSize);
  const Bytes expect = mac_tag(mac_key(keys), iv, ct, aad);
  if (!secure_equal(expect, tag)) throw CryptoError("authenc: authentication failed");
  return aes_ctr(enc_key(keys), iv, ct);
}

}  // namespace maabe::crypto
