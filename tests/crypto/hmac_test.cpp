#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include "common/errors.h"

namespace maabe::crypto {
namespace {

// RFC 4231 test vectors.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(bytes_of("Jefe"),
                               bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, bytes_of("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  const Bytes msg = bytes_of("same message");
  EXPECT_NE(hmac_sha256(bytes_of("key1"), msg), hmac_sha256(bytes_of("key2"), msg));
}

TEST(Kdf, DeterministicAndLabelSeparated) {
  const Bytes ikm = bytes_of("input keying material");
  const Bytes a1 = kdf(ikm, "label-a", 32);
  const Bytes a2 = kdf(ikm, "label-a", 32);
  const Bytes b = kdf(ikm, "label-b", 32);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(a1.size(), 32u);
}

TEST(Kdf, VariableLengthsArePrefixConsistent) {
  const Bytes ikm = bytes_of("ikm");
  const Bytes long_out = kdf(ikm, "l", 80);
  const Bytes short_out = kdf(ikm, "l", 48);
  EXPECT_EQ(Bytes(long_out.begin(), long_out.begin() + 48), short_out);
}

TEST(Kdf, RejectsBadLengths) {
  EXPECT_THROW(kdf(bytes_of("x"), "l", 0), CryptoError);
  EXPECT_THROW(kdf(bytes_of("x"), "l", 255 * 32 + 1), CryptoError);
}

// One context, many messages: streamed in pieces, and again after
// finish(), the tag is the one-shot tag; short and long (hashed) keys.
TEST(HmacContext, StreamedAndReusedMatchesOneShot) {
  for (const Bytes& key : {Bytes(20, 0x0b), Bytes(131, 0xaa)}) {
    HmacSha256 mac(key);
    for (const size_t len : {0u, 1u, 55u, 64u, 65u, 1000u}) {
      Bytes msg(len);
      for (size_t i = 0; i < len; ++i) msg[i] = static_cast<uint8_t>(i * 7 + len);
      const size_t cut = len / 3;
      mac.update(ByteView(msg).first(cut));
      mac.update(ByteView(msg).subspan(cut));
      EXPECT_EQ(mac.finish(), hmac_sha256(key, msg)) << key.size() << "/" << len;
    }
  }
}

// The KDF on contexts gives the bytes of extract-then-expand written out
// with one-shot HMACs.
TEST(Kdf, MatchesOneShotHmacConstruction) {
  const auto reference = [](ByteView ikm, std::string_view label, size_t out_len) {
    const Bytes prk = hmac_sha256(bytes_of("maabe/kdf/v1"), ikm);
    Bytes out, t;
    for (uint8_t counter = 1; out.size() < out_len; ++counter) {
      Bytes block = t;
      block.insert(block.end(), label.begin(), label.end());
      block.push_back(counter);
      t = hmac_sha256(prk, block);
      out.insert(out.end(), t.begin(), t.end());
    }
    out.resize(out_len);
    return out;
  };
  for (const size_t len : {1u, 32u, 64u, 100u, 255u * 32u}) {
    const Bytes ikm = bytes_of("ikm-" + std::to_string(len));
    EXPECT_EQ(kdf(ikm, "authenc/subkeys", len), reference(ikm, "authenc/subkeys", len)) << len;
  }
}

}  // namespace
}  // namespace maabe::crypto
