#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/errors.h"
#include "crypto/kernels.h"

namespace maabe::crypto {
namespace {

std::string hex_digest(ByteView data) { return to_hex(Sha256::digest(data)); }

// NIST FIPS 180-4 example vectors.
TEST(Sha256, NistVectors) {
  EXPECT_EQ(hex_digest(bytes_of("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_digest({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_digest(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const Bytes data = bytes_of("the quick brown fox jumps over the lazy dog!!");
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(ByteView(data.data(), split));
    h.update(ByteView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finish(), Sha256::digest(data)) << "split=" << split;
  }
}

TEST(Sha256, BlockBoundaryLengths) {
  // Exercise padding around the 56- and 64-byte boundaries.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes data(len, 0x5a);
    Sha256 a;
    a.update(data);
    EXPECT_EQ(a.finish(), Sha256::digest(data)) << len;
  }
}

TEST(Sha256, ReuseAfterFinishThrows) {
  Sha256 h;
  h.update(bytes_of("x"));
  h.finish();
  EXPECT_THROW(h.update(bytes_of("y")), CryptoError);
  EXPECT_THROW(h.finish(), CryptoError);
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::digest(bytes_of("a")), Sha256::digest(bytes_of("b")));
  EXPECT_NE(Sha256::digest(bytes_of("")), Sha256::digest(Bytes{0}));
}

// ------------------------------------------------------------ kernels --

/// One-shot SHA-256 on the portable compression: FIPS 180-4 padding,
/// then every block through detail::sha256_blocks_portable.
Bytes portable_digest(ByteView data) {
  uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                   0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes msg(data.begin(), data.end());
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  const uint64_t bits = uint64_t(data.size()) * 8;
  for (int i = 7; i >= 0; --i) msg.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  detail::sha256_blocks_portable(h, msg.data(), msg.size() / 64);
  Bytes out;
  for (uint32_t w : h)
    for (int s = 24; s >= 0; s -= 8) out.push_back(static_cast<uint8_t>(w >> s));
  return out;
}

Bytes random_bytes(std::mt19937_64& rng, size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<uint8_t>(rng());
  return b;
}

/// Sha256 (which dispatches to SHA-NI on this CPU) over `data`, fed in
/// `pieces` updates split at random points.
Bytes split_digest(std::mt19937_64& rng, ByteView data, int pieces) {
  std::vector<size_t> cuts = {0, data.size()};
  for (int i = 1; i < pieces; ++i) cuts.push_back(rng() % (data.size() + 1));
  std::sort(cuts.begin(), cuts.end());
  Sha256 h;
  for (size_t i = 0; i + 1 < cuts.size(); ++i)
    h.update(data.subspan(cuts[i], cuts[i + 1] - cuts[i]));
  return h.finish();
}

TEST(Sha256Kernels, PortableDigestMatchesNist) {
  EXPECT_EQ(to_hex(portable_digest(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(portable_digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Kernels, ShaNiMatchesPortableCompress) {
  if (!detail::sha_ni_available()) GTEST_SKIP() << "CPU lacks sha/sse4.1/ssse3";
  std::mt19937_64 rng(0x5a1);
  for (size_t blocks = 0; blocks <= 40; ++blocks) {
    uint32_t a[8], b[8];
    for (int i = 0; i < 8; ++i) a[i] = b[i] = static_cast<uint32_t>(rng());
    const Bytes data = random_bytes(rng, 64 * blocks);
    detail::sha256_blocks_portable(a, data.data(), blocks);
    detail::sha256_blocks_shani(b, data.data(), blocks);
    EXPECT_TRUE(std::equal(a, a + 8, b)) << blocks << " blocks";
  }
}

TEST(Sha256Kernels, ShaNiDigestMatchesPortableEveryLength) {
  if (!detail::sha_ni_available()) GTEST_SKIP() << "CPU lacks sha/sse4.1/ssse3";
  std::mt19937_64 rng(0x5a2);
  const Bytes data = random_bytes(rng, 1100);
  for (size_t len = 0; len <= data.size(); ++len) {
    const ByteView msg(data.data(), len);
    const Bytes expect = portable_digest(msg);
    ASSERT_EQ(Sha256::digest(msg), expect) << len;
    ASSERT_EQ(split_digest(rng, msg, 3), expect) << len;
  }
}

TEST(Sha256Kernels, ShaNiDigestMatchesPortableRandomLengths) {
  if (!detail::sha_ni_available()) GTEST_SKIP() << "CPU lacks sha/sse4.1/ssse3";
  std::mt19937_64 rng(0x5a3);
  for (int trial = 0; trial < 60; ++trial) {
    const Bytes data = random_bytes(rng, rng() % (64 * 1024 + 1));
    const Bytes expect = portable_digest(data);
    ASSERT_EQ(split_digest(rng, data, 1 + static_cast<int>(rng() % 8)), expect)
        << data.size();
  }
}

}  // namespace
}  // namespace maabe::crypto
