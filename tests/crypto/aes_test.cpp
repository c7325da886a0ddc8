#include "crypto/aes.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "common/errors.h"
#include "crypto/kernels.h"

namespace maabe::crypto {
namespace {

// FIPS-197 Appendix C vectors.
TEST(Aes, Fips197Aes128) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  uint8_t block[16];
  std::memcpy(block, pt.data(), 16);
  Aes(key).encrypt_block(block);
  EXPECT_EQ(to_hex(ByteView(block, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  Aes(key).decrypt_block(block);
  EXPECT_EQ(Bytes(block, block + 16), pt);
}

TEST(Aes, Fips197Aes192) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f1011121314151617");
  uint8_t block[16];
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  std::memcpy(block, pt.data(), 16);
  Aes(key).encrypt_block(block);
  EXPECT_EQ(to_hex(ByteView(block, 16)), "dda97ca4864cdfe06eaf70a0ec0d7191");
  Aes(key).decrypt_block(block);
  EXPECT_EQ(Bytes(block, block + 16), pt);
}

TEST(Aes, Fips197Aes256) {
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  uint8_t block[16];
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  std::memcpy(block, pt.data(), 16);
  Aes(key).encrypt_block(block);
  EXPECT_EQ(to_hex(ByteView(block, 16)), "8ea2b7ca516745bfeafc49904b496089");
  Aes(key).decrypt_block(block);
  EXPECT_EQ(Bytes(block, block + 16), pt);
}

TEST(Aes, RejectsBadKeySizes) {
  EXPECT_THROW(Aes(Bytes(15)), CryptoError);
  EXPECT_THROW(Aes(Bytes(17)), CryptoError);
  EXPECT_THROW(Aes(Bytes(0)), CryptoError);
  EXPECT_THROW(Aes(Bytes(33)), CryptoError);
}

// NIST SP 800-38A F.5.1 (AES-128-CTR).
TEST(AesCtr, Sp80038aVector) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes iv = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const Bytes expect = from_hex(
      "874d6191b620e3261bef6864990db6ce"
      "9806f66b7970fdff8617187bb9fffdff"
      "5ae4df3edbd5d35e5b4f09020db03eab"
      "1e031dda2fbe03d1792170a0f3009cee");
  EXPECT_EQ(aes_ctr(key, iv, pt), expect);
  // CTR is an involution.
  EXPECT_EQ(aes_ctr(key, iv, expect), pt);
}

TEST(AesCtr, PartialBlocks) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes iv(16, 0x42);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 33u, 100u}) {
    const Bytes pt(len, 0xa5);
    const Bytes ct = aes_ctr(key, iv, pt);
    EXPECT_EQ(ct.size(), len);
    EXPECT_EQ(aes_ctr(key, iv, ct), pt) << len;
    if (len > 0) {
      EXPECT_NE(ct, pt);
    }
  }
}

TEST(AesCtr, IvMustBe16Bytes) {
  EXPECT_THROW(aes_ctr(Bytes(16), Bytes(12), Bytes(4)), CryptoError);
}

TEST(AesCtr, CounterIncrementsAcrossBlocks) {
  // Keystream blocks must differ (counter actually increments).
  const Bytes key(16, 1);
  const Bytes iv(16, 0);
  const Bytes zeros(48, 0);
  const Bytes ks = aes_ctr(key, iv, zeros);
  EXPECT_NE(Bytes(ks.begin(), ks.begin() + 16), Bytes(ks.begin() + 16, ks.begin() + 32));
  EXPECT_NE(Bytes(ks.begin() + 16, ks.begin() + 32), Bytes(ks.begin() + 32, ks.end()));
}

// ------------------------------------------------------------ kernels --

/// Every length 0..5000 on the AES-NI kernel against a prefix of the
/// portable keystream (CTR's output for a prefix is the prefix of the
/// output), for one key and IV.
void check_aesni_against_portable(const Bytes& key, const Bytes& iv, std::mt19937_64& rng) {
  constexpr size_t kMaxLen = 5000;
  Bytes data(kMaxLen);
  for (auto& b : data) b = static_cast<uint8_t>(rng());
  const Aes aes(key);
  const Bytes expect = detail::aes_ctr_portable(aes, iv, data);
  for (size_t len = 0; len <= kMaxLen; ++len) {
    const Bytes got = detail::aes_ctr_aesni(aes, iv, ByteView(data.data(), len));
    ASSERT_EQ(got, Bytes(expect.begin(), expect.begin() + len))
        << key.size() * 8 << "-bit key, len " << len;
  }
}

TEST(AesCtrKernels, AesNiMatchesPortable) {
  if (!detail::aes_ni_available()) GTEST_SKIP() << "CPU lacks aes/sse4.1";
  std::mt19937_64 rng(0xae5);
  for (size_t key_len : {16u, 24u, 32u}) {
    Bytes key(key_len), iv(16);
    for (auto& b : key) b = static_cast<uint8_t>(rng());
    for (auto& b : iv) b = static_cast<uint8_t>(rng());
    ASSERT_NO_FATAL_FAILURE(check_aesni_against_portable(key, iv, rng));
  }
}

TEST(AesCtrKernels, AesNiCounterWrapsLow32Bits) {
  if (!detail::aes_ni_available()) GTEST_SKIP() << "CPU lacks aes/sse4.1";
  std::mt19937_64 rng(0xae6);
  for (size_t key_len : {16u, 24u, 32u}) {
    Bytes key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng());
    Bytes iv = from_hex("0123456789abcdef01234567fffffffe");
    ASSERT_NO_FATAL_FAILURE(check_aesni_against_portable(key, iv, rng));
    // The third block's counter wraps to ...00000000; the 96-bit prefix
    // does not carry.
    const Bytes ks = detail::aes_ctr_aesni(Aes(key), iv, Bytes(48, 0));
    uint8_t block[16];
    std::memcpy(block, iv.data(), 16);
    std::memset(block + 12, 0, 4);
    Aes(key).encrypt_block(block);
    EXPECT_EQ(Bytes(ks.begin() + 32, ks.end()), Bytes(block, block + 16));
  }
}

}  // namespace
}  // namespace maabe::crypto
