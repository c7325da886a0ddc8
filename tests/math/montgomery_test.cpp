// Montgomery-context cases on math::MontField, the library's one
// Montgomery context. The suite name MontCtx is from the seed. Results
// are FieldElem, read back through Bignum where a case compares against
// a Bignum reference.
#include "math/field.h"

#include <gtest/gtest.h>

#include <random>

#include "common/errors.h"
#include "support/bignum_ref.h"

namespace maabe::math {
namespace {

Bignum H(std::string_view hex) { return Bignum::from_hex(hex); }

// The 512-bit base-field prime of PBC's stock type-A parameters.
const char* kQ512 =
    "a7a73868e95fba886edef8ce96e7217e364bb946f5ed839628d1f80010940622"
    "a7afdaf9b049744a459e54dab7ba5be92539e8ff9b4f30a3cf6230c28e284d97";

TEST(MontCtx, RejectsEvenModulus) {
  EXPECT_THROW(MontField(H("10")), MathError);
  EXPECT_THROW(MontField(Bignum::from_u64(1)), MathError);
}

TEST(MontCtx, RoundTripSmall) {
  const MontField m(H("17"));  // 23
  for (uint64_t v = 0; v < 23; ++v) {
    const Bignum a = Bignum::from_u64(v);
    EXPECT_EQ(Bignum(m.from_mont(m.to_mont(a))), a);
  }
}

TEST(MontCtx, MulMatchesPlainModMul) {
  std::mt19937_64 rng(99);
  const Bignum p = H("ffffffffffffffffffffffffffffff61");  // odd 128-bit
  const MontField m(p);
  for (int i = 0; i < 50; ++i) {
    Bytes ab(16), bb(16);
    for (auto& x : ab) x = static_cast<uint8_t>(rng());
    for (auto& x : bb) x = static_cast<uint8_t>(rng());
    const Bignum a = Bignum::mod(Bignum::from_bytes_be(ab), p);
    const Bignum b = Bignum::mod(Bignum::from_bytes_be(bb), p);
    const Bignum got = m.from_mont(m.mul(m.to_mont(a), m.to_mont(b)));
    EXPECT_EQ(got, reference::mod_mul(a, b, p));
  }
}

TEST(MontCtx, MulMatchesPlainAt512Bits) {
  std::mt19937_64 rng(7);
  const Bignum p = H(kQ512);
  const MontField m(p);
  for (int i = 0; i < 20; ++i) {
    Bytes ab(64), bb(64);
    for (auto& x : ab) x = static_cast<uint8_t>(rng());
    for (auto& x : bb) x = static_cast<uint8_t>(rng());
    const Bignum a = Bignum::mod(Bignum::from_bytes_be(ab), p);
    const Bignum b = Bignum::mod(Bignum::from_bytes_be(bb), p);
    const Bignum got = m.from_mont(m.mul(m.to_mont(a), m.to_mont(b)));
    EXPECT_EQ(got, reference::mod_mul(a, b, p));
  }
}

TEST(MontCtx, OneBehaves) {
  const MontField m(H(kQ512));
  const FieldElem x = m.to_mont(H("123456789abcdef"));
  EXPECT_EQ(m.mul(x, m.one()), x);
  EXPECT_EQ(Bignum(m.from_mont(m.one())).to_u64(), 1u);
}

TEST(MontCtx, AddSubNeg) {
  const Bignum p = H("61");  // 97
  const MontField m(p);
  const FieldElem a = FieldElem::from_u64(90), b = FieldElem::from_u64(20);
  EXPECT_EQ(Bignum(m.add(a, b)).to_u64(), 13u);   // 110 mod 97
  EXPECT_EQ(Bignum(m.sub(b, a)).to_u64(), 27u);   // -70 mod 97
  EXPECT_EQ(Bignum(m.neg(a)).to_u64(), 7u);
  EXPECT_TRUE(m.neg(FieldElem()).is_zero());
  EXPECT_EQ(Bignum(m.add(a, m.neg(a))).to_u64(), 0u);
}

TEST(MontCtx, PowMatchesPlainModPow) {
  std::mt19937_64 rng(3);
  const Bignum p = H("ffffffffffffffffffffffffffffff61");
  const MontField m(p);
  for (int i = 0; i < 20; ++i) {
    Bytes ab(16), eb(12);
    for (auto& x : ab) x = static_cast<uint8_t>(rng());
    for (auto& x : eb) x = static_cast<uint8_t>(rng());
    const Bignum a = Bignum::mod(Bignum::from_bytes_be(ab), p);
    const Bignum e = Bignum::from_bytes_be(eb);
    EXPECT_EQ(Bignum(m.from_mont(m.pow(m.to_mont(a), e))), reference::mod_pow(a, e, p));
  }
}

TEST(MontCtx, PowZeroExponentIsOne) {
  const MontField m(H(kQ512));
  const FieldElem a = m.to_mont(H("deadbeef"));
  EXPECT_EQ(m.pow(a, Bignum()), m.one());
}

TEST(MontCtx, FermatLittleTheorem) {
  const Bignum p = H("ffffffffffffffffffffffffffffff61");  // prime
  const MontField m(p);
  const FieldElem a = m.to_mont(H("1234567890abcdef1234"));
  const Bignum e = Bignum::sub(p, Bignum::from_u64(1));
  EXPECT_EQ(m.pow(a, e), m.one());
}

TEST(MontCtx, InverseRoundTrip) {
  std::mt19937_64 rng(11);
  const Bignum p = H(kQ512);
  const MontField m(p);
  for (int i = 0; i < 10; ++i) {
    Bytes ab(64);
    for (auto& x : ab) x = static_cast<uint8_t>(rng());
    const Bignum a = Bignum::mod(Bignum::from_bytes_be(ab), p);
    if (a.is_zero()) continue;
    const FieldElem am = m.to_mont(a);
    EXPECT_EQ(m.mul(am, m.inv(am)), m.one());
  }
}

TEST(MontCtx, SqrMatchesMulSelf) {
  std::mt19937_64 rng(123);
  for (const char* mod : {"ffffffffffffffffffffffffffffff61", kQ512}) {
    const Bignum p = H(mod);
    const MontField m(p);
    // Edge residues: 0, 1, p-1 (squared in Montgomery form).
    const Bignum edges[] = {Bignum{}, Bignum::from_u64(1),
                            Bignum::sub(p, Bignum::from_u64(1))};
    for (const Bignum& v : edges) {
      const FieldElem a = m.to_mont(v);
      EXPECT_EQ(m.sqr(a), m.mul(a, a));
      EXPECT_EQ(Bignum(m.from_mont(m.sqr(a))), reference::mod_mul(v, v, p));
    }
    for (int i = 0; i < 50; ++i) {
      Bytes ab(m.byte_length());
      for (auto& x : ab) x = static_cast<uint8_t>(rng());
      const Bignum a = Bignum::mod(Bignum::from_bytes_be(ab), p);
      const FieldElem am = m.to_mont(a);
      EXPECT_EQ(m.sqr(am), m.mul(am, am));
    }
  }
}

TEST(MontCtx, ByteLength) {
  EXPECT_EQ(MontField(H(kQ512)).byte_length(), 64u);
  EXPECT_EQ(MontField(H("17")).byte_length(), 1u);
  EXPECT_EQ(MontField(H("101")).byte_length(), 2u);
}

}  // namespace
}  // namespace maabe::math
