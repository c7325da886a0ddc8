// Differential tests: the fixed-width Montgomery kernels (one template
// instance per limb count N = 1..8) against the variable-length Bignum
// reference, on generated odd moduli and on the paper curve's q.
#include "math/field.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/errors.h"

namespace maabe::math {
namespace {

// The 512-bit base-field prime of PBC's stock type-A parameters: exactly
// 512 bits, so the CIOS carry limb above the top limb is live.
const char* kQ512 =
    "a7a73868e95fba886edef8ce96e7217e364bb946f5ed839628d1f80010940622"
    "a7afdaf9b049744a459e54dab7ba5be92539e8ff9b4f30a3cf6230c28e284d97";

Bignum random_below_bits(std::mt19937_64& rng, int limbs) {
  std::vector<uint64_t> l(limbs);
  for (auto& v : l) v = rng();
  return Bignum::from_limbs_le(l.data(), limbs);
}

Bignum random_below(std::mt19937_64& rng, const Bignum& m) {
  return Bignum::mod(random_below_bits(rng, m.limb_count() + 1), m);
}

/// An odd N-limb modulus. `top_bit` forces bit 64N-1 on; otherwise the
/// top limb is random but nonzero with its top bit clear.
Bignum odd_modulus(std::mt19937_64& rng, int n, bool top_bit) {
  std::vector<uint64_t> l(n);
  for (auto& v : l) v = rng();
  if (top_bit) {
    l[n - 1] |= uint64_t(1) << 63;
  } else {
    l[n - 1] = (l[n - 1] >> 1) | 2;  // in [2, 2^63)
  }
  l[0] |= 1;
  return Bignum::from_limbs_le(l.data(), n);
}

/// Every operation on MontField vs the Bignum reference over `m`.
void check_modulus(const Bignum& m, std::mt19937_64& rng) {
  SCOPED_TRACE("modulus " + m.to_hex());
  const MontField f(m);
  ASSERT_EQ(f.limbs(), m.limb_count());
  const Bignum one = Bignum::from_u64(1);
  const Bignum r_mod = Bignum::mod(Bignum::shl(one, 64 * m.limb_count()), m);

  std::vector<Bignum> ops = {Bignum(), one, Bignum::sub(m, one), r_mod};
  if (Bignum::cmp(m, Bignum::from_u64(2)) > 0) ops.push_back(Bignum::sub(m, Bignum::from_u64(2)));
  for (int i = 0; i < 12; ++i) ops.push_back(random_below(rng, m));

  // The Montgomery codec: to_mont(a) == a*R mod m, and it round-trips.
  for (const Bignum& a : ops) {
    EXPECT_EQ(Bignum(f.to_mont(a)), Bignum::mod_mul(a, r_mod, m)) << a.to_hex();
    EXPECT_EQ(Bignum(f.from_mont(f.to_mont(a))), a) << a.to_hex();
  }
  EXPECT_EQ(Bignum(f.one()), r_mod);

  for (const Bignum& a : ops) {
    const FieldElem am = f.to_mont(a);
    EXPECT_EQ(Bignum(f.from_mont(f.sqr(am))), Bignum::mod_mul(a, a, m)) << a.to_hex();
    EXPECT_EQ(Bignum(f.neg(a)), Bignum::mod_sub(Bignum(), a, m)) << a.to_hex();

    bool ref_invertible = true;
    Bignum ref_inv;
    try {
      ref_inv = Bignum::mod_inverse(a, m);
    } catch (const MathError&) {
      ref_invertible = false;
    }
    if (ref_invertible) {
      EXPECT_EQ(Bignum(f.from_mont(f.inv(am))), ref_inv) << a.to_hex();
    } else {
      EXPECT_THROW(f.inv(am), MathError) << a.to_hex();
    }

    for (const Bignum& b : ops) {
      const FieldElem bm = f.to_mont(b);
      EXPECT_EQ(Bignum(f.from_mont(f.mul(am, bm))), Bignum::mod_mul(a, b, m))
          << a.to_hex() << " * " << b.to_hex();
      EXPECT_EQ(Bignum(f.add(a, b)), Bignum::mod_add(a, b, m))
          << a.to_hex() << " + " << b.to_hex();
      EXPECT_EQ(Bignum(f.sub(a, b)), Bignum::mod_sub(a, b, m))
          << a.to_hex() << " - " << b.to_hex();
    }
  }
}

TEST(MontField, MatchesBignumForEveryLimbCount) {
  std::mt19937_64 rng(2012);
  for (int n = 1; n <= FieldElem::kLimbs; ++n) {
    SCOPED_TRACE("limbs " + std::to_string(n));
    check_modulus(odd_modulus(rng, n, /*top_bit=*/true), rng);
    check_modulus(odd_modulus(rng, n, /*top_bit=*/false), rng);
  }
}

TEST(MontField, MatchesBignumOnPaperPrime) {
  std::mt19937_64 rng(512);
  const Bignum q = Bignum::from_hex(kQ512);
  ASSERT_EQ(q.bit_length(), 512);
  check_modulus(q, rng);
}

TEST(MontField, SmallModuli) {
  std::mt19937_64 rng(3);
  for (uint64_t m : {3u, 5u, 7u, 9u, 15u, 23u, 255u}) check_modulus(Bignum::from_u64(m), rng);
}

TEST(MontField, PowMatchesBignum) {
  std::mt19937_64 rng(11);
  const Bignum q = Bignum::from_hex(kQ512);
  const MontField f(q);
  for (int i = 0; i < 4; ++i) {
    const Bignum a = random_below(rng, q);
    const Bignum e = random_below_bits(rng, 3);
    EXPECT_EQ(Bignum(f.from_mont(f.pow(f.to_mont(a), e))), Bignum::mod_pow(a, e, q));
  }
  EXPECT_EQ(f.pow(f.to_mont(Bignum::from_u64(5)), Bignum()), f.one());
}

TEST(MontField, RejectsBadModuli) {
  EXPECT_THROW(MontField(Bignum::from_u64(10)), MathError);
  EXPECT_THROW(MontField(Bignum::from_u64(1)), MathError);
  // 513 bits: one past the fixed width.
  const Bignum wide = Bignum::add(Bignum::shl(Bignum::from_u64(1), 512), Bignum::from_u64(1));
  EXPECT_THROW(MontField{wide}, MathError);
  // Exactly 512 bits is accepted.
  EXPECT_NO_THROW(MontField(Bignum::from_hex(kQ512)));
}

TEST(FieldElem, BignumConversionsRoundTrip) {
  std::mt19937_64 rng(5);
  for (int n = 0; n <= FieldElem::kLimbs; ++n) {
    const Bignum v = random_below_bits(rng, n);
    const FieldElem e = v;
    EXPECT_EQ(Bignum(e), v);
    EXPECT_EQ(e.is_zero(), v.is_zero());
    EXPECT_EQ(e.is_odd(), v.is_odd());
  }
  EXPECT_THROW(FieldElem(Bignum::shl(Bignum::from_u64(1), 512)), MathError);
}

TEST(MontField, IsReduced) {
  const Bignum q = Bignum::from_hex(kQ512);
  const MontField f(q);
  EXPECT_TRUE(f.is_reduced(Bignum()));
  EXPECT_TRUE(f.is_reduced(Bignum::sub(q, Bignum::from_u64(1))));
  EXPECT_FALSE(f.is_reduced(q));
  EXPECT_FALSE(f.is_reduced(Bignum::add(q, Bignum::from_u64(1))));
}

}  // namespace
}  // namespace maabe::math
