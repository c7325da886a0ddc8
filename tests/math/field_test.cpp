// Differential tests: the fixed-width Montgomery kernels (one template
// instance per limb count N = 1..8) against the variable-length Bignum
// reference, on generated odd moduli and on the paper curve's q; the
// BMI2/ADX kernel against the portable N = 8 kernels; the 8-lane IFMA
// kernels against the reference and their exponentiation against the
// scalar pow; MontField::pow_batch against pow; the windowed
// MontField::pow against square-and-multiply; the batched
// binary-gcd inversion against the reference and against Fermat; and
// the binary Jacobi symbol against the textbook algorithm and Euler.
#include "math/field.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <vector>

#include "common/errors.h"
#include "math/field_kernels.h"
#include "math/prime.h"
#include "support/bignum_ref.h"

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
    EXPECT_EQ(Bignum(f.to_mont(a)), reference::mod_mul(a, r_mod, m)) << a.to_hex();
    EXPECT_EQ(Bignum(f.from_mont(f.to_mont(a))), a) << a.to_hex();
  }
  EXPECT_EQ(Bignum(f.one()), r_mod);

  for (const Bignum& a : ops) {
    const FieldElem am = f.to_mont(a);
    EXPECT_EQ(Bignum(f.from_mont(f.sqr(am))), reference::mod_mul(a, a, m)) << a.to_hex();
    EXPECT_EQ(Bignum(f.neg(a)), Bignum::mod_sub(Bignum(), a, m)) << a.to_hex();

    bool ref_invertible = true;
    Bignum ref_inv;
    try {
      ref_inv = reference::mod_inverse(a, m);
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
      EXPECT_EQ(Bignum(f.from_mont(f.mul(am, bm))), reference::mod_mul(a, b, m))
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

// The group orders r of both curves (pbc_a512: 160 bits, 3 limbs; the
// test curve: 80 bits, 2 limbs), which Z_r arithmetic and the LSSS
// solver run on: mul and inv on the operands 1, 2, r-1 and 10^4
// seeded values against reference::mod_mul / mod_inverse.
TEST(MontField, MatchesBignumOnGroupOrders) {
  std::mt19937_64 rng(160);
  for (const char* hex : {"8000000000000800000000000000000000000001", "a8b318d0752b1825bc55"}) {
    const Bignum r = Bignum::from_hex(hex);
    SCOPED_TRACE("r = " + r.to_hex());
    const MontField f(r);
    std::vector<Bignum> ops = {Bignum::from_u64(1), Bignum::from_u64(2),
                               Bignum::sub(r, Bignum::from_u64(1))};
    for (int i = 0; i < 10000; ++i) ops.push_back(random_below(rng, r));
    for (size_t i = 0; i < ops.size(); ++i) {
      const Bignum& a = ops[i];
      const Bignum& b = ops[(i * 7 + 1) % ops.size()];
      const FieldElem am = f.to_mont(a);
      ASSERT_EQ(Bignum(f.from_mont(f.mul(am, f.to_mont(b)))), reference::mod_mul(a, b, r))
          << a.to_hex() << " * " << b.to_hex();
      if (a.is_zero()) continue;
      ASSERT_EQ(Bignum(f.from_mont(f.inv(am))), reference::mod_inverse(a, r)) << a.to_hex();
    }
  }
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
    EXPECT_EQ(Bignum(f.from_mont(f.pow(f.to_mont(a), e))), reference::mod_pow(a, e, q));
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

// ------------------------------------------- ADX vs portable (N = 8) --

/// Compares the ADX multiply (and the ADX path's square, which is the
/// multiply with a == b) against the portable CIOS multiply and SOS
/// square on one 8-limb modulus.
void check_adx_pair(const FieldElem& p, uint64_t n0, const FieldElem& a, const FieldElem& b) {
  const FieldElem want = detail::mont_mul8_portable(a, b, p, n0);
  ASSERT_EQ(detail::mont_mul8_adx(a, b, p, n0), want)
      << Bignum(a).to_hex() << " * " << Bignum(b).to_hex() << " mod " << Bignum(p).to_hex();
  const FieldElem want_sq = detail::mont_sqr8_portable(a, p, n0);
  ASSERT_EQ(detail::mont_mul8_portable(a, a, p, n0), want_sq) << Bignum(a).to_hex();
  ASSERT_EQ(detail::mont_mul8_adx(a, a, p, n0), want_sq) << Bignum(a).to_hex();
}

/// Uniform element below p: random limbs, rejected until reduced.
FieldElem random_reduced(std::mt19937_64& rng, const MontField& f) {
  for (;;) {
    FieldElem e;
    for (uint64_t& v : e.l) v = rng();
    if (f.is_reduced(e)) return e;
  }
}

/// Operands at the edges of the kernel's carry handling: 0, 1, p-1,
/// p-2, R mod p, values whose top limb equals p's, and values next to p
/// with every lower limb saturated — products of the last kind push
/// t + a_i*b + m*p toward 2^577, so the 10th carry word is live.
std::vector<FieldElem> edge_operands(const MontField& f, std::mt19937_64& rng) {
  const Bignum& m = f.modulus();
  const FieldElem p = m;
  std::vector<FieldElem> out = {FieldElem(), FieldElem::from_u64(1),
                                Bignum::sub(m, Bignum::from_u64(1)),
                                Bignum::sub(m, Bignum::from_u64(2)), f.one()};
  // p - d for d < 2^63: the top limb stays p's.
  for (int k = 0; k < 4; ++k) out.push_back(Bignum::sub(m, Bignum::from_u64((rng() >> 1) + 1)));
  FieldElem high;
  high.l.fill(~uint64_t(0));
  high.l[7] = p.l[7] - 1;  // top limb of an 8-limb p is nonzero
  out.push_back(high);
  FieldElem below = p;
  below.l[0] -= 1;  // p odd, so p-1 keeps every other limb of p
  for (int i = 1; i < 7; ++i) below.l[i] = p.l[i] == 0 ? 0 : p.l[i] - 1;
  out.push_back(below);
  for (const FieldElem& e : out) EXPECT_TRUE(f.is_reduced(e)) << Bignum(e).to_hex();
  return out;
}

void check_adx_modulus(const Bignum& m, std::mt19937_64& rng, int random_pairs) {
  SCOPED_TRACE("modulus " + m.to_hex());
  ASSERT_EQ(m.limb_count(), 8);
  const MontField f(m);
  const FieldElem p = m;
  const uint64_t n0 = detail::mont_n0(p.l[0]);
  const std::vector<FieldElem> edges = edge_operands(f, rng);
  for (const FieldElem& a : edges)
    for (const FieldElem& b : edges) ASSERT_NO_FATAL_FAILURE(check_adx_pair(p, n0, a, b));
  for (int i = 0; i < random_pairs; ++i)
    ASSERT_NO_FATAL_FAILURE(check_adx_pair(p, n0, random_reduced(rng, f), random_reduced(rng, f)));
}

TEST(MontFieldKernels, AdxMatchesPortableOnPaperPrime) {
  if (!detail::adx_kernel_available()) GTEST_SKIP() << "CPU lacks bmi2/adx";
  std::mt19937_64 rng(0xAD8);
  check_adx_modulus(Bignum::from_hex(kQ512), rng, 100000);
}

TEST(MontFieldKernels, AdxMatchesPortableOnGeneratedModuli) {
  if (!detail::adx_kernel_available()) GTEST_SKIP() << "CPU lacks bmi2/adx";
  std::mt19937_64 rng(0xAD9);
  for (int k = 0; k < 8; ++k) check_adx_modulus(odd_modulus(rng, 8, /*top_bit=*/true), rng, 5000);
  for (int k = 0; k < 4; ++k) check_adx_modulus(odd_modulus(rng, 8, /*top_bit=*/false), rng, 5000);
  // The widest 8-limb modulus: every limb saturated.
  std::vector<uint64_t> ones(8, ~uint64_t(0));
  check_adx_modulus(Bignum::from_limbs_le(ones.data(), 8), rng, 5000);
}

// ------------------------------------------------- IFMA lanes (N = 8) --

constexpr uint64_t kMask52 = (uint64_t(1) << 52) - 1;

void set_lane(detail::Lanes& x, int k, const Bignum& v) {
  for (int i = 0; i < detail::LaneModulus::kLimbs; ++i)
    x.limb[i][k] = Bignum::shr(v, 52 * i).limb(0) & kMask52;
}

Bignum get_lane(const detail::Lanes& x, int k) {
  Bignum v;
  for (int i = detail::LaneModulus::kLimbs - 1; i >= 0; --i)
    v = Bignum::add(Bignum::shl(v, 52), Bignum::from_u64(x.limb[i][k]));
  return v;
}

/// Lane k of `got` is a*b/2^520 mod m, below 2m, with every limb below
/// 2^52 (the kernels' output contract).
void check_lane(const detail::Lanes& got, int k, const Bignum& a, const Bignum& b,
                const Bignum& m, const Bignum& r_inv) {
  for (int i = 0; i < detail::LaneModulus::kLimbs; ++i)
    ASSERT_EQ(got.limb[i][k] >> 52, 0u) << "lane " << k << " limb " << i;
  const Bignum v = get_lane(got, k);
  ASSERT_LT(Bignum::cmp(v, Bignum::shl(m, 1)), 0) << v.to_hex();
  ASSERT_EQ(Bignum::mod(v, m), reference::mod_mul(reference::mod_mul(a, b, m), r_inv, m))
      << a.to_hex() << " * " << b.to_hex() << " mod " << m.to_hex();
}

/// Eight lanes at a time of operands below 2m — 0, 1, m-1, m, m+1,
/// 2m-1 and random ones on each side of m — through both kernels.
void check_ifma_modulus(const Bignum& m, std::mt19937_64& rng, int random_passes) {
  SCOPED_TRACE("modulus " + m.to_hex());
  const detail::LaneModulus lm = detail::lane_modulus(m);
  const Bignum one = Bignum::from_u64(1);
  const Bignum two_m = Bignum::shl(m, 1);
  const Bignum r_inv = reference::mod_inverse(Bignum::mod(Bignum::shl(one, 520), m), m);
  std::vector<Bignum> ops = {Bignum(), one, Bignum::sub(m, one), m, Bignum::add(m, one),
                             Bignum::sub(two_m, one)};
  for (int k = 0; k < 8 * random_passes; ++k)
    ops.push_back(Bignum::mod(random_below_bits(rng, 9), two_m));
  // Each operand meets the next eight (so every edge operand meets every
  // other) and a sample of the far ones.
  for (size_t shift = 0; shift < ops.size(); shift += shift < 8 ? 1 : 37) {
    for (size_t at = 0; at < ops.size(); at += 8) {
      detail::Lanes a, b;
      std::vector<Bignum> av, bv;
      for (int k = 0; k < 8; ++k) {
        av.push_back(ops[(at + k) % ops.size()]);
        bv.push_back(ops[(at + k + shift) % ops.size()]);
        set_lane(a, k, av.back());
        set_lane(b, k, bv.back());
      }
      const detail::Lanes prod = detail::mont_mul52x8_ifma(a, b, lm);
      const detail::Lanes sq = detail::mont_sqr52x8_ifma(a, lm);
      for (int k = 0; k < 8; ++k) {
        ASSERT_NO_FATAL_FAILURE(check_lane(prod, k, av[k], bv[k], m, r_inv));
        ASSERT_NO_FATAL_FAILURE(check_lane(sq, k, av[k], av[k], m, r_inv));
      }
    }
  }
}

TEST(MontFieldKernels, IfmaMulSqrMatchReferenceOnPaperPrime) {
  if (!detail::ifma_kernel_available()) GTEST_SKIP() << "CPU lacks avx512f/avx512ifma";
  std::mt19937_64 rng(0x1F3A);
  check_ifma_modulus(Bignum::from_hex(kQ512), rng, 40);
}

TEST(MontFieldKernels, IfmaMulSqrMatchReferenceOnGeneratedModuli) {
  if (!detail::ifma_kernel_available()) GTEST_SKIP() << "CPU lacks avx512f/avx512ifma";
  std::mt19937_64 rng(0x1F3B);
  for (int k = 0; k < 4; ++k) check_ifma_modulus(odd_modulus(rng, 8, /*top_bit=*/true), rng, 8);
  for (int k = 0; k < 2; ++k) check_ifma_modulus(odd_modulus(rng, 8, /*top_bit=*/false), rng, 8);
  std::vector<uint64_t> ones(8, ~uint64_t(0));
  check_ifma_modulus(Bignum::from_limbs_le(ones.data(), 8), rng, 8);
}

/// Lane k of `got` is `want` mod m, below 2m, with every limb below 2^52.
void check_lane_residue(const detail::Lanes& got, int k, const Bignum& want, const Bignum& m) {
  for (int i = 0; i < detail::LaneModulus::kLimbs; ++i)
    ASSERT_EQ(got.limb[i][k] >> 52, 0u) << "lane " << k << " limb " << i;
  const Bignum v = get_lane(got, k);
  ASSERT_LT(Bignum::cmp(v, Bignum::shl(m, 1)), 0) << v.to_hex();
  ASSERT_EQ(Bignum::mod(v, m), Bignum::mod(want, m)) << v.to_hex();
}

/// The lane add, sub and neg on operands in [0, 2m) — 0, 1, m-1, m,
/// m+1, 2m-1 and random ones — against MontField::add/sub/neg on the
/// operands reduced mod m.
void check_ifma_add_sub(const Bignum& m, std::mt19937_64& rng, int random_passes) {
  SCOPED_TRACE("modulus " + m.to_hex());
  const detail::LaneModulus lm = detail::lane_modulus(m);
  const MontField f(m);
  const Bignum one = Bignum::from_u64(1);
  const Bignum two_m = Bignum::shl(m, 1);
  std::vector<Bignum> ops = {Bignum(), one, Bignum::sub(m, one), m, Bignum::add(m, one),
                             Bignum::sub(two_m, one)};
  for (int k = 0; k < 8 * random_passes; ++k)
    ops.push_back(Bignum::mod(random_below_bits(rng, 9), two_m));
  for (size_t shift = 0; shift < ops.size(); shift += shift < 8 ? 1 : 37) {
    for (size_t at = 0; at < ops.size(); at += 8) {
      detail::Lanes a, b;
      std::vector<Bignum> av, bv;
      for (int k = 0; k < 8; ++k) {
        av.push_back(ops[(at + k) % ops.size()]);
        bv.push_back(ops[(at + k + shift) % ops.size()]);
        set_lane(a, k, av.back());
        set_lane(b, k, bv.back());
      }
      const detail::Lanes sum = detail::lane_add52x8_ifma(a, b, lm);
      const detail::Lanes diff = detail::lane_sub52x8_ifma(a, b, lm);
      const detail::Lanes neg = detail::lane_neg52x8_ifma(a, lm);
      for (int k = 0; k < 8; ++k) {
        const FieldElem x = Bignum::mod(av[k], m), y = Bignum::mod(bv[k], m);
        ASSERT_NO_FATAL_FAILURE(check_lane_residue(sum, k, Bignum(f.add(x, y)), m));
        ASSERT_NO_FATAL_FAILURE(check_lane_residue(diff, k, Bignum(f.sub(x, y)), m));
        ASSERT_NO_FATAL_FAILURE(check_lane_residue(neg, k, Bignum(f.neg(x)), m));
      }
    }
  }
}

TEST(MontFieldKernels, IfmaAddSubNegMatchMontField) {
  if (!detail::ifma_kernel_available()) GTEST_SKIP() << "CPU lacks avx512f/avx512ifma";
  std::mt19937_64 rng(0x1F3D);
  check_ifma_add_sub(Bignum::from_hex(kQ512), rng, 40);
  for (int k = 0; k < 3; ++k) check_ifma_add_sub(odd_modulus(rng, 8, /*top_bit=*/true), rng, 8);
  check_ifma_add_sub(odd_modulus(rng, 8, /*top_bit=*/false), rng, 8);
  std::vector<uint64_t> ones(8, ~uint64_t(0));
  check_ifma_add_sub(Bignum::from_limbs_le(ones.data(), 8), rng, 8);
}

/// LaneField's conversions: to_lanes then from_lanes is the identity on
/// canonical Montgomery values, zero_mask finds the zero lanes, and
/// broadcast/lane round-trip one lane's limbs.
TEST(MontFieldKernels, IfmaLaneFieldConversionsRoundTrip) {
  if (!detail::ifma_kernel_available()) GTEST_SKIP() << "CPU lacks avx512f/avx512ifma";
  std::mt19937_64 rng(0x1F3E);
  const Bignum m = Bignum::from_hex(kQ512);
  const MontField f(m);
  ASSERT_NE(f.lanes(), nullptr);
  const detail::LaneField& lf = *f.lanes();
  std::vector<FieldElem> xs = {FieldElem(), f.one(), Bignum::sub(m, Bignum::from_u64(1))};
  while (xs.size() < 8) xs.push_back(random_reduced(rng, f));
  for (size_t n = 1; n <= 8; ++n) {
    const detail::Lanes x = lf.to_lanes(std::span(xs).first(n));
    std::vector<FieldElem> back(n);
    lf.from_lanes(x, back);
    EXPECT_EQ(back, std::vector<FieldElem>(xs.begin(), xs.begin() + n));
    // Lane 0 holds zero, and so does every lane from n on.
    EXPECT_EQ(lf.zero_mask(x), (0xFFu & ~((1u << n) - 1)) | 1u) << n;
    // x - x is zero in every lane, whichever of 0 or p it lands on.
    EXPECT_EQ(lf.zero_mask(lf.sub(x, x)), 0xFFu);
    const detail::Lanes b = detail::LaneField::broadcast(detail::LaneField::lane(x, 1));
    std::vector<FieldElem> all(8);
    lf.from_lanes(b, all);
    EXPECT_EQ(all, std::vector<FieldElem>(8, n > 1 ? xs[1] : FieldElem())) << n;
  }
}

/// LaneField::pow on 1..8 bases against MontField::pow lane by lane.
void check_ifma_pow(const MontField& f, const std::vector<FieldElem>& bases, const Bignum& exp) {
  const detail::LaneField lf(f.modulus());
  for (size_t n = 1; n <= bases.size() && n <= 8; ++n) {
    std::vector<FieldElem> out(n);
    lf.pow(std::span(bases).first(n), exp, out);
    for (size_t k = 0; k < n; ++k)
      ASSERT_EQ(out[k], f.pow(bases[k], exp))
          << "lane " << k << " of " << n << ", base " << Bignum(bases[k]).to_hex() << " ^ "
          << exp.to_hex();
  }
}

TEST(MontFieldKernels, IfmaPowMatchesScalarPow) {
  if (!detail::ifma_kernel_available()) GTEST_SKIP() << "CPU lacks avx512f/avx512ifma";
  std::mt19937_64 rng(0x1F3C);
  const Bignum one = Bignum::from_u64(1);
  for (const Bignum& m : {Bignum::from_hex(kQ512), odd_modulus(rng, 8, /*top_bit=*/false)}) {
    SCOPED_TRACE("modulus " + m.to_hex());
    const MontField f(m);
    std::vector<FieldElem> bases = {FieldElem(), f.one(), FieldElem::from_u64(1),
                                    Bignum::sub(m, one)};
    while (bases.size() < 8) bases.push_back(random_reduced(rng, f));
    std::vector<Bignum> exps = {Bignum(), one, Bignum::from_u64(2), Bignum::from_u64(3),
                                Bignum::shr(Bignum::add(m, one), 2),
                                Bignum::sub(m, Bignum::from_u64(2))};
    for (int k = 0; k < 4; ++k) exps.push_back(Bignum::mod(random_below_bits(rng, 8), m));
    for (const Bignum& e : exps) ASSERT_NO_FATAL_FAILURE(check_ifma_pow(f, bases, e));
    // A base at every lane position of a full pass.
    std::rotate(bases.begin(), bases.begin() + 3, bases.end());
    ASSERT_NO_FATAL_FAILURE(check_ifma_pow(f, bases, exps[4]));
  }
}

TEST(MontField, PowBatchMatchesPowForEverySize) {
  // The paper prime runs 8-lane passes where the CPU has IFMA; the
  // 3-limb modulus always loops over pow.
  std::mt19937_64 rng(0x1F3D);
  const Bignum one = Bignum::from_u64(1);
  for (const Bignum& m : {Bignum::from_hex(kQ512), odd_modulus(rng, 3, /*top_bit=*/true)}) {
    SCOPED_TRACE("modulus " + m.to_hex());
    const MontField f(m);
    const Bignum exp = Bignum::shr(Bignum::add(m, one), 2);
    for (size_t n = 0; n <= 20; ++n) {
      std::vector<FieldElem> bases;
      for (size_t k = 0; k < n; ++k)
        bases.push_back(k % 5 == 0 ? FieldElem() : FieldElem(random_below(rng, m)));
      std::vector<FieldElem> out(n);
      f.pow_batch(bases, exp, out);
      for (size_t k = 0; k < n; ++k) ASSERT_EQ(out[k], f.pow(bases[k], exp)) << k << " of " << n;
    }
    std::vector<FieldElem> out(2);
    EXPECT_THROW(f.pow_batch(std::vector<FieldElem>(3), exp, out), MathError);
  }
}

TEST(MontFieldKernels, N0IsMinusInverseOfLowLimb) {
  std::mt19937_64 rng(17);
  for (int i = 0; i < 100; ++i) {
    const uint64_t p0 = rng() | 1;
    EXPECT_EQ(p0 * detail::mont_n0(p0), ~uint64_t(0)) << p0;  // p0 * n0 == -1
  }
}

// ------------------------------------------------------ windowed pow --

/// Square-and-multiply, one bit at a time: the reference pow.
FieldElem pow_bitwise(const MontField& f, const FieldElem& base, const Bignum& exp) {
  FieldElem result = f.one();
  for (int i = exp.bit_length() - 1; i >= 0; --i) {
    result = f.sqr(result);
    if (exp.bit(i)) result = f.mul(result, base);
  }
  return result;
}

TEST(MontField, WindowedPowMatchesBitAtATime) {
  std::mt19937_64 rng(1951);
  const Bignum q = Bignum::from_hex(kQ512);
  const Bignum one = Bignum::from_u64(1);
  std::vector<Bignum> exps = {Bignum(), one, Bignum::shr(Bignum::add(q, one), 2),
                              Bignum::shr(Bignum::sub(q, one), 1)};
  for (int k = 1; k <= 70; ++k) {
    exps.push_back(Bignum::shl(one, k));                  // 2^k
    exps.push_back(Bignum::sub(Bignum::shl(one, k), one));  // 2^k - 1
    // A random exponent of exactly k bits.
    exps.push_back(Bignum::add(Bignum::shl(one, k - 1),
                               Bignum::mod(random_below_bits(rng, 2), Bignum::shl(one, k - 1))));
  }
  std::mt19937_64 mrng(29);
  for (const Bignum& m : {q, odd_modulus(mrng, 3, true), Bignum::from_u64(23)}) {
    SCOPED_TRACE("modulus " + m.to_hex());
    const MontField f(m);
    const std::vector<FieldElem> bases = {FieldElem(), f.one(), f.to_mont(random_below(rng, m)),
                                          f.to_mont(random_below(rng, m))};
    for (const FieldElem& b : bases)
      for (const Bignum& e : exps)
        ASSERT_EQ(f.pow(b, e), pow_bitwise(f, b, e)) << "exp " << e.to_hex();
  }
}


// ------------------------------------------------ batched binary gcd --

const char* kR160 = "8000000000000800000000000000000000000001";       // pbc_a512 r
const char* kQ192 = "a8a00006952d5bd44d531e0f159f2117c2792ecb0de393eb";  // test curve q
const char* kR80 = "a8b318d0752b1825bc55";                              // test curve r

/// Inversion operands: 0, 1, 2, p-1, p-2, every power of two below p,
/// R mod p, and values whose top limb equals p's (p minus a random
/// amount below 2^63, with limbs below the top one saturated or not).
std::vector<Bignum> inverse_operands(const Bignum& m, std::mt19937_64& rng) {
  const Bignum one = Bignum::from_u64(1);
  std::vector<Bignum> out = {Bignum(), one};
  if (m.bit_length() > 2) out.push_back(Bignum::from_u64(2));
  out.push_back(Bignum::sub(m, one));
  if (Bignum::cmp(m, Bignum::from_u64(3)) > 0) out.push_back(Bignum::sub(m, Bignum::from_u64(2)));
  for (int k = 0; k < m.bit_length() - 1; ++k) out.push_back(Bignum::shl(one, k));
  out.push_back(Bignum::mod(Bignum::shl(one, 64 * m.limb_count()), m));
  const int n = m.limb_count();
  if (n > 1) {
    for (int k = 0; k < 4; ++k) {
      const Bignum d = Bignum::from_u64((rng() >> 1) + 1);
      if (Bignum::cmp(d, m) < 0) out.push_back(Bignum::sub(m, d));
    }
    // Top limb of p, every lower limb random or all ones, kept below p.
    std::vector<uint64_t> l(n);
    for (int i = 0; i < n - 1; ++i) l[i] = rng();
    l[n - 1] = m.limb(n - 1);
    for (const Bignum& v : {Bignum::from_limbs_le(l.data(), n),
                            Bignum::sub(Bignum::from_limbs_le(l.data(), n), one)})
      if (Bignum::cmp(v, m) < 0) out.push_back(v);
  }
  return out;
}

/// inv(a) on the Montgomery form of a against the reference inverse
/// (MathError when the reference says a is not a unit) and, for prime
/// moduli, against a^(p-2).
void check_inverse(const MontField& f, const Bignum& a, bool prime) {
  const Bignum& m = f.modulus();
  const FieldElem am = f.to_mont(a);
  Bignum want;
  try {
    want = reference::mod_inverse(a, m);
  } catch (const MathError&) {
    ASSERT_THROW(f.inv(am), MathError) << a.to_hex();
    return;
  }
  const FieldElem got = f.inv(am);
  ASSERT_EQ(Bignum(f.from_mont(got)), want) << a.to_hex();
  if (prime) {
    ASSERT_EQ(got, f.pow(am, Bignum::sub(m, Bignum::from_u64(2)))) << a.to_hex();
  }
}

void check_inverse_modulus(const Bignum& m, bool prime, int random_values,
                           std::mt19937_64& rng) {
  SCOPED_TRACE("modulus " + m.to_hex());
  const MontField f(m);
  for (const Bignum& a : inverse_operands(m, rng))
    ASSERT_NO_FATAL_FAILURE(check_inverse(f, a, prime));
  for (int i = 0; i < random_values; ++i)
    ASSERT_NO_FATAL_FAILURE(check_inverse(f, random_below(rng, m), prime));
}

/// The first probable prime at or above an odd n-limb start value.
Bignum next_prime(Bignum n) {
  while (!is_probable_prime(n)) n = Bignum::add(n, Bignum::from_u64(2));
  return n;
}

TEST(MontFieldInverse, MatchesReferenceForEveryLimbCount) {
  std::mt19937_64 rng(972);
  for (int n = 1; n <= FieldElem::kLimbs; ++n) {
    SCOPED_TRACE("limbs " + std::to_string(n));
    // Generated odd moduli, top bit set and clear: mostly composite,
    // so non-units show up among the operands.
    for (int k = 0; k < 3; ++k) {
      check_inverse_modulus(odd_modulus(rng, n, /*top_bit=*/true), false, 300, rng);
      check_inverse_modulus(odd_modulus(rng, n, /*top_bit=*/false), false, 300, rng);
    }
    // The all-ones modulus 2^(64n) - 1 (divisible by 3).
    std::vector<uint64_t> ones(n, ~uint64_t(0));
    check_inverse_modulus(Bignum::from_limbs_le(ones.data(), n), false, 300, rng);
    // Primes, top bit set and clear: the result must also be a^(p-2).
    check_inverse_modulus(next_prime(odd_modulus(rng, n, /*top_bit=*/true)), true, 300, rng);
    check_inverse_modulus(next_prime(odd_modulus(rng, n, /*top_bit=*/false)), true, 300, rng);
  }
  // Both curves' q and r.
  for (const char* hex : {kQ512, kR160, kQ192, kR80})
    check_inverse_modulus(Bignum::from_hex(hex), true, 1000, rng);
}

// The two moduli of the paper curve: 10^5 seeded values each.
TEST(MontFieldInverse, PaperQOnHundredThousandValues) {
  std::mt19937_64 rng(2020972);
  check_inverse_modulus(Bignum::from_hex(kQ512), true, 100000, rng);
}

TEST(MontFieldInverse, PaperROnHundredThousandValues) {
  std::mt19937_64 rng(160972);
  check_inverse_modulus(Bignum::from_hex(kR160), true, 100000, rng);
}

TEST(MontFieldInverse, ZeroAndNonUnitsThrow) {
  std::mt19937_64 rng(31);
  for (int n = 1; n <= FieldElem::kLimbs; ++n) {
    for (const Bignum& m : {odd_modulus(rng, n, true), odd_modulus(rng, n, false)}) {
      const MontField f(m);
      EXPECT_THROW(f.inv(FieldElem()), MathError) << m.to_hex();
    }
  }
  // A composite odd modulus m = s * t: every multiple of s below m is a
  // non-unit, including s itself and m - s.
  const Bignum s = next_prime(Bignum::from_hex("c5a1f3e2d4b6978a1"));
  const Bignum t = next_prime(Bignum::from_hex("e3d2c1b0a9f8e7d6c5b4a3928170f6e5d4c3b2a1"));
  const Bignum m = Bignum::mul(s, t);
  const MontField f(m);
  for (const Bignum& a : {s, t, Bignum::sub(m, s), Bignum::mul(s, Bignum::from_u64(12345))})
    EXPECT_THROW(f.inv(f.to_mont(a)), MathError) << a.to_hex();
  EXPECT_NO_THROW(f.inv(f.to_mont(Bignum::from_u64(2))));
  // 3 divides every all-ones modulus.
  for (int n = 1; n <= FieldElem::kLimbs; ++n) {
    std::vector<uint64_t> ones(n, ~uint64_t(0));
    const MontField g(Bignum::from_limbs_le(ones.data(), n));
    EXPECT_THROW(g.inv(g.to_mont(Bignum::from_u64(3))), MathError) << n;
  }
}


// ------------------------------------------------------------ legendre --

/// The Jacobi symbol (a | m), m odd, by the textbook algorithm on
/// Bignum: remove factors of two, then reciprocity and reduction.
int reference_jacobi(Bignum a, Bignum m) {
  a = Bignum::mod(a, m);
  int t = 1;
  while (!a.is_zero()) {
    while (!a.is_odd()) {
      a = Bignum::shr(a, 1);
      const uint64_t m8 = m.limb(0) & 7;
      if (m8 == 3 || m8 == 5) t = -t;
    }
    std::swap(a, m);
    if ((a.limb(0) & 3) == 3 && (m.limb(0) & 3) == 3) t = -t;
    a = Bignum::mod(a, m);
  }
  return m.is_one() ? t : 0;
}

/// legendre on the Montgomery and the plain form of a against the
/// reference symbol.
void check_legendre(const MontField& f, const Bignum& a) {
  const int want = reference_jacobi(a, f.modulus());
  ASSERT_EQ(f.legendre(f.to_mont(a)), want) << a.to_hex();
  ASSERT_EQ(f.legendre(FieldElem(a)), want) << a.to_hex();
}

void check_legendre_modulus(const Bignum& m, int random_values, std::mt19937_64& rng) {
  SCOPED_TRACE("modulus " + m.to_hex());
  const MontField f(m);
  for (const Bignum& a : inverse_operands(m, rng)) ASSERT_NO_FATAL_FAILURE(check_legendre(f, a));
  for (int i = 0; i < random_values; ++i)
    ASSERT_NO_FATAL_FAILURE(check_legendre(f, random_below(rng, m)));
}

TEST(MontFieldLegendre, MatchesReferenceJacobiForEveryLimbCount) {
  std::mt19937_64 rng(1993);
  for (int n = 1; n <= FieldElem::kLimbs; ++n) {
    SCOPED_TRACE("limbs " + std::to_string(n));
    // Composite odd moduli give symbols of 0 and Jacobi symbols that are
    // not residuosity; primes give the Legendre symbol.
    for (int k = 0; k < 2; ++k) {
      check_legendre_modulus(odd_modulus(rng, n, /*top_bit=*/true), 300, rng);
      check_legendre_modulus(odd_modulus(rng, n, /*top_bit=*/false), 300, rng);
    }
    std::vector<uint64_t> ones(n, ~uint64_t(0));
    check_legendre_modulus(Bignum::from_limbs_le(ones.data(), n), 300, rng);
    check_legendre_modulus(next_prime(odd_modulus(rng, n, /*top_bit=*/true)), 300, rng);
    check_legendre_modulus(next_prime(odd_modulus(rng, n, /*top_bit=*/false)), 300, rng);
  }
}

// Euler's criterion on both curves' q: a^((q-1)/2) is 1, q - 1 or 0.
// Squares and non-squares are built as such, then random values.
TEST(MontFieldLegendre, AgreesWithEulerOnBothCurves) {
  std::mt19937_64 rng(2020972);
  for (const char* hex : {kQ512, kQ192}) {
    const Bignum q = Bignum::from_hex(hex);
    SCOPED_TRACE("q " + q.to_hex());
    const MontField f(q);
    const Bignum one = Bignum::from_u64(1);
    const Bignum half = Bignum::shr(Bignum::sub(q, one), 1);
    const auto euler = [&](const FieldElem& am) {
      const FieldElem e = f.pow(am, half);
      if (e == f.one()) return 1;
      return e.is_zero() ? 0 : -1;
    };
    // q = 3 (mod 4) on both curves, so -1 is the non-square the
    // non-squares below are made from.
    ASSERT_EQ(q.limb(0) & 3, 3u);
    const FieldElem minus_one = f.neg(f.one());
    EXPECT_EQ(f.legendre(FieldElem()), 0);
    EXPECT_EQ(f.legendre(f.one()), 1);
    EXPECT_EQ(f.legendre(minus_one), -1);
    EXPECT_EQ(euler(minus_one), -1);
    for (int i = 0; i < 2000; ++i) {
      const FieldElem r = f.to_mont(random_below(rng, q));
      if (r.is_zero()) continue;
      const FieldElem square = f.sqr(r);
      const FieldElem non_square = f.mul(square, minus_one);
      ASSERT_EQ(f.legendre(square), 1) << Bignum(f.from_mont(square)).to_hex();
      ASSERT_EQ(f.legendre(non_square), -1) << Bignum(f.from_mont(non_square)).to_hex();
      const FieldElem any = f.to_mont(random_below(rng, q));
      ASSERT_EQ(f.legendre(any), euler(any)) << Bignum(f.from_mont(any)).to_hex();
    }
  }
}

}  // namespace
}  // namespace maabe::math
