// Group's same-schedule batches: pair_batch (many second arguments
// against one line table) and g1_pow_batch (many bases, one scalar).
// On an AVX-512 IFMA host the paper curve runs them as 8-lane passes;
// every result must be byte-identical to the scalar call it replaces,
// including the lanes that leave a pass for the scalar path (identity
// inputs, k = 0, and the exceptional additions and doublings that only
// points outside the order-r subgroup meet).
#include <gtest/gtest.h>

#include "common/errors.h"
#include "pairing/group.h"

namespace maabe::pairing {
namespace {

/// The G1 element with affine coordinates (x, y) (Montgomery form),
/// through the decoder: Group hands out no constructor for raw points.
G1 point_of(const Group& grp, const AffinePoint& p) {
  const FpCtx& fq = grp.ctx().fq();
  Bytes enc = fq.to_bytes(p.x);
  enc.push_back(fq.from_mont(p.y).is_odd() ? 1 : 0);
  return grp.g1_from_bytes(enc);
}

/// A random on-curve point, generally outside the order-r subgroup.
AffinePoint random_curve_point(const Group& grp, crypto::Drbg& rng) {
  const CurveCtx& curve = grp.ctx().curve();
  for (;;) {
    const FieldElem x = grp.ctx().fq().random(rng);
    FieldElem y;
    if (curve.lift_x(x, &y)) return {x, y, false};
  }
}

/// On-curve points of small order: (0, 0) of order 2, and (q+1)/d
/// multiples of a random point for d = 3 and 4 where d divides q+1.
std::vector<G1> small_order_points(const Group& grp, crypto::Drbg& rng) {
  std::vector<G1> out = {point_of(grp, {FieldElem(), FieldElem(), false})};
  const math::Bignum q1 = math::Bignum::add(grp.params().q, math::Bignum::from_u64(1));
  for (uint64_t d : {3, 4}) {
    math::Bignum quot, rem;
    math::Bignum::divmod(q1, math::Bignum::from_u64(d), &quot, &rem);
    if (!rem.is_zero()) continue;
    for (int tries = 0; tries < 8; ++tries) {
      const AffinePoint p = grp.ctx().curve().mul(random_curve_point(grp, rng), quot);
      if (p.inf) continue;
      out.push_back(point_of(grp, p));
      break;
    }
  }
  return out;
}

void check_pair_batch(const Group& grp) {
  crypto::Drbg rng(std::string_view("pair-batch"));
  const G1 a = grp.g1_random(rng);
  const auto pre = grp.pair_precompute(a);
  const auto pre_identity = grp.pair_precompute(grp.g1_identity());
  for (size_t n = 0; n <= 20; ++n) {
    SCOPED_TRACE("batch of " + std::to_string(n));
    std::vector<G1> bs;
    for (size_t i = 0; i < n; ++i)
      bs.push_back(i % 5 == 3 ? grp.g1_identity() : grp.g1_random(rng));
    const std::vector<GT> got = grp.pair_batch(*pre, bs);
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i)
      EXPECT_EQ(got[i].to_bytes(), grp.pair(a, bs[i]).to_bytes()) << "item " << i;
    for (const GT& one : grp.pair_batch(*pre_identity, bs)) EXPECT_TRUE(one.is_one());
  }
}

TEST(PairBatch, MatchesPairOnTestCurve) { check_pair_batch(*Group::test_small()); }

TEST(PairBatch, MatchesPairOnPaperCurve) { check_pair_batch(*Group::pbc_a512()); }

void check_g1_pow_batch(const Group& grp) {
  crypto::Drbg rng(std::string_view("g1-pow-batch"));
  const std::vector<G1> odd = small_order_points(grp, rng);
  const G1 outside = point_of(grp, random_curve_point(grp, rng));
  const math::Bignum& r = grp.order();
  std::vector<Zr> scalars = {grp.zr_zero(), grp.zr_one(), grp.zr_from_u64(2),
                             grp.zr_from_u64(3), grp.zr_from_u64(5),
                             grp.zr_from_bignum(math::Bignum::sub(r, math::Bignum::from_u64(1)))};
  for (int k = 0; k < 3; ++k) scalars.push_back(grp.zr_random(rng));
  for (size_t n = 0; n <= 20; ++n) {
    // Subgroup points, with an identity, the small-order points and a
    // point outside the subgroup mixed in at varying lanes.
    std::vector<G1> bases;
    for (size_t i = 0; i < n; ++i) {
      if (i % 7 == 2) bases.push_back(grp.g1_identity());
      else if (i % 7 == 4) bases.push_back(odd[(i / 7) % odd.size()]);
      else if (i % 7 == 6) bases.push_back(outside);
      else bases.push_back(grp.g1_random(rng));
    }
    // Every scalar at a few sizes, one random scalar at the rest.
    const bool all = n <= 3 || n == 8 || n == 9 || n == 17;
    for (size_t s = all ? 0 : scalars.size() - 1; s < scalars.size(); ++s) {
      SCOPED_TRACE("batch of " + std::to_string(n) + ", scalar " + std::to_string(s));
      const std::vector<G1> got = grp.g1_pow_batch(bases, scalars[s]);
      ASSERT_EQ(got.size(), n);
      for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i].to_bytes(), bases[i].mul(scalars[s]).to_bytes()) << "item " << i;
    }
  }
}

TEST(G1PowBatch, MatchesMulOnTestCurve) { check_g1_pow_batch(*Group::test_small()); }

TEST(G1PowBatch, MatchesMulOnPaperCurve) { check_g1_pow_batch(*Group::pbc_a512()); }

TEST(G1PowBatch, SmallOrderPointsTakeEveryExceptionalRoute) {
  // Eight copies of each small-order point fill a whole pass, so each
  // exceptional lane leaves a vector pass rather than a scalar loop.
  const auto grp = Group::pbc_a512();
  crypto::Drbg rng(std::string_view("g1-pow-exceptional"));
  for (const G1& p : small_order_points(*grp, rng)) {
    const std::vector<G1> bases(8, p);
    for (uint64_t k = 1; k <= 13; ++k) {
      const Zr zk = grp->zr_from_u64(k);
      const std::vector<G1> got = grp->g1_pow_batch(bases, zk);
      for (const G1& g : got) EXPECT_EQ(g.to_bytes(), p.mul(zk).to_bytes()) << "k = " << k;
    }
  }
}

TEST(G1PowBatch, RejectsElementsOfAnotherGroup) {
  const auto a = Group::test_small();
  const auto b = Group::test_small();
  crypto::Drbg rng(std::string_view("g1-pow-groups"));
  const std::vector<G1> bases = {a->g1_random(rng), b->g1_random(rng)};
  EXPECT_THROW((void)a->g1_pow_batch(bases, a->zr_one()), MathError);
  EXPECT_THROW((void)a->pair_batch(*a->pair_precompute(bases[0]), bases), MathError);
}

}  // namespace
}  // namespace maabe::pairing
