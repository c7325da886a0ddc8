#include "pairing/fixed_base.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "pairing/group.h"

namespace maabe::pairing {
namespace {

using math::Bignum;

class FixedBaseTest : public ::testing::Test {
 protected:
  FixedBaseTest() : grp(Group::test_small()) {}
  std::shared_ptr<const Group> grp;
  crypto::Drbg rng{std::string_view("fixed-base")};
};

TEST_F(FixedBaseTest, GPowMatchesNaiveScalarMul) {
  for (int i = 0; i < 20; ++i) {
    const Zr k = grp->zr_random(rng);
    EXPECT_EQ(grp->g_pow(k), grp->g().mul(k));
  }
}

TEST_F(FixedBaseTest, EggPowMatchesNaivePow) {
  for (int i = 0; i < 20; ++i) {
    const Zr k = grp->zr_random(rng);
    EXPECT_EQ(grp->egg_pow(k), grp->gt_generator().pow(k));
  }
}

TEST_F(FixedBaseTest, EdgeExponents) {
  EXPECT_TRUE(grp->g_pow(grp->zr_zero()).is_identity());
  EXPECT_EQ(grp->g_pow(grp->zr_one()), grp->g());
  EXPECT_TRUE(grp->egg_pow(grp->zr_zero()).is_one());
  EXPECT_EQ(grp->egg_pow(grp->zr_one()), grp->gt_generator());
  // r - 1 (the largest reduced exponent).
  const Zr top = grp->zr_from_bignum(
      Bignum::sub(grp->order(), Bignum::from_u64(1)));
  EXPECT_EQ(grp->g_pow(top), grp->g().mul(top));
  EXPECT_EQ(grp->egg_pow(top), grp->gt_generator().pow(top));
}

TEST_F(FixedBaseTest, HomomorphicInExponent) {
  const Zr a = grp->zr_random(rng), b = grp->zr_random(rng);
  EXPECT_EQ(grp->g_pow(a) + grp->g_pow(b), grp->g_pow(a + b));
  EXPECT_EQ(grp->egg_pow(a) * grp->egg_pow(b), grp->egg_pow(a + b));
}

TEST_F(FixedBaseTest, CrossGroupExponentRejected) {
  auto other = Group::test_small();
  crypto::Drbg rng2(std::string_view("o"));
  const Zr foreign = other->zr_random(rng2);
  EXPECT_THROW((void)grp->g_pow(foreign), MathError);
  EXPECT_THROW((void)grp->egg_pow(foreign), MathError);
}

TEST_F(FixedBaseTest, RawTableClassesValidateInputs) {
  const CurveCtx& curve = grp->ctx().curve();
  EXPECT_THROW(G1FixedBase(curve, AffinePoint::infinity(), 80), MathError);
  const Fp2Ctx& fq2 = grp->ctx().fq2();
  EXPECT_THROW(GtFixedBase(fq2, fq2.zero(), 80), MathError);
}

TEST_F(FixedBaseTest, VariousWindowSizesAgree) {
  // Exercise the raw table classes at several window widths against the
  // naive square-and-multiply, over a raw curve point and a raw Fp2
  // element (no Group wrappers needed).
  const CurveCtx& curve = grp->ctx().curve();
  const FpCtx& fq = grp->ctx().fq();
  const Fp2Ctx& fq2 = grp->ctx().fq2();
  crypto::Drbg local(std::string_view("windows"));

  // Find a curve point by lifting random x values.
  AffinePoint pt = AffinePoint::infinity();
  for (int i = 0; i < 100 && pt.inf; ++i) {
    const FieldElem x = fq.random(local);
    FieldElem y;
    if (curve.lift_x(x, &y)) pt = {x, y, false};
  }
  ASSERT_FALSE(pt.inf);

  const Bignum k = local.below(grp->order());
  const AffinePoint expect_pt = curve.mul(pt, k);
  const Fp2 base2 = fq2.random(local);
  const Fp2 expect2 = fq2.pow(base2, k);

  for (int w : {1, 2, 3, 5, 8}) {
    const G1FixedBase t1(curve, pt, grp->order().bit_length(), w);
    EXPECT_TRUE(curve.eq(curve.to_affine(t1.pow_jac(k)), expect_pt)) << "window " << w;
    const GtFixedBase t2(fq2, base2, grp->order().bit_length(), w);
    EXPECT_EQ(t2.pow(k), expect2) << "window " << w;
  }
}

TEST_F(FixedBaseTest, ExponentBeyondTableRangeRejected) {
  const CurveCtx& curve = grp->ctx().curve();
  const FpCtx& fq = grp->ctx().fq();
  AffinePoint pt = AffinePoint::infinity();
  crypto::Drbg local(std::string_view("range"));
  for (int i = 0; i < 100 && pt.inf; ++i) {
    const FieldElem x = fq.random(local);
    FieldElem y;
    if (curve.lift_x(x, &y)) pt = {x, y, false};
  }
  ASSERT_FALSE(pt.inf);
  const G1FixedBase table(curve, pt, 16);
  EXPECT_THROW((void)table.pow_jac(Bignum::shl(Bignum::from_u64(1), 20)), MathError);
}

TEST_F(FixedBaseTest, SubgroupMembershipChecks) {
  // The generator and its powers are in the subgroup.
  EXPECT_TRUE(grp->g().in_subgroup());
  EXPECT_TRUE(grp->g_pow(grp->zr_random(rng)).in_subgroup());
  EXPECT_TRUE(grp->g1_identity().in_subgroup());
  EXPECT_TRUE(grp->gt_generator().in_subgroup());
  EXPECT_TRUE(grp->gt_one().in_subgroup());
  EXPECT_TRUE(grp->egg_pow(grp->zr_random(rng)).in_subgroup());

  // A random on-curve point is (with overwhelming probability for our
  // cofactor) NOT in the order-r subgroup; reconstruct one via the
  // hash-to-curve x-lift without cofactor clearing.
  const FpCtx& fq = grp->ctx().fq();
  const CurveCtx& curve = grp->ctx().curve();
  crypto::Drbg local(std::string_view("coset"));
  bool saw_outside = false;
  for (int i = 0; i < 20 && !saw_outside; ++i) {
    const FieldElem x = fq.random(local);
    FieldElem y;
    if (!curve.lift_x(x, &y)) continue;
    // Wrap through the byte decoder (which does NOT cofactor-clear).
    Bytes enc = fq.to_bytes(x);
    enc.push_back(static_cast<uint8_t>(fq.dec(y).is_odd() ? 1 : 0));
    const G1 raw = grp->g1_from_bytes(enc);
    if (!raw.in_subgroup()) saw_outside = true;
  }
  EXPECT_TRUE(saw_outside) << "every random point landed in the subgroup?";
}

}  // namespace
}  // namespace maabe::pairing
