#include "pairing/pairing.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "pairing/group.h"

namespace maabe::pairing {
namespace {

using math::Bignum;

class PairingTest : public ::testing::Test {
 protected:
  PairingTest() : grp(Group::test_small()) {}
  std::shared_ptr<const Group> grp;
  crypto::Drbg rng{std::string_view("pairing-test")};
};

TEST_F(PairingTest, NonDegenerate) {
  const GT egg = grp->gt_generator();
  EXPECT_FALSE(egg.is_one());
}

TEST_F(PairingTest, TargetGroupHasOrderR) {
  const GT egg = grp->gt_generator();
  EXPECT_TRUE(egg.pow(grp->zr_from_bignum(grp->order())).is_one());
}

TEST_F(PairingTest, BilinearInFirstArgument) {
  const G1& g = grp->g();
  for (int i = 0; i < 5; ++i) {
    const Zr a = grp->zr_random(rng);
    EXPECT_EQ(grp->pair(g.mul(a), g), grp->pair(g, g).pow(a));
  }
}

TEST_F(PairingTest, BilinearInSecondArgument) {
  const G1& g = grp->g();
  for (int i = 0; i < 5; ++i) {
    const Zr b = grp->zr_random(rng);
    EXPECT_EQ(grp->pair(g, g.mul(b)), grp->pair(g, g).pow(b));
  }
}

TEST_F(PairingTest, FullBilinearity) {
  // e(aP, bQ) = e(P, Q)^(ab) on random P, Q.
  for (int i = 0; i < 5; ++i) {
    const G1 p = grp->g1_random(rng);
    const G1 q = grp->g1_random(rng);
    const Zr a = grp->zr_random(rng), b = grp->zr_random(rng);
    EXPECT_EQ(grp->pair(p.mul(a), q.mul(b)), grp->pair(p, q).pow(a * b));
  }
}

TEST_F(PairingTest, Symmetric) {
  for (int i = 0; i < 5; ++i) {
    const G1 p = grp->g1_random(rng);
    const G1 q = grp->g1_random(rng);
    EXPECT_EQ(grp->pair(p, q), grp->pair(q, p));
  }
}

TEST_F(PairingTest, MultiplicativeInProducts) {
  // e(P1 + P2, Q) = e(P1, Q) * e(P2, Q).
  const G1 p1 = grp->g1_random(rng), p2 = grp->g1_random(rng), q = grp->g1_random(rng);
  EXPECT_EQ(grp->pair(p1 + p2, q), grp->pair(p1, q) * grp->pair(p2, q));
}

TEST_F(PairingTest, IdentityPairsToOne) {
  const G1 p = grp->g1_random(rng);
  EXPECT_TRUE(grp->pair(grp->g1_identity(), p).is_one());
  EXPECT_TRUE(grp->pair(p, grp->g1_identity()).is_one());
}

TEST_F(PairingTest, NegationInvertsPairing) {
  const G1 p = grp->g1_random(rng), q = grp->g1_random(rng);
  EXPECT_EQ(grp->pair(p.neg(), q), grp->pair(p, q).inverse());
}

TEST_F(PairingTest, GtInverseAndDiv) {
  const GT a = grp->gt_random(rng), b = grp->gt_random(rng);
  EXPECT_TRUE((a * a.inverse()).is_one());
  EXPECT_EQ(a / b * b, a);
}

TEST_F(PairingTest, GtPowArithmetic) {
  const GT a = grp->gt_generator();
  const Zr x = grp->zr_random(rng), y = grp->zr_random(rng);
  EXPECT_EQ(a.pow(x) * a.pow(y), a.pow(x + y));
  EXPECT_EQ(a.pow(x).pow(y), a.pow(x * y));
  EXPECT_TRUE(a.pow(grp->zr_zero()).is_one());
}

TEST_F(PairingTest, GtSerializationRoundTrip) {
  for (int i = 0; i < 5; ++i) {
    const GT a = grp->gt_random(rng);
    const Bytes b = a.to_bytes();
    EXPECT_EQ(b.size(), grp->gt_size());
    EXPECT_EQ(grp->gt_from_bytes(b), a);
  }
}

TEST_F(PairingTest, DecisionalStructure) {
  // e(g^a, g^b) == e(g, g)^(ab) but != e(g,g)^c for random c.
  const G1& g = grp->g();
  const Zr a = grp->zr_random(rng), b = grp->zr_random(rng);
  const Zr c = grp->zr_random(rng);
  const GT lhs = grp->pair(g.mul(a), g.mul(b));
  EXPECT_EQ(lhs, grp->gt_generator().pow(a * b));
  if (c != a * b) {
    EXPECT_NE(lhs, grp->gt_generator().pow(c));
  }
}

TEST(PairingFullSize, Pbc512Bilinearity) {
  // One full-size check: the paper's actual 512-bit parameters.
  auto grp = Group::pbc_a512();
  crypto::Drbg rng("pbc512");
  const Zr a = grp->zr_random(rng), b = grp->zr_random(rng);
  const G1& g = grp->g();
  EXPECT_EQ(grp->pair(g.mul(a), g.mul(b)), grp->gt_generator().pow(a * b));
  EXPECT_FALSE(grp->gt_generator().is_one());
  EXPECT_TRUE(grp->gt_generator().pow(grp->zr_from_bignum(grp->order())).is_one());
}

TEST(PairingGenerated, FreshParamsWork) {
  crypto::Drbg rng("gen-params");
  const TypeAParams params = TypeAParams::generate(48, 160, rng);
  auto grp = Group::create(params);
  const Zr a = grp->zr_random(rng), b = grp->zr_random(rng);
  const G1& g = grp->g();
  EXPECT_EQ(grp->pair(g.mul(a), g.mul(b)), grp->gt_generator().pow(a * b));
}

TEST(PairingParams, ValidateCatchesBadParams) {
  TypeAParams p = TypeAParams::test_small();
  p.h = Bignum::add(p.h, Bignum::from_u64(4));
  EXPECT_THROW(p.validate(), MathError);
  TypeAParams p2 = TypeAParams::test_small();
  p2.r = Bignum::add(p2.r, Bignum::from_u64(2));
  EXPECT_THROW(p2.validate(), MathError);
}

TEST(PairingParams, BaseFieldWiderThan512BitsThrows) {
  // The F_q element is fixed at 8 limbs; a 513-bit q is refused up front
  // (PairingCtx does not run validate(), so only the width check fires).
  TypeAParams p = TypeAParams::test_small();
  p.q = Bignum::add(Bignum::shl(Bignum::from_u64(1), 512), Bignum::from_u64(3));
  EXPECT_THROW(PairingCtx{p}, MathError);
  EXPECT_THROW(Group{p}, MathError);
}

}  // namespace
}  // namespace maabe::pairing
