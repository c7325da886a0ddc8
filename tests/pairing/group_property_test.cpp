// Parameterized property sweeps over the public Group API: algebraic
// identities, serialization stability and hash determinism across many
// seeds.
#include <gtest/gtest.h>

#include "common/errors.h"
#include "pairing/group.h"
#include "support/bignum_ref.h"

namespace maabe::pairing {
namespace {

std::shared_ptr<const Group> shared_group() {
  static std::shared_ptr<const Group> grp = Group::test_small();
  return grp;
}

class GroupProperty : public ::testing::TestWithParam<int> {
 protected:
  GroupProperty()
      : grp(shared_group()),
        rng("group-prop-" + std::to_string(GetParam())) {}

  std::shared_ptr<const Group> grp;
  crypto::Drbg rng;
};

TEST_P(GroupProperty, ZrFieldIdentities) {
  const Zr a = grp->zr_random(rng), b = grp->zr_random(rng), c = grp->zr_random(rng);
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a - a, grp->zr_zero());
  EXPECT_EQ(a + a.neg(), grp->zr_zero());
  if (!a.is_zero()) {
    EXPECT_EQ(a * a.inverse(), grp->zr_one());
    EXPECT_EQ(a.inverse().inverse(), a);
  }
}

TEST_P(GroupProperty, ZrSerializationRoundTrip) {
  const Zr a = grp->zr_random(rng);
  const Bytes b = a.to_bytes();
  EXPECT_EQ(b.size(), grp->zr_size());
  EXPECT_EQ(grp->zr_from_bytes(b), a);
}

TEST_P(GroupProperty, G1ExponentLaws) {
  const G1 p = grp->g1_random(rng);
  const Zr a = grp->zr_random(rng), b = grp->zr_random(rng);
  // (p^a)^b = p^(ab); p^a * p^b = p^(a+b); p^0 = identity; p^(-a) = (p^a)^-1.
  EXPECT_EQ(p.mul(a).mul(b), p.mul(a * b));
  EXPECT_EQ(p.mul(a) + p.mul(b), p.mul(a + b));
  EXPECT_TRUE(p.mul(grp->zr_zero()).is_identity());
  EXPECT_EQ(p.mul(a.neg()), p.mul(a).neg());
}

TEST_P(GroupProperty, PairingRespectsAllStructure) {
  const Zr a = grp->zr_random(rng), b = grp->zr_random(rng);
  const G1 p = grp->g1_random(rng), q = grp->g1_random(rng);
  EXPECT_EQ(grp->pair(p.mul(a), q.mul(b)), grp->pair(p, q).pow(a * b));
  EXPECT_EQ(grp->pair(p + q, p), grp->pair(p, p) * grp->pair(q, p));
  EXPECT_EQ(grp->pair(p, q), grp->pair(q, p));
}

TEST_P(GroupProperty, GtGroupIdentities) {
  const GT x = grp->gt_random(rng), y = grp->gt_random(rng);
  const Zr a = grp->zr_random(rng);
  EXPECT_EQ(x * y, y * x);
  EXPECT_TRUE((x / x).is_one());
  EXPECT_EQ((x * y).inverse(), x.inverse() * y.inverse());
  EXPECT_EQ((x * y).pow(a), x.pow(a) * y.pow(a));
  EXPECT_EQ(grp->gt_from_bytes(x.to_bytes()), x);
}

TEST_P(GroupProperty, G1SerializationStable) {
  const G1 p = grp->g1_random(rng);
  // Serialize-deserialize-serialize is a fixed point.
  const Bytes b1 = p.to_bytes();
  const Bytes b2 = grp->g1_from_bytes(b1).to_bytes();
  EXPECT_EQ(b1, b2);
}

TEST_P(GroupProperty, HashesDeterministicAndSpread) {
  const std::string input = "seed-" + std::to_string(GetParam());
  EXPECT_EQ(grp->hash_to_zr(input), grp->hash_to_zr(input));
  EXPECT_NE(grp->hash_to_zr(input), grp->hash_to_zr(input + "x"));
  EXPECT_EQ(grp->hash_to_g1(input), grp->hash_to_g1(input));
  EXPECT_NE(grp->hash_to_g1(input), grp->hash_to_g1(input + "x"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupProperty, ::testing::Range(0, 12));

// Zr::mul / Zr::inverse run on the group's Montgomery field over r; on
// both curves they must equal reference::mod_mul / mod_inverse for the
// operands 1, 2, r-1 and 10^4 seeded values.
TEST(ZrArithmetic, MatchesBignumOnBothCurves) {
  for (const auto& grp : {Group::test_small(), Group::pbc_a512()}) {
    const math::Bignum& r = grp->order();
    SCOPED_TRACE("r = " + r.to_hex());
    EXPECT_EQ(grp->zr_field().modulus(), r);
    crypto::Drbg rng(std::string_view("zr-arithmetic"));
    std::vector<Zr> ops = {grp->zr_one(), grp->zr_from_u64(2), grp->zr_one().neg()};
    for (int i = 0; i < 10000; ++i) ops.push_back(grp->zr_random(rng));
    for (size_t i = 0; i < ops.size(); ++i) {
      const Zr& a = ops[i];
      const Zr& b = ops[(i * 7 + 1) % ops.size()];
      ASSERT_EQ((a * b).value(), math::reference::mod_mul(a.value(), b.value(), r))
          << a.value().to_hex() << " * " << b.value().to_hex();
      if (a.is_zero()) continue;
      ASSERT_EQ(a.inverse().value(), math::reference::mod_inverse(a.value(), r))
          << a.value().to_hex();
    }
    EXPECT_THROW(grp->zr_zero().inverse(), MathError);
  }
}

}  // namespace
}  // namespace maabe::pairing
