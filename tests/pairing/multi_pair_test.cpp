// The multi-pairing kernel's algebra at the Group layer: Miller values
// (unreduced pairings), the shared final exponentiation, fixed-argument
// line tables. Every equality here is bit-for-bit — the kernel's whole
// correctness story is that exact arithmetic makes the homomorphism
// reduce(a * b) == reduce(a) * reduce(b) an identity of byte strings,
// not just of group elements.
#include <gtest/gtest.h>

#include "pairing/group.h"

namespace maabe::pairing {
namespace {

std::shared_ptr<const Group> shared_group() {
  static std::shared_ptr<const Group> grp = Group::test_small();
  return grp;
}

class MultiPairTest : public ::testing::Test {
 protected:
  MultiPairTest() : grp(shared_group()), rng(std::string_view("multi-pair")) {}

  std::shared_ptr<const Group> grp;
  crypto::Drbg rng;
};

TEST_F(MultiPairTest, MillerReduceMatchesPair) {
  for (int i = 0; i < 5; ++i) {
    const G1 a = grp->g1_random(rng), b = grp->g1_random(rng);
    EXPECT_EQ(grp->miller_reduce(grp->miller(a, b)).to_bytes(),
              grp->pair(a, b).to_bytes());
  }
}

TEST_F(MultiPairTest, FinalExponentiationIsAHomomorphism) {
  for (int i = 0; i < 5; ++i) {
    const MillerVal m1 = grp->miller(grp->g1_random(rng), grp->g1_random(rng));
    const MillerVal m2 = grp->miller(grp->g1_random(rng), grp->g1_random(rng));
    EXPECT_EQ(grp->miller_reduce(m1 * m2).to_bytes(),
              (grp->miller_reduce(m1) * grp->miller_reduce(m2)).to_bytes());
  }
}

TEST_F(MultiPairTest, SharedReductionMatchesSerialProduct) {
  for (const size_t n : {0u, 1u, 2u, 17u}) {
    MillerVal folded = grp->miller_one();
    GT serial = grp->gt_one();
    for (size_t i = 0; i < n; ++i) {
      const G1 a = grp->g1_random(rng), b = grp->g1_random(rng);
      folded = folded * grp->miller(a, b);
      serial = serial * grp->pair(a, b);
    }
    EXPECT_EQ(grp->miller_reduce(folded).to_bytes(), serial.to_bytes())
        << "product size " << n;
  }
}

TEST_F(MultiPairTest, MillerValuePowCommutesWithReduction) {
  for (int i = 0; i < 5; ++i) {
    const MillerVal m = grp->miller(grp->g1_random(rng), grp->g1_random(rng));
    const Zr k = grp->zr_random(rng);
    EXPECT_EQ(grp->miller_reduce(m.pow(k)).to_bytes(),
              grp->miller_reduce(m).pow(k).to_bytes());
  }
}

TEST_F(MultiPairTest, NegatedArgumentInvertsThePairing) {
  const G1 a = grp->g1_random(rng), b = grp->g1_random(rng);
  EXPECT_EQ(grp->pair(a, b.neg()).to_bytes(),
            grp->pair(a, b).inverse().to_bytes());
  // The fold identity decrypt relies on: m(a,b) * m(a,-b) reduces to 1.
  EXPECT_EQ(grp->miller_reduce(grp->miller(a, b) * grp->miller(a, b.neg())),
            grp->gt_one());
}

TEST_F(MultiPairTest, IdentityInputsYieldNeutralMillerValues) {
  const G1 a = grp->g1_random(rng);
  const G1 inf = grp->g1_identity();
  EXPECT_TRUE(grp->miller(inf, a).is_one());
  EXPECT_TRUE(grp->miller(a, inf).is_one());
  EXPECT_TRUE(grp->miller_one().is_one());
  // An identity term folded into a product leaves it unchanged.
  const MillerVal m = grp->miller(a, grp->g1_random(rng));
  EXPECT_EQ((m * grp->miller(inf, a)).to_bytes(), m.to_bytes());
  // Reducing the neutral value still gives GT's one.
  EXPECT_EQ(grp->miller_reduce(grp->miller_one()), grp->gt_one());
}

TEST_F(MultiPairTest, MergedSecondArgumentsMatchSeparatePairings) {
  // e(a, b1) * e(a, b2) == e(a, b1 + b2): the identity the engine's term
  // merging runs on, bit for bit after the shared reduction.
  const G1 a = grp->g1_random(rng), b1 = grp->g1_random(rng), b2 = grp->g1_random(rng);
  EXPECT_EQ(grp->miller_reduce(grp->miller(a, b1 + b2)).to_bytes(),
            grp->miller_reduce(grp->miller(a, b1) * grp->miller(a, b2)).to_bytes());
}

TEST_F(MultiPairTest, G1SumsMatchAdditionFolds) {
  const G1 b = grp->g1_random(rng);
  std::vector<std::vector<G1>> sets = {
      {grp->g1_random(rng), grp->g1_random(rng), grp->g1_random(rng)},
      {b, b},                              // doubling
      {b, b.neg()},                        // cancels
      {},                                  // empty
      {grp->g1_identity(), grp->g1_random(rng)},
      {grp->g1_random(rng)},
  };
  const std::vector<G1> sums = grp->g1_sums(sets);
  ASSERT_EQ(sums.size(), sets.size());
  for (size_t k = 0; k < sets.size(); ++k) {
    G1 fold = grp->g1_identity();
    for (const G1& p : sets[k]) fold = fold + p;
    EXPECT_EQ(sums[k].to_bytes(), fold.to_bytes()) << "set " << k;
  }
  EXPECT_TRUE(sums[2].is_identity());
  EXPECT_TRUE(sums[3].is_identity());
}

TEST_F(MultiPairTest, G1CombinationsMatchScalarMultiplyFolds) {
  // sum_runs k * (sum of the run's points) against G1::mul and add: the
  // multiply's doubling and addition steps, negative k, and runs that
  // meet (jac_add's doubling branch), cancel or are empty.
  const G1 b = grp->g1_random(rng), c = grp->g1_random(rng);
  const uint64_t top = ~uint64_t{0};
  const std::vector<std::vector<G1Run>> combos = {
      {{{2, false}, {b, c}}, {{1, true}, {grp->g1_random(rng)}}},
      {{{3, true}, {b}}, {{top, false}, {c}}, {{top, true}, {b}}},
      {{{2, false}, {b}}, {{1, false}, {b + b}}},   // 2b + 2b doubles
      {{{2, false}, {b}}, {{1, true}, {b + b}}},    // 2b - 2b cancels
      {{{5, false}, {}}, {{1, false}, {grp->g1_identity(), c}}},
      {},
  };
  const std::vector<G1> got = grp->g1_combinations(combos);
  ASSERT_EQ(got.size(), combos.size());
  for (size_t i = 0; i < combos.size(); ++i) {
    G1 fold = grp->g1_identity();
    for (const G1Run& run : combos[i]) {
      G1 sum = grp->g1_identity();
      for (const G1& p : run.pts) sum = sum + p;
      Zr k = grp->zr_from_u64(run.k.mag);
      if (run.k.neg) k = k.neg();
      fold = fold + sum.mul(k);
    }
    EXPECT_EQ(got[i].to_bytes(), fold.to_bytes()) << "combination " << i;
  }
  EXPECT_EQ(got[2].to_bytes(), b.mul(grp->zr_from_u64(4)).to_bytes());
  EXPECT_TRUE(got[3].is_identity());
  EXPECT_TRUE(got[5].is_identity());
}

TEST_F(MultiPairTest, PrecomputedLineTableMatchesPair) {
  for (int i = 0; i < 3; ++i) {
    const G1 base = grp->g1_random(rng);
    const auto pre = grp->pair_precompute(base);
    ASSERT_FALSE(pre->base_is_infinity());
    EXPECT_GT(pre->line_count(), 0u);
    for (int j = 0; j < 3; ++j) {
      const G1 q = grp->g1_random(rng);
      // Same bits at both layers: unreduced and reduced.
      EXPECT_EQ(grp->miller_with(*pre, q).to_bytes(),
                grp->miller(base, q).to_bytes());
      EXPECT_EQ(grp->miller_reduce(grp->miller_with(*pre, q)).to_bytes(),
                grp->pair(base, q).to_bytes());
    }
  }
}

TEST_F(MultiPairTest, PrecomputeHandlesIdentityBase) {
  const auto pre = grp->pair_precompute(grp->g1_identity());
  EXPECT_TRUE(pre->base_is_infinity());
  EXPECT_TRUE(grp->miller_with(*pre, grp->g1_random(rng)).is_one());
}

}  // namespace
}  // namespace maabe::pairing
