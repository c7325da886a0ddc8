#include "baseline/waters.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "engine/engine.h"
#include "lsss/parser.h"

namespace maabe::baseline {
namespace {

using lsss::Attribute;
using lsss::LsssMatrix;
using lsss::parse_policy;
using pairing::Group;
using pairing::GT;

class WatersTest : public ::testing::Test {
 protected:
  WatersTest() : grp(Group::test_small()), rng("waters") {
    auto setup = waters_setup(*grp, rng);
    pk = setup.pk;
    msk = setup.msk;
  }

  WatersSecretKey keygen(std::initializer_list<Attribute> attrs) {
    return waters_keygen(*grp, pk, msk, std::set<Attribute>(attrs), rng);
  }

  std::shared_ptr<const Group> grp;
  crypto::Drbg rng;
  WatersPublicKey pk;
  WatersMasterKey msk;
};

TEST_F(WatersTest, EncryptDecryptRoundTrip) {
  const GT m = grp->gt_random(rng);
  const auto ct = waters_encrypt(
      *grp, pk, m, LsssMatrix::from_policy(parse_policy("Doctor@Org")), rng);
  EXPECT_EQ(waters_decrypt(*grp, ct, keygen({{"Doctor", "Org"}})), m);
}

TEST_F(WatersTest, PolicyEnforced) {
  const GT m = grp->gt_random(rng);
  const auto ct = waters_encrypt(
      *grp, pk, m,
      LsssMatrix::from_policy(parse_policy("Doctor@Org AND Senior@Org")), rng);
  EXPECT_THROW(waters_decrypt(*grp, ct, keygen({{"Doctor", "Org"}})), SchemeError);
  EXPECT_EQ(waters_decrypt(*grp, ct, keygen({{"Doctor", "Org"}, {"Senior", "Org"}})), m);
}

TEST_F(WatersTest, OrAndThresholdPolicies) {
  const GT m = grp->gt_random(rng);
  const auto or_ct = waters_encrypt(
      *grp, pk, m, LsssMatrix::from_policy(parse_policy("a@O OR b@O")), rng);
  EXPECT_EQ(waters_decrypt(*grp, or_ct, keygen({{"b", "O"}})), m);

  const auto th_ct = waters_encrypt(
      *grp, pk, m, LsssMatrix::from_policy(parse_policy("2of(a@O, b@O, c@O)")), rng);
  EXPECT_EQ(waters_decrypt(*grp, th_ct, keygen({{"a", "O"}, {"c", "O"}})), m);
  EXPECT_THROW(waters_decrypt(*grp, th_ct, keygen({{"c", "O"}})), SchemeError);
}

// The decrypt product merges its repeated first argument L: an AND of
// three rows (w_i = 1) runs one loop for the L class, one per distinct
// D_i, and one for e(C', K) — 5 loops for 7 pairings, same plaintext.
TEST_F(WatersTest, AndDecryptMergesTheRepeatedKeyArgument) {
  const GT m = grp->gt_random(rng);
  const auto ct = waters_encrypt(
      *grp, pk, m, LsssMatrix::from_policy(parse_policy("a@O AND b@O AND c@O")), rng);
  const WatersSecretKey sk = keygen({{"a", "O"}, {"b", "O"}, {"c", "O"}});
  engine::CryptoEngine& eng = engine::CryptoEngine::for_group(*grp);
  const engine::EngineStats before = eng.stats();
  EXPECT_EQ(waters_decrypt(*grp, ct, sk), m);
  const engine::EngineStats d = eng.stats() - before;
  EXPECT_EQ(d.pairings, 7u);
  EXPECT_EQ(d.miller_loops, 5u);
  EXPECT_EQ(d.final_exps, 1u);
}

TEST_F(WatersTest, KeysAreRandomized) {
  // Two keys for the same attribute set use independent t values.
  const auto k1 = keygen({{"Doctor", "Org"}});
  const auto k2 = keygen({{"Doctor", "Org"}});
  EXPECT_NE(k1.l, k2.l);
  EXPECT_NE(k1.k, k2.k);
  // Both decrypt.
  const GT m = grp->gt_random(rng);
  const auto ct = waters_encrypt(
      *grp, pk, m, LsssMatrix::from_policy(parse_policy("Doctor@Org")), rng);
  EXPECT_EQ(waters_decrypt(*grp, ct, k1), m);
  EXPECT_EQ(waters_decrypt(*grp, ct, k2), m);
}

TEST_F(WatersTest, KeyMixingFailsAcrossUsers) {
  // The t-randomization prevents combining components of two keys:
  // take K, L from user 1 and K_x from user 2.
  const auto k1 = keygen({{"a", "O"}});
  const auto k2 = keygen({{"b", "O"}});
  WatersSecretKey frankenstein;
  frankenstein.k = k1.k;
  frankenstein.l = k1.l;
  frankenstein.kx = k1.kx;
  frankenstein.kx.insert(k2.kx.begin(), k2.kx.end());

  const GT m = grp->gt_random(rng);
  const auto ct = waters_encrypt(
      *grp, pk, m, LsssMatrix::from_policy(parse_policy("a@O AND b@O")), rng);
  EXPECT_NE(waters_decrypt(*grp, ct, frankenstein), m);
}

TEST_F(WatersTest, SingleAuthorityLimitationDemonstrated) {
  // What the paper's introduction argues: with one authority, ALL
  // attributes hang off one master key — there is no way for a second
  // organization to issue keys without receiving msk (full trust). Two
  // independent waters_setup instances produce incompatible systems:
  // keys from system 2 cannot decrypt ciphertexts of system 1 even for
  // identical attribute strings.
  auto setup2 = waters_setup(*grp, rng);
  const GT m = grp->gt_random(rng);
  const auto ct = waters_encrypt(
      *grp, pk, m, LsssMatrix::from_policy(parse_policy("Doctor@Org")), rng);
  const auto foreign_key =
      waters_keygen(*grp, setup2.pk, setup2.msk, {{"Doctor", "Org"}}, rng);
  EXPECT_NE(waters_decrypt(*grp, ct, foreign_key), m);
}

TEST_F(WatersTest, EmptyPolicyRejected) {
  // An empty policy cannot even be constructed through the parser; the
  // scheme guard is exercised through a default matrix.
  const GT m = grp->gt_random(rng);
  EXPECT_THROW(waters_encrypt(*grp, pk, m, lsss::LsssMatrix(), rng), SchemeError);
}

TEST_F(WatersTest, CiphertextShape) {
  const auto ct = waters_encrypt(
      *grp, pk, grp->gt_random(rng),
      LsssMatrix::from_policy(parse_policy("a@O AND b@O AND c@O")), rng);
  EXPECT_EQ(ct.ci.size(), 3u);
  EXPECT_EQ(ct.di.size(), 3u);
}

}  // namespace
}  // namespace baseline
