#include "baseline/lewko.h"

#include <gtest/gtest.h>

#include "baseline/lewko_serial.h"
#include "common/errors.h"
#include "engine/engine.h"
#include "lsss/parser.h"

namespace maabe::baseline {
namespace {

using lsss::LsssMatrix;
using lsss::parse_policy;
using pairing::Group;
using pairing::GT;

class LewkoTest : public ::testing::Test {
 protected:
  LewkoTest() : grp(Group::test_small()), rng("lewko-test") {
    med = lewko_authority_setup(*grp, "Med", {"Doctor", "Nurse"}, rng);
    gov = lewko_authority_setup(*grp, "Gov", {"Auditor"}, rng);
    for (const auto& [aid, auth] : {std::pair{"Med", &med}, {"Gov", &gov}}) {
      (void)aid;
      for (const auto& [handle, secret] : auth->secrets) {
        const size_t at = handle.rfind('@');
        const auto pk = lewko_attribute_pk(*grp, *auth, handle.substr(0, at));
        pks.emplace(handle, pk);
      }
    }
  }

  std::shared_ptr<const Group> grp;
  crypto::Drbg rng;
  LewkoAuthorityKeys med, gov;
  std::map<std::string, LewkoAttributePublicKey> pks;
};

TEST_F(LewkoTest, EncryptDecryptSingleAttribute) {
  const GT m = grp->gt_random(rng);
  const auto ct = lewko_encrypt(*grp, m,
                                LsssMatrix::from_policy(parse_policy("Doctor@Med")),
                                pks, rng);
  LewkoUserKey key;
  lewko_keygen(*grp, med, "alice", {"Doctor"}, &key);
  EXPECT_EQ(lewko_decrypt(*grp, ct, key), m);
}

TEST_F(LewkoTest, CrossAuthorityAnd) {
  const GT m = grp->gt_random(rng);
  const auto ct = lewko_encrypt(
      *grp, m, LsssMatrix::from_policy(parse_policy("Doctor@Med AND Auditor@Gov")),
      pks, rng);
  LewkoUserKey key;
  lewko_keygen(*grp, med, "alice", {"Doctor"}, &key);
  EXPECT_THROW(lewko_decrypt(*grp, ct, key), SchemeError);
  lewko_keygen(*grp, gov, "alice", {"Auditor"}, &key);
  EXPECT_EQ(lewko_decrypt(*grp, ct, key), m);
}

// The 2l decrypt pairings merge on H(GID): an AND of two rows runs one
// loop for the H(GID) class and one per K_x — 3 loops for 4 pairings,
// same plaintext.
TEST_F(LewkoTest, AndDecryptMergesTheGidHash) {
  const GT m = grp->gt_random(rng);
  const auto ct = lewko_encrypt(
      *grp, m, LsssMatrix::from_policy(parse_policy("Doctor@Med AND Auditor@Gov")),
      pks, rng);
  LewkoUserKey key;
  lewko_keygen(*grp, med, "alice", {"Doctor"}, &key);
  lewko_keygen(*grp, gov, "alice", {"Auditor"}, &key);
  engine::CryptoEngine& eng = engine::CryptoEngine::for_group(*grp);
  const engine::EngineStats before = eng.stats();
  EXPECT_EQ(lewko_decrypt(*grp, ct, key), m);
  const engine::EngineStats d = eng.stats() - before;
  EXPECT_EQ(d.pairings, 4u);
  EXPECT_EQ(d.miller_loops, 3u);
  EXPECT_EQ(d.final_exps, 1u);
}

TEST_F(LewkoTest, OrPolicy) {
  const GT m = grp->gt_random(rng);
  const auto ct = lewko_encrypt(
      *grp, m, LsssMatrix::from_policy(parse_policy("Doctor@Med OR Auditor@Gov")),
      pks, rng);
  LewkoUserKey nurse_key;
  lewko_keygen(*grp, med, "carol", {"Nurse"}, &nurse_key);
  EXPECT_THROW(lewko_decrypt(*grp, ct, nurse_key), SchemeError);
  LewkoUserKey auditor_key;
  lewko_keygen(*grp, gov, "dave", {"Auditor"}, &auditor_key);
  EXPECT_EQ(lewko_decrypt(*grp, ct, auditor_key), m);
}

TEST_F(LewkoTest, CollusionMixedGidsFails) {
  // Alice has Doctor, Bob has Auditor. Pooling their key components
  // (different GIDs) must not decrypt — emulate by building a key map
  // with components minted for different GIDs.
  const GT m = grp->gt_random(rng);
  const auto ct = lewko_encrypt(
      *grp, m, LsssMatrix::from_policy(parse_policy("Doctor@Med AND Auditor@Gov")),
      pks, rng);
  LewkoUserKey alice, bob;
  lewko_keygen(*grp, med, "alice", {"Doctor"}, &alice);
  lewko_keygen(*grp, gov, "bob", {"Auditor"}, &bob);
  LewkoUserKey pooled;
  pooled.gid = "alice";
  pooled.k = alice.k;
  pooled.k.insert(bob.k.begin(), bob.k.end());
  EXPECT_NE(lewko_decrypt(*grp, ct, pooled), m);
  pooled.gid = "bob";
  EXPECT_NE(lewko_decrypt(*grp, ct, pooled), m);
}

TEST_F(LewkoTest, KeygenValidation) {
  LewkoUserKey key;
  lewko_keygen(*grp, med, "alice", {"Doctor"}, &key);
  EXPECT_THROW(lewko_keygen(*grp, med, "bob", {"Nurse"}, &key), SchemeError);
  EXPECT_THROW(lewko_keygen(*grp, med, "alice", {"NoSuchAttr"}, &key), SchemeError);
  EXPECT_THROW(lewko_attribute_pk(*grp, med, "NoSuchAttr"), SchemeError);
}

TEST_F(LewkoTest, EncryptRequiresAllAttributeKeys) {
  std::map<std::string, LewkoAttributePublicKey> partial = pks;
  partial.erase("Auditor@Gov");
  EXPECT_THROW(
      lewko_encrypt(*grp, grp->gt_random(rng),
                    LsssMatrix::from_policy(parse_policy("Auditor@Gov")), partial, rng),
      SchemeError);
}

TEST_F(LewkoTest, HashGidDeterministic) {
  EXPECT_EQ(lewko_hash_gid(*grp, "alice"), lewko_hash_gid(*grp, "alice"));
  EXPECT_NE(lewko_hash_gid(*grp, "alice"), lewko_hash_gid(*grp, "bob"));
}

TEST_F(LewkoTest, CiphertextShapeMatchesTableII) {
  // (l+1) GT elements and 2l G elements of group material.
  const auto ct = lewko_encrypt(
      *grp, grp->gt_random(rng),
      LsssMatrix::from_policy(parse_policy("Doctor@Med AND Nurse@Med AND Auditor@Gov")),
      pks, rng);
  EXPECT_EQ(ct.c1.size(), 3u);
  EXPECT_EQ(lewko_ciphertext_group_material_bytes(*grp, ct),
            4 * grp->gt_size() + 6 * grp->g1_size());
}

TEST_F(LewkoTest, SerializationRoundTrips) {
  const auto pk = pks.at("Doctor@Med");
  const auto pk2 = deserialize_lewko_attribute_pk(*grp, serialize(*grp, pk));
  EXPECT_EQ(pk2.attr.qualified(), "Doctor@Med");
  EXPECT_EQ(pk2.e_gg_alpha, pk.e_gg_alpha);
  EXPECT_EQ(pk2.g_y, pk.g_y);

  LewkoUserKey key;
  lewko_keygen(*grp, med, "alice", {"Doctor", "Nurse"}, &key);
  const auto key2 = deserialize_lewko_user_key(*grp, serialize(*grp, key));
  EXPECT_EQ(key2.gid, "alice");
  EXPECT_EQ(key2.k.size(), 2u);
  EXPECT_EQ(key2.k.at("Nurse@Med"), key.k.at("Nurse@Med"));

  const GT m = grp->gt_random(rng);
  const auto ct = lewko_encrypt(
      *grp, m, LsssMatrix::from_policy(parse_policy("Doctor@Med AND Nurse@Med")), pks,
      rng);
  const auto ct2 = deserialize_lewko_ciphertext(*grp, serialize(*grp, ct));
  EXPECT_EQ(lewko_decrypt(*grp, ct2, key), m);
}

TEST_F(LewkoTest, SerializationRejectsCorruption) {
  LewkoUserKey key;
  lewko_keygen(*grp, med, "alice", {"Doctor"}, &key);
  Bytes b = serialize(*grp, key);
  EXPECT_THROW(deserialize_lewko_ciphertext(*grp, b), WireError);
  b.pop_back();
  EXPECT_THROW(deserialize_lewko_user_key(*grp, b), WireError);
}

TEST_F(LewkoTest, RandomizedEncryption) {
  const GT m = grp->gt_random(rng);
  const LsssMatrix policy = LsssMatrix::from_policy(parse_policy("Doctor@Med"));
  const auto ct1 = lewko_encrypt(*grp, m, policy, pks, rng);
  const auto ct2 = lewko_encrypt(*grp, m, policy, pks, rng);
  EXPECT_NE(ct1.c0, ct2.c0);
}

TEST_F(LewkoTest, ThresholdPolicyWorks) {
  // Thresholds expand to OR-of-ANDs; attribute reuse is inherent, which
  // Lewko's scheme supports (fresh r_i per row).
  const auto all = lewko_authority_setup(*grp, "Uni", {"a", "b", "c"}, rng);
  std::map<std::string, LewkoAttributePublicKey> upks;
  for (const char* n : {"a", "b", "c"})
    upks.emplace(std::string(n) + "@Uni", lewko_attribute_pk(*grp, all, n));
  const GT m = grp->gt_random(rng);
  const auto ct = lewko_encrypt(
      *grp, m,
      LsssMatrix::from_policy(parse_policy("2of(a@Uni, b@Uni, c@Uni)"), true), upks,
      rng);
  LewkoUserKey key;
  lewko_keygen(*grp, all, "erin", {"a", "c"}, &key);
  EXPECT_EQ(lewko_decrypt(*grp, ct, key), m);
  LewkoUserKey weak;
  lewko_keygen(*grp, all, "frank", {"b"}, &weak);
  EXPECT_THROW(lewko_decrypt(*grp, ct, weak), SchemeError);
}

}  // namespace
}  // namespace maabe::baseline
