#include "abe/scheme.h"

#include <gtest/gtest.h>

#include "abe/serial.h"
#include "common/errors.h"
#include "engine/engine.h"
#include "lsss/parser.h"

namespace maabe::abe {
namespace {

using lsss::LsssMatrix;
using lsss::parse_policy;
using pairing::G1;
using pairing::Group;
using pairing::GT;
using pairing::Zr;

// A miniature multi-authority world: one owner, three authorities
// ("Med", "Trial", "Gov") each managing a few attributes, two users.
class SchemeTest : public ::testing::Test {
 protected:
  SchemeTest() : grp(Group::test_small()), rng("scheme-test") {
    owner_mk = owner_gen(*grp, "owner-1", rng);
    owner_sk = owner_share(*grp, owner_mk);

    for (const std::string aid : {"Med", "Trial", "Gov"}) {
      vks.emplace(aid, aa_setup(*grp, aid, rng));
      apks.emplace(aid, aa_public_key(*grp, vks.at(aid)));
    }
    for (const std::string name : {"Doctor", "Nurse", "Admin"}) add_attr("Med", name);
    for (const std::string name : {"Researcher", "Reviewer"}) add_attr("Trial", name);
    for (const std::string name : {"Auditor"}) add_attr("Gov", name);

    alice = ca_register_user(*grp, "alice", rng);
    bob = ca_register_user(*grp, "bob", rng);

    // Alice: Doctor@Med + Researcher@Trial. Bob: Nurse@Med + Auditor@Gov.
    alice_keys.emplace("Med", aa_keygen(*grp, vks.at("Med"), owner_sk, alice, {"Doctor"}));
    alice_keys.emplace("Trial",
                       aa_keygen(*grp, vks.at("Trial"), owner_sk, alice, {"Researcher"}));
    bob_keys.emplace("Med", aa_keygen(*grp, vks.at("Med"), owner_sk, bob, {"Nurse"}));
    bob_keys.emplace("Gov", aa_keygen(*grp, vks.at("Gov"), owner_sk, bob, {"Auditor"}));
  }

  void add_attr(const std::string& aid, const std::string& name) {
    const PublicAttributeKey pk = aa_attribute_key(*grp, vks.at(aid), name);
    attr_pks.emplace(pk.attr.qualified(), pk);
  }

  EncryptionResult enc(const std::string& policy_text, const GT& m,
                       const std::string& id = "ct-1") {
    const LsssMatrix policy = LsssMatrix::from_policy(parse_policy(policy_text));
    return encrypt(*grp, owner_mk, id, m, policy, apks, attr_pks, rng);
  }

  // A threshold policy's rows carry distinct w_i; the product must still
  // equal the serial per-pairing fold of the paper's formula, byte for
  // byte. Alice's Doctor@Med and Researcher@Trial decrypt `policy`;
  // `loops` is what the kernel's fold rule leaves of its 6 pairings.
  void expect_threshold_decrypt_matches_fold(const std::string& policy, uint64_t loops) {
    const GT m = grp->gt_random(rng);
    const auto [ct, rec] = enc(policy, m);
    std::set<lsss::Attribute> have;
    for (const auto& [aid, sk] : alice_keys)
      for (const lsss::Attribute& a : sk.attributes()) have.insert(a);
    const auto coeffs = ct.policy.reconstruction(*grp, have);
    ASSERT_TRUE(coeffs.has_value());
    ASSERT_EQ(coeffs->size(), 2u);
    ASSERT_NE((*coeffs)[0].w, (*coeffs)[1].w);

    const Zr n_a = grp->zr_from_u64(ct.involved_authorities().size());
    GT expected = ct.c;
    for (const auto& [row, w] : *coeffs) {
      const lsss::Attribute& attr = ct.policy.row_attribute(row);
      const G1& kx = alice_keys.at(attr.aid).kx.at(attr.qualified());
      expected = expected * (grp->pair(alice.pk, ct.ci[row]) * grp->pair(ct.c_prime, kx))
                                .pow(w * n_a);
    }
    for (const std::string& aid : ct.involved_authorities())
      expected = expected / grp->pair(ct.c_prime, alice_keys.at(aid).k);
    ASSERT_EQ(expected, m);

    engine::CryptoEngine& eng = engine::CryptoEngine::for_group(*grp);
    const engine::EngineStats before = eng.stats();
    EXPECT_EQ(decrypt(*grp, ct, alice, alice_keys).to_bytes(), expected.to_bytes());
    const engine::EngineStats d = eng.stats() - before;
    EXPECT_EQ(d.pairings, 6u);
    EXPECT_EQ(d.miller_loops, loops);
    EXPECT_EQ(d.final_exps, 1u);
  }

  std::shared_ptr<const Group> grp;
  crypto::Drbg rng;
  OwnerMasterKey owner_mk;
  OwnerSecretShare owner_sk;
  std::map<std::string, AuthorityVersionKey> vks;
  std::map<std::string, AuthorityPublicKey> apks;
  std::map<std::string, PublicAttributeKey> attr_pks;
  UserPublicKey alice, bob;
  std::map<std::string, UserSecretKey> alice_keys, bob_keys;
};

TEST_F(SchemeTest, EncryptDecryptSingleAuthority) {
  const GT m = grp->gt_random(rng);
  const auto [ct, rec] = enc("Doctor@Med", m);
  EXPECT_EQ(decrypt(*grp, ct, alice, alice_keys), m);
}

TEST_F(SchemeTest, EncryptDecryptAcrossAuthorities) {
  const GT m = grp->gt_random(rng);
  const auto [ct, rec] = enc("Doctor@Med AND Researcher@Trial", m);
  EXPECT_EQ(ct.involved_authorities(), (std::set<std::string>{"Med", "Trial"}));
  EXPECT_EQ(decrypt(*grp, ct, alice, alice_keys), m);
  // The plan form: the same coefficients decrypt to the same message.
  const auto plan = decryption_plan(*grp, ct, alice_keys);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->coeffs.size(), 2u);
  EXPECT_EQ(decrypt(*grp, ct, alice, *plan), m);
}

TEST_F(SchemeTest, DecryptFailsWhenPolicyUnsatisfied) {
  const GT m = grp->gt_random(rng);
  const auto [ct, rec] = enc("Doctor@Med AND Auditor@Gov", m);
  // Bob has Auditor@Gov but is a Nurse, not a Doctor.
  EXPECT_FALSE(can_decrypt(*grp, ct, bob_keys));
  EXPECT_FALSE(decryption_plan(*grp, ct, bob_keys).has_value());
  EXPECT_THROW(decrypt(*grp, ct, bob, bob_keys), SchemeError);
}

TEST_F(SchemeTest, DecryptFailsWithoutInvolvedAuthorityKey) {
  const GT m = grp->gt_random(rng);
  // Policy satisfiable by Alice's attributes alone (OR), but it also
  // involves Gov, from which Alice has no key at all.
  const auto [ct, rec] = enc("Doctor@Med OR Auditor@Gov", m);
  EXPECT_FALSE(can_decrypt(*grp, ct, alice_keys));
  EXPECT_FALSE(decryption_plan(*grp, ct, alice_keys).has_value());
  EXPECT_THROW(decrypt(*grp, ct, alice, alice_keys), SchemeError);
}

TEST_F(SchemeTest, OrPolicyEitherBranchDecrypts) {
  const GT m = grp->gt_random(rng);
  {
    const auto [ct, rec] = enc("Doctor@Med OR Nurse@Med", m);
    EXPECT_EQ(decrypt(*grp, ct, alice, alice_keys), m);
    std::map<std::string, UserSecretKey> bob_med{{"Med", bob_keys.at("Med")}};
    EXPECT_EQ(decrypt(*grp, ct, bob, bob_med), m);
  }
}

TEST_F(SchemeTest, ComplexNestedPolicy) {
  const GT m = grp->gt_random(rng);
  const auto [ct, rec] =
      enc("(Doctor@Med AND Researcher@Trial) OR (Nurse@Med AND Auditor@Gov)", m);
  // Decryption requires K_{UID,AID} from *every* involved authority
  // (the paper's numerator ranges over all of I_A), so users holding
  // only one branch's attributes still need empty-attribute keys from
  // the other branch's authorities.
  auto alice_full = alice_keys;
  alice_full.emplace("Gov", aa_keygen(*grp, vks.at("Gov"), owner_sk, alice, {}));
  auto bob_full = bob_keys;
  bob_full.emplace("Trial", aa_keygen(*grp, vks.at("Trial"), owner_sk, bob, {}));
  EXPECT_EQ(decrypt(*grp, ct, alice, alice_full), m);
  EXPECT_EQ(decrypt(*grp, ct, bob, bob_full), m);
  // A user with only partial attributes from each branch fails.
  auto carol = ca_register_user(*grp, "carol", rng);
  std::map<std::string, UserSecretKey> carol_keys;
  carol_keys.emplace("Med", aa_keygen(*grp, vks.at("Med"), owner_sk, carol, {"Doctor"}));
  carol_keys.emplace("Gov", aa_keygen(*grp, vks.at("Gov"), owner_sk, carol, {"Auditor"}));
  carol_keys.emplace("Trial", aa_keygen(*grp, vks.at("Trial"), owner_sk, carol, {"Reviewer"}));
  EXPECT_THROW(decrypt(*grp, ct, carol, carol_keys), SchemeError);
}

TEST_F(SchemeTest, CollusionMixedKeysYieldGarbage) {
  // The paper's central claim (Theorem 1): users with different UIDs
  // cannot pool keys. Alice contributes Doctor@Med, Bob contributes
  // Auditor@Gov; together the attributes satisfy the policy, but the
  // UID binding makes the combined decryption come out wrong.
  const GT m = grp->gt_random(rng);
  const auto [ct, rec] = enc("Doctor@Med AND Auditor@Gov", m);

  std::map<std::string, UserSecretKey> pooled;
  pooled.emplace("Med", alice_keys.at("Med"));
  pooled.emplace("Gov", bob_keys.at("Gov"));

  // Mechanically the algorithm runs (attributes satisfy the policy) but
  // the output must NOT be the message, under either user's public key.
  const GT out_alice = decrypt(*grp, ct, alice, pooled);
  const GT out_bob = decrypt(*grp, ct, bob, pooled);
  EXPECT_NE(out_alice, m);
  EXPECT_NE(out_bob, m);
}

TEST_F(SchemeTest, SameUserKeysFromDifferentAuthoritiesDoCombine) {
  // The flip side of collusion resistance: one UID's keys tie together.
  const GT m = grp->gt_random(rng);
  const auto [ct, rec] = enc("Doctor@Med AND Researcher@Trial", m);
  EXPECT_EQ(decrypt(*grp, ct, alice, alice_keys), m);
}

TEST_F(SchemeTest, DecryptRejectsForeignOwnerKeys) {
  // Keys issued under a different owner's SK_o must be rejected.
  const OwnerMasterKey mk2 = owner_gen(*grp, "owner-2", rng);
  const OwnerSecretShare sk2 = owner_share(*grp, mk2);
  std::map<std::string, UserSecretKey> foreign;
  foreign.emplace("Med", aa_keygen(*grp, vks.at("Med"), sk2, alice, {"Doctor"}));

  const GT m = grp->gt_random(rng);
  const auto [ct, rec] = enc("Doctor@Med", m);
  EXPECT_THROW(decrypt(*grp, ct, alice, foreign), SchemeError);
}

// Decrypt is ONE pairing product of 2l + N_A terms, and the kernel folds
// every small exponent into the second argument, so it runs one Miller
// loop per first argument. An AND policy gives every row the exponent
// w_i * N_A = N_A and the numerator -1, so its 22 terms fall into two
// classes: e(PK_UID, N_A * sum C_i) and e(C', N_A * sum K_x - sum K).
TEST_F(SchemeTest, AndOfTenAcrossTwoAuthoritiesRunsTwoMillerLoops) {
  std::string policy;
  std::set<std::string> med, trial;
  for (int i = 0; i < 5; ++i) {
    const std::string m_attr = "M" + std::to_string(i), t_attr = "T" + std::to_string(i);
    add_attr("Med", m_attr);
    add_attr("Trial", t_attr);
    med.insert(m_attr);
    trial.insert(t_attr);
    policy += (i == 0 ? "" : " AND ") + m_attr + "@Med AND " + t_attr + "@Trial";
  }
  const UserPublicKey carol = ca_register_user(*grp, "carol", rng);
  std::map<std::string, UserSecretKey> keys;
  keys.emplace("Med", aa_keygen(*grp, vks.at("Med"), owner_sk, carol, med));
  keys.emplace("Trial", aa_keygen(*grp, vks.at("Trial"), owner_sk, carol, trial));

  const GT m = grp->gt_random(rng);
  const auto [ct, rec] = enc(policy, m);
  ASSERT_EQ(ct.policy.rows(), 10);
  engine::CryptoEngine& eng = engine::CryptoEngine::for_group(*grp);
  const engine::EngineStats before = eng.stats();
  EXPECT_EQ(decrypt(*grp, ct, carol, keys), m);
  const engine::EngineStats d = eng.stats() - before;
  EXPECT_EQ(d.pairings, 22u);  // 2l + N_A, as Table I counts them
  EXPECT_EQ(d.miller_loops, 2u);
  EXPECT_EQ(d.gt_exps, 0u);
  EXPECT_EQ(d.final_exps, 1u);
}

// Shares at x = 1 and x = 2 reconstruct with w = (2, -1): with N_A = 2
// every exponent is small, so all six terms fold into the two first
// arguments.
TEST_F(SchemeTest, ThresholdDecryptMatchesSerialPairingFold) {
  expect_threshold_decrypt_matches_fold("2of(Doctor@Med, Researcher@Trial, Reviewer@Trial)",
                                        2);
}

// Shares at x = 1 and x = 4 reconstruct with w = (4/3, -1/3), full-size
// residues mod r: each row keeps a (first argument, exponent) class of
// its own and only the numerator folds — two rows x two first
// arguments + the numerator.
TEST_F(SchemeTest, ThresholdWithFractionalCoefficientsKeepsFullSizeClasses) {
  expect_threshold_decrypt_matches_fold(
      "2of(Doctor@Med, Nurse@Med, Reviewer@Trial, Researcher@Trial)", 5);
}

TEST_F(SchemeTest, RandomizedEncryption) {
  const GT m = grp->gt_random(rng);
  const auto r1 = enc("Doctor@Med", m, "ct-a");
  const auto r2 = enc("Doctor@Med", m, "ct-b");
  EXPECT_NE(r1.ct.c, r2.ct.c);
  EXPECT_NE(r1.ct.c_prime, r2.ct.c_prime);
  EXPECT_NE(r1.record.s, r2.record.s);
}

TEST_F(SchemeTest, EncryptValidatesInputs) {
  const GT m = grp->gt_random(rng);
  // Missing authority public key.
  std::map<std::string, AuthorityPublicKey> missing_auth = apks;
  missing_auth.erase("Gov");
  const LsssMatrix policy = LsssMatrix::from_policy(parse_policy("Auditor@Gov"));
  EXPECT_THROW(encrypt(*grp, owner_mk, "x", m, policy, missing_auth, attr_pks, rng),
               SchemeError);
  // Missing attribute key.
  std::map<std::string, PublicAttributeKey> missing_attr = attr_pks;
  missing_attr.erase("Auditor@Gov");
  EXPECT_THROW(encrypt(*grp, owner_mk, "x", m, policy, apks, missing_attr, rng),
               SchemeError);
}

TEST_F(SchemeTest, CiphertextStructure) {
  const GT m = grp->gt_random(rng);
  const auto [ct, rec] = enc("(Doctor@Med AND Researcher@Trial) OR Nurse@Med", m);
  EXPECT_EQ(ct.ci.size(), 3u);  // one C_i per policy row
  EXPECT_EQ(ct.owner_id, "owner-1");
  EXPECT_EQ(ct.versions.size(), 2u);
  EXPECT_EQ(ct.versions.at("Med"), 1u);
}

// ---------------------------------------------------------------------
// Attribute revocation (paper Section V-C).
// ---------------------------------------------------------------------

// The revoke path normalizes in batches: reencrypt sums each slot's
// C_i + UI_x rows through Group::g1_sums, and a key update raises every
// K_x to UK2 in Jacobian form and converts them with one g1_normalize.
// Affine coordinates are canonical, so both must equal, byte for byte,
// the per-element folds they replaced (kept here as the reference).
struct RevocationFixture {
  OwnerMasterKey mk;
  UserSecretKey med_key;  // Doctor, Nurse and Admin at Med
  Ciphertext ct;          // rows at Med and at Gov
  UpdateKey uk;
  UpdateInfo ui;
};

RevocationFixture revocation_fixture(const Group& grp) {
  crypto::Drbg rng("batched-normalization");
  RevocationFixture out;
  out.mk = owner_gen(grp, "owner-1", rng);
  const OwnerSecretShare osk = owner_share(grp, out.mk);
  std::map<std::string, AuthorityVersionKey> vks;
  std::map<std::string, AuthorityPublicKey> apks;
  std::map<std::string, PublicAttributeKey> attr_pks;
  for (const std::string aid : {"Med", "Gov"}) {
    vks.emplace(aid, aa_setup(grp, aid, rng));
    apks.emplace(aid, aa_public_key(grp, vks.at(aid)));
  }
  for (const auto& [aid, name] : std::vector<std::pair<std::string, std::string>>{
           {"Med", "Doctor"}, {"Med", "Nurse"}, {"Med", "Admin"}, {"Gov", "Auditor"}}) {
    const PublicAttributeKey pk = aa_attribute_key(grp, vks.at(aid), name);
    attr_pks.emplace(pk.attr.qualified(), pk);
  }
  const UserPublicKey carol = ca_register_user(grp, "carol", rng);
  out.med_key = aa_keygen(grp, vks.at("Med"), osk, carol, {"Doctor", "Nurse", "Admin"});
  const LsssMatrix policy = LsssMatrix::from_policy(
      parse_policy("Doctor@Med AND Auditor@Gov AND (Nurse@Med OR Admin@Med)"));
  auto [ct, rec] = encrypt(grp, out.mk, "ct-batched", grp.gt_random(rng), policy, apks,
                           attr_pks, rng);
  out.ct = std::move(ct);

  const AuthorityVersionKey new_vk = aa_rekey(grp, vks.at("Med"), rng).new_vk;
  out.uk = aa_make_update_key(grp, vks.at("Med"), new_vk, osk);
  std::map<std::string, PublicAttributeKey> new_attr_pks = attr_pks;
  for (auto& [handle, pk] : new_attr_pks)
    if (pk.attr.aid == "Med") pk = apply_update_to_attribute_pk(grp, pk, out.uk);
  out.ui = owner_update_info(grp, out.mk, rec, out.ct, attr_pks, new_attr_pks, "Med");
  return out;
}

void expect_reencrypt_matches_row_fold(const Group& grp) {
  const RevocationFixture fx = revocation_fixture(grp);
  // The reference: one G1 addition (one inversion) per affected row.
  std::vector<G1> want = fx.ct.ci;
  int affected = 0;
  for (int i = 0; i < fx.ct.policy.rows(); ++i) {
    const lsss::Attribute& attr = fx.ct.policy.row_attribute(i);
    if (attr.aid != "Med") continue;
    want[i] = want[i] + fx.ui.ui.at(attr.qualified());
    ++affected;
  }
  ASSERT_EQ(affected, 3);
  Ciphertext got = fx.ct;
  reencrypt(grp, &got, fx.uk, fx.ui);
  ASSERT_EQ(got.ci.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got.ci[i].to_bytes(), want[i].to_bytes()) << i;
}

void expect_key_update_matches_mul_fold(const Group& grp) {
  const RevocationFixture fx = revocation_fixture(grp);
  const UserSecretKey got = apply_update_to_secret_key(grp, fx.med_key, fx.uk);
  EXPECT_EQ(got.version, fx.uk.to_version);
  EXPECT_EQ(got.k.to_bytes(), (fx.med_key.k + fx.uk.uk1).to_bytes());
  // The reference: one G1 exponentiation (one inversion) per K_x.
  ASSERT_EQ(got.kx.size(), 3u);
  for (const auto& [handle, key] : fx.med_key.kx)
    EXPECT_EQ(got.kx.at(handle).to_bytes(), key.mul(fx.uk.uk2).to_bytes()) << handle;
}

TEST_F(SchemeTest, ReencryptSumsMatchPerRowFoldOnBothCurves) {
  expect_reencrypt_matches_row_fold(*grp);
  expect_reencrypt_matches_row_fold(*Group::pbc_a512());
}

TEST_F(SchemeTest, SecretKeyUpdateMatchesPerKeyFoldOnBothCurves) {
  expect_key_update_matches_mul_fold(*grp);
  expect_key_update_matches_mul_fold(*Group::pbc_a512());
}

class RevocationTest : public SchemeTest {
 protected:
  // Revokes "Doctor" from alice at Med, runs the full protocol over the
  // given ciphertext, and returns the updated world pieces.
  struct RevocationOutcome {
    AuthorityVersionKey new_vk;
    UpdateKey uk;                       // for owner-1
    UserSecretKey alice_regenerated;    // reduced attribute set
    std::map<std::string, UserSecretKey> bob_updated;
    std::map<std::string, AuthorityPublicKey> new_apks;
    std::map<std::string, PublicAttributeKey> new_attr_pks;
  };

  RevocationOutcome revoke_doctor_from_alice(Ciphertext* ct, const EncryptionRecord& rec) {
    RevocationOutcome out;
    const AuthorityVersionKey& old_vk = vks.at("Med");
    out.new_vk = aa_rekey(*grp, old_vk, rng).new_vk;

    // Revoked user gets a fresh key for the reduced set (loses Doctor).
    out.alice_regenerated = aa_regenerate_key(*grp, out.new_vk, owner_sk, alice, {});

    // Everyone else applies the update key.
    out.uk = aa_make_update_key(*grp, old_vk, out.new_vk, owner_sk);
    out.bob_updated = bob_keys;
    out.bob_updated.at("Med") =
        apply_update_to_secret_key(*grp, bob_keys.at("Med"), out.uk);

    // Owner updates its public keys.
    out.new_apks = apks;
    out.new_apks.at("Med") = apply_update_to_authority_pk(*grp, apks.at("Med"), out.uk);
    out.new_attr_pks = attr_pks;
    for (auto& [handle, pk] : out.new_attr_pks) {
      if (pk.attr.aid == "Med")
        pk = apply_update_to_attribute_pk(*grp, pk, out.uk);
    }

    // Owner builds UpdateInfo from its record, which has advanced with
    // every earlier epoch of ct; server re-encrypts.
    if (ct != nullptr) {
      EncryptionRecord current = rec;
      current.versions = ct->versions;
      const std::vector<UpdateInfo> infos =
          owner_update_infos(*grp, owner_mk, {&current}, out.uk);
      reencrypt(*grp, ct, out.uk, infos.at(0));
    }
    return out;
  }
};

TEST_F(RevocationTest, NonRevokedUserDecryptsReencryptedCiphertext) {
  const GT m = grp->gt_random(rng);
  auto [ct, rec] = enc("Nurse@Med AND Auditor@Gov", m);
  const auto world = revoke_doctor_from_alice(&ct, rec);
  EXPECT_EQ(ct.versions.at("Med"), 2u);
  EXPECT_EQ(decrypt(*grp, ct, bob, world.bob_updated), m);
}

TEST_F(RevocationTest, RevokedUserStaleKeyRejected) {
  const GT m = grp->gt_random(rng);
  auto [ct, rec] = enc("Doctor@Med", m);
  revoke_doctor_from_alice(&ct, rec);
  // Alice's old (version 1) key no longer matches the re-encrypted CT.
  EXPECT_THROW(decrypt(*grp, ct, alice, alice_keys), SchemeError);
}

TEST_F(RevocationTest, RevokedUserRegeneratedKeyLacksAttribute) {
  const GT m = grp->gt_random(rng);
  auto [ct, rec] = enc("Doctor@Med", m);
  const auto world = revoke_doctor_from_alice(&ct, rec);
  std::map<std::string, UserSecretKey> alice_new;
  alice_new.emplace("Med", world.alice_regenerated);
  EXPECT_THROW(decrypt(*grp, ct, alice, alice_new), SchemeError);
}

TEST_F(RevocationTest, NewEncryptionsUseNewKeysAndExcludeRevokedUser) {
  const GT m = grp->gt_random(rng);
  const auto world = revoke_doctor_from_alice(nullptr, EncryptionRecord{});
  const LsssMatrix policy = LsssMatrix::from_policy(parse_policy("Nurse@Med"));
  const auto [ct2, rec2] =
      encrypt(*grp, owner_mk, "ct-new", m, policy, world.new_apks, world.new_attr_pks, rng);
  EXPECT_EQ(ct2.versions.at("Med"), 2u);
  EXPECT_EQ(decrypt(*grp, ct2, bob, world.bob_updated), m);
  // Alice's stale version-1 keys cannot decrypt version-2 ciphertexts.
  EXPECT_THROW(decrypt(*grp, ct2, alice, alice_keys), SchemeError);
}

TEST_F(RevocationTest, NewlyJoinedUserDecryptsOldReencryptedData) {
  // Forward access: data published before a user joins must remain
  // decryptable after re-encryption (paper Section V-C intro).
  const GT m = grp->gt_random(rng);
  auto [ct, rec] = enc("Nurse@Med", m);
  const auto world = revoke_doctor_from_alice(&ct, rec);

  const UserPublicKey dave = ca_register_user(*grp, "dave", rng);
  std::map<std::string, UserSecretKey> dave_keys;
  dave_keys.emplace("Med", aa_keygen(*grp, world.new_vk, owner_sk, dave, {"Nurse"}));
  EXPECT_EQ(decrypt(*grp, ct, dave, dave_keys), m);
}

TEST_F(RevocationTest, ReencryptOnlyTouchesAffectedRows) {
  const GT m = grp->gt_random(rng);
  auto [ct, rec] = enc("(Nurse@Med AND Auditor@Gov) OR Researcher@Trial", m);
  const std::vector<pairing::G1> before = ct.ci;
  revoke_doctor_from_alice(&ct, rec);
  // Row attributes: Nurse@Med (0), Auditor@Gov (1), Researcher@Trial (2).
  EXPECT_NE(ct.ci[0], before[0]);  // Med row re-encrypted
  EXPECT_EQ(ct.ci[1], before[1]);  // Gov row untouched
  EXPECT_EQ(ct.ci[2], before[2]);  // Trial row untouched
}

TEST_F(RevocationTest, SequentialRevocationsCompose) {
  const GT m = grp->gt_random(rng);
  auto [ct, rec] = enc("Nurse@Med", m);

  // Two consecutive version bumps at Med.
  auto w1 = revoke_doctor_from_alice(&ct, rec);
  vks.at("Med") = w1.new_vk;
  apks = w1.new_apks;
  attr_pks = w1.new_attr_pks;
  bob_keys = w1.bob_updated;
  auto w2 = revoke_doctor_from_alice(&ct, rec);

  EXPECT_EQ(ct.versions.at("Med"), 3u);
  EXPECT_EQ(decrypt(*grp, ct, bob, w2.bob_updated), m);
}

TEST_F(RevocationTest, UpdateValidationCatchesMisuse) {
  const AuthorityVersionKey& old_vk = vks.at("Med");
  const AuthorityVersionKey new_vk = aa_rekey(*grp, old_vk, rng).new_vk;
  EXPECT_EQ(new_vk.version, 2u);
  EXPECT_NE(new_vk.alpha, old_vk.alpha);

  const UpdateKey uk = aa_make_update_key(*grp, old_vk, new_vk, owner_sk);
  // Applying to a key of the wrong authority / wrong version throws.
  EXPECT_THROW(apply_update_to_secret_key(*grp, bob_keys.at("Gov"), uk), SchemeError);
  UserSecretKey already = apply_update_to_secret_key(*grp, bob_keys.at("Med"), uk);
  EXPECT_THROW(apply_update_to_secret_key(*grp, already, uk), SchemeError);
  EXPECT_THROW(apply_update_to_authority_pk(*grp, apks.at("Gov"), uk), SchemeError);
  // Non-consecutive versions rejected.
  const AuthorityVersionKey skipped{old_vk.aid, old_vk.version + 2, new_vk.alpha};
  EXPECT_THROW(aa_make_update_key(*grp, old_vk, skipped, owner_sk), SchemeError);
}

TEST_F(RevocationTest, ReencryptValidatesInputs) {
  const GT m = grp->gt_random(rng);
  auto [ct, rec] = enc("Nurse@Med", m);
  auto [ct_other, rec_other] = enc("Nurse@Med", m, "ct-2");

  const AuthorityVersionKey& old_vk = vks.at("Med");
  const AuthorityVersionKey new_vk = aa_rekey(*grp, old_vk, rng).new_vk;
  const UpdateKey uk = aa_make_update_key(*grp, old_vk, new_vk, owner_sk);
  std::map<std::string, PublicAttributeKey> new_pks = attr_pks;
  for (auto& [h, pk] : new_pks)
    if (pk.attr.aid == "Med") pk = apply_update_to_attribute_pk(*grp, pk, uk);
  const UpdateInfo ui = owner_update_info(*grp, owner_mk, rec, ct, attr_pks, new_pks, "Med");

  // UpdateInfo targeted at ct cannot re-encrypt ct_other.
  EXPECT_THROW(reencrypt(*grp, &ct_other, uk, ui), SchemeError);
  // Happy path works, double-application is rejected by versioning.
  reencrypt(*grp, &ct, uk, ui);
  EXPECT_THROW(reencrypt(*grp, &ct, uk, ui), SchemeError);
}

TEST_F(RevocationTest, OwnerUpdateInfoValidatesRecord) {
  const GT m = grp->gt_random(rng);
  auto [ct, rec] = enc("Nurse@Med", m);
  EncryptionRecord wrong = rec;
  wrong.ct_id = "someone-else";
  EXPECT_THROW(owner_update_info(*grp, owner_mk, wrong, ct, attr_pks, attr_pks, "Med"),
               SchemeError);
}

TEST_F(RevocationTest, RecordFormMatchesCiphertextFormWhenAnAttributeRepeats) {
  // Nurse@Med labels two rows. The record keeps it once, and its one UI
  // value re-encrypts both rows.
  const GT m = grp->gt_random(rng);
  const LsssMatrix policy = LsssMatrix::from_policy(
      parse_policy("2 of (Nurse@Med, Doctor@Med, Auditor@Gov) AND (Nurse@Med OR Admin@Med)"),
      /*allow_attribute_reuse=*/true);
  auto [ct, rec] = encrypt(*grp, owner_mk, "ct-reuse", m, policy, apks, attr_pks, rng);
  ASSERT_EQ(ct.policy.rows(), 5);
  EXPECT_EQ(rec.attributes.size(), 4u);
  EXPECT_EQ(rec.versions, ct.versions);

  const AuthorityVersionKey new_vk = aa_rekey(*grp, vks.at("Med"), rng).new_vk;
  const UpdateKey uk = aa_make_update_key(*grp, vks.at("Med"), new_vk, owner_sk);
  std::map<std::string, PublicAttributeKey> new_pks = attr_pks;
  for (auto& [h, pk] : new_pks)
    if (pk.attr.aid == "Med") pk = apply_update_to_attribute_pk(*grp, pk, uk);
  const std::vector<UpdateInfo> pass = owner_update_infos(*grp, owner_mk, {&rec}, uk);
  ASSERT_EQ(pass.size(), 1u);
  const UpdateInfo& from_record = pass[0];
  const UpdateInfo from_ct = owner_update_info(*grp, owner_mk, rec, ct, attr_pks, new_pks, "Med");
  EXPECT_EQ(serialize(*grp, from_record), serialize(*grp, from_ct));
  EXPECT_EQ(from_record.ui.size(), 3u);  // Nurse, Doctor, Admin

  reencrypt(*grp, &ct, uk, from_record);
  std::map<std::string, UserSecretKey> bob_new = bob_keys;
  bob_new.at("Med") = apply_update_to_secret_key(*grp, bob_keys.at("Med"), uk);
  EXPECT_EQ(decrypt(*grp, ct, bob, bob_new), m);
}

TEST_F(RevocationTest, OwnerUpdateInfoRejectsUninvolvedAuthority) {
  // A re-key at Gov concerns no row of a Med-only ciphertext: the
  // owner's pass skips its record, and the ciphertext adapter throws a
  // typed SchemeError.
  const GT m = grp->gt_random(rng);
  auto [ct, rec] = enc("Nurse@Med", m);
  ASSERT_EQ(rec.versions, (std::map<std::string, uint32_t>{{"Med", 1}}));
  const AuthorityVersionKey new_vk = aa_rekey(*grp, vks.at("Gov"), rng).new_vk;
  const UpdateKey uk = aa_make_update_key(*grp, vks.at("Gov"), new_vk, owner_sk);
  EXPECT_TRUE(owner_update_infos(*grp, owner_mk, {&rec}, uk).empty());
  EXPECT_THROW(owner_update_info(*grp, owner_mk, rec, ct, attr_pks, attr_pks, "Gov"),
               SchemeError);
}

TEST_F(RevocationTest, RelabeledPreRevokeKeyOpensNothingOnceReencrypted) {
  // The version check alone would lock alice's old key out even if the
  // server never re-encrypted. Relabeled to the new version, that key
  // passes every check; only the re-encrypted C and C_i keep it from
  // the plaintext. Bob, not revoked, still opens the slot.
  const GT m = grp->gt_random(rng);
  auto [ct, rec] = enc("Doctor@Med OR Nurse@Med", m);
  const auto world = revoke_doctor_from_alice(&ct, rec);
  ASSERT_EQ(ct.versions.at("Med"), world.uk.to_version);
  std::map<std::string, UserSecretKey> relabeled = alice_keys;
  relabeled.at("Med").version = world.uk.to_version;
  ASSERT_TRUE(can_decrypt(*grp, ct, relabeled));
  EXPECT_NE(decrypt(*grp, ct, alice, relabeled), m);
  EXPECT_EQ(decrypt(*grp, ct, bob, world.bob_updated), m);
}

// ----------------------------------------- the owner's UpdateInfo pass --

// Every record of a two-authority owner: AND, OR and threshold policies
// across both authorities, and one policy of each authority alone.
struct OwnerPassWorld {
  explicit OwnerPassWorld(const Group& g) : grp(g), rng("owner-pass") {
    mk = owner_gen(grp, "owner-1", rng);
    osk = owner_share(grp, mk);
    std::map<std::string, AuthorityPublicKey> apks;
    for (const std::string aid : {"Med", "Gov"}) {
      vks.emplace(aid, aa_setup(grp, aid, rng));
      apks.emplace(aid, aa_public_key(grp, vks.at(aid)));
    }
    for (const auto& [aid, name] : std::vector<std::pair<std::string, std::string>>{
             {"Med", "Doctor"}, {"Med", "Nurse"}, {"Med", "Admin"}, {"Med", "Surgeon"},
             {"Med", "Intern"},
             {"Gov", "Auditor"}, {"Gov", "Inspector"}}) {
      const PublicAttributeKey pk = aa_attribute_key(grp, vks.at(aid), name);
      pks.emplace(pk.attr.qualified(), pk);
    }
    for (const auto& [id, text] : std::vector<std::pair<std::string, std::string>>{
             {"and", "Doctor@Med AND Auditor@Gov"},
             {"or", "Nurse@Med OR Inspector@Gov"},
             {"threshold", "2 of (Doctor@Med, Nurse@Med, Auditor@Gov, Inspector@Gov)"},
             {"med-only", "Admin@Med AND Nurse@Med AND Surgeon@Med AND Intern@Med"},
             {"gov-only", "Auditor@Gov"}}) {
      encs.push_back(encrypt(grp, mk, id, grp.gt_random(rng),
                             LsssMatrix::from_policy(parse_policy(text)), apks, pks, rng));
    }
  }

  std::vector<const EncryptionRecord*> records() const {
    std::vector<const EncryptionRecord*> out;
    for (const EncryptionResult& e : encs) out.push_back(&e.record);
    return out;
  }

  /// The update key of re-keying `aid` once, and the attribute keys
  /// after it.
  UpdateKey rekey(const std::string& aid, std::map<std::string, PublicAttributeKey>* new_pks) {
    const AuthorityVersionKey new_vk = aa_rekey(grp, vks.at(aid), rng).new_vk;
    const UpdateKey uk = aa_make_update_key(grp, vks.at(aid), new_vk, osk);
    *new_pks = pks;
    for (auto& [h, pk] : *new_pks)
      if (pk.attr.aid == aid) pk = apply_update_to_attribute_pk(grp, pk, uk);
    return uk;
  }

  const Group& grp;
  crypto::Drbg rng;
  OwnerMasterKey mk;
  OwnerSecretShare osk;
  std::map<std::string, AuthorityVersionKey> vks;
  std::map<std::string, PublicAttributeKey> pks;
  std::vector<EncryptionResult> encs;
};

void expect_owner_pass_matches_adapter(const Group& grp) {
  OwnerPassWorld w(grp);
  engine::CryptoEngine& eng = engine::CryptoEngine::for_group(grp);
  for (const std::string aid : {"Med", "Gov"}) {
    SCOPED_TRACE(aid);
    std::map<std::string, PublicAttributeKey> new_pks;
    const UpdateKey uk = w.rekey(aid, &new_pks);
    // The reference: the PK-difference formula, per record with a row
    // of `aid`; the other authority's lone record is skipped.
    std::vector<Bytes> want;
    for (const EncryptionResult& e : w.encs) {
      if (!e.record.versions.contains(aid)) continue;
      want.push_back(
          serialize(grp, owner_update_info(grp, w.mk, e.record, e.ct, w.pks, new_pks, aid)));
    }
    ASSERT_EQ(want.size(), 4u);

    // One pass over every record: 8 (Med) exponents, at the break-even
    // count of a once-used table, so one table; 5 (Gov), below it, so
    // plain multiplies.
    engine::EngineStats before = eng.stats();
    const std::vector<UpdateInfo> got = owner_update_infos(grp, w.mk, w.records(), uk);
    EXPECT_EQ((eng.stats() - before).table_builds, aid == "Med" ? 1u : 0u);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(serialize(grp, got[i]), want[i]) << got[i].ct_id;

    // One pass per record: one to four exponents, below the break-even
    // count, so plain multiplies.
    size_t next = 0;
    for (const EncryptionResult& e : w.encs) {
      before = eng.stats();
      const std::vector<UpdateInfo> one = owner_update_infos(grp, w.mk, {&e.record}, uk);
      EXPECT_EQ((eng.stats() - before).table_builds, 0u) << e.record.ct_id;
      if (!e.record.versions.contains(aid)) {
        EXPECT_TRUE(one.empty()) << e.record.ct_id;
        continue;
      }
      ASSERT_EQ(one.size(), 1u) << e.record.ct_id;
      EXPECT_EQ(serialize(grp, one[0]), want[next++]) << e.record.ct_id;
    }

    // A record already past uk.from_version is skipped too.
    EncryptionRecord advanced = w.encs.front().record;
    advanced.versions.at(aid) = uk.to_version;
    EXPECT_TRUE(owner_update_infos(grp, w.mk, {&advanced}, uk).empty());
  }
}

TEST(OwnerUpdateInfos, MatchThePkDifferenceAdapterOnBothCurves) {
  expect_owner_pass_matches_adapter(*Group::test_small());
  expect_owner_pass_matches_adapter(*Group::pbc_a512());
}

TEST(OwnerUpdateInfos, OnePassCostsOneTableBuildAndLeavesTheLruNoLarger) {
  const auto grp = Group::test_small();
  OwnerPassWorld w(*grp);
  std::map<std::string, PublicAttributeKey> new_pks;
  const UpdateKey uk = w.rekey("Med", &new_pks);
  engine::CryptoEngine& eng = engine::CryptoEngine::for_group(*grp);
  const size_t lru = eng.cached_bases();
  ASSERT_LT(lru, 64u) << "a full LRU would hide a new entry";
  const engine::EngineStats before = eng.stats();
  const std::vector<UpdateInfo> infos = owner_update_infos(*grp, w.mk, w.records(), uk);
  const engine::EngineStats d = eng.stats() - before;
  uint64_t n = 0;
  for (const UpdateInfo& ui : infos) n += ui.ui.size();
  EXPECT_EQ(n, 8u);
  EXPECT_EQ(d.g1_exps, n);
  EXPECT_EQ(d.table_builds, 1u);
  EXPECT_EQ(d.table_hits, n);
  EXPECT_EQ(d.batches, 1u);
  EXPECT_EQ(d.pairings, 0u);
  EXPECT_LE(eng.cached_bases(), lru);
}

TEST(OwnerUpdateInfos, IdentityUk1PassesTheSubgroupCheckAndDoesNotCrash) {
  // UK1 = g^0 only if alpha' == alpha, which aa_rekey never draws; a
  // forged key can still carry it, and kKeyMaterial's subgroup check
  // accepts the identity. The pass then yields identity UIs.
  const auto grp = Group::test_small();
  OwnerPassWorld w(*grp);
  std::map<std::string, PublicAttributeKey> new_pks;
  UpdateKey forged = w.rekey("Med", &new_pks);
  forged.uk1 = grp->g1_identity();
  const UpdateKey uk = deserialize_update_key(*grp, serialize(*grp, forged));
  ASSERT_TRUE(uk.uk1.is_identity());
  const std::vector<UpdateInfo> infos = owner_update_infos(*grp, w.mk, w.records(), uk);
  ASSERT_EQ(infos.size(), 4u);
  for (const UpdateInfo& ui : infos)
    for (const auto& [handle, value] : ui.ui) EXPECT_TRUE(value.is_identity()) << handle;
}

TEST(OwnerUpdateInfos, RejectAnotherOwnersUpdateKey) {
  const auto grp = Group::test_small();
  OwnerPassWorld w(*grp);
  std::map<std::string, PublicAttributeKey> new_pks;
  UpdateKey uk = w.rekey("Med", &new_pks);
  uk.owner_id = "owner-2";
  EXPECT_THROW(owner_update_infos(*grp, w.mk, w.records(), uk), SchemeError);
}

}  // namespace
}  // namespace maabe::abe
