#include "abe/serial.h"

#include <gtest/gtest.h>

#include "abe/scheme.h"
#include "common/errors.h"
#include "lsss/parser.h"
#include "support/rogue_points.h"

namespace maabe::abe {
namespace {

using lsss::LsssMatrix;
using lsss::parse_policy;
using pairing::Group;
using pairing::GT;
using pairing::Zr;

class SerialTest : public ::testing::Test {
 protected:
  SerialTest() : grp(Group::test_small()), rng("serial-test") {
    mk = owner_gen(*grp, "owner", rng);
    share = owner_share(*grp, mk);
    vk = aa_setup(*grp, "Med", rng);
    user = ca_register_user(*grp, "alice", rng);
  }

  std::shared_ptr<const Group> grp;
  crypto::Drbg rng;
  OwnerMasterKey mk;
  OwnerSecretShare share;
  AuthorityVersionKey vk;
  UserPublicKey user;
};

TEST_F(SerialTest, UserPublicKeyRoundTrip) {
  const Bytes b = serialize(*grp, user);
  const UserPublicKey back = deserialize_user_public_key(*grp, b);
  EXPECT_EQ(back.uid, user.uid);
  EXPECT_EQ(back.pk, user.pk);
}

TEST_F(SerialTest, OwnerSecretShareRoundTrip) {
  const Bytes b = serialize(*grp, share);
  const OwnerSecretShare back = deserialize_owner_secret_share(*grp, b);
  EXPECT_EQ(back.owner_id, share.owner_id);
  EXPECT_EQ(back.g_inv_beta, share.g_inv_beta);
  EXPECT_EQ(back.r_over_beta, share.r_over_beta);
}

TEST_F(SerialTest, AuthorityPublicKeyRoundTrip) {
  const AuthorityPublicKey pk = aa_public_key(*grp, vk);
  const AuthorityPublicKey back =
      deserialize_authority_public_key(*grp, serialize(*grp, pk));
  EXPECT_EQ(back.aid, pk.aid);
  EXPECT_EQ(back.version, pk.version);
  EXPECT_EQ(back.e_gg_alpha, pk.e_gg_alpha);
}

TEST_F(SerialTest, PublicAttributeKeyRoundTrip) {
  const PublicAttributeKey pk = aa_attribute_key(*grp, vk, "Doctor");
  const PublicAttributeKey back =
      deserialize_public_attribute_key(*grp, serialize(*grp, pk));
  EXPECT_EQ(back.attr.qualified(), "Doctor@Med");
  EXPECT_EQ(back.key, pk.key);
}

TEST_F(SerialTest, UserSecretKeyRoundTrip) {
  const UserSecretKey sk = aa_keygen(*grp, vk, share, user, {"Doctor", "Nurse"});
  const UserSecretKey back = deserialize_user_secret_key(*grp, serialize(*grp, sk));
  EXPECT_EQ(back.uid, sk.uid);
  EXPECT_EQ(back.aid, sk.aid);
  EXPECT_EQ(back.owner_id, sk.owner_id);
  EXPECT_EQ(back.version, sk.version);
  EXPECT_EQ(back.k, sk.k);
  ASSERT_EQ(back.kx.size(), 2u);
  EXPECT_EQ(back.kx.at("Doctor@Med"), sk.kx.at("Doctor@Med"));
  EXPECT_EQ(back.attributes(), sk.attributes());
}

TEST_F(SerialTest, CiphertextRoundTripAndDecrypts) {
  std::map<std::string, AuthorityPublicKey> apks{{"Med", aa_public_key(*grp, vk)}};
  std::map<std::string, PublicAttributeKey> attr_pks;
  for (const char* n : {"Doctor", "Nurse"}) {
    const auto pk = aa_attribute_key(*grp, vk, n);
    attr_pks.emplace(pk.attr.qualified(), pk);
  }
  const GT m = grp->gt_random(rng);
  const LsssMatrix policy = LsssMatrix::from_policy(parse_policy("Doctor@Med AND Nurse@Med"));
  const auto [ct, rec] = encrypt(*grp, mk, "ct-1", m, policy, apks, attr_pks, rng);

  const Ciphertext back = deserialize_ciphertext(*grp, serialize(*grp, ct));
  EXPECT_EQ(back.id, ct.id);
  EXPECT_EQ(back.owner_id, ct.owner_id);
  EXPECT_EQ(back.c, ct.c);
  EXPECT_EQ(back.c_prime, ct.c_prime);
  ASSERT_EQ(back.ci.size(), ct.ci.size());
  for (size_t i = 0; i < ct.ci.size(); ++i) EXPECT_EQ(back.ci[i], ct.ci[i]);
  EXPECT_EQ(back.versions, ct.versions);
  EXPECT_EQ(back.policy.policy_text(), ct.policy.policy_text());

  // The deserialized ciphertext decrypts.
  std::map<std::string, UserSecretKey> keys;
  keys.emplace("Med", aa_keygen(*grp, vk, share, user, {"Doctor", "Nurse"}));
  EXPECT_EQ(decrypt(*grp, back, user, keys), m);
}

TEST_F(SerialTest, UpdateKeyAndInfoRoundTrip) {
  const AuthorityVersionKey new_vk = aa_rekey(*grp, vk, rng).new_vk;
  const UpdateKey uk = aa_make_update_key(*grp, vk, new_vk, share);
  const UpdateKey uk2 = deserialize_update_key(*grp, serialize(*grp, uk));
  EXPECT_EQ(uk2.aid, uk.aid);
  EXPECT_EQ(uk2.owner_id, uk.owner_id);
  EXPECT_EQ(uk2.from_version, 1u);
  EXPECT_EQ(uk2.to_version, 2u);
  EXPECT_EQ(uk2.uk1, uk.uk1);
  EXPECT_EQ(uk2.uk2, uk.uk2);

  UpdateInfo ui;
  ui.aid = "Med";
  ui.owner_id = "owner";
  ui.ct_id = "ct-1";
  ui.from_version = 1;
  ui.to_version = 2;
  ui.ui.emplace("Doctor@Med", grp->g1_random(rng));
  const UpdateInfo ui2 = deserialize_update_info(*grp, serialize(*grp, ui));
  EXPECT_EQ(ui2.ct_id, "ct-1");
  EXPECT_EQ(ui2.ui.at("Doctor@Med"), ui.ui.at("Doctor@Med"));
}

TEST_F(SerialTest, UpdateKeySubgroupCheckDependsOnReceiver) {
  const AuthorityVersionKey new_vk = aa_rekey(*grp, vk, rng).new_vk;
  UpdateKey uk = aa_make_update_key(*grp, vk, new_vk, share);

  // Forge an on-curve point outside the order-r subgroup (decompression
  // never checks membership, and a random x lands in the subgroup only
  // with probability r / (q+1)).
  pairing::G1 rogue;
  for (uint8_t i = 1;; ++i) {
    Bytes enc(grp->g1_size(), 0);
    enc[enc.size() - 2] = i;  // low x byte; sign flag 0
    try {
      rogue = grp->g1_from_bytes(enc);
    } catch (const WireError&) {
      continue;  // x not on the curve, try the next one
    }
    if (!rogue.in_subgroup()) break;
  }
  uk.uk1 = rogue;
  const Bytes b = serialize(*grp, uk);

  // Users fold the UK into key material: off-subgroup points rejected.
  EXPECT_THROW(deserialize_update_key(*grp, b), WireError);
  // The server only injects uk1 into ciphertext components — same trust
  // model as per-row ciphertext points, so on-curve suffices.
  const UpdateKey accepted = deserialize_update_key(*grp, b, UkCheck::kCiphertextPath);
  EXPECT_EQ(accepted.uk1, rogue);

  // A point off the curve entirely is rejected on both paths.
  Bytes off = b;
  // uk1's y coordinate sits just before its flag byte inside the
  // uncompressed encoding; flipping it breaks the curve equation.
  const size_t zr = grp->zr_size();
  off[off.size() - zr - 2] ^= 0x5a;
  EXPECT_THROW(deserialize_update_key(*grp, off, UkCheck::kCiphertextPath), WireError);
}

TEST_F(SerialTest, SecretMaterialRoundTrips) {
  const OwnerMasterKey mk2 = deserialize_owner_master_key(*grp, serialize(*grp, mk));
  EXPECT_EQ(mk2.owner_id, mk.owner_id);
  EXPECT_EQ(mk2.beta, mk.beta);
  EXPECT_EQ(mk2.r, mk.r);

  const AuthorityVersionKey vk2 =
      deserialize_authority_version_key(*grp, serialize(*grp, vk));
  EXPECT_EQ(vk2.aid, vk.aid);
  EXPECT_EQ(vk2.version, vk.version);
  EXPECT_EQ(vk2.alpha, vk.alpha);

  // The record encrypt() fills: Doctor@Med repeats across rows but is
  // kept once, and each involved authority carries its version.
  const AuthorityVersionKey gov = aa_setup(*grp, "Gov", rng);
  std::map<std::string, PublicAttributeKey> attr_pks;
  for (const PublicAttributeKey& pk :
       {aa_attribute_key(*grp, vk, "Doctor"), aa_attribute_key(*grp, vk, "Nurse"),
        aa_attribute_key(*grp, gov, "Auditor")})
    attr_pks.emplace(pk.attr.qualified(), pk);
  const LsssMatrix policy = LsssMatrix::from_policy(
      parse_policy("2 of (Doctor@Med, Nurse@Med, Auditor@Gov) AND (Doctor@Med OR Auditor@Gov)"),
      /*allow_attribute_reuse=*/true);
  ASSERT_EQ(policy.rows(), 5);
  EncryptionRecord rec =
      encrypt(*grp, mk, "ct-9", grp->gt_random(rng), policy,
              {{"Med", aa_public_key(*grp, vk)}, {"Gov", aa_public_key(*grp, gov)}},
              attr_pks, rng)
          .record;
  rec.versions.at("Gov") = 7;
  ASSERT_EQ(rec.attributes.size(), 3u);
  const EncryptionRecord rec2 = deserialize_encryption_record(*grp, serialize(*grp, rec));
  EXPECT_EQ(rec2.ct_id, "ct-9");
  EXPECT_EQ(rec2.s, rec.s);
  EXPECT_EQ(rec2.attributes,
            (std::set<lsss::Attribute>{{"Doctor", "Med"}, {"Nurse", "Med"}, {"Auditor", "Gov"}}));
  EXPECT_EQ(rec2.versions, (std::map<std::string, uint32_t>{{"Gov", 7}, {"Med", 1}}));
}

TEST_F(SerialTest, EncryptionRecordRejectsIncoherentInput) {
  const Zr s = grp->zr_random(rng);
  // Hand-built keystore bytes: tag, ct id, s, handles, (aid, version)s.
  const auto record_bytes = [&](const std::vector<std::string>& handles,
                                const std::vector<std::pair<std::string, uint32_t>>& versions) {
    Writer w;
    w.u8(0x0b);
    w.str("ct-1");
    w.raw(s.to_bytes());
    w.u32(static_cast<uint32_t>(handles.size()));
    for (const std::string& h : handles) w.str(h);
    w.u32(static_cast<uint32_t>(versions.size()));
    for (const auto& [aid, version] : versions) {
      w.str(aid);
      w.u32(version);
    }
    return w.take();
  };
  const EncryptionRecord ok =
      deserialize_encryption_record(*grp, record_bytes({"Doctor@Med"}, {{"Med", 3}}));
  EXPECT_EQ(ok.versions.at("Med"), 3u);
  EXPECT_EQ(serialize(*grp, ok), record_bytes({"Doctor@Med"}, {{"Med", 3}}));

  // A duplicate authority.
  EXPECT_THROW(deserialize_encryption_record(
                   *grp, record_bytes({"Doctor@Med"}, {{"Med", 1}, {"Med", 2}})),
               WireError);
  // A row attribute whose authority has no version.
  EXPECT_THROW(deserialize_encryption_record(
                   *grp, record_bytes({"Doctor@Med", "Auditor@Gov"}, {{"Med", 1}})),
               WireError);
  // Malformed handles.
  for (const std::string bad : {"Doctor", "@Med", "Doctor@"})
    EXPECT_THROW(deserialize_encryption_record(*grp, record_bytes({bad}, {{"Med", 1}})),
                 WireError)
        << bad;
  // The same attribute twice.
  EXPECT_THROW(deserialize_encryption_record(
                   *grp, record_bytes({"Doctor@Med", "Doctor@Med"}, {{"Med", 1}})),
               WireError);
}

TEST_F(SerialTest, SecretMaterialRejectsDegenerateValues) {
  // A zero beta or alpha would make the key material useless; the
  // decoders reject it outright.
  OwnerMasterKey zero_mk = mk;
  zero_mk.beta = grp->zr_zero();
  EXPECT_THROW(deserialize_owner_master_key(*grp, serialize(*grp, zero_mk)), WireError);
  AuthorityVersionKey zero_vk = vk;
  zero_vk.alpha = grp->zr_zero();
  EXPECT_THROW(deserialize_authority_version_key(*grp, serialize(*grp, zero_vk)),
               WireError);
}

TEST_F(SerialTest, WrongTagRejected) {
  const Bytes b = serialize(*grp, user);
  EXPECT_THROW(deserialize_ciphertext(*grp, b), WireError);
  EXPECT_THROW(deserialize_user_secret_key(*grp, b), WireError);
}

TEST_F(SerialTest, TruncationRejected) {
  const UserSecretKey sk = aa_keygen(*grp, vk, share, user, {"Doctor"});
  const Bytes b = serialize(*grp, sk);
  for (size_t len : {size_t{0}, size_t{1}, b.size() / 2, b.size() - 1}) {
    EXPECT_THROW(deserialize_user_secret_key(*grp, ByteView(b.data(), len)), WireError)
        << len;
  }
}

TEST_F(SerialTest, TrailingGarbageRejected) {
  Bytes b = serialize(*grp, user);
  b.push_back(0);
  EXPECT_THROW(deserialize_user_public_key(*grp, b), WireError);
}

TEST_F(SerialTest, CorruptedPointRejected) {
  Bytes b = serialize(*grp, user);
  // Flip a byte inside the point encoding; decompression or the sign
  // flag check must fail with overwhelming probability. Try several
  // positions to be robust against the rare "still on curve" case.
  int rejected = 0;
  for (size_t pos = b.size() - grp->g1_size(); pos < b.size(); ++pos) {
    Bytes bad = b;
    bad[pos] ^= 0x5a;
    try {
      (void)deserialize_user_public_key(*grp, bad);
    } catch (const WireError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST_F(SerialTest, GroupMaterialBytesFormula) {
  std::map<std::string, AuthorityPublicKey> apks{{"Med", aa_public_key(*grp, vk)}};
  std::map<std::string, PublicAttributeKey> attr_pks;
  for (const char* n : {"Doctor", "Nurse", "Admin"}) {
    const auto pk = aa_attribute_key(*grp, vk, n);
    attr_pks.emplace(pk.attr.qualified(), pk);
  }
  const LsssMatrix policy =
      LsssMatrix::from_policy(parse_policy("Doctor@Med AND Nurse@Med AND Admin@Med"));
  const auto [ct, rec] =
      encrypt(*grp, mk, "x", grp->gt_random(rng), policy, apks, attr_pks, rng);
  // |GT| + (l+1)|G| with l = 3.
  EXPECT_EQ(ciphertext_group_material_bytes(*grp, ct),
            grp->gt_size() + 4 * grp->g1_size());
}

TEST_F(SerialTest, AuthorityKeyBundleRoundTripsInThePublishedLayout) {
  AuthorityKeyBundle keys{aa_public_key(*grp, vk), {}};
  for (const char* name : {"Doctor", "Nurse", "Surgeon"})
    keys.attribute_keys.push_back(aa_attribute_key(*grp, vk, name));
  // The layout an authority has always published: each key in its own
  // encoding behind a length prefix.
  Writer w;
  w.var_bytes(serialize(*grp, keys.pk));
  w.u32(3);
  for (const PublicAttributeKey& pk : keys.attribute_keys) w.var_bytes(serialize(*grp, pk));
  const Bytes b = serialize(*grp, keys);
  EXPECT_EQ(b, w.bytes());
  const AuthorityKeyBundle back = deserialize_authority_key_bundle(*grp, b);
  EXPECT_EQ(back.pk.aid, "Med");
  EXPECT_EQ(back.pk.e_gg_alpha, keys.pk.e_gg_alpha);
  ASSERT_EQ(back.attribute_keys.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.attribute_keys[i].attr, keys.attribute_keys[i].attr);
    EXPECT_EQ(back.attribute_keys[i].version, keys.attribute_keys[i].version);
    EXPECT_EQ(back.attribute_keys[i].key, keys.attribute_keys[i].key);
  }
  // No attribute keys at all is a valid bundle.
  const AuthorityKeyBundle bare{keys.pk, {}};
  EXPECT_TRUE(deserialize_authority_key_bundle(*grp, serialize(*grp, bare)).attribute_keys.empty());
  // Every truncation, trailing garbage, a wrong inner tag and trailing
  // bytes inside one key's encoding are WireErrors.
  for (size_t len = 0; len < b.size(); ++len)
    EXPECT_THROW(deserialize_authority_key_bundle(*grp, ByteView(b.data(), len)), WireError)
        << "truncated to " << len;
  Bytes longer = b;
  longer.push_back(0);
  EXPECT_THROW(deserialize_authority_key_bundle(*grp, longer), WireError);
  Writer bad;
  bad.var_bytes(serialize(*grp, keys.pk));
  bad.u32(2);
  bad.var_bytes(serialize(*grp, keys.attribute_keys[0]));
  Bytes padded = serialize(*grp, keys.attribute_keys[1]);
  padded.push_back(0);
  bad.var_bytes(padded);
  EXPECT_THROW(deserialize_authority_key_bundle(*grp, bad.bytes()), WireError);
  Writer swapped;
  swapped.var_bytes(serialize(*grp, keys.pk));
  swapped.u32(1);
  swapped.var_bytes(serialize(*grp, user));
  EXPECT_THROW(deserialize_authority_key_bundle(*grp, swapped.bytes()), WireError);
}

// ------------------------------------------- key points outside the subgroup --

/// `decode` must throw the subgroup check's WireError, message and all.
template <typename Decode>
void expect_outside_subgroup(const Decode& decode, const std::string& what) {
  try {
    (void)decode();
    ADD_FAILURE() << what << ": decoded";
  } catch (const WireError& e) {
    EXPECT_STREQ(e.what(), "deserialize: point outside the order-r subgroup") << what;
  }
}

/// Points of orders 2, 3, 4 (and 17 where it divides q + 1), each of
/// them plus a subgroup point, and a random curve point: every key
/// decoder must refuse each one at each position of its key.
void check_rogue_key_points(const Group& grp) {
  crypto::Drbg rng(std::string_view("serial-rogue-points"));
  const std::vector<pairing::G1> rogues = pairing::rogue::outside_points(grp, rng);

  const OwnerMasterKey mk = owner_gen(grp, "owner", rng);
  const OwnerSecretShare share = owner_share(grp, mk);
  const AuthorityVersionKey vk = aa_setup(grp, "Med", rng);
  const UserPublicKey user = ca_register_user(grp, "alice", rng);
  const std::set<std::string> names = {"A", "B", "C", "D", "E"};
  const UserSecretKey sk = aa_keygen(grp, vk, share, user, names);
  AuthorityKeyBundle keys{aa_public_key(grp, vk), {}};
  for (const std::string& name : names)
    keys.attribute_keys.push_back(aa_attribute_key(grp, vk, name));
  // The honest keys decode.
  EXPECT_EQ(deserialize_user_secret_key(grp, serialize(grp, sk)).k, sk.k);
  EXPECT_EQ(deserialize_authority_key_bundle(grp, serialize(grp, keys)).attribute_keys.size(), 5u);

  for (size_t k = 0; k < rogues.size(); ++k) {
    const pairing::G1& rogue = rogues[k];
    const std::string tag = "rogue " + std::to_string(k);
    // UserSecretKey: K, then the first, middle and last K_x.
    UserSecretKey bad = sk;
    bad.k = rogue;
    expect_outside_subgroup([&] { return deserialize_user_secret_key(grp, serialize(grp, bad)); },
                            tag + " as K");
    for (const char* name : {"A@Med", "C@Med", "E@Med"}) {
      bad = sk;
      bad.kx.at(name) = rogue;
      expect_outside_subgroup(
          [&] { return deserialize_user_secret_key(grp, serialize(grp, bad)); },
          tag + " as K_" + name);
    }
    // Attribute keys: the first, middle and last of a bundle, and alone.
    for (const size_t at : {0, 2, 4}) {
      AuthorityKeyBundle bad_keys = keys;
      bad_keys.attribute_keys[at].key = rogue;
      expect_outside_subgroup(
          [&] { return deserialize_authority_key_bundle(grp, serialize(grp, bad_keys)); },
          tag + " as attribute key " + std::to_string(at));
    }
    PublicAttributeKey bad_pk = keys.attribute_keys[0];
    bad_pk.key = rogue;
    expect_outside_subgroup(
        [&] { return deserialize_public_attribute_key(grp, serialize(grp, bad_pk)); },
        tag + " as PublicAttributeKey");
    UserPublicKey bad_user = user;
    bad_user.pk = rogue;
    expect_outside_subgroup(
        [&] { return deserialize_user_public_key(grp, serialize(grp, bad_user)); },
        tag + " as UserPublicKey");
    OwnerSecretShare bad_share = share;
    bad_share.g_inv_beta = rogue;
    expect_outside_subgroup(
        [&] { return deserialize_owner_secret_share(grp, serialize(grp, bad_share)); },
        tag + " as OwnerSecretShare");
  }
}

/// A user decodes update keys on-curve only; the key update checks UK1
/// in the pass that raises the key. Every rogue UK1 must fail there with
/// the decoder's WireError, message and all, before the key changes; an
/// honest one (and the identity, which the decoder accepts) applies.
void check_rogue_update_keys(const Group& grp) {
  crypto::Drbg rng(std::string_view("serial-rogue-update-keys"));
  const std::vector<pairing::G1> rogues = pairing::rogue::outside_points(grp, rng);
  const OwnerMasterKey mk = owner_gen(grp, "owner", rng);
  const OwnerSecretShare share = owner_share(grp, mk);
  const AuthorityVersionKey vk = aa_setup(grp, "Med", rng);
  const UserPublicKey user = ca_register_user(grp, "alice", rng);
  const UserSecretKey sk = aa_keygen(grp, vk, share, user, {"A", "B", "C", "D", "E"});
  const Bytes sk_bytes = serialize(grp, sk);
  const UpdateKey honest = aa_make_update_key(grp, vk, aa_rekey(grp, vk, rng).new_vk, share);
  EXPECT_EQ(apply_update_to_secret_key(grp, sk, honest).version, 2u);
  UpdateKey identity = honest;
  identity.uk1 = grp.g1_identity();
  EXPECT_EQ(apply_update_to_secret_key(grp, sk, identity).k, sk.k);

  for (size_t k = 0; k < rogues.size(); ++k) {
    const std::string tag = "rogue " + std::to_string(k);
    UpdateKey bad = honest;
    bad.uk1 = rogues[k];
    const Bytes wire = serialize(grp, bad);
    expect_outside_subgroup([&] { return deserialize_update_key(grp, wire); }, tag + " decoded");
    const UpdateKey on_curve = deserialize_update_key(grp, wire, UkCheck::kCiphertextPath);
    UserSecretKey held = sk;
    expect_outside_subgroup([&] { return apply_update_to_secret_key(grp, held, on_curve); },
                            tag + " applied");
    EXPECT_EQ(serialize(grp, held), sk_bytes) << tag;
  }
}

TEST(SerialRogueKeys, KeyUpdateRefusesUpdateKeysOutsideTheSubgroupOnTestCurve) {
  check_rogue_update_keys(*Group::test_small());
}

TEST(SerialRogueKeys, KeyUpdateRefusesUpdateKeysOutsideTheSubgroupOnPaperCurve) {
  check_rogue_update_keys(*Group::pbc_a512());
}

TEST(SerialRogueKeys, EveryKeyDecoderRefusesPointsOutsideTheSubgroupOnTestCurve) {
  check_rogue_key_points(*Group::test_small());
}

TEST(SerialRogueKeys, EveryKeyDecoderRefusesPointsOutsideTheSubgroupOnPaperCurve) {
  check_rogue_key_points(*Group::pbc_a512());
}

}  // namespace
}  // namespace maabe::abe
