// Golden vectors: exact bytes of pairing values, group encodings and a
// fixed-seed ABE ciphertext, on both parameter sets. Every other test
// checks algebraic relations or same-run agreement, which a field-layer
// rewrite could preserve while still changing every ciphertext on disk;
// these pin the bytes themselves. The hex below was captured once and
// must not be regenerated to make a code change pass — a mismatch means
// the change is not byte-compatible.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "abe/scheme.h"
#include "abe/serial.h"
#include "crypto/sha256.h"
#include "lsss/parser.h"
#include "pairing/group.h"

namespace maabe {
namespace {

using pairing::Group;
using pairing::GT;

using Golden = std::vector<std::pair<std::string, std::string>>;

std::string sha_hex(const Bytes& b) { return to_hex(crypto::Sha256::digest(b)); }

// Every value is a deterministic function of the group parameters and
// the fixed Drbg label.
Golden compute(const Group& grp) {
  crypto::Drbg rng(std::string_view("golden-vectors"));
  Golden out;
  const auto put = [&](const std::string& name, const Bytes& b) {
    out.emplace_back(name, to_hex(b));
  };

  put("egg", grp.gt_generator().to_bytes());

  const pairing::Zr k1 = grp.zr_nonzero_random(rng);
  const pairing::Zr k2 = grp.zr_nonzero_random(rng);
  const pairing::G1 a = grp.g_pow(k1);
  const pairing::G1 b = grp.g_pow(k2);
  put("g_pow", a.to_bytes());
  put("g_pow_uncompressed", a.to_bytes_uncompressed());
  put("miller", grp.miller(a, b).to_bytes());
  put("miller_table", grp.miller_with(*grp.pair_precompute(a), b).to_bytes());

  const pairing::G1 h = grp.hash_to_g1(std::string_view("golden/hash-to-g1"));
  put("hash_to_g1", h.to_bytes());
  put("hash_to_g1_uncompressed", h.to_bytes_uncompressed());
  put("gt_pow", grp.pair(a, h).pow(k2).to_bytes());

  // A two-authority ciphertext, a user key, and the ciphertext after one
  // revocation round of server-side re-encryption.
  const abe::OwnerMasterKey mk = abe::owner_gen(grp, "owner", rng);
  const abe::OwnerSecretShare share = abe::owner_share(grp, mk);
  std::map<std::string, abe::AuthorityVersionKey> vks;
  std::map<std::string, abe::AuthorityPublicKey> apks;
  std::map<std::string, abe::PublicAttributeKey> attr_pks;
  for (const std::string aid : {"A", "B"}) {
    vks.emplace(aid, abe::aa_setup(grp, aid, rng));
    apks.emplace(aid, abe::aa_public_key(grp, vks.at(aid)));
    for (const std::string name : {"x1", "x2"}) {
      const abe::PublicAttributeKey pk = abe::aa_attribute_key(grp, vks.at(aid), name);
      attr_pks.emplace(pk.attr.qualified(), pk);
    }
  }
  const abe::UserPublicKey user = abe::ca_register_user(grp, "uid", rng);
  const abe::UserSecretKey sk = abe::aa_keygen(grp, vks.at("A"), share, user, {"x1", "x2"});
  out.emplace_back("user_key_sha256", sha_hex(abe::serialize(grp, sk)));

  const GT m = grp.gt_random(rng);
  const lsss::LsssMatrix policy =
      lsss::LsssMatrix::from_policy(lsss::parse_policy("(x1@A AND x1@B) OR x2@A"));
  auto [ct, record] = abe::encrypt(grp, mk, "golden/ct", m, policy, apks, attr_pks, rng);
  out.emplace_back("ct_sha256", sha_hex(abe::serialize(grp, ct)));

  const abe::ReKeyResult rekey = abe::aa_rekey(grp, vks.at("A"), rng);
  const abe::UpdateKey uk = abe::aa_make_update_key(grp, vks.at("A"), rekey.new_vk, share);
  std::map<std::string, abe::PublicAttributeKey> new_attr_pks = attr_pks;
  for (auto& [handle, pk] : new_attr_pks)
    if (pk.attr.aid == "A") pk = abe::apply_update_to_attribute_pk(grp, pk, uk);
  const abe::UpdateInfo ui =
      abe::owner_update_info(grp, mk, record, ct, attr_pks, new_attr_pks, "A");
  abe::reencrypt(grp, &ct, uk, ui);
  out.emplace_back("reencrypted_ct_sha256", sha_hex(abe::serialize(grp, ct)));
  return out;
}

void expect_golden(const Group& grp, const std::map<std::string, std::string>& want) {
  const Golden got = compute(grp);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, hex] : got) {
    ASSERT_TRUE(want.count(name)) << name;
    EXPECT_EQ(hex, want.at(name)) << name;
  }
}

TEST(GoldenVectors, TestSmallCurve) {
  expect_golden(*Group::test_small(), {
      {"egg",
       "119d85310de55ccc55c8ecc2da4090a2891d8483266584be0b80fa0dd40ab7ed"
       "0efbe515f73f3543a250081388c23156"},
      {"g_pow", "a5f630178ef3f7a076dbc2060eb329a594a18cf4416cbdb301"},
      {"g_pow_uncompressed",
       "a5f630178ef3f7a076dbc2060eb329a594a18cf4416cbdb338626cc08c3c336e"
       "9ea384e5fcc987dfd80f8196a827064300"},
      {"miller",
       "1d06b0b4296df2d7b19446f0e04091b853d683cafe0780f698d302d1ea6f2aaf"
       "7a4fd458357148de5c0e8d6d9446ddf3"},
      {"miller_table",
       "1d06b0b4296df2d7b19446f0e04091b853d683cafe0780f698d302d1ea6f2aaf"
       "7a4fd458357148de5c0e8d6d9446ddf3"},
      {"hash_to_g1", "4e205502e16f81de9c01682e789545270c2db4bbb22320c801"},
      {"hash_to_g1_uncompressed",
       "4e205502e16f81de9c01682e789545270c2db4bbb22320c821cb25ed1355d692"
       "8c2d6fee4e1f25169253d607732d4b6900"},
      {"gt_pow",
       "1473dca5bd338dc2baf73f1051a9e38f6ef2a0a7ac5cae8b96dc7889f0ec3467"
       "91049867d3434c61690647d247481fb1"},
      {"user_key_sha256", "587d036fa722863882dad4d308be90e5352ffcb2ca402006c4ddf77550504a26"},
      {"ct_sha256", "2458fe7af9778bb586892e971708861eb539e3853d9ef6be0857307af6e9b3da"},
      {"reencrypted_ct_sha256", "e023e728591e28a8312f875a330293576e34cacfe69551d4d756b6b7be4f97be"},
  });
}

TEST(GoldenVectors, PaperCurve) {
  expect_golden(*Group::pbc_a512(), {
      {"egg",
       "16d35905e93d63f92454b4ad09ce50e25242389cb1730f5070432e76d6c22aeb"
       "7c90071606cd3b9942a35799e6b22ebe6fbc651031b32b05b302c45b59a45ce9"
       "6f81722d2006e21e217b1a18afc8973ca78ab648e32829fe0d2c0ec09712c98c"
       "4c3259bdedece81656c37a279ce7f1e59b1699b12de1f801c4244bb31c91958e"},
      {"g_pow",
       "91d5fc37bb9de4ad212d5d8d816f86c5455912ded38fd623476d2a0c88e34fb0"
       "1cc65089d64917859f9a97acf37f8356faf1cc141904c915fdc09530952d2ad1"
       "01"},
      {"g_pow_uncompressed",
       "91d5fc37bb9de4ad212d5d8d816f86c5455912ded38fd623476d2a0c88e34fb0"
       "1cc65089d64917859f9a97acf37f8356faf1cc141904c915fdc09530952d2ad1"
       "019566ab27f4eeb938e2f0c44ac45b9b5853012073a5983bcd6651ccd1fefdef"
       "bb24d6f843daa535a38505f3a8dbcad2e21e57d52202980e74f35c712ff1efaf"
       "00"},
      {"miller",
       "99feb341ff2ae2a61ec9dee718042976c223adc7602f693deee4137a10076c9a"
       "5132ab9ac98f6ef9e552c5baf2816f8f2f56c396c746f76d5f924f4fa890aa62"
       "9ceb80e67fdaebbcfdec51c598dd9a69e7993a0b02d7a235434c3e65b0b14032"
       "111f21bea3311db659878a586f0bc96fcf54a9d5810c88e14a9c90d980d543a4"},
      {"miller_table",
       "99feb341ff2ae2a61ec9dee718042976c223adc7602f693deee4137a10076c9a"
       "5132ab9ac98f6ef9e552c5baf2816f8f2f56c396c746f76d5f924f4fa890aa62"
       "9ceb80e67fdaebbcfdec51c598dd9a69e7993a0b02d7a235434c3e65b0b14032"
       "111f21bea3311db659878a586f0bc96fcf54a9d5810c88e14a9c90d980d543a4"},
      {"hash_to_g1",
       "0b7571b5b2f62e7fa72d2397861408583cb8807acdb4fdf76bbec845dddccb7d"
       "ada44501202263de5524a3589eeffc4c487796777e2e3c98f4f57fc73cafb0fa"
       "01"},
      {"hash_to_g1_uncompressed",
       "0b7571b5b2f62e7fa72d2397861408583cb8807acdb4fdf76bbec845dddccb7d"
       "ada44501202263de5524a3589eeffc4c487796777e2e3c98f4f57fc73cafb0fa"
       "705acbd88c39609aebea40ce63d4be3274efd8665dae4d6815f3195c06d3c31d"
       "5ddb5fa903697c722f6f41795e8d3cb00c11b524e44547cc06092be31419c3cf"
       "00"},
      {"gt_pow",
       "13da70c40f2baeb9dbeb2f7173182b21ad7cae620addac8b662c7c5527241f55"
       "344223405e009a5de2115faa43e523c83c465681c90eb894739294cf9a2783c2"
       "2118bafc5271a41fee4da72acf46ad53eb78ca6ecbd85928684b7c5c85c5a3d7"
       "1bba899951b20b797c227638bfd631058c78ce60bbb0736747dee5c9cd4be6f9"},
      {"user_key_sha256", "a7d9096dc729dec506afd79b6e34a75268b90515ee87aefd547d12845d20836c"},
      {"ct_sha256", "833c3bfef22ffc9c47340b45e2b07102328274985dcfd34634dfac2aeb1a183a"},
      {"reencrypted_ct_sha256", "7d3f03067e5ea88af4306322f143d9425796e5947e73ff9b224a93bd793ff5de"},
  });
}

}  // namespace
}  // namespace maabe
