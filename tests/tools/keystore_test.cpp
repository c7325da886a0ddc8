#include "keystore.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "abe/scheme.h"
#include "common/errors.h"
#include "lsss/parser.h"

namespace maabe::tools {
namespace {

namespace fs = std::filesystem;

class KeystoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    home_ = fs::temp_directory_path() /
            ("maabe-ks-test-" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(home_);
    store_ = std::make_unique<Keystore>(home_);
  }

  void TearDown() override { fs::remove_all(home_); }

  fs::path home_;
  std::unique_ptr<Keystore> store_;
  crypto::Drbg rng_{std::string_view("keystore-test")};
};

TEST_F(KeystoreTest, IdentifierValidation) {
  Keystore::validate_id("alice-01.test_X");
  EXPECT_THROW(Keystore::validate_id(""), SchemeError);
  EXPECT_THROW(Keystore::validate_id("a/b"), SchemeError);
  EXPECT_THROW(Keystore::validate_id(".."), SchemeError);
  EXPECT_THROW(Keystore::validate_id("a b"), SchemeError);
  EXPECT_THROW(Keystore::validate_id("a\nb"), SchemeError);
  EXPECT_THROW(Keystore::validate_id(std::string(200, 'a')), SchemeError);
}

TEST_F(KeystoreTest, CiphertextIdValidationAndEncoding) {
  // Hybrid slot ids carry a '/', which plain ids must not.
  Keystore::validate_ct_id("f1/data");
  Keystore::validate_ct_id("plain-id");
  EXPECT_THROW(Keystore::validate_ct_id(""), SchemeError);
  EXPECT_THROW(Keystore::validate_ct_id("."), SchemeError);
  EXPECT_THROW(Keystore::validate_ct_id(".."), SchemeError);
  EXPECT_THROW(Keystore::validate_ct_id("a b"), SchemeError);
  EXPECT_THROW(Keystore::validate_ct_id(std::string(200, 'a')), SchemeError);

  EXPECT_EQ(Keystore::encode_ct_id("f1/data"), "f1%2Fdata");
  EXPECT_EQ(Keystore::encode_ct_id("plain-id_0.9"), "plain-id_0.9");
  EXPECT_EQ(Keystore::encode_ct_id("a%b"), "a%25b");  // '%' itself escapes
  for (const std::string id : {"f1/data", "plain", "a/b/c", "a%2Fb"})
    EXPECT_EQ(Keystore::decode_ct_id(Keystore::encode_ct_id(id)), id) << id;
  EXPECT_THROW(Keystore::decode_ct_id("bad%"), SchemeError);
  EXPECT_THROW(Keystore::decode_ct_id("bad%2"), SchemeError);
  EXPECT_THROW(Keystore::decode_ct_id("bad%ZZ"), SchemeError);
}

TEST_F(KeystoreTest, HybridCiphertextIdsRoundTrip) {
  // Regression: "<file_id>/<component>" ct ids used to be rejected by
  // validate_id when used as keystore path leaves.
  store_->init_group(pairing::TypeAParams::test_small());
  auto grp = store_->group();
  const auto mk = abe::owner_gen(*grp, "hosp", rng_);
  store_->save_owner(mk, abe::owner_share(*grp, mk));

  const auto vk = abe::aa_setup(*grp, "Med", rng_);
  std::map<std::string, abe::AuthorityPublicKey> apks;
  apks.emplace("Med", abe::aa_public_key(*grp, vk));
  std::map<std::string, abe::PublicAttributeKey> attr_pks;
  const auto apk = abe::aa_attribute_key(*grp, vk, "Doctor");
  attr_pks.emplace(apk.attr.qualified(), apk);

  const std::string ct_id = "records/data";  // contains '/'
  const auto enc = abe::encrypt(
      *grp, mk, ct_id, grp->gt_random(rng_),
      lsss::LsssMatrix::from_policy(lsss::parse_policy("Doctor@Med")), apks,
      attr_pks, rng_);
  store_->save_record("hosp", enc.record);

  EXPECT_EQ(store_->load_record("hosp", ct_id).ct_id, ct_id);
  // Listing decodes the escaped path leaves back to the raw ids.
  EXPECT_EQ(store_->list_records("hosp"), std::vector<std::string>{ct_id});
}

TEST_F(KeystoreTest, UninitializedGroupThrows) {
  EXPECT_FALSE(store_->initialized());
  EXPECT_THROW(store_->group(), SchemeError);
}

TEST_F(KeystoreTest, GroupPersistsAcrossInstances) {
  store_->init_group(pairing::TypeAParams::test_small());
  EXPECT_TRUE(store_->initialized());
  auto g1 = store_->group();
  Keystore reopened(home_);
  auto g2 = reopened.group();
  EXPECT_EQ(g1->params().q, g2->params().q);
  EXPECT_EQ(g1->order(), g2->order());
  // Deterministic generator derivation: the two instances interoperate.
  EXPECT_EQ(g1->g().to_bytes(), g2->g().to_bytes());
}

TEST_F(KeystoreTest, UserRoundTrip) {
  store_->init_group(pairing::TypeAParams::test_small());
  auto grp = store_->group();
  const auto pk = abe::ca_register_user(*grp, "alice", rng_);
  store_->save_user_pk(pk);
  EXPECT_TRUE(store_->has_user("alice"));
  EXPECT_FALSE(store_->has_user("bob"));
  EXPECT_EQ(store_->load_user_pk("alice").pk, pk.pk);
  EXPECT_EQ(store_->list_users(), std::vector<std::string>{"alice"});
  EXPECT_THROW(store_->load_user_pk("bob"), SchemeError);
}

TEST_F(KeystoreTest, AuthorityStateRoundTrip) {
  store_->init_group(pairing::TypeAParams::test_small());
  auto grp = store_->group();
  AuthorityState state;
  state.vk = abe::aa_setup(*grp, "Med", rng_);
  state.universe = {"Doctor", "Nurse"};
  state.assignments = {{"alice", {"Doctor"}}, {"bob", {"Doctor", "Nurse"}}};
  store_->save_authority(state);

  const AuthorityState back = store_->load_authority("Med");
  EXPECT_EQ(back.vk.aid, "Med");
  EXPECT_EQ(back.vk.version, 1u);
  EXPECT_EQ(back.vk.alpha, state.vk.alpha);
  EXPECT_EQ(back.universe, state.universe);
  EXPECT_EQ(back.assignments, state.assignments);
  EXPECT_EQ(store_->list_authorities(), std::vector<std::string>{"Med"});
}

TEST_F(KeystoreTest, OwnerAndKeysRoundTrip) {
  store_->init_group(pairing::TypeAParams::test_small());
  auto grp = store_->group();
  const auto mk = abe::owner_gen(*grp, "hosp", rng_);
  const auto share = abe::owner_share(*grp, mk);
  store_->save_owner(mk, share);
  EXPECT_TRUE(store_->has_owner("hosp"));
  EXPECT_EQ(store_->load_owner_master("hosp").beta, mk.beta);
  EXPECT_EQ(store_->load_owner_share("hosp").r_over_beta, share.r_over_beta);

  const auto vk = abe::aa_setup(*grp, "Med", rng_);
  const auto user = abe::ca_register_user(*grp, "alice", rng_);
  const auto sk = abe::aa_keygen(*grp, vk, share, user, {"Doctor"});
  store_->save_user_key(sk);
  const auto loaded = store_->load_user_key("alice", "hosp", "Med");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->k, sk.k);
  EXPECT_FALSE(store_->load_user_key("alice", "hosp", "Gov").has_value());
  const auto by_owner = store_->load_user_keys_for_owner("alice", "hosp");
  EXPECT_EQ(by_owner.size(), 1u);
  EXPECT_TRUE(by_owner.contains("Med"));

  store_->delete_user_key("alice", "hosp", "Med");
  EXPECT_FALSE(store_->load_user_key("alice", "hosp", "Med").has_value());
}

TEST_F(KeystoreTest, ServerFilesRoundTrip) {
  store_->init_group(pairing::TypeAParams::test_small());
  const Bytes data = bytes_of("stored file bytes");
  store_->save_server_file("f1", data);
  EXPECT_TRUE(store_->has_server_file("f1"));
  EXPECT_EQ(store_->load_server_file("f1"), data);
  EXPECT_EQ(store_->list_server_files(), std::vector<std::string>{"f1"});
  // Overwrite allowed (re-encryption path rewrites files).
  store_->save_server_file("f1", bytes_of("v2"));
  EXPECT_EQ(string_of(store_->load_server_file("f1")), "v2");
}

TEST_F(KeystoreTest, CorruptGroupParamsRejected) {
  store_->init_group(pairing::TypeAParams::test_small());
  // Truncate the params file.
  const fs::path p = home_ / "group.params";
  fs::resize_file(p, fs::file_size(p) / 2);
  Keystore reopened(home_);
  EXPECT_THROW(reopened.group(), Error);
}

}  // namespace
}  // namespace maabe::tools
