// Unit tests for the individual framework entities (the integration
// behaviour is covered in system_test.cpp).
#include "cloud/entities.h"

#include <gtest/gtest.h>

#include "abe/serial.h"
#include "cloud/server.h"
#include "common/errors.h"

namespace maabe::cloud {
namespace {

using pairing::Group;

class EntitiesTest : public ::testing::Test {
 protected:
  EntitiesTest()
      : grp(Group::test_small()),
        ca(grp, crypto::Drbg(std::string_view("ca"))),
        aa(grp, "Med", crypto::Drbg(std::string_view("aa"))),
        owner(grp, "hosp", crypto::Drbg(std::string_view("owner"))) {}

  std::shared_ptr<const Group> grp;
  CertificateAuthority ca;
  AttributeAuthority aa;
  DataOwner owner;
};

TEST_F(EntitiesTest, CaRegistration) {
  const abe::UserPublicKey& pk = ca.register_user("alice");
  EXPECT_EQ(pk.uid, "alice");
  EXPECT_TRUE(ca.has_user("alice"));
  EXPECT_FALSE(ca.has_user("bob"));
  EXPECT_EQ(ca.user_public_key("alice").pk, pk.pk);
  EXPECT_THROW(ca.register_user("alice"), SchemeError);
  EXPECT_THROW(ca.user_public_key("ghost"), SchemeError);

  ca.register_authority("Med");
  EXPECT_TRUE(ca.has_authority("Med"));
  EXPECT_THROW(ca.register_authority("Med"), SchemeError);
  EXPECT_THROW(ca.register_authority(""), SchemeError);
}

TEST_F(EntitiesTest, DistinctUsersGetDistinctKeys) {
  const auto& a = ca.register_user("a");
  const auto& b = ca.register_user("b");
  EXPECT_NE(a.pk, b.pk);
}

TEST_F(EntitiesTest, AuthorityUniverseAndAssignments) {
  aa.define_attribute("Doctor");
  aa.define_attribute("Nurse");
  EXPECT_TRUE(aa.manages("Doctor"));
  EXPECT_FALSE(aa.manages("Pilot"));
  EXPECT_THROW(aa.define_attribute(""), SchemeError);

  aa.assign("alice", {"Doctor"});
  EXPECT_EQ(aa.assignment("alice"), (std::set<std::string>{"Doctor"}));
  EXPECT_TRUE(aa.assignment("stranger").empty());
  EXPECT_THROW(aa.assign("alice", {"Pilot"}), SchemeError);
  // Assignments accumulate.
  aa.assign("alice", {"Nurse"});
  EXPECT_EQ(aa.assignment("alice").size(), 2u);
}

TEST_F(EntitiesTest, IssueKeyRequiresOnboardedOwner) {
  aa.define_attribute("Doctor");
  const auto& alice = ca.register_user("alice");
  aa.assign("alice", {"Doctor"});
  EXPECT_THROW(aa.issue_key(alice, "hosp"), SchemeError);
  aa.accept_owner_share(owner.share());
  const abe::UserSecretKey sk = aa.issue_key(alice, "hosp");
  EXPECT_EQ(sk.uid, "alice");
  EXPECT_EQ(sk.owner_id, "hosp");
  EXPECT_EQ(sk.kx.size(), 1u);
  EXPECT_TRUE(sk.kx.contains("Doctor@Med"));
}

TEST_F(EntitiesTest, AuthorityPublicKeysTrackUniverse) {
  aa.define_attribute("Doctor");
  aa.define_attribute("Nurse");
  const auto pks = aa.attribute_public_keys();
  EXPECT_EQ(pks.size(), 2u);
  EXPECT_TRUE(pks.contains("Doctor@Med"));
  EXPECT_TRUE(pks.contains("Nurse@Med"));
  EXPECT_EQ(aa.public_key().aid, "Med");
  EXPECT_EQ(aa.public_key().version, 1u);
}

TEST_F(EntitiesTest, RevokeValidatesAssignment) {
  aa.define_attribute("Doctor");
  const auto& alice = ca.register_user("alice");
  EXPECT_THROW(aa.revoke(alice, "Doctor"), SchemeError);  // never assigned
  aa.assign("alice", {"Doctor"});
  aa.accept_owner_share(owner.share());
  const auto bundle = aa.revoke(alice, "Doctor");
  EXPECT_EQ(bundle.new_version, 2u);
  EXPECT_EQ(aa.version(), 2u);
  ASSERT_TRUE(bundle.update_keys.contains("hosp"));
  ASSERT_TRUE(bundle.regenerated_keys.contains("hosp"));
  EXPECT_TRUE(bundle.regenerated_keys.at("hosp").kx.empty());
  // Assignment is gone: second revoke of the same attribute fails.
  EXPECT_THROW(aa.revoke(alice, "Doctor"), SchemeError);
}

TEST_F(EntitiesTest, OwnerProtectValidatesInputs) {
  EXPECT_THROW(owner.protect("f", {}), SchemeError);
  // Policy referencing an authority the owner has no keys for.
  EXPECT_THROW(owner.protect("f", {{"c", bytes_of("x"), "Doctor@Med"}}), SchemeError);
}

TEST_F(EntitiesTest, OwnerProtectAndConsumerOpen) {
  aa.define_attribute("Doctor");
  aa.accept_owner_share(owner.share());
  owner.learn_authority_key(aa.public_key());
  for (const auto& [h, pk] : aa.attribute_public_keys()) owner.learn_attribute_key(pk);

  const StoredFile file =
      owner.protect("f", {{"c1", bytes_of("payload-1"), "Doctor@Med"},
                          {"c2", bytes_of("payload-2"), "Doctor@Med"}});
  EXPECT_EQ(file.slots.size(), 2u);
  EXPECT_EQ(owner.tracked_ciphertexts(), 2u);
  // Duplicate component id rejected.
  EXPECT_THROW(owner.protect("f", {{"c1", bytes_of("z"), "Doctor@Med"}}), SchemeError);

  const auto& alice = ca.register_user("alice");
  aa.assign("alice", {"Doctor"});
  Consumer consumer(grp, alice);
  consumer.add_key(aa.issue_key(alice, "hosp"));
  EXPECT_TRUE(consumer.has_key("hosp", "Med"));
  EXPECT_TRUE(consumer.can_open(file.slots[0]));
  const auto view = consumer.open_file(file);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(string_of(view.at("c1")), "payload-1");
  EXPECT_EQ(string_of(view.at("c2")), "payload-2");
}

TEST_F(EntitiesTest, OwnerUpdateInfosFromRecordsMatchTheCiphertextForm) {
  // The owner computes every epoch's UpdateInfo from its records alone.
  // The reference runs the ciphertext form of owner_update_info on the
  // test's own copies of the uploaded slots, which are re-encrypted after
  // each epoch as the cloud re-encrypts its own.
  AttributeAuthority gov(grp, "Gov", crypto::Drbg(std::string_view("gov")));
  for (const std::string name : {"Doctor", "Nurse", "Admin"}) aa.define_attribute(name);
  gov.define_attribute("Auditor");
  for (AttributeAuthority* a : {&aa, &gov}) {
    a->accept_owner_share(owner.share());
    owner.learn_authority_key(a->public_key());
    for (const auto& [h, pk] : a->attribute_public_keys()) owner.learn_attribute_key(pk);
  }
  const auto& alice = ca.register_user("alice");
  aa.assign("alice", {"Doctor", "Nurse"});
  gov.assign("alice", {"Auditor"});

  // MK_o is the first draw of the owner's seeded Drbg; the share pins it.
  crypto::Drbg twin_rng(std::string_view("owner"));
  const abe::OwnerMasterKey mk = abe::owner_gen(*grp, "hosp", twin_rng);
  ASSERT_EQ(abe::owner_share(*grp, mk).g_inv_beta, owner.share().g_inv_beta);

  std::map<std::string, abe::Ciphertext> copies;  // ct_id -> slot key_ct
  const auto upload = [&](const std::string& file_id, const std::string& component,
                          const std::string& policy) {
    for (const SealedSlot& slot :
         owner.protect(file_id, {{component, bytes_of("x"), policy}}).slots)
      copies.emplace(slot.key_ct.id, slot.key_ct);
  };
  // protect() compiles injective policies only, so a repeated row
  // attribute is RevocationTest.RecordFormMatchesCiphertextFormWhenAnAttributeRepeats.
  upload("f1", "and", "Doctor@Med AND Auditor@Gov");
  upload("f2", "threshold", "2 of (Doctor@Med, Nurse@Med, Auditor@Gov) OR Admin@Med");
  upload("f3", "gov-only", "Auditor@Gov");  // involves no Med row

  struct Epoch {
    AttributeAuthority* authority;
    std::string attribute;
    size_t infos;
  };
  const std::vector<Epoch> epochs{{&aa, "Doctor", 2}, {&gov, "Auditor", 3}, {&aa, "Nurse", 3}};
  std::vector<abe::UpdateKey> applied;
  for (size_t e = 0; e < epochs.size(); ++e) {
    // A re-upload between epochs: a new revision of f1, recorded at Med
    // version 2, which only the last epoch re-keys.
    if (e == 1) upload("f1", "and#r2", "Doctor@Med OR Nurse@Med");
    AttributeAuthority& a = *epochs[e].authority;
    const uint32_t from = a.version();
    const auto old_pks = a.attribute_public_keys();
    const auto bundle = a.revoke(alice, epochs[e].attribute);
    const abe::UpdateKey& uk = bundle.update_keys.at("hosp");
    const auto new_pks = a.attribute_public_keys();
    ASSERT_TRUE(owner.apply_update(uk));
    applied.push_back(uk);
    const std::vector<abe::UpdateInfo> got = owner.update_infos(uk);

    std::vector<abe::UpdateInfo> want;
    for (const auto& [ct_id, ct] : copies) {
      const auto ver = ct.versions.find(a.aid());
      if (ver == ct.versions.end() || ver->second != from) continue;
      want.push_back(abe::owner_update_info(*grp, mk, owner.record(ct_id), ct, old_pks,
                                            new_pks, a.aid()));
    }
    ASSERT_EQ(want.size(), epochs[e].infos) << "epoch " << e;
    ASSERT_EQ(got.size(), want.size()) << "epoch " << e;
    for (size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(abe::serialize(*grp, got[i]), abe::serialize(*grp, want[i]))
          << "epoch " << e << ", " << want[i].ct_id;
    for (const abe::UpdateInfo& ui : want) abe::reencrypt(*grp, &copies.at(ui.ct_id), uk, ui);

    EXPECT_EQ(owner.tracked_ciphertexts(), copies.size());
    for (const auto& [ct_id, ct] : copies)
      EXPECT_EQ(owner.record(ct_id).versions, ct.versions) << "epoch " << e << ", " << ct_id;
  }
  EXPECT_EQ(owner.tracked_ciphertexts(), 4u);
  // A second pass over an epoch already run finds nothing to re-key.
  EXPECT_TRUE(owner.update_infos(applied.front()).empty());
  EXPECT_THROW(owner.record("f9/none"), SchemeError);
}

TEST_F(EntitiesTest, ConsumerRejectsForeignKeys) {
  const auto& alice = ca.register_user("alice");
  const auto& bob = ca.register_user("bob");
  aa.define_attribute("Doctor");
  aa.assign("bob", {"Doctor"});
  aa.accept_owner_share(owner.share());
  Consumer consumer(grp, alice);
  EXPECT_THROW(consumer.add_key(aa.issue_key(bob, "hosp")), SchemeError);
  EXPECT_THROW(consumer.key("hosp", "Med"), SchemeError);
}

TEST_F(EntitiesTest, ConsumerKeyStorageBytes) {
  const auto& alice = ca.register_user("alice");
  aa.define_attribute("Doctor");
  aa.assign("alice", {"Doctor"});
  aa.accept_owner_share(owner.share());
  Consumer consumer(grp, alice);
  EXPECT_EQ(consumer.key_storage_bytes(), 0u);
  consumer.add_key(aa.issue_key(alice, "hosp"));
  EXPECT_GT(consumer.key_storage_bytes(), grp->g1_size());
}

TEST_F(EntitiesTest, ServerStoreFetchReencryptValidation) {
  CloudServer server(grp);
  EXPECT_THROW(server.fetch("nope"), SchemeError);
  EXPECT_THROW(server.store(StoredFile{}), SchemeError);  // empty id
  EXPECT_EQ(server.storage_bytes(), 0u);

  aa.define_attribute("Doctor");
  aa.accept_owner_share(owner.share());
  owner.learn_authority_key(aa.public_key());
  for (const auto& [h, pk] : aa.attribute_public_keys()) owner.learn_attribute_key(pk);
  server.store(owner.protect("f", {{"c", bytes_of("x"), "Doctor@Med"}}));
  EXPECT_TRUE(server.has_file("f"));
  EXPECT_EQ(server.file_ids(), std::vector<std::string>{"f"});
  EXPECT_GT(server.storage_bytes(), 0u);
  EXPECT_GT(server.ciphertext_group_material_bytes(), 0u);

  // Re-encrypt with missing update info throws.
  const auto& alice = ca.register_user("alice");
  aa.assign("alice", {"Doctor"});
  auto bundle = aa.revoke(alice, "Doctor");
  EXPECT_THROW(server.reencrypt(bundle.update_keys.at("hosp"), {}), SchemeError);
}

TEST_F(EntitiesTest, OwnerApplyUpdateIgnoresForeignUpdates) {
  aa.define_attribute("Doctor");
  aa.accept_owner_share(owner.share());
  owner.learn_authority_key(aa.public_key());
  abe::UpdateKey uk;
  uk.aid = "Med";
  uk.owner_id = "someone-else";
  EXPECT_FALSE(owner.apply_update(uk));
  abe::UpdateKey uk2;
  uk2.aid = "UnknownAA";
  uk2.owner_id = "hosp";
  EXPECT_FALSE(owner.apply_update(uk2));
}

}  // namespace
}  // namespace maabe::cloud
