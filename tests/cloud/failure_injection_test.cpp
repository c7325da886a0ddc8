// Failure injection on the storage path: corrupted wire bytes, swapped
// slots and cross-file splicing must surface as typed errors (WireError
// on malformed structure, CryptoError on MAC failure) — never as silent
// wrong plaintext.
#include <gtest/gtest.h>

#include "abe/serial.h"
#include "cloud/system.h"
#include "common/errors.h"

namespace maabe::cloud {
namespace {

using pairing::Group;

class FailureInjection : public ::testing::Test {
 protected:
  FailureInjection() : grp(Group::test_small()), sys(grp, "inject") {
    sys.add_authority("Med", {"Doctor"});
    sys.add_owner("hosp");
    sys.publish_authority_keys("Med", "hosp");
    sys.add_user("alice");
    sys.assign_attributes("Med", "alice", {"Doctor"});
    sys.issue_user_key("Med", "alice", "hosp");
    sys.upload("hosp", "f1",
               {{"a", bytes_of("component A plaintext"), "Doctor@Med"},
                {"b", bytes_of("component B plaintext"), "Doctor@Med"}});
  }

  std::shared_ptr<const Group> grp;
  CloudSystem sys;
};

TEST_F(FailureInjection, BitflipsNeverYieldWrongPlaintext) {
  const std::shared_ptr<const StoredFile> original = sys.server().fetch("f1");
  const Bytes wire = serialize(*grp, *original);
  const Consumer& alice = sys.user("alice");

  // Flip one byte at a spread of positions across the whole encoding.
  int structural = 0, authentication = 0, survived = 0;
  for (size_t pos = 0; pos < wire.size(); pos += 13) {
    Bytes bad = wire;
    bad[pos] ^= 0x40;
    try {
      const StoredFile file = deserialize_stored_file(*grp, bad);
      const auto view = sys.user("alice").open_file(file);
      // A flip confined to ignorable metadata may legitimately survive —
      // but any recovered plaintext must be the true one.
      for (const auto& [name, data] : view) {
        EXPECT_TRUE(string_of(data) == "component A plaintext" ||
                    string_of(data) == "component B plaintext")
            << "WRONG PLAINTEXT at corrupt position " << pos;
      }
      ++survived;
    } catch (const WireError&) {
      ++structural;
    } catch (const CryptoError&) {
      ++authentication;
    } catch (const SchemeError&) {
      // e.g. corrupted version table -> version mismatch; acceptable.
      ++structural;
    }
  }
  (void)alice;
  // Most positions must be detected; some flips (e.g. inside ids or
  // policy text) legitimately parse but then fail later or change
  // nothing security-relevant.
  EXPECT_GT(structural + authentication, 0);
}

TEST_F(FailureInjection, SwappedSealedPayloadsDetected) {
  // Swap the two components' symmetric payloads: AAD binding (file id +
  // component name) must make both fail authentication.
  StoredFile file = *sys.server().fetch("f1");
  std::swap(file.slots[0].sealed_data, file.slots[1].sealed_data);
  EXPECT_THROW(sys.user("alice").open_file(file), CryptoError);
}

TEST_F(FailureInjection, SplicedKeyCiphertextDetected) {
  // Replace component a's key-ciphertext with component b's: the KEM
  // seed then derives b's content key, which cannot open a's box.
  StoredFile file = *sys.server().fetch("f1");
  file.slots[0].key_ct = file.slots[1].key_ct;
  EXPECT_THROW(sys.user("alice").open_file(file), CryptoError);
}

TEST_F(FailureInjection, TruncatedWireAlwaysThrows) {
  const Bytes wire = serialize(*grp, *sys.server().fetch("f1"));
  for (size_t len = 0; len < wire.size(); len += 7) {
    EXPECT_THROW(deserialize_stored_file(*grp, ByteView(wire.data(), len)), WireError)
        << len;
  }
}

// ---- Transport faults on protocol channels ---------------------------
// A faulty channel must surface as TransportError (or a typed
// SchemeError) and degrade access — never yield wrong plaintext and
// never let a revoked user keep reading.

LoopbackTransport& loopback(CloudSystem& sys) {
  return dynamic_cast<LoopbackTransport&>(sys.transport());
}

/// World like the fixture's, but on a seeded (faultable) transport and
/// WITHOUT alice's key issued yet. Channels are fault-free until a test
/// dials a FaultSpec in.
class TransportFaults : public ::testing::Test {
 protected:
  TransportFaults()
      : grp(Group::test_small()),
        sys(grp, "inject-transport",
            std::make_unique<LoopbackTransport>(FaultPlan(1234))) {
    sys.add_authority("Med", {"Doctor"});
    sys.add_owner("hosp");
    sys.publish_authority_keys("Med", "hosp");
    sys.add_user("alice");
    sys.assign_attributes("Med", "alice", {"Doctor"});
    sys.upload("hosp", "f1",
               {{"a", bytes_of("component A plaintext"), "Doctor@Med"},
                {"b", bytes_of("component B plaintext"), "Doctor@Med"}});
  }

  std::shared_ptr<const Group> grp;
  CloudSystem sys;
};

TEST_F(TransportFaults, CorruptKeyIssuanceChannelFailsTypedThenRecovers) {
  FaultSpec corrupting;
  corrupting.corrupt = 1.0;
  loopback(sys).faults().set_channel("aa:Med", "user:alice", corrupting);
  try {
    sys.issue_user_key("Med", "alice", "hosp");
    FAIL() << "issuance over an always-corrupting channel succeeded";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kExhausted);
  }
  // Degraded, not wrong: without the key every slot reads kNoKey.
  const auto report = sys.download_report("alice", "f1");
  EXPECT_TRUE(report.opened().empty());
  EXPECT_GT(sys.meter().stats("aa:Med", "user:alice").corruptions, 0u);

  // Heal the channel: the retried operation converges.
  loopback(sys).faults().set_channel("aa:Med", "user:alice", FaultSpec());
  sys.issue_user_key("Med", "alice", "hosp");
  EXPECT_TRUE(sys.download_report("alice", "f1").all_ok());
}

TEST_F(TransportFaults, DuplicatedIssuanceAppliedOnce) {
  FaultSpec duplicating;
  duplicating.duplicate = 1.0;
  loopback(sys).faults().set_channel("aa:Med", "user:alice", duplicating);
  sys.issue_user_key("Med", "alice", "hosp");
  EXPECT_EQ(sys.meter().stats("aa:Med", "user:alice").redeliveries, 1u);
  EXPECT_TRUE(sys.download_report("alice", "f1").all_ok());
}

TEST_F(TransportFaults, UnreachableServerParksEpochAndFailsReadsClosed) {
  sys.issue_user_key("Med", "alice", "hosp");
  ASSERT_TRUE(sys.download_report("alice", "f1").all_ok());

  FaultSpec dropping;
  dropping.drop = 1.0;
  loopback(sys).faults().set_channel("owner:hosp", "server", dropping);
  // The revocation runs, but the epoch cannot reach the server yet.
  const size_t committed = sys.revoke_attribute("Med", "alice", "Doctor");
  EXPECT_EQ(committed, 0u);
  EXPECT_GT(sys.health().pending_deliveries, 0u);

  // Reads fail closed while the epoch is parked: the server would still
  // serve pre-revocation ciphertext.
  try {
    (void)sys.download_report("alice", "f1");
    FAIL() << "download served stale data during a parked epoch";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kDegraded);
  }

  // Heal and drain: the epoch commits and the revoked user is locked out.
  loopback(sys).faults().set_channel("owner:hosp", "server", FaultSpec());
  EXPECT_EQ(sys.flush_pending(), 0u);
  const auto report = sys.download_report("alice", "f1");
  EXPECT_TRUE(report.opened().empty());
  for (const auto& slot : report.slots) {
    EXPECT_EQ(slot.state, CloudSystem::SlotState::kNoKey);
  }
}

TEST_F(TransportFaults, DuplicatedUpdateKeyFoldedOnce) {
  sys.issue_user_key("Med", "alice", "hosp");
  sys.add_user("bob");
  sys.assign_attributes("Med", "bob", {"Doctor"});
  sys.issue_user_key("Med", "bob", "hosp");

  // Revoking bob sends alice an update key; duplicate every frame on
  // that channel. Folding UK2 twice would brick alice's key — the
  // request-id dedup must apply it exactly once.
  FaultSpec duplicating;
  duplicating.duplicate = 1.0;
  loopback(sys).faults().set_channel("aa:Med", "user:alice", duplicating);
  EXPECT_GT(sys.revoke_attribute("Med", "bob", "Doctor"), 0u);
  EXPECT_GT(sys.meter().stats("aa:Med", "user:alice").redeliveries, 0u);

  const auto report = sys.download_report("alice", "f1");
  EXPECT_TRUE(report.all_ok());
  for (const auto& [name, data] : report.opened()) {
    EXPECT_TRUE(string_of(data) == "component A plaintext" ||
                string_of(data) == "component B plaintext");
  }
  EXPECT_TRUE(sys.download_report("bob", "f1").opened().empty());
}

TEST_F(FailureInjection, ForeignGroupElementsRejected) {
  // A ciphertext whose points were generated on a DIFFERENT curve
  // instance must fail to deserialize (x not on curve / value too big)
  // with overwhelming probability rather than decrypt to junk.
  crypto::Drbg rng(std::string_view("gen"));
  const auto params = pairing::TypeAParams::generate(48, 160, rng);
  auto other = Group::create(params);
  const Bytes foreign = other->g1_random(rng).to_bytes();
  EXPECT_NE(foreign.size(), grp->g1_size());
  EXPECT_THROW((void)grp->g1_from_bytes(foreign), WireError);
}

// An on-curve point outside the order-r subgroup: decompression checks
// the curve equation, not subgroup membership, and a random x lands in
// the subgroup only with probability r / (q+1).
pairing::G1 coset_point(const Group& grp) {
  for (uint8_t i = 1;; ++i) {
    Bytes enc(grp.g1_size(), 0);
    enc[enc.size() - 2] = i;  // low x byte; sign flag 0
    try {
      const pairing::G1 p = grp.g1_from_bytes(enc);
      if (!p.in_subgroup()) return p;
    } catch (const WireError&) {
      // x not on the curve, try the next one
    }
  }
}

// Stored ciphertext points are not subgroup-checked on load. The decrypt
// kernel merges pairings that share a first argument, which is exact
// only for subgroup points, so a coset C' yields a different non-message
// than a per-pairing fold would. Either way the content key is wrong and
// the AEAD open rejects it: the download fails closed with CryptoError
// and never returns plaintext, whether the coset point is C' (the first
// argument of two merged classes) or a C_i merged with another row.
TEST(CosetCiphertextPoints, DownloadFailsClosed) {
  const auto grp = Group::test_small();
  CloudSystem sys(grp, "inject-coset");
  sys.add_authority("Med", {"Doctor", "Nurse"});
  sys.add_owner("hosp");
  sys.publish_authority_keys("Med", "hosp");
  sys.add_user("alice");
  sys.assign_attributes("Med", "alice", {"Doctor", "Nurse"});
  sys.issue_user_key("Med", "alice", "hosp");
  sys.upload("hosp", "f1", {{"a", bytes_of("component A plaintext"),
                             "Doctor@Med AND Nurse@Med"}});
  const StoredFile original = *sys.server().fetch("f1");
  ASSERT_EQ(original.slots[0].key_ct.ci.size(), 2u);
  const pairing::G1 rogue = coset_point(*grp);

  for (const int target : {-1, 0, 1}) {  // C', C_0, C_1
    StoredFile file = original;
    abe::Ciphertext& ct = file.slots[0].key_ct;
    if (target < 0) {
      ct.c_prime = rogue;
    } else {
      ct.ci[static_cast<size_t>(target)] = ct.ci[static_cast<size_t>(target)] + rogue;
    }
    sys.server().store(file);
    EXPECT_THROW(sys.download("alice", "f1"), CryptoError) << "target " << target;
    const CloudSystem::DownloadReport report = sys.download_report("alice", "f1");
    ASSERT_EQ(report.slots.size(), 1u);
    EXPECT_EQ(report.slots[0].state, CloudSystem::SlotState::kCorrupt)
        << "target " << target;
    EXPECT_TRUE(report.opened().empty()) << "target " << target;
  }
  // The authentic ciphertext still opens.
  sys.server().store(original);
  EXPECT_EQ(string_of(sys.download("alice", "f1").at("a")), "component A plaintext");
}

// An authority holding an owner share off the subgroup sends update
// keys whose UK1 = (g^{1/beta})^{alpha' - alpha} is off it too. A user
// decodes the UK on-curve only and refuses it in the key update, which
// carries UK1's subgroup check; the owner refuses it in its decoder.
// Both raise the decoder's WireError out of the revocation, and neither
// changes: the user's key and the owner's record stay at version 1.
TEST(RogueUpdateKey, RefusedByAUserAndByTheOwner) {
  const auto grp = Group::test_small();
  for (const bool user_holds_key : {true, false}) {
    SCOPED_TRACE(user_holds_key ? "a user receives the UK" : "only the owner receives it");
    CloudSystem sys(grp, "inject-rogue-uk");
    sys.add_authority("Med", {"Doctor", "Nurse"});
    sys.add_owner("hosp");
    sys.publish_authority_keys("Med", "hosp");
    // carol, the revoked user, holds no key, so no regenerated key (whose
    // K the rogue share would also spoil) is sent.
    sys.add_user("carol");
    sys.assign_attributes("Med", "carol", {"Nurse"});
    if (user_holds_key) {
      sys.add_user("bob");
      sys.assign_attributes("Med", "bob", {"Doctor", "Nurse"});
      sys.issue_user_key("Med", "bob", "hosp");
    }
    sys.upload("hosp", "f1", {{"a", bytes_of("component A plaintext"), "Doctor@Med"}});
    const std::string ct_id = sys.server().fetch("f1")->slots[0].key_ct.id;
    abe::OwnerSecretShare rogue = sys.owner("hosp").share();
    rogue.g_inv_beta = rogue.g_inv_beta + coset_point(*grp);
    sys.authority("Med").accept_owner_share(rogue);
    const Bytes bob_key =
        user_holds_key ? abe::serialize(*grp, sys.user("bob").key("hosp", "Med")) : Bytes();

    try {
      (void)sys.revoke_attribute("Med", "carol", "Nurse");
      ADD_FAILURE() << "rogue update key applied";
    } catch (const WireError& e) {
      EXPECT_STREQ(e.what(), abe::kOutsideSubgroup);
    }
    if (user_holds_key)
      EXPECT_EQ(abe::serialize(*grp, sys.user("bob").key("hosp", "Med")), bob_key);
    EXPECT_EQ(sys.owner("hosp").record(ct_id).versions.at("Med"), 1u);
  }
}

}  // namespace
}  // namespace maabe::cloud
