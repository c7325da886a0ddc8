// End-to-end integration tests of the full access-control framework:
// the paper's Fig. 1 workflow driven through CloudSystem.
#include "cloud/system.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "abe/serial.h"
#include "common/errors.h"
#include "crypto/authenc.h"

namespace maabe::cloud {
namespace {

using pairing::Group;

// The paper's motivating scenario: medical data shared across a medical
// organization and a clinical-trial administrator.
class SystemTest : public ::testing::Test {
 protected:
  SystemTest() : sys(Group::test_small(), "system-test") {
    sys.add_authority("MedOrg", {"Doctor", "Nurse", "Pharmacist"});
    sys.add_authority("TrialAdmin", {"Researcher", "Monitor"});

    sys.add_owner("hospital");
    sys.publish_authority_keys("MedOrg", "hospital");
    sys.publish_authority_keys("TrialAdmin", "hospital");

    sys.add_user("alice");  // doctor + researcher
    sys.assign_attributes("MedOrg", "alice", {"Doctor"});
    sys.assign_attributes("TrialAdmin", "alice", {"Researcher"});
    sys.issue_user_key("MedOrg", "alice", "hospital");
    sys.issue_user_key("TrialAdmin", "alice", "hospital");

    sys.add_user("bob");  // nurse only
    sys.assign_attributes("MedOrg", "bob", {"Nurse"});
    sys.issue_user_key("MedOrg", "bob", "hospital");
    sys.issue_user_key("TrialAdmin", "bob", "hospital");  // empty assignment
  }

  void upload_patient_record() {
    sys.upload("hospital", "patient-42",
               {{"diagnosis", bytes_of("stage-1 hypertension"),
                 "Doctor@MedOrg AND Researcher@TrialAdmin"},
                {"vitals", bytes_of("bp=140/90 hr=72"),
                 "Doctor@MedOrg OR Nurse@MedOrg"},
                {"billing", bytes_of("invoice #99: $1200"),
                 "Pharmacist@MedOrg"}});
  }

  CloudSystem sys;
};

TEST_F(SystemTest, DifferentUsersGetDifferentGranularity) {
  upload_patient_record();

  const auto alice_view = sys.download("alice", "patient-42");
  ASSERT_EQ(alice_view.size(), 2u);
  EXPECT_EQ(string_of(alice_view.at("diagnosis")), "stage-1 hypertension");
  EXPECT_EQ(string_of(alice_view.at("vitals")), "bp=140/90 hr=72");
  EXPECT_FALSE(alice_view.contains("billing"));

  const auto bob_view = sys.download("bob", "patient-42");
  ASSERT_EQ(bob_view.size(), 1u);
  EXPECT_EQ(string_of(bob_view.at("vitals")), "bp=140/90 hr=72");
}

TEST_F(SystemTest, UnknownEntitiesRejected) {
  EXPECT_THROW(sys.download("mallory", "x"), SchemeError);
  EXPECT_THROW(sys.upload("nobody", "f", {}), SchemeError);
  EXPECT_THROW(sys.assign_attributes("NoAA", "alice", {"X"}), SchemeError);
  EXPECT_THROW(sys.assign_attributes("MedOrg", "ghost", {"Doctor"}), SchemeError);
  EXPECT_THROW(sys.issue_user_key("MedOrg", "alice", "no-owner"), SchemeError);
  upload_patient_record();
  EXPECT_THROW(sys.download("alice", "missing-file"), SchemeError);
}

TEST_F(SystemTest, DuplicateEnrollmentRejected) {
  EXPECT_THROW(sys.add_authority("MedOrg", {}), SchemeError);
  EXPECT_THROW(sys.add_user("alice"), SchemeError);
  EXPECT_THROW(sys.add_owner("hospital"), SchemeError);
}

TEST_F(SystemTest, AttributeOutsideUniverseRejected) {
  EXPECT_THROW(sys.assign_attributes("MedOrg", "alice", {"Astronaut"}), SchemeError);
}

TEST_F(SystemTest, RevocationEndToEnd) {
  upload_patient_record();
  ASSERT_EQ(sys.download("alice", "patient-42").size(), 2u);

  // Revoke Doctor from alice at MedOrg.
  const size_t reencrypted = sys.revoke_attribute("MedOrg", "alice", "Doctor");
  // All three components involve MedOrg (diagnosis, vitals, billing),
  // so all three key-ciphertexts get re-encrypted.
  EXPECT_EQ(reencrypted, 3u);
  EXPECT_EQ(sys.authority("MedOrg").version(), 2u);

  // Alice lost Doctor: no more diagnosis, no more vitals via Doctor —
  // and she is not a nurse, so vitals is gone too.
  const auto alice_view = sys.download("alice", "patient-42");
  EXPECT_TRUE(alice_view.empty());

  // Bob (non-revoked) still reads vitals after his key update.
  const auto bob_view = sys.download("bob", "patient-42");
  ASSERT_EQ(bob_view.size(), 1u);
  EXPECT_EQ(string_of(bob_view.at("vitals")), "bp=140/90 hr=72");
}

TEST_F(SystemTest, RevocationDoesNotAffectOtherAuthorities) {
  upload_patient_record();
  sys.revoke_attribute("MedOrg", "bob", "Nurse");
  // Alice keeps full access (her MedOrg key was updated, not revoked).
  const auto alice_view = sys.download("alice", "patient-42");
  EXPECT_EQ(alice_view.size(), 2u);
  // Bob lost everything.
  EXPECT_TRUE(sys.download("bob", "patient-42").empty());
}

TEST_F(SystemTest, NewUserAfterRevocationReadsOldData) {
  upload_patient_record();
  sys.revoke_attribute("MedOrg", "bob", "Nurse");

  sys.add_user("carol");
  sys.assign_attributes("MedOrg", "carol", {"Nurse"});
  sys.issue_user_key("MedOrg", "carol", "hospital");
  const auto carol_view = sys.download("carol", "patient-42");
  ASSERT_EQ(carol_view.size(), 1u);
  EXPECT_EQ(string_of(carol_view.at("vitals")), "bp=140/90 hr=72");
}

TEST_F(SystemTest, UploadsAfterRevocationUseNewVersion) {
  upload_patient_record();
  sys.revoke_attribute("MedOrg", "bob", "Nurse");
  // Owner's cached keys advanced to version 2; new uploads work and
  // non-revoked users can read them.
  sys.upload("hospital", "patient-43",
             {{"vitals", bytes_of("bp=120/80"), "Doctor@MedOrg OR Nurse@MedOrg"}});
  const auto alice_view = sys.download("alice", "patient-43");
  ASSERT_EQ(alice_view.size(), 1u);
  EXPECT_TRUE(sys.download("bob", "patient-43").empty());
}

TEST_F(SystemTest, SequentialRevocationsAcrossAuthorities) {
  upload_patient_record();
  sys.revoke_attribute("MedOrg", "alice", "Doctor");
  sys.revoke_attribute("TrialAdmin", "alice", "Researcher");
  EXPECT_EQ(sys.authority("MedOrg").version(), 2u);
  EXPECT_EQ(sys.authority("TrialAdmin").version(), 2u);
  EXPECT_TRUE(sys.download("alice", "patient-42").empty());
  EXPECT_EQ(sys.download("bob", "patient-42").size(), 1u);
}

TEST_F(SystemTest, RevokeUnheldAttributeRejected) {
  EXPECT_THROW(sys.revoke_attribute("MedOrg", "alice", "Nurse"), SchemeError);
  EXPECT_THROW(sys.revoke_attribute("MedOrg", "bob", "Doctor"), SchemeError);
}

TEST_F(SystemTest, MultipleOwnersIsolated) {
  sys.add_owner("clinic");
  sys.publish_authority_keys("MedOrg", "clinic");
  sys.issue_user_key("MedOrg", "bob", "clinic");

  sys.upload("clinic", "clinic-file",
             {{"note", bytes_of("clinic note"), "Nurse@MedOrg"}});
  upload_patient_record();

  // Bob reads both owners' nurse-visible data with per-owner keys.
  EXPECT_EQ(sys.download("bob", "clinic-file").size(), 1u);
  EXPECT_EQ(sys.download("bob", "patient-42").size(), 1u);

  // Alice has no key for owner "clinic" at all.
  EXPECT_TRUE(sys.download("alice", "clinic-file").empty());

  // Revocation at one owner's world does not break the other owner.
  sys.revoke_attribute("MedOrg", "alice", "Doctor");
  EXPECT_EQ(sys.download("bob", "clinic-file").size(), 1u);
}

TEST_F(SystemTest, TwoRevocationsAtSameAuthority) {
  // Second version bump at the SAME authority with stored files present:
  // the owner's UpdateInfo machinery must chain correctly (v1->v2->v3).
  upload_patient_record();
  sys.revoke_attribute("MedOrg", "alice", "Doctor");
  sys.revoke_attribute("MedOrg", "bob", "Nurse");
  EXPECT_EQ(sys.authority("MedOrg").version(), 3u);
  // Both revoked users lost their MedOrg access.
  EXPECT_TRUE(sys.download("alice", "patient-42").empty());
  EXPECT_TRUE(sys.download("bob", "patient-42").empty());
  // A fresh nurse joining at version 3 reads the twice-re-encrypted file.
  sys.add_user("erin");
  sys.assign_attributes("MedOrg", "erin", {"Nurse"});
  sys.issue_user_key("MedOrg", "erin", "hospital");
  const auto erin_view = sys.download("erin", "patient-42");
  ASSERT_EQ(erin_view.size(), 1u);
  EXPECT_EQ(string_of(erin_view.at("vitals")), "bp=140/90 hr=72");
}

TEST_F(SystemTest, UserLevelRevocation) {
  upload_patient_record();
  // Give alice a second MedOrg attribute so user-level revocation
  // differs from single-attribute revocation.
  sys.assign_attributes("MedOrg", "alice", {"Nurse"});
  sys.issue_user_key("MedOrg", "alice", "hospital");
  ASSERT_EQ(sys.download("alice", "patient-42").size(), 2u);

  const size_t reencrypted = sys.revoke_user("MedOrg", "alice");
  EXPECT_EQ(reencrypted, 3u);
  EXPECT_EQ(sys.authority("MedOrg").version(), 2u);  // single bump
  EXPECT_TRUE(sys.authority("MedOrg").assignment("alice").empty());

  // Alice lost Doctor AND Nurse in one shot; bob unaffected.
  EXPECT_TRUE(sys.download("alice", "patient-42").empty());
  EXPECT_EQ(sys.download("bob", "patient-42").size(), 1u);

  // Revoking a user with nothing assigned is an error.
  EXPECT_THROW(sys.revoke_user("MedOrg", "alice"), SchemeError);
  EXPECT_THROW(sys.revoke_user("TrialAdmin", "bob"), SchemeError);
}

TEST_F(SystemTest, MeterTracksChannels) {
  upload_patient_record();
  sys.download("alice", "patient-42");
  const ChannelMeter& meter = sys.meter();
  EXPECT_GT(meter.stats("aa:MedOrg", "user:alice").payload_bytes, 0u);      // secret keys
  EXPECT_GT(meter.stats("aa:MedOrg", "owner:hospital").payload_bytes, 0u);  // public keys
  EXPECT_GT(meter.stats("owner:hospital", "server").payload_bytes, 0u);     // upload
  EXPECT_GT(meter.stats("server", "user:alice").payload_bytes, 0u);         // download
  EXPECT_EQ(meter.stats("server", "user:bob").payload_bytes, 0u);
}

TEST_F(SystemTest, StorageReportShape) {
  upload_patient_record();
  const auto report = sys.storage_report();
  // AA storage is exactly one exponent — the paper's headline claim.
  EXPECT_EQ(report.per_entity.at("aa:MedOrg"), sys.group().zr_size());
  EXPECT_EQ(report.per_entity.at("aa:TrialAdmin"), sys.group().zr_size());
  EXPECT_GT(report.per_entity.at("owner:hospital"), 2 * sys.group().zr_size());
  EXPECT_GT(report.per_entity.at("user:alice"), 0u);
  EXPECT_GT(report.per_entity.at("server"), 0u);
}

// health() is documented safe to call concurrently with operations on
// other threads. Reader threads hammer it during a mixed workload
// (uploads, downloads, a revocation, parked deliveries under scripted
// faults) and every snapshot must be internally reconciled: the
// per-destination pending map sums to pending_deliveries, counters
// never run backwards, and send accounting stays consistent.
TEST_F(SystemTest, HealthReconcilesUnderConcurrentMixedWorkload) {
  upload_patient_record();

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      uint64_t prev_ok = 0, prev_applied = 0, prev_ms = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const CloudSystem::Health h = sys.health();
        uint64_t by_dest = 0;
        for (const auto& [to, n] : h.pending_by_destination) by_dest += n;
        if (by_dest != h.pending_deliveries ||  // map and total from one lock scope
            h.sends_ok < prev_ok ||             // counters are monotonic
            h.applied_requests < prev_applied || h.virtual_ms < prev_ms ||
            h.transport.frames < h.transport.deliveries ||
            h.transport.bytes_accepted > h.transport.bytes_delivered) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        prev_ok = h.sends_ok;
        prev_applied = h.applied_requests;
        prev_ms = h.virtual_ms;
      }
    });
  }

  // Mixed workload on this thread, including a faulty stretch that
  // parks deliveries so pending_by_destination is actually exercised.
  for (int round = 0; round < 4; ++round) {
    sys.upload("hospital", "load-" + std::to_string(round),
               {{"v", bytes_of("payload"), "Doctor@MedOrg"}});
    (void)sys.download_report("alice", "load-" + std::to_string(round));
  }
  auto& loopback = dynamic_cast<LoopbackTransport&>(sys.transport());
  loopback.faults().fail_next("owner:hospital", "server", 50);
  sys.upload("hospital", "parked", {{"v", bytes_of("late"), "Doctor@MedOrg"}});
  EXPECT_GT(sys.health().pending_deliveries, 0u);
  (void)sys.revoke_attribute("MedOrg", "bob", "Nurse");
  while (sys.flush_pending() != 0) {
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load()) << "a health() snapshot failed reconciliation";

  const CloudSystem::Health h = sys.health();
  EXPECT_EQ(h.pending_deliveries, 0u);
  EXPECT_TRUE(h.pending_by_destination.empty());
  EXPECT_GT(h.sends_ok, 0u);
}

// telemetry_snapshot() surfaces both the process-wide counters and this
// system's collector gauges, reconciled against health()/server stats.
TEST_F(SystemTest, TelemetrySnapshotMatchesStructuredStats) {
  upload_patient_record();
  (void)sys.download_report("alice", "patient-42");

  const telemetry::Snapshot snap = sys.telemetry_snapshot();
  const CloudSystem::Health h = sys.health();
  const ServerStats server = sys.server().stats();

  // Collector gauges: this system is the only one alive in the fixture,
  // but the registry is process-wide, so assert lower bounds.
  EXPECT_EQ(snap.counter("maabe_transport_sends_ok_total", {{"instance", sys.instance()}}),
            h.sends_ok);
  EXPECT_GE(static_cast<uint64_t>(snap.gauge("maabe_system_server_files")),
            server.files);
  EXPECT_GE(static_cast<uint64_t>(snap.gauge("maabe_system_channel_payload_bytes")),
            h.transport.payload_bytes);
  // Registry counters move with the same traffic.
  EXPECT_GT(snap.counter("maabe_transport_frames_total"), 0u);
  EXPECT_GT(snap.counter("maabe_server_stores_total"), 0u);
  EXPECT_GT(snap.counter("maabe_server_fetches_total"), 0u);
  // And the exposition renders them.
  const std::string text = snap.prometheus_text();
  EXPECT_NE(text.find("# TYPE maabe_system_pending_deliveries gauge"),
            std::string::npos);
}

TEST_F(SystemTest, LateAuthorityGetsOwnerShares) {
  // An authority added after owners exist still issues working keys.
  sys.add_authority("Gov", {"Auditor"});
  sys.publish_authority_keys("Gov", "hospital");
  sys.add_user("dave");
  sys.assign_attributes("Gov", "dave", {"Auditor"});
  sys.issue_user_key("Gov", "dave", "hospital");
  sys.upload("hospital", "audit-log", {{"log", bytes_of("entries"), "Auditor@Gov"}});
  EXPECT_EQ(sys.download("dave", "audit-log").size(), 1u);
}

// --------------------------------------- update keys as one batch --

// A revocation collects its users' update keys and applies them as one
// batch; a delivery parked by a dead link replays later, as a batch of
// one, or joins the next revocation's batch. Either way every user ends
// with the key the authority would issue afresh at its version (K*UK1
// and K_x^UK2 are the new version's K and K_x), each update applied once.
class KeyUpdateDelivery : public ::testing::Test {
 protected:
  KeyUpdateDelivery() : sys(Group::test_small(), "key-update-delivery") {
    sys.add_authority("Med", {"Doctor", "Nurse"});
    sys.add_owner("hosp");
    sys.publish_authority_keys("Med", "hosp");
    for (const auto& [uid, names] :
         std::map<std::string, std::set<std::string>>{{"alice", {"Doctor", "Nurse"}},
                                                      {"bob", {"Nurse"}},
                                                      {"carol", {"Doctor", "Nurse"}}}) {
      sys.add_user(uid);
      sys.assign_attributes("Med", uid, names);
      sys.issue_user_key("Med", uid, "hosp");
    }
    sys.upload("hosp", "f1", {{"note", bytes_of("ward note"), "Doctor@Med OR Nurse@Med"}});
  }

  Bytes key_bytes(const std::string& uid) {
    return abe::serialize(sys.group(), sys.user(uid).key("hosp", "Med"));
  }
  /// The key the authority issues `uid` now, at its current version.
  Bytes fresh_key_bytes(const std::string& uid) {
    return abe::serialize(sys.group(),
                          sys.authority("Med").issue_key(sys.user(uid).public_key(), "hosp"));
  }
  /// The next `sends` sends to alice each exhaust their retries.
  void fail_alice(uint32_t sends) {
    sys.transport().faults().fail_next("aa:Med", "user:alice",
                                       sends * RetryPolicy().max_attempts);
  }
  void expect_every_key_fresh() {
    for (const char* uid : {"alice", "bob", "carol"})
      EXPECT_EQ(key_bytes(uid), fresh_key_bytes(uid)) << uid;
  }

  CloudSystem sys;
};

TEST_F(KeyUpdateDelivery, ALinkDownDuringTheRevokeUpdatesOnceOnFlush) {
  const Bytes before = key_bytes("alice");
  fail_alice(1);
  sys.revoke_attribute("Med", "carol", "Nurse");
  EXPECT_EQ(key_bytes("alice"), before);
  EXPECT_EQ(sys.health().pending_by_destination.at("user:alice"), 1u);
  EXPECT_EQ(key_bytes("bob"), fresh_key_bytes("bob"));

  EXPECT_EQ(sys.flush_pending(), 0u);
  expect_every_key_fresh();
  const Bytes once = key_bytes("alice");
  EXPECT_EQ(sys.flush_pending(), 0u);
  EXPECT_EQ(key_bytes("alice"), once);
  EXPECT_EQ(string_of(sys.download("alice", "f1").at("note")), "ward note");
}

TEST_F(KeyUpdateDelivery, AParkedUpdateKeyJoinsTheNextRevocationsBatch) {
  fail_alice(1);
  sys.revoke_attribute("Med", "carol", "Nurse");  // alice's v1 -> v2 parks
  ASSERT_EQ(sys.health().pending_deliveries, 1u);
  sys.revoke_attribute("Med", "bob", "Nurse");  // v1 -> v2, then v2 -> v3
  EXPECT_EQ(sys.health().pending_deliveries, 0u);
  EXPECT_EQ(sys.user("alice").key("hosp", "Med").version, 3u);
  expect_every_key_fresh();
  EXPECT_EQ(string_of(sys.download("alice", "f1").at("note")), "ward note");
}

TEST_F(KeyUpdateDelivery, ARegeneratedKeyBetweenParkedUpdatesKeepsDeliveryOrder) {
  fail_alice(2);
  sys.revoke_attribute("Med", "carol", "Nurse");   // alice's v1 -> v2 parks
  sys.revoke_attribute("Med", "alice", "Doctor");  // her regenerated v3 key parks behind it
  ASSERT_EQ(sys.health().pending_deliveries, 2u);
  // Alice's queue replays into this revocation: v1 -> v2, the v3 key,
  // then this revocation's v3 -> v4.
  sys.revoke_attribute("Med", "bob", "Nurse");
  EXPECT_EQ(sys.health().pending_deliveries, 0u);
  EXPECT_EQ(sys.user("alice").key("hosp", "Med").version, 4u);
  expect_every_key_fresh();
  EXPECT_EQ(string_of(sys.download("alice", "f1").at("note")), "ward note");
  EXPECT_TRUE(sys.download("bob", "f1").empty());
}

// ------------------------------------------- re-encryption is real --

TEST(RevocationReencrypts, RelabeledPreRevokeKeyOpensNoReplicaOfAThreeNodeCluster) {
  // The version check alone would lock bob's pre-revoke key out even
  // if no store re-encrypted. Relabeled to the new version, that key
  // passes every check; only the re-encrypted slot on each replica
  // keeps it from the plaintext. Alice, not revoked, still opens it.
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.replication = 2;
  CloudSystem sys(Group::test_small(), "reencrypt-real",
                  std::make_unique<LoopbackTransport>(FaultPlan()), RetryPolicy(), cfg);
  sys.add_authority("Med", {"Doctor"});
  sys.add_owner("hosp");
  sys.publish_authority_keys("Med", "hosp");
  for (const char* uid : {"alice", "bob"}) {
    sys.add_user(uid);
    sys.assign_attributes("Med", uid, {"Doctor"});
    sys.issue_user_key("Med", uid, "hosp");
  }
  const std::vector<std::string> files = {"f1", "f2", "f3"};
  for (const std::string& f : files)
    sys.upload("hosp", f, {{"a", bytes_of("alpha " + f), "Doctor@Med"}});

  abe::UserSecretKey relabeled = sys.user("bob").key("hosp", "Med");
  EXPECT_EQ(sys.revoke_attribute("Med", "bob", "Doctor"), 2 * files.size());
  EXPECT_EQ(sys.flush_pending(), 0u);
  relabeled.version = sys.authority("Med").version();
  const std::map<std::string, abe::UserSecretKey> bob_old{{"Med", relabeled}};
  const std::map<std::string, abe::UserSecretKey> alice_now{
      {"Med", sys.user("alice").key("hosp", "Med")}};

  const Group& grp = sys.group();
  Cluster& c = sys.cluster();
  for (const std::string& f : files) {
    for (const std::string& node : c.replicas_for(f)) {
      SCOPED_TRACE(node + " " + f);
      const std::shared_ptr<const StoredFile> file = c.node_store(node).fetch(f);
      ASSERT_NE(file, nullptr);
      const SealedSlot& slot = file->slots.at(0);
      ASSERT_EQ(slot.key_ct.versions.at("Med"), relabeled.version);
      ASSERT_TRUE(abe::can_decrypt(grp, slot.key_ct, bob_old));
      const pairing::GT seed =
          abe::decrypt(grp, slot.key_ct, sys.user("alice").public_key(), alice_now);
      const pairing::GT stale =
          abe::decrypt(grp, slot.key_ct, sys.user("bob").public_key(), bob_old);
      EXPECT_NE(stale, seed);
      EXPECT_THROW(
          crypto::open(content_key_from_gt(stale), slot.sealed_data, slot_aad(f, "a")),
          CryptoError);
      EXPECT_EQ(crypto::open(content_key_from_gt(seed), slot.sealed_data, slot_aad(f, "a")),
                bytes_of("alpha " + f));
    }
    EXPECT_TRUE(sys.download_report("bob", f).opened().empty());
    EXPECT_EQ(sys.download_report("alice", f).opened(),
              (std::map<std::string, Bytes>{{"a", bytes_of("alpha " + f)}}));
  }
}

// -------------------------------------------- epoch path parity --

/// What one revocation epoch left behind, in a form comparable across
/// cluster sizes.
struct EpochTrace {
  // {epochs_2pc, epoch_commits, epoch_aborts} after the aborted attempt
  // and after the retry.
  std::vector<uint64_t> aborted, retried;
};

/// Upload, revoke with one injected stage failure (the epoch parks),
/// then retry it from the durable queue. One node and three nodes must
/// walk the same 2PC: same counters, same version bumps, no stale
/// store, and the paper's access guarantee afterwards.
EpochTrace run_epoch_with_one_stage_failure(size_t nodes, size_t replication) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.replication = replication;
  RetryPolicy once;
  once.max_attempts = 1;  // a failed stage parks the epoch at once
  CloudSystem sys(Group::test_small(), "epoch-parity",
                  std::make_unique<LoopbackTransport>(FaultPlan()), once, cfg);
  sys.add_authority("Med", {"Doctor"});
  sys.add_owner("hosp");
  sys.publish_authority_keys("Med", "hosp");
  for (const char* uid : {"alice", "bob"}) {
    sys.add_user(uid);
    sys.assign_attributes("Med", uid, {"Doctor"});
    sys.issue_user_key("Med", uid, "hosp");
  }
  const std::vector<std::string> files = {"f1", "f2", "f3", "f4"};
  for (const std::string& f : files) {
    sys.upload("hosp", f,
               {{"a", bytes_of("alpha " + f), "Doctor@Med"},
                {"b", bytes_of("bravo " + f), "Doctor@Med"}});
  }
  EXPECT_EQ(sys.flush_pending(), 0u);

  Cluster& c = sys.cluster();
  std::map<std::pair<std::string, std::string>, uint64_t> uploaded;
  for (const std::string& f : files) {
    for (const std::string& node : c.replicas_for(f)) {
      const uint64_t version = c.version_of(node, f);
      EXPECT_GT(version, 0u) << node << " " << f;
      uploaded[{node, f}] = version;
    }
  }
  std::vector<Bytes> before;
  for (const std::string& node : c.node_names()) before.push_back(c.snapshot(node));

  // The first slot staged on any node throws; every later one passes.
  auto fail_once = std::make_shared<std::atomic<bool>>(true);
  for (const std::string& node : c.node_names()) {
    c.node_store(node).set_reencrypt_fault_hook([fail_once](const std::string&) {
      if (fail_once->exchange(false))
        throw TransportError(TransportError::Kind::kLost, "injected stage failure");
    });
  }
  const auto counters = [&c] {
    const ClusterStats cs = c.stats();
    return std::vector<uint64_t>{cs.epochs_2pc, cs.epoch_commits, cs.epoch_aborts};
  };

  EpochTrace out;
  EXPECT_EQ(sys.revoke_attribute("Med", "bob", "Doctor"), 0u);
  out.aborted = counters();
  std::vector<Bytes> after_abort;
  for (const std::string& node : c.node_names()) after_abort.push_back(c.snapshot(node));
  EXPECT_EQ(after_abort, before) << "the aborted epoch moved a store";

  EXPECT_EQ(sys.flush_pending(), 0u);  // the parked epoch replays and commits
  out.retried = counters();

  for (const std::string& node : c.node_names()) {
    EXPECT_EQ(sys.health(node).store.epochs_staged_open, 0u) << node;
  }
  for (const auto& [at, version] : uploaded) {
    EXPECT_GT(c.version_of(at.first, at.second), version)
        << at.first << " kept " << at.second << " at its upload version";
  }
  for (const std::string& f : files) {
    EXPECT_TRUE(sys.download_report("bob", f).opened().empty()) << f;
    const auto report = sys.download_report("alice", f);
    EXPECT_TRUE(report.all_ok()) << f;
    EXPECT_EQ(report.opened(), (std::map<std::string, Bytes>{
                                   {"a", bytes_of("alpha " + f)},
                                   {"b", bytes_of("bravo " + f)}}));
  }
  return out;
}

TEST(EpochParity, OneNodeRunsTheSame2PCAsThreeNodes) {
  std::vector<EpochTrace> traces;
  for (const auto& [nodes, replication] :
       std::vector<std::pair<size_t, size_t>>{{1, 1}, {3, 2}}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    traces.push_back(run_epoch_with_one_stage_failure(nodes, replication));
    EXPECT_EQ(traces.back().aborted, (std::vector<uint64_t>{1, 0, 1}));
    EXPECT_EQ(traces.back().retried, (std::vector<uint64_t>{2, 1, 1}));
  }
  EXPECT_EQ(traces[0].aborted, traces[1].aborted);
  EXPECT_EQ(traces[0].retried, traces[1].retried);
}

TEST(EpochParity, OneNodeRestartRunsTheSameRejoin) {
  CloudSystem sys(Group::test_small(), "one-node-rejoin");
  sys.add_authority("Med", {"Doctor"});
  sys.add_owner("hosp");
  sys.publish_authority_keys("Med", "hosp");
  sys.add_user("alice");
  sys.assign_attributes("Med", "alice", {"Doctor"});
  sys.issue_user_key("Med", "alice", "hosp");
  sys.upload("hosp", "f1", {{"a", bytes_of("alpha f1"), "Doctor@Med"}});
  Cluster& c = sys.cluster();
  ASSERT_EQ(c.node_names(), std::vector<std::string>{"server"});
  const Bytes snapshot = c.snapshot("server");
  const auto opened = sys.download("alice", "f1");
  const RecoveryStats before = c.recovery().stats();

  // A lone node rejoins like any other: one counted rejoin, with no
  // peer to drain hints from or sync against.
  c.kill_node("server");
  c.restart_node("server");
  const RecoveryStats after = c.recovery().stats();
  EXPECT_EQ(after.rejoins, before.rejoins + 1);
  EXPECT_EQ(after.sync_failures, before.sync_failures);
  EXPECT_EQ(c.snapshot("server"), snapshot);
  EXPECT_EQ(sys.download("alice", "f1"), opened);
}

}  // namespace
}  // namespace maabe::cloud
