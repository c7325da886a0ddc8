// Admission-control suite (DESIGN.md §14): bounded durable queues with
// typed rejection and the consumer's decrypt-result cache. Invariants:
//   1. A dead destination cannot grow a durable queue past the cap —
//      further sends come back as TransportError(kOverloaded) and the
//      rejection is counted (regression test: pre-cap, a dead node
//      OOMed the system instead of shedding).
//   2. The decrypt cache serves repeat reads without re-running ABE
//      decryption, and a revocation epoch or key change can never serve
//      a stale plaintext.
#include <gtest/gtest.h>

#include "cloud/system.h"
#include "common/errors.h"

namespace maabe::cloud {
namespace {

using pairing::Group;

std::unique_ptr<CloudSystem> make_system(size_t nodes, size_t replication) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.replication = replication;
  return std::make_unique<CloudSystem>(Group::test_small(), "admission-test",
                                       std::make_unique<LoopbackTransport>(),
                                       RetryPolicy(), cfg);
}

void enroll(CloudSystem& sys) {
  sys.add_authority("Med", {"Doctor"});
  sys.add_owner("hosp");
  sys.publish_authority_keys("Med", "hosp");
  sys.add_user("alice");
  sys.add_user("bob");
  sys.assign_attributes("Med", "alice", {"Doctor"});
  sys.assign_attributes("Med", "bob", {"Doctor"});
  sys.issue_user_key("Med", "alice", "hosp");
  sys.issue_user_key("Med", "bob", "hosp");
}

void upload(CloudSystem& sys, const std::string& file_id) {
  sys.upload("hosp", file_id, {{"a", bytes_of("record " + file_id), "Doctor@Med"}});
}

// ------------------------------------------------ bounded durable queues --

TEST(AdmissionTest, DeadDestinationShedsAtCapInsteadOfGrowingUnbounded) {
  auto sys = make_system(1, 1);
  enroll(*sys);
  const size_t kCap = 8;
  sys->set_pending_cap(kCap);
  EXPECT_EQ(sys->pending_cap(), kCap);

  const uint64_t counter_before = telemetry::MetricsRegistry::global()
                                      .collect()
                                      .counter("maabe_transport_parked_rejected_total");
  sys->cluster().kill_node("server");

  // The first kCap uploads park; every later one must be rejected with
  // the typed overload error, leaving the queue at the cap.
  size_t parked_ok = 0, rejected = 0;
  for (int i = 0; i < 24; ++i) {
    try {
      upload(*sys, "f" + std::to_string(i));
      ++parked_ok;
    } catch (const TransportError& e) {
      ASSERT_EQ(e.kind(), TransportError::Kind::kOverloaded) << e.what();
      ++rejected;
    }
  }
  EXPECT_EQ(parked_ok, kCap);
  EXPECT_EQ(rejected, 24 - kCap);
  EXPECT_EQ(sys->parked_rejected_total(), 24 - kCap);
  EXPECT_LE(sys->health().pending_deliveries, kCap);
  EXPECT_LE(sys->health().pending_by_destination.at("server"), kCap);
  EXPECT_GE(telemetry::MetricsRegistry::global().collect().counter(
                "maabe_transport_parked_rejected_total"),
            counter_before + (24 - kCap));

  // Recovery: the node comes back, parked uploads replay, and the
  // queue drains — rejection was backpressure, not data loss.
  sys->cluster().restart_node("server");
  EXPECT_EQ(sys->flush_pending(), 0u);
  EXPECT_EQ(sys->health().pending_deliveries, 0u);
  for (size_t i = 0; i < parked_ok; ++i) {
    EXPECT_TRUE(sys->download_report("alice", "f" + std::to_string(i)).all_ok());
  }
}

TEST(AdmissionTest, PendingCapZeroRestoresDefault) {
  auto sys = make_system(1, 1);
  sys->set_pending_cap(16);
  EXPECT_EQ(sys->pending_cap(), 16u);
  sys->set_pending_cap(0);
  EXPECT_EQ(sys->pending_cap(), kDefaultPendingCap);
}

// --------------------------------------------------- decrypt-result cache --

TEST(AdmissionTest, DecryptCacheServesRepeatReads) {
  auto sys = make_system(1, 1);
  enroll(*sys);
  upload(*sys, "f1");

  Consumer& alice = sys->user("alice");
  EXPECT_EQ(alice.decrypt_cache_hits(), 0u);
  const auto first = sys->download("alice", "f1");
  EXPECT_EQ(first.at("a"), bytes_of("record f1"));
  EXPECT_EQ(alice.decrypt_cache_hits(), 0u);
  EXPECT_GE(alice.decrypt_cache_misses(), 1u);
  EXPECT_EQ(alice.decrypt_cache_size(), 1u);

  const auto second = sys->download("alice", "f1");
  EXPECT_EQ(second.at("a"), bytes_of("record f1"));
  EXPECT_GE(alice.decrypt_cache_hits(), 1u);
}

TEST(AdmissionTest, RevocationEpochNeverServesStalePlaintext) {
  auto sys = make_system(1, 1);
  enroll(*sys);
  upload(*sys, "f1");
  ASSERT_TRUE(sys->download_report("alice", "f1").all_ok());
  ASSERT_GE(sys->user("alice").decrypt_cache_size(), 1u);

  // Revoking bob rewrites the ciphertext (new version) and updates
  // alice's keys — both sides of the cache key change, and the key
  // update wipes alice's cache outright.
  sys->revoke_attribute("Med", "bob", "Doctor");
  EXPECT_EQ(sys->user("alice").decrypt_cache_size(), 0u);

  const uint64_t hits_before = sys->user("alice").decrypt_cache_hits();
  const auto opened = sys->download("alice", "f1");
  EXPECT_EQ(opened.at("a"), bytes_of("record f1"));
  EXPECT_EQ(sys->user("alice").decrypt_cache_hits(), hits_before);

  // And the revoked user stays locked out — the cache cannot resurrect
  // bob's pre-revocation plaintext either.
  EXPECT_FALSE(sys->download_report("bob", "f1").all_ok());
}

TEST(AdmissionTest, DecryptCacheCapacityZeroDisables) {
  auto sys = make_system(1, 1);
  enroll(*sys);
  upload(*sys, "f1");
  Consumer& alice = sys->user("alice");
  alice.set_decrypt_cache_capacity(0);
  ASSERT_TRUE(sys->download_report("alice", "f1").all_ok());
  ASSERT_TRUE(sys->download_report("alice", "f1").all_ok());
  EXPECT_EQ(alice.decrypt_cache_size(), 0u);
  EXPECT_EQ(alice.decrypt_cache_hits(), 0u);
}

}  // namespace
}  // namespace maabe::cloud
