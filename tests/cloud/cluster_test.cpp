// Cluster chaos suite (DESIGN.md §13): node failures, partitions and
// corrupt replicas against the 3-node cloud. Invariants:
//   1. Replicas of every file converge byte-identically once queues
//      drain (snapshot comparison, including against a fault-free run).
//   2. A revocation epoch commits on every node or on none (2PC).
//   3. Reads fail closed (typed) while an epoch is parked, and fail
//      typed when a quorum cannot be met.
//   4. A corrupt replica loses the quorum read and gets repaired.
// Registered under the `chaos` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "cloud/system.h"
#include "common/errors.h"
#include "crypto/sha256.h"
#include "../support/flight_dump_on_failure.h"

namespace maabe::cloud {
namespace {

using pairing::Group;

// One install per binary: a failing chaos test dumps every node's
// flight-recorder ring so the fault sequence ships with the report.
[[maybe_unused]] const bool kFlightDumpInstalled =
    maabe::test_support::install_flight_dump_on_failure();

std::unique_ptr<CloudSystem> make_system(std::shared_ptr<const Group> grp,
                                         size_t nodes, size_t replication,
                                         FaultPlan plan = FaultPlan(),
                                         RetryPolicy retry = RetryPolicy()) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.replication = replication;
  return std::make_unique<CloudSystem>(
      grp, "cluster-chaos", std::make_unique<LoopbackTransport>(std::move(plan)),
      retry, cfg);
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

std::string record_of(const std::string& file_id) { return "record " + file_id; }

void upload_all(CloudSystem& sys, const std::vector<std::string>& files) {
  for (const std::string& f : files) {
    sys.upload("hosp", f, {{"a", bytes_of(record_of(f)), "Doctor@Med"}});
  }
}

/// Invariant 1: every replica of every file holds the same bytes at the
/// same version, and nodes outside the replica set hold nothing.
void expect_replicas_converged(CloudSystem& sys,
                               const std::vector<std::string>& files) {
  Cluster& c = sys.cluster();
  for (const std::string& f : files) {
    const std::vector<std::string> replicas = c.replicas_for(f);
    ASSERT_FALSE(replicas.empty());
    ASSERT_TRUE(c.node_store(replicas.front()).has_file(f))
        << "primary of '" << f << "' lost it";
    const Bytes want = serialize(sys.group(), *c.node_store(replicas.front()).fetch(f));
    const uint64_t version = c.version_of(replicas.front(), f);
    for (const std::string& name : c.node_names()) {
      const bool is_replica =
          std::find(replicas.begin(), replicas.end(), name) != replicas.end();
      if (!is_replica) {
        EXPECT_FALSE(c.node_store(name).has_file(f))
            << "'" << f << "' leaked onto non-replica " << name;
        continue;
      }
      ASSERT_TRUE(c.node_store(name).has_file(f))
          << "replica " << name << " missing '" << f << "'";
      EXPECT_EQ(serialize(sys.group(), *c.node_store(name).fetch(f)), want)
          << "replica " << name << " diverged on '" << f << "'";
      EXPECT_EQ(c.version_of(name, f), version)
          << "replica " << name << " at wrong version of '" << f << "'";
    }
  }
}

/// Per-node snapshots, for byte-identical comparison across runs.
std::vector<Bytes> snapshots_of(CloudSystem& sys) {
  std::vector<Bytes> out;
  for (const std::string& name : sys.cluster().node_names()) {
    out.push_back(sys.cluster().snapshot(name));
  }
  return out;
}

/// Drives `op` until `done` holds, tolerating typed failures and
/// replaying parked deliveries between tries (same shape as the
/// single-node chaos soak).
template <typename Op, typename Done>
bool ensure(CloudSystem& sys, Op&& op, Done&& done, int limit = 120) {
  for (int i = 0; i < limit; ++i) {
    if (done()) return true;
    try {
      op();
    } catch (const Error&) {
      // Typed failures are allowed; untyped ones escape and fail hard.
    }
    sys.flush_pending();
  }
  return done();
}

// ----------------------------------------------------- basic routing --

TEST(ClusterTest, SingleNodeDefaultKeepsLegacyShape) {
  CloudSystem sys(Group::test_small(), "cluster-chaos");
  EXPECT_EQ(sys.cluster().size(), 1u);
  EXPECT_EQ(sys.cluster().node_names(), std::vector<std::string>{"server"});
  EXPECT_EQ(&sys.server(), &sys.cluster().node_store(0));
  enroll(sys);
  upload_all(sys, {"f1"});
  EXPECT_TRUE(sys.download_report("alice", "f1").all_ok());
  EXPECT_TRUE(sys.storage_report().per_entity.contains("server"));
  // Single node: no replication traffic, no 2PC.
  const ClusterStats cs = sys.cluster().stats();
  EXPECT_EQ(cs.replication_ops_sent, 0u);
  EXPECT_EQ(cs.epochs_2pc, 0u);
}

TEST(ClusterTest, UploadReplicatesToRingReplicasAndReadsMeetQuorum) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3", "f4"};
  upload_all(*sys, files);
  EXPECT_EQ(sys->flush_pending(), 0u);
  expect_replicas_converged(*sys, files);

  const ClusterStats cs = sys->cluster().stats();
  EXPECT_EQ(cs.nodes, 3u);
  EXPECT_EQ(cs.replication, 2u);
  EXPECT_EQ(cs.replication_ops_sent, files.size());  // one secondary per file
  EXPECT_EQ(cs.replication_ops_applied, files.size());

  for (const std::string& f : files) {
    const auto report = sys->download_report("alice", f);
    EXPECT_TRUE(report.all_ok());
    EXPECT_EQ(string_of(report.opened().at("a")), record_of(f));
  }
  EXPECT_EQ(sys->cluster().stats().quorum_reads, files.size());
  EXPECT_EQ(sys->cluster().stats().quorum_failures, 0u);
}

TEST(ClusterTest, NodeHealthAttributesOutageAndReplicationLag) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  sys->cluster().kill_node("node:2");
  const std::vector<std::string> files = {"f1", "f2", "f3", "f4", "f5", "f6"};
  upload_all(*sys, files);

  // Every file with node:2 in its replica set leaves node:2 owed one
  // write (a hint at its coordinator); lag counts them and health pins
  // them to the dead node.
  size_t on_dead = 0;
  for (const std::string& f : files) {
    const auto replicas = sys->cluster().replicas_for(f);
    if (std::find(replicas.begin(), replicas.end(), "node:2") != replicas.end())
      ++on_dead;
  }
  ASSERT_GT(on_dead, 0u) << "placement left node:2 empty; add more files";

  const NodeHealth dead = sys->health("node:2");
  EXPECT_FALSE(dead.alive);
  EXPECT_EQ(dead.pending_in, on_dead);
  EXPECT_EQ(dead.replication_lag, sys->cluster().recovery().pending_hints());
  EXPECT_GT(sys->cluster().recovery().pending_hints(), 0u);

  const std::vector<NodeHealth> all = sys->cluster_health();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_TRUE(all[0].alive);
  EXPECT_GT(all[0].transport_in.frames, 0u);  // served uploads
  EXPECT_EQ(all[2].node, "node:2");

  sys->cluster().restart_node("node:2");
  EXPECT_EQ(sys->flush_pending(), 0u);
  EXPECT_EQ(sys->cluster().recovery().pending_hints(), 0u);
  expect_replicas_converged(*sys, files);
}

// ------------------------------------------------------- quorum reads --

TEST(ClusterTest, QuorumReadRepairsCorruptReplica) {
  auto sys = make_system(Group::test_small(), 3, 3);
  enroll(*sys);
  upload_all(*sys, {"f1"});
  EXPECT_EQ(sys->flush_pending(), 0u);

  // Rot one non-coordinator replica on disk: flip a sealed byte, leaving
  // the recorded content hash pointing at the original bytes.
  Cluster& c = sys->cluster();
  const std::string coord = c.route_for("f1");
  std::string victim;
  for (const std::string& name : c.node_names()) {
    if (name != coord) {
      victim = name;
      break;
    }
  }
  StoredFile rotted = *c.node_store(victim).fetch("f1");
  ASSERT_FALSE(rotted.slots.empty());
  ASSERT_GT(rotted.slots[0].sealed_data.size(), 10u);
  rotted.slots[0].sealed_data[10] ^= 0x40;
  c.node_store(victim).store(std::move(rotted));

  // The quorum read outvotes the rotten copy (its bytes no longer match
  // the recorded hash) and pushes the winner back at it.
  const auto report = sys->download_report("alice", "f1");
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(string_of(report.opened().at("a")), record_of("f1"));
  EXPECT_GE(c.stats().read_repairs, 1u);
  EXPECT_EQ(sys->flush_pending(), 0u);
  EXPECT_EQ(serialize(sys->group(), *c.node_store(victim).fetch("f1")),
            serialize(sys->group(), *c.node_store(coord).fetch("f1")));
}

/// Every replica's copy, as served to quorum reads, is the serialization
/// of the file its store holds now, under a recorded hash of those bytes.
void expect_kept_bytes_fresh(CloudSystem& sys, const std::vector<std::string>& files,
                             const std::string& step) {
  Cluster& c = sys.cluster();
  for (const std::string& f : files) {
    for (const std::string& name : c.replicas_for(f)) {
      const FetchReply copy = c.local_read(name, f);
      ASSERT_TRUE(copy.found) << step << ": " << name << " lacks '" << f << "'";
      EXPECT_EQ(copy.wire, serialize(sys.group(), *c.node_store(name).fetch(f)))
          << step << ": " << name << " serves stale bytes of '" << f << "'";
      EXPECT_EQ(copy.hash, crypto::Sha256::digest(copy.wire))
          << step << ": " << name << " records a stale hash of '" << f << "'";
    }
  }
}

/// Flips one sealed byte of a non-coordinator replica of `file_id`
/// behind the cluster's back (its recorded hash keeps the old bytes).
std::string rot_replica(CloudSystem& sys, const std::string& file_id, size_t offset) {
  Cluster& c = sys.cluster();
  const std::string coord = c.route_for(file_id);
  std::string victim;
  for (const std::string& name : c.replicas_for(file_id)) {
    if (name != coord) victim = name;
  }
  StoredFile rotted = *c.node_store(victim).fetch(file_id);
  rotted.slots[0].sealed_data.at(offset) ^= 0x40;
  c.node_store(victim).store(std::move(rotted));
  return victim;
}

TEST(ClusterTest, KeptBytesNeverGoStale) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3"};
  upload_all(*sys, files);
  EXPECT_EQ(sys->flush_pending(), 0u);
  expect_kept_bytes_fresh(*sys, files, "upload");

  // A replicated write: the re-upload reaches the second replica as v2.
  // Owner records are keyed by (file, component): a revision needs a new
  // component name.
  sys->upload("hosp", "f1", {{"a#r2", bytes_of("rewritten f1"), "Doctor@Med"}});
  EXPECT_EQ(sys->flush_pending(), 0u);
  Cluster& c = sys->cluster();
  for (const std::string& name : c.replicas_for("f1")) EXPECT_EQ(c.version_of(name, "f1"), 2u);
  expect_kept_bytes_fresh(*sys, files, "replicated write");

  // Read-repair of a rotted replica.
  const std::string repaired = rot_replica(*sys, "f2", 10);
  EXPECT_NE(c.local_read(repaired, "f2").hash,
            crypto::Sha256::digest(c.local_read(repaired, "f2").wire));
  EXPECT_TRUE(sys->download_report("alice", "f2").all_ok());
  EXPECT_EQ(sys->flush_pending(), 0u);
  expect_kept_bytes_fresh(*sys, files, "read-repair");

  // A recovery sync heals a rotted replica from its authentic peer.
  const std::string synced = rot_replica(*sys, "f3", 11);
  const SyncReport rep = c.recovery().sync(synced, c.route_for("f3"));
  EXPECT_EQ(rep.files_pulled + rep.files_pushed, 1u);
  expect_kept_bytes_fresh(*sys, files, "recovery sync");

  // A committed revocation epoch re-encrypts every replica's copy; the
  // kept bytes and the recorded hash move with it.
  const Bytes before = c.local_read(c.route_for("f3"), "f3").wire;
  EXPECT_GT(sys->revoke_attribute("Med", "bob", "Doctor"), 0u);
  EXPECT_EQ(sys->flush_pending(), 0u);
  EXPECT_EQ(c.stats().epoch_commits, 1u);
  EXPECT_NE(c.local_read(c.route_for("f3"), "f3").wire, before);
  expect_kept_bytes_fresh(*sys, files, "revocation epoch");
  expect_replicas_converged(*sys, files);
}

TEST(ClusterTest, ReadWithoutQuorumFailsTyped) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3", "f4",
                                          "f5", "f6", "f7", "f8"};
  upload_all(*sys, files);
  EXPECT_EQ(sys->flush_pending(), 0u);

  sys->cluster().kill_node("node:2");
  std::string degraded, healthy;
  for (const std::string& f : files) {
    const auto replicas = sys->cluster().replicas_for(f);
    const bool on_dead =
        std::find(replicas.begin(), replicas.end(), "node:2") != replicas.end();
    (on_dead ? degraded : healthy) = f;
  }
  ASSERT_FALSE(degraded.empty());
  ASSERT_FALSE(healthy.empty());

  // R=2 majority quorum is 2: a file with its second replica dead cannot
  // meet it (typed, fail-closed); a file fully off the dead node reads
  // normally.
  EXPECT_THROW(sys->download_report("alice", degraded), TransportError);
  EXPECT_GE(sys->cluster().stats().quorum_failures, 1u);
  EXPECT_TRUE(sys->download_report("alice", healthy).all_ok());
}

TEST(ClusterTest, DeadReplicaBlocksNoReadOfAFileItDoesNotHold) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3", "f4",
                                          "f5", "f6", "f7", "f8"};
  upload_all(*sys, files);
  EXPECT_EQ(sys->flush_pending(), 0u);

  std::string on_dead, healthy;
  for (const std::string& f : files) {
    const auto replicas = sys->cluster().replicas_for(f);
    const bool has_dead =
        std::find(replicas.begin(), replicas.end(), "node:2") != replicas.end();
    (has_dead ? on_dead : healthy) = f;
  }
  ASSERT_FALSE(on_dead.empty());
  ASSERT_FALSE(healthy.empty());

  // Replica writes owed to a dead node do not gate a read whose quorum
  // is met.
  sys->cluster().kill_node("node:2");
  sys->upload("hosp", on_dead, {{"b", bytes_of("v2 " + on_dead), "Doctor@Med"}});
  const NodeHealth dead = sys->health("node:2");
  ASSERT_GT(dead.pending_in, 0u);
  EXPECT_EQ(dead.replication_lag, dead.pending_in);  // hints only
  EXPECT_TRUE(sys->download_report("alice", healthy).all_ok());

  // Nor does a commit lost to a peer that died after the decision: the
  // decision log records it and nothing parks. A file whose replicas all
  // committed reads normally; one the dead peer holds fails closed on
  // quorum.
  sys->cluster().restart_node("node:2");
  EXPECT_EQ(sys->flush_pending(), 0u);
  sys->cluster().set_epoch_fault_hook([&](uint64_t, const std::string& phase) {
    if (phase == "decided") sys->cluster().kill_node("node:2");
  });
  sys->revoke_attribute("Med", "bob", "Doctor");
  sys->cluster().set_epoch_fault_hook(nullptr);
  const ClusterStats cs = sys->cluster().stats();
  EXPECT_EQ(cs.epoch_commits, 1u);
  EXPECT_EQ(cs.epoch_commit_orphans, 1u);
  EXPECT_EQ(sys->health().pending_deliveries, 0u);
  EXPECT_TRUE(sys->download_report("alice", healthy).all_ok());
  EXPECT_TRUE(sys->download_report("bob", healthy).opened().empty());
  try {
    sys->download_report("alice", on_dead);
    ADD_FAILURE() << "read of '" << on_dead << "' met quorum without node:2";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kDegraded) << e.what();
  }

  // The rejoin carries the re-keyed copies to node:2.
  sys->cluster().restart_node("node:2");
  EXPECT_EQ(sys->flush_pending(), 0u);
  expect_replicas_converged(*sys, files);
  for (const std::string& f : files) {
    EXPECT_TRUE(sys->download_report("bob", f).opened().empty()) << f;
    EXPECT_TRUE(sys->download_report("alice", f).all_ok()) << f;
  }
}

TEST(ClusterTest, DegradedReadNamesTheParkedEpochThatBlocksIt) {
  auto sys = make_system(Group::test_small(), 3, 3);
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3", "f4",
                                          "f5", "f6", "f7", "f8"};
  upload_all(*sys, files);
  EXPECT_EQ(sys->flush_pending(), 0u);

  // The 2PC cannot stage on the dead peer: it aborts and the epoch
  // parks at the coordinator, node:0.
  Cluster& c = sys->cluster();
  c.kill_node("node:2");
  EXPECT_EQ(sys->revoke_attribute("Med", "bob", "Doctor"), 0u);
  ASSERT_EQ(c.coordinator(), "node:0");
  // A write coordinated elsewhere leaves its node:0 replica copy
  // behind the epoch as a hint: owed to node:0, but not read-gating.
  std::string elsewhere;
  for (const std::string& f : files) {
    if (c.route_for(f) == "node:1") elsewhere = f;
  }
  ASSERT_FALSE(elsewhere.empty());
  sys->upload("hosp", elsewhere, {{"b", bytes_of("v2 " + elsewhere), "Doctor@Med"}});
  ASSERT_EQ(sys->health("node:0").pending_in, 2u);

  try {
    sys->download_report("alice", files.front());
    ADD_FAILURE() << "read served behind a parked revocation epoch";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kDegraded) << e.what();
    const std::string what = e.what();
    EXPECT_NE(what.find("node:0 has 1 pending read-gating"), std::string::npos) << what;
    EXPECT_NE(what.find("revocation epoch v"), std::string::npos) << what;
  }
}

TEST(ClusterTest, DeadPeerAbortsTheEpochBeforeAnyNodeReencrypts) {
  auto sys = make_system(Group::test_small(), 3, 3);
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3", "f4"};
  upload_all(*sys, files);
  EXPECT_EQ(sys->flush_pending(), 0u);

  // Every slot a store stages passes its fault hook first.
  Cluster& c = sys->cluster();
  auto staged = std::make_shared<std::atomic<int>>(0);
  std::map<std::string, ServerStats> before;
  for (const std::string& node : c.node_names()) {
    c.node_store(node).set_reencrypt_fault_hook([staged](const std::string&) { ++*staged; });
    before[node] = c.node_store(node).stats();
  }
  const ClusterStats start = c.stats();

  // Every attempt of the epoch that cannot stage on node:2 aborts, and
  // re-encrypts no slot on any node: the coordinator checks its peers
  // before staging.
  c.kill_node("node:2");
  EXPECT_EQ(sys->revoke_attribute("Med", "bob", "Doctor"), 0u);
  const ClusterStats aborted = c.stats();
  EXPECT_GE(aborted.epochs_2pc - start.epochs_2pc, 1u);
  EXPECT_EQ(aborted.epoch_aborts - start.epoch_aborts, aborted.epochs_2pc - start.epochs_2pc);
  EXPECT_EQ(aborted.epoch_commits, start.epoch_commits);
  EXPECT_EQ(staged->load(), 0);
  for (const std::string& node : c.node_names()) {
    const ServerStats now = c.node_store(node).stats();
    EXPECT_TRUE(c.node_store(node).staged_epoch_ids().empty()) << node;
    EXPECT_EQ(now.reencrypted_slots, before[node].reencrypted_slots) << node;
    EXPECT_EQ(now.epochs_aborted, before[node].epochs_aborted) << node;
  }

  // The parked epoch replays once the peer is back, and commits.
  c.restart_node("node:2");
  EXPECT_EQ(sys->flush_pending(), 0u);
  EXPECT_EQ(c.stats().epoch_commits - start.epoch_commits, 1u);
  EXPECT_GT(staged->load(), 0);
  for (const std::string& f : files) {
    EXPECT_TRUE(sys->download_report("bob", f).opened().empty()) << f;
    EXPECT_TRUE(sys->download_report("alice", f).all_ok()) << f;
  }
}

// -------------------------------------------------- revocation epochs --

/// Enroll, upload, revoke bob — optionally killing `kill` just before
/// the revocation so the 2PC cannot stage there. Returns the per-node
/// snapshots after everything drained.
std::vector<Bytes> run_epoch_scenario(std::shared_ptr<const Group> grp,
                                      const std::string& kill,
                                      const std::vector<std::string>& files) {
  auto sys = make_system(grp, 3, 3);
  enroll(*sys);
  upload_all(*sys, files);
  EXPECT_EQ(sys->flush_pending(), 0u);

  if (!kill.empty()) {
    sys->cluster().kill_node(kill);
    // The 2PC aborts (a node cannot stage) and the epoch parks; nothing
    // commits anywhere, and reads fail closed behind the parked epoch.
    EXPECT_EQ(sys->revoke_attribute("Med", "bob", "Doctor"), 0u);
    const ClusterStats mid = sys->cluster().stats();
    EXPECT_GE(mid.epoch_aborts, 1u);
    EXPECT_EQ(mid.epoch_commits, 0u);
    EXPECT_EQ(mid.store_totals.epochs_committed, 0u);
    for (const std::string& name : sys->cluster().node_names()) {
      EXPECT_EQ(sys->health(name).store.epochs_staged_open, 0u) << name;
    }
    EXPECT_THROW(sys->download_report("alice", files.front()), TransportError);
    sys->cluster().restart_node(kill);
    EXPECT_EQ(sys->flush_pending(), 0u);  // recovery replay commits the epoch
  } else {
    EXPECT_GT(sys->revoke_attribute("Med", "bob", "Doctor"), 0u);
    EXPECT_EQ(sys->flush_pending(), 0u);
  }

  // Epoch committed on every node, exactly once each.
  const ClusterStats cs = sys->cluster().stats();
  EXPECT_EQ(cs.epoch_commits, 1u);
  EXPECT_EQ(cs.store_totals.epochs_committed, 3u);
  EXPECT_EQ(cs.epoch_commit_orphans, 0u);

  // Revoked bob opens nothing; alice keeps access through the update.
  for (const std::string& f : files) {
    EXPECT_TRUE(sys->download_report("bob", f).opened().empty());
    const auto report = sys->download_report("alice", f);
    EXPECT_TRUE(report.all_ok());
    EXPECT_EQ(string_of(report.opened().at("a")), record_of(f));
  }
  expect_replicas_converged(*sys, files);
  return snapshots_of(*sys);
}

TEST(ClusterTest, ReplicaKilledMidEpochConvergesByteIdentically) {
  auto grp = Group::test_small();
  const std::vector<std::string> files = {"f1", "f2", "f3"};
  // Reference: the same protocol with no failure. The failure run must
  // land every node on byte-identical state after recovery replay.
  const std::vector<Bytes> reference = run_epoch_scenario(grp, "", files);
  const std::vector<Bytes> recovered = run_epoch_scenario(grp, "node:2", files);
  EXPECT_EQ(recovered, reference);
}

TEST(ClusterTest, PartitionDuring2PCAbortsCleanlyThenCommitsOnHeal) {
  // Seeded plan: channel specs apply (drop=1.0 is deterministic anyway).
  auto sys = make_system(Group::test_small(), 3, 3, FaultPlan(1));
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2"};
  upload_all(*sys, files);
  EXPECT_EQ(sys->flush_pending(), 0u);
  const std::vector<Bytes> before = snapshots_of(*sys);

  // Partition node:2 away from the coordinator: it is alive, but no
  // stage message can reach it.
  auto& loopback = dynamic_cast<LoopbackTransport&>(sys->transport());
  FaultSpec cut;
  cut.drop = 1.0;
  loopback.faults().set_channel("node:0", "node:2", cut);

  EXPECT_EQ(sys->revoke_attribute("Med", "bob", "Doctor"), 0u);
  const ClusterStats mid = sys->cluster().stats();
  EXPECT_GE(mid.epoch_aborts, 1u);
  EXPECT_EQ(mid.epoch_commits, 0u);
  // Abort is byte-identical: no node's store moved.
  for (const std::string& name : sys->cluster().node_names()) {
    EXPECT_EQ(sys->health(name).store.epochs_staged_open, 0u) << name;
  }
  EXPECT_EQ(snapshots_of(*sys), before);
  EXPECT_THROW(sys->download_report("alice", files.front()), TransportError);

  // Heal: the parked epoch replays, stages everywhere and commits.
  loopback.faults().set_channel("node:0", "node:2", FaultSpec());
  EXPECT_EQ(sys->flush_pending(), 0u);
  EXPECT_EQ(sys->cluster().stats().epoch_commits, 1u);
  EXPECT_EQ(sys->cluster().stats().store_totals.epochs_committed, 3u);
  EXPECT_NE(snapshots_of(*sys), before);  // the epoch really re-encrypted
  expect_replicas_converged(*sys, files);
  for (const std::string& f : files) {
    EXPECT_TRUE(sys->download_report("bob", f).opened().empty());
    EXPECT_TRUE(sys->download_report("alice", f).all_ok());
  }
}

TEST(ClusterTest, RestartReconcilesStaleGauges) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  std::vector<std::string> files;
  for (int i = 0; i < 8; ++i) files.push_back("f" + std::to_string(i));
  upload_all(*sys, files);
  EXPECT_EQ(sys->flush_pending(), 0u);
  expect_replicas_converged(*sys, files);

  // A file replicated onto node:1 (deterministic ring placement; with 8
  // files one always lands there).
  std::string fx;
  for (const std::string& f : files) {
    const auto replicas = sys->cluster().replicas_for(f);
    if (std::find(replicas.begin(), replicas.end(), "node:1") != replicas.end()) {
      fx = f;
      break;
    }
  }
  ASSERT_FALSE(fx.empty());

  // Kill node:1, then write two more versions of fx: the surviving
  // coordinator stores them and owes the dead node a hint. The per-node
  // gauges now show real lag.
  sys->cluster().kill_node("node:1");
  sys->upload("hosp", fx, {{"b", bytes_of("v2 " + fx), "Doctor@Med"}});
  sys->upload("hosp", fx, {{"c", bytes_of("v3 " + fx), "Doctor@Med"}});
  EXPECT_GT(sys->cluster().recovery().pending_hints(), 0u);

  // Restart drains the hint; gauges return to zero once converged.
  sys->cluster().restart_node("node:1");
  EXPECT_EQ(sys->flush_pending(), 0u);
  EXPECT_EQ(sys->cluster().recovery().pending_hints(), 0u);
  EXPECT_EQ(sys->health().pending_by_destination.count("node:1"), 0u);
  for (const NodeHealth& nh : sys->cluster_health()) {
    EXPECT_EQ(nh.replication_lag, 0u) << nh.node;
  }
  expect_replicas_converged(*sys, files);
  EXPECT_TRUE(sys->download_report("alice", fx).all_ok());
}

TEST(ClusterTest, MissedReplicaNeverHoldsPreEpochBytes) {
  auto sys = make_system(Group::test_small(), 3, 2, FaultPlan(1));
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3", "f4",
                                          "f5", "f6", "f7", "f8"};
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);

  // A file node:0 coordinates and node:2 replicates.
  Cluster& c = sys->cluster();
  std::string fx;
  for (const std::string& f : files) {
    if (fx.empty() && c.replicas_for(f) == std::vector<std::string>{"node:0", "node:2"})
      fx = f;
  }
  ASSERT_FALSE(fx.empty());

  // Cut node:0 -> node:2 and rewrite fx: node:2 misses the new version.
  FaultSpec down;
  down.drop = 1.0;
  sys->transport().faults().set_channel("node:0", "node:2", down);
  sys->upload("hosp", fx, {{"b", bytes_of("v2 " + fx), "Doctor@Med"}});
  sys->transport().faults().set_channel("node:0", "node:2", FaultSpec());
  ASSERT_LT(c.version_of("node:2", fx), c.version_of("node:0", fx));

  // Healed, the epoch re-keys Med. Its commit must reach every replica
  // of fx: no copy of the missed write, frozen before the epoch, may
  // land on node:2 between its stage and its commit.
  sys->revoke_attribute("Med", "bob", "Doctor");
  ASSERT_EQ(c.stats().epoch_commits, 1u);
  const uint32_t med = sys->authority("Med").version();
  for (const std::string& replica : c.replicas_for(fx)) {
    for (const SealedSlot& slot : c.node_store(replica).fetch(fx)->slots) {
      EXPECT_EQ(slot.key_ct.versions.at("Med"), med)
          << replica << " holds '" << fx << "' slot " << slot.component_name
          << " under a pre-epoch key";
    }
  }

  // The missed write then lands as the holder's current copy.
  EXPECT_EQ(sys->flush_pending(), 0u);
  expect_replicas_converged(*sys, files);
  EXPECT_TRUE(sys->download_report("bob", fx).opened().empty());
  EXPECT_TRUE(sys->download_report("alice", fx).all_ok());
}

TEST(ClusterTest, OneMissedFileKeepsTheRestReplicatingAndAReadDrainsIt) {
  auto sys = make_system(Group::test_small(), 3, 2, FaultPlan(1));
  enroll(*sys);
  std::vector<std::string> files;
  for (int i = 0; i < 16; ++i) files.push_back("f" + std::to_string(i));
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);

  // Two files node:0 coordinates and node:2 replicates.
  Cluster& c = sys->cluster();
  std::vector<std::string> pair;
  for (const std::string& f : files) {
    if (c.replicas_for(f) == std::vector<std::string>{"node:0", "node:2"}) pair.push_back(f);
  }
  ASSERT_GE(pair.size(), 2u) << "placement left node:0 -> node:2 short; add more files";
  const std::string& fx = pair[0];
  const std::string& fy = pair[1];

  // node:2 misses one write of fx: one hint, for fx alone.
  FaultSpec down;
  down.drop = 1.0;
  sys->transport().faults().set_channel("node:0", "node:2", down);
  sys->upload("hosp", fx, {{"b", bytes_of("v2 " + fx), "Doctor@Med"}});
  sys->transport().faults().set_channel("node:0", "node:2", FaultSpec());
  RecoveryManager& rec = c.recovery();
  ASSERT_EQ(rec.hint_count("node:2"), 1u);

  // Healed, a write of another file still reaches node:2 directly.
  sys->upload("hosp", fy, {{"b", bytes_of("v2 " + fy), "Doctor@Med"}});
  EXPECT_EQ(c.version_of("node:2", fy), c.version_of("node:0", fy));
  EXPECT_EQ(rec.hint_count("node:2"), 1u);

  // Any read drains the hint before it is served.
  EXPECT_TRUE(sys->download_report("alice", fy).all_ok());
  EXPECT_EQ(rec.hint_count("node:2"), 0u);
  EXPECT_EQ(c.version_of("node:2", fx), c.version_of("node:0", fx));
  expect_replicas_converged(*sys, files);
}

TEST(ClusterTest, HolderDrainsNothingWhileItHoldsAStagedEpoch) {
  auto sys = make_system(Group::test_small(), 3, 2, FaultPlan(1));
  enroll(*sys);
  std::vector<std::string> files;
  for (int i = 0; i < 16; ++i) files.push_back("f" + std::to_string(i));
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);

  // node:1 coordinates fx and owes node:2 two missed writes of it.
  Cluster& c = sys->cluster();
  std::string fx;
  for (const std::string& f : files) {
    if (fx.empty() && c.replicas_for(f) == std::vector<std::string>{"node:1", "node:2"})
      fx = f;
  }
  ASSERT_FALSE(fx.empty());
  FaultSpec down;
  down.drop = 1.0;
  sys->transport().faults().set_channel("node:1", "node:2", down);
  sys->upload("hosp", fx, {{"b", bytes_of("v2 " + fx), "Doctor@Med"}});
  sys->upload("hosp", fx, {{"c", bytes_of("v3 " + fx), "Doctor@Med"}});
  sys->transport().faults().set_channel("node:1", "node:2", FaultSpec());
  ASSERT_EQ(c.recovery().hint_count("node:2"), 1u);

  // The epoch commits on node:0 and node:2; node:1's commit is lost, so
  // node:1 stays staged and still holds fx under the old Med key.
  ASSERT_EQ(c.coordinator(), "node:0");
  c.set_epoch_fault_hook([&](uint64_t, const std::string& phase) {
    if (phase == "decided")
      sys->transport().faults().set_channel("node:0", "node:1", down);
  });
  sys->revoke_attribute("Med", "bob", "Doctor");
  c.set_epoch_fault_hook(nullptr);
  sys->transport().faults().set_channel("node:0", "node:1", FaultSpec());
  ASSERT_EQ(c.stats().epoch_commits, 1u);
  ASSERT_EQ(sys->health("node:1").store.epochs_staged_open, 1u);
  const uint32_t med = sys->authority("Med").version();
  const auto keyed = [&](const std::string& node) {
    for (const SealedSlot& slot : c.node_store(node).fetch(fx)->slots) {
      if (slot.key_ct.versions.at("Med") != med) return false;
    }
    return true;
  };
  ASSERT_FALSE(keyed("node:1"));
  ASSERT_TRUE(keyed("node:2"));

  // A drain now would ship node:1's pre-epoch v3 over node:2's re-keyed
  // copy. It waits for the resolver to commit node:1's staged epoch.
  c.recovery().drain_all_hints();
  EXPECT_TRUE(keyed("node:2"));
  EXPECT_EQ(c.recovery().hint_count("node:2"), 1u);

  EXPECT_EQ(sys->flush_pending(), 0u);
  EXPECT_TRUE(keyed("node:1"));
  EXPECT_TRUE(keyed("node:2"));
  expect_replicas_converged(*sys, files);
  EXPECT_TRUE(sys->download_report("bob", fx).opened().empty());
  EXPECT_TRUE(sys->download_report("alice", fx).all_ok());
}

// ------------------------------------------- fault-injected soak sweep --

FaultSpec cluster_chaos() {
  FaultSpec spec;
  spec.drop = 0.08;
  spec.duplicate = 0.08;
  spec.corrupt = 0.08;
  spec.ack_loss = 0.08;
  spec.delay = 0.08;
  spec.delay_ms = 5;
  return spec;
}

RetryPolicy patient_policy() {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 80;
  policy.deadline_ms = 1u << 20;
  return policy;
}

Bytes run_chaos_sweep(std::shared_ptr<const Group> grp, uint64_t fault_seed) {
  FaultPlan plan(fault_seed);
  plan.set_default(cluster_chaos());
  auto sys = make_system(grp, 3, 2, std::move(plan), patient_policy());
  const std::vector<std::string> files = {"f1", "f2"};

  const auto idempotent = [&](auto op, const char* what) {
    bool done = false;
    EXPECT_TRUE(ensure(*sys, [&] { op(); done = true; }, [&] { return done; }))
        << "seed " << fault_seed << ": " << what << " never converged";
  };
  idempotent([&] { sys->add_authority("Med", {"Doctor"}); }, "add_authority");
  idempotent([&] { sys->add_owner("hosp"); }, "add_owner");
  idempotent([&] { sys->publish_authority_keys("Med", "hosp"); }, "publish");
  idempotent([&] { sys->add_user("alice"); }, "add alice");
  idempotent([&] { sys->add_user("bob"); }, "add bob");
  idempotent([&] { sys->assign_attributes("Med", "alice", {"Doctor"}); }, "assign a");
  idempotent([&] { sys->assign_attributes("Med", "bob", {"Doctor"}); }, "assign b");
  idempotent([&] { sys->issue_user_key("Med", "alice", "hosp"); }, "issue a");
  idempotent([&] { sys->issue_user_key("Med", "bob", "hosp"); }, "issue b");

  upload_all(*sys, files);
  for (const std::string& f : files) {
    bool ok = false;
    EXPECT_TRUE(ensure(*sys,
                       [&] { ok = sys->download_report("alice", f).all_ok(); },
                       [&] { return ok; }))
        << "seed " << fault_seed << ": alice never read " << f;
  }

  sys->revoke_attribute("Med", "bob", "Doctor");
  EXPECT_TRUE(ensure(*sys, [] {}, [&] { return sys->flush_pending() == 0; }))
      << "seed " << fault_seed << ": revocation never drained";
  sys->cluster().recovery().sync_all();
  EXPECT_TRUE(ensure(*sys, [] {}, [&] { return sys->flush_pending() == 0; }));

  for (const std::string& f : files) {
    bool bob_done = false;
    EXPECT_TRUE(ensure(*sys,
                       [&] {
                         EXPECT_TRUE(sys->download_report("bob", f).opened().empty())
                             << "seed " << fault_seed << ": revoked bob read " << f;
                         bob_done = true;
                       },
                       [&] { return bob_done; }));
    bool alice_ok = false;
    EXPECT_TRUE(ensure(*sys,
                       [&] { alice_ok = sys->download_report("alice", f).all_ok(); },
                       [&] { return alice_ok; }))
        << "seed " << fault_seed << ": alice lost access after revocation";
  }
  expect_replicas_converged(*sys, files);

  // Every injected fault is accounted for on the meter, node channels
  // included.
  auto& loopback = dynamic_cast<LoopbackTransport&>(sys->transport());
  EXPECT_EQ(sys->meter().totals().faults(), loopback.faults().injected().total());

  Writer w;
  for (const Bytes& snap : snapshots_of(*sys)) w.var_bytes(snap);
  return crypto::Sha256::digest(w.bytes());
}

TEST(ClusterChaos, FaultInjectedConvergenceSweep) {
  auto grp = Group::test_small();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    run_chaos_sweep(grp, seed);
  }
}

TEST(ClusterChaos, SameSeedIsByteIdentical) {
  auto grp = Group::test_small();
  EXPECT_EQ(run_chaos_sweep(grp, 11), run_chaos_sweep(grp, 11));
}

}  // namespace
}  // namespace maabe::cloud
