// Self-healing recovery suite (DESIGN.md §15), under the `recovery`
// ctest label (also part of the unit/unit-asan/unit-tsan presets).
// Invariants:
//   1. Merkle anti-entropy converges a divergent pair by transferring
//      only the divergent files — a converged pair moves nothing, and a
//      corrupt replica is restored from the authentic copy.
//   2. A node killed mid-workload rejoins byte-identically through
//      hinted hand-off + scoped anti-entropy alone: no full-store scan
//      and zero quorum reads, moving less than a full snapshot.
//   3. A 2PC epoch whose coordinator dies between stage and commit
//      resolves on the survivors (presumed abort when no decision was
//      recorded, commit when the write-ahead verdict exists) — no epoch
//      stays staged-open. A peer that restarts between stage and commit
//      counts one orphan commit and converges through anti-entropy. A
//      verdict whose notification was lost resolves from the decision
//      logs, read directly even on a dead coordinator.
//   4. snapshot() and local_read() never pair a file's bytes with
//      another version's metadata while writers run (torn-read
//      regression, TSan-backed).
//   5. Snapshots and Merkle listings are introspection: they count no
//      fetch on any node.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "cloud/system.h"
#include "common/errors.h"
#include "crypto/sha256.h"
#include "loadgen/loadgen.h"
#include "../support/flight_dump_on_failure.h"

namespace maabe::cloud {
namespace {

using pairing::Group;

// One install per binary: a failing recovery test dumps every node's
// flight-recorder ring so the fault sequence ships with the report.
[[maybe_unused]] const bool kFlightDumpInstalled =
    maabe::test_support::install_flight_dump_on_failure();

std::unique_ptr<CloudSystem> make_system(std::shared_ptr<const Group> grp,
                                         size_t nodes, size_t replication,
                                         FaultPlan plan = FaultPlan()) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.replication = replication;
  return std::make_unique<CloudSystem>(
      grp, "recovery-suite", std::make_unique<LoopbackTransport>(std::move(plan)),
      RetryPolicy(), cfg);
}

FaultSpec down_channel() {
  FaultSpec spec;
  spec.drop = 1.0;
  return spec;
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

std::vector<std::string> eight_files() {
  std::vector<std::string> files;
  for (int i = 0; i < 8; ++i) files.push_back("f" + std::to_string(i));
  return files;
}

void expect_replicas_converged(CloudSystem& sys,
                               const std::vector<std::string>& files) {
  Cluster& c = sys.cluster();
  for (const std::string& f : files) {
    const std::vector<std::string> replicas = c.replicas_for(f);
    ASSERT_FALSE(replicas.empty());
    ASSERT_TRUE(c.node_store(replicas.front()).has_file(f));
    const Bytes want =
        serialize(sys.group(), *c.node_store(replicas.front()).fetch(f));
    const uint64_t version = c.version_of(replicas.front(), f);
    for (const std::string& name : replicas) {
      ASSERT_TRUE(c.node_store(name).has_file(f))
          << "replica " << name << " missing '" << f << "'";
      EXPECT_EQ(serialize(sys.group(), *c.node_store(name).fetch(f)), want)
          << "replica " << name << " diverged on '" << f << "'";
      EXPECT_EQ(c.version_of(name, f), version)
          << "replica " << name << " at wrong version of '" << f << "'";
    }
  }
}

/// A file whose replica set contains `node` (deterministic placement;
/// with 8 files every node holds some).
std::string file_replicated_on(CloudSystem& sys, const std::string& node,
                               const std::vector<std::string>& files) {
  for (const std::string& f : files) {
    const auto replicas = sys.cluster().replicas_for(f);
    if (std::find(replicas.begin(), replicas.end(), node) != replicas.end())
      return f;
  }
  return "";
}

// ------------------------------------------------ Merkle anti-entropy --

TEST(RecoveryTest, SyncOnConvergedPairMovesNothing) {
  auto sys = make_system(Group::test_small(), 3, 3);
  enroll(*sys);
  upload_all(*sys, eight_files());
  ASSERT_EQ(sys->flush_pending(), 0u);

  const SyncReport rep = sys->cluster().recovery().sync("node:0", "node:1");
  EXPECT_TRUE(rep.converged_without_transfer());
  EXPECT_GE(rep.rounds, 1u);  // root digests compared and matched
  EXPECT_EQ(rep.shards_divergent, 0u);
  EXPECT_EQ(rep.bytes_transferred, 0u);
}

TEST(RecoveryTest, SnapshotsAndSyncCountNoFetches) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  upload_all(*sys, eight_files());
  ASSERT_EQ(sys->flush_pending(), 0u);

  // Introspection serves no read: snapshots and Merkle listings leave
  // every node's "fetches served" where it was.
  Cluster& c = sys->cluster();
  std::map<std::string, uint64_t> before;
  for (const std::string& name : c.node_names())
    before[name] = c.node_store(name).stats().fetches;
  for (const std::string& name : c.node_names()) (void)c.snapshot(name);
  EXPECT_TRUE(c.recovery().sync_all().converged_without_transfer());
  for (const std::string& name : c.node_names())
    EXPECT_EQ(c.node_store(name).stats().fetches, before[name]) << name;
}

TEST(RecoveryTest, SyncRestoresCorruptReplicaFromAuthenticCopy) {
  auto sys = make_system(Group::test_small(), 3, 3);
  enroll(*sys);
  upload_all(*sys, {"f1"});
  ASSERT_EQ(sys->flush_pending(), 0u);

  // Rot one non-coordinator replica on disk: same version, different
  // bytes, recorded hash still pointing at the original. Only hashing
  // the *current* bytes lets the trees diverge on this.
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

  const SyncReport rep = c.recovery().sync(victim, coord);
  EXPECT_GE(rep.shards_divergent, 1u);
  EXPECT_EQ(rep.files_pulled, 1u);  // authentic copy wins, victim pulls
  EXPECT_GT(rep.bytes_transferred, 0u);
  EXPECT_EQ(serialize(sys->group(), *c.node_store(victim).fetch("f1")),
            serialize(sys->group(), *c.node_store(coord).fetch("f1")));
  EXPECT_TRUE(sys->download_report("alice", "f1").all_ok());

  // Once healed, a second pass is pure hash comparison.
  EXPECT_TRUE(c.recovery().sync(victim, coord).converged_without_transfer());
}

TEST(RecoveryTest, RejoinHashesEachHeldFileOnceAcrossItsSessions) {
  // R = 3 on 3 nodes: every file is shared with both peers, so a rejoin
  // runs two sessions over the same eight files.
  auto sys = make_system(Group::test_small(), 3, 3);
  enroll(*sys);
  const std::vector<std::string> files = eight_files();
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);
  Cluster& c = sys->cluster();
  RecoveryManager& rec = c.recovery();

  // A converged rejoin: the node hashes its eight files once for both
  // sessions, and each peer its own eight as responder.
  c.kill_node("node:0");
  RecoveryStats before = rec.stats();
  c.restart_node("node:0");
  RecoveryStats after = rec.stats();
  EXPECT_EQ(after.syncs - before.syncs, 2u);
  EXPECT_EQ(after.leaves_hashed - before.leaves_hashed, 3 * files.size());
  EXPECT_EQ(after.files_transferred, before.files_transferred);

  // Bit-rot on the rejoining node: the first session pulls the authentic
  // copy and drops its leaf, so the second hashes that one file again
  // and finds it converged instead of pulling it a second time.
  c.kill_node("node:0");
  StoredFile rotted = *c.node_store("node:0").fetch(files[0]);
  ASSERT_FALSE(rotted.slots.empty());
  ASSERT_GT(rotted.slots[0].sealed_data.size(), 10u);
  rotted.slots[0].sealed_data[10] ^= 0x40;
  c.node_store("node:0").store(std::move(rotted));
  before = rec.stats();
  c.restart_node("node:0");
  after = rec.stats();
  EXPECT_EQ(after.syncs - before.syncs, 2u);
  EXPECT_EQ(after.files_transferred - before.files_transferred, 1u);
  EXPECT_EQ(after.leaves_hashed - before.leaves_hashed, 3 * files.size() + 1);
  expect_replicas_converged(*sys, files);
  EXPECT_TRUE(sys->download_report("alice", files[0]).all_ok());

  // sync_all shares one memo per node across its sessions: node:0 leads
  // two, node:1 answers one and leads one, node:2 answers two, and each
  // hashes its eight files once.
  before = rec.stats();
  EXPECT_TRUE(rec.sync_all().converged_without_transfer());
  after = rec.stats();
  EXPECT_EQ(after.leaves_hashed - before.leaves_hashed, 3 * files.size());
  EXPECT_EQ(after.leaves_hashed - before.leaves_hashed, 24u);
}

TEST(RecoveryTest, SyncRefusesDeadPeer) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  sys->cluster().kill_node("node:1");
  EXPECT_THROW(sys->cluster().recovery().sync("node:0", "node:1"),
               TransportError);
  EXPECT_THROW(sys->cluster().recovery().sync("node:1", "node:0"),
               TransportError);
}

// ------------------------------------------------- hinted hand-off --

TEST(RecoveryTest, HintsRecordedForDeadReplicaAndDrainedOnRejoin) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  const std::vector<std::string> files = eight_files();
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);

  const std::string fx = file_replicated_on(*sys, "node:1", files);
  ASSERT_FALSE(fx.empty());
  sys->cluster().kill_node("node:1");
  sys->upload("hosp", fx, {{"b", bytes_of("v2 " + fx), "Doctor@Med"}});
  sys->upload("hosp", fx, {{"c", bytes_of("v3 " + fx), "Doctor@Med"}});

  RecoveryManager& rec = sys->cluster().recovery();
  EXPECT_GE(rec.hint_count("node:1"), 1u);  // one hint at the max version
  EXPECT_GE(rec.pending_hints(), 1u);
  const RecoveryStats before = rec.stats();
  EXPECT_GE(before.hints_recorded, 2u);  // both parked writes left one

  sys->cluster().restart_node("node:1");
  EXPECT_EQ(rec.hint_count("node:1"), 0u);
  EXPECT_EQ(rec.pending_hints(), 0u);
  const RecoveryStats after = rec.stats();
  EXPECT_GE(after.hints_replayed, before.hints_replayed + 1);
  EXPECT_EQ(sys->flush_pending(), 0u);
  expect_replicas_converged(*sys, files);
  EXPECT_TRUE(sys->download_report("alice", fx).all_ok());
}

TEST(RecoveryTest, HolderDeathFailsReadsClosedAndRejoinHandsTheHintOff) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  const std::vector<std::string> files = eight_files();
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);

  // Coordinator A holds fx; B is its other replica.
  Cluster& c = sys->cluster();
  const std::string fx = files.front();
  const std::vector<std::string> replicas = c.replicas_for(fx);
  ASSERT_EQ(replicas.size(), 2u);
  const std::string a = replicas[0];
  const std::string b = replicas[1];
  RecoveryManager& rec = c.recovery();
  const RecoveryStats before = rec.stats();

  // A writes fx twice while B is dead: two missed versions, one hint.
  c.kill_node(b);
  ASSERT_EQ(c.route_for(fx), a);
  sys->upload("hosp", fx, {{"b", bytes_of("v2 " + fx), "Doctor@Med"}});
  sys->upload("hosp", fx, {{"c", bytes_of("v3 " + fx), "Doctor@Med"}});
  EXPECT_EQ(rec.hint_count(b), 1u);
  EXPECT_EQ(rec.stats().hints_recorded, before.hints_recorded + 2);
  const Bytes newest = serialize(sys->group(), *c.node_store(a).fetch(fx));

  // A dies still holding the hint, and B comes back without it: B's
  // reads fail closed on quorum and never serve the version it holds.
  c.kill_node(a);
  c.restart_node(b);
  EXPECT_EQ(rec.hint_count(b), 1u);
  EXPECT_LT(c.version_of(b, fx), c.version_of(a, fx));
  try {
    sys->download_report("alice", fx);
    ADD_FAILURE() << "read of '" << fx << "' served without its quorum";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kDegraded) << e.what();
  }

  // A's rejoin hands the hint off: both missed writes cost one transfer.
  c.restart_node(a);
  rec.sync_all();
  EXPECT_EQ(rec.hint_count(b), 0u);
  EXPECT_EQ(rec.pending_hints(), 0u);
  EXPECT_EQ(rec.stats().hints_replayed, before.hints_replayed + 1);
  EXPECT_EQ(sys->flush_pending(), 0u);
  expect_replicas_converged(*sys, files);
  EXPECT_EQ(serialize(sys->group(), *c.node_store(b).fetch(fx)), newest);
  const auto report = sys->download_report("alice", fx);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.opened().at("c"), bytes_of("v3 " + fx));
}

TEST(RecoveryTest, StaleCoordinatorParksItsWriteUntilTheHintDrains) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  const std::vector<std::string> files = eight_files();
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);

  Cluster& c = sys->cluster();
  const std::string fx = files.front();
  const std::vector<std::string> replicas = c.replicas_for(fx);
  ASSERT_EQ(replicas.size(), 2u);
  const std::string a = replicas[0];
  const std::string b = replicas[1];

  // B misses v2 and v3, A dies holding the hint, and B comes back to
  // coordinate the next write of fx from its v1.
  c.kill_node(b);
  sys->upload("hosp", fx, {{"b", bytes_of("v2 " + fx), "Doctor@Med"}});
  sys->upload("hosp", fx, {{"c", bytes_of("v3 " + fx), "Doctor@Med"}});
  c.kill_node(a);
  c.restart_node(b);
  ASSERT_EQ(c.route_for(fx), b);
  const uint64_t stale = c.version_of(b, fx);
  ASSERT_LT(stale, c.version_of(a, fx));

  // Taking it would rank the write at or below A's v3, and A's copy
  // would win once the hint drained. It parks instead, untaken.
  sys->upload("hosp", fx, {{"d", bytes_of("v4 " + fx), "Doctor@Med"}});
  EXPECT_EQ(c.version_of(b, fx), stale);
  EXPECT_EQ(sys->health().pending_by_destination.at(b), 1u);
  EXPECT_EQ(sys->flush_pending(), 2u);  // the parked write + the hint

  // A's rejoin hands the hint off; the parked write then lands on v3.
  c.restart_node(a);
  EXPECT_EQ(sys->flush_pending(), 0u);
  EXPECT_EQ(c.version_of(a, fx), c.version_of(b, fx));
  expect_replicas_converged(*sys, files);
  const auto report = sys->download_report("alice", fx);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.opened().at("d"), bytes_of("v4 " + fx));
}

TEST(RecoveryTest, ReadNeverServesACopyWhoseHintHolderIsDown) {
  auto sys = make_system(Group::test_small(), 3, 3);
  enroll(*sys);
  const std::vector<std::string> files = eight_files();
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);

  // The coordinator writes fx while both other replicas are down, then
  // dies; they come back as a quorum of two stale copies.
  Cluster& c = sys->cluster();
  const std::string fx = files.front();
  const std::vector<std::string> replicas = c.replicas_for(fx);
  ASSERT_EQ(replicas.size(), 3u);
  c.kill_node(replicas[1]);
  c.kill_node(replicas[2]);
  sys->upload("hosp", fx, {{"b", bytes_of("v2 " + fx), "Doctor@Med"}});
  c.kill_node(replicas[0]);
  c.restart_node(replicas[1]);
  c.restart_node(replicas[2]);
  try {
    const auto report = sys->download_report("alice", fx);
    EXPECT_EQ(report.opened().count("b"), 1u) << "served a copy without v2";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kDegraded) << e.what();
  }

  c.restart_node(replicas[0]);
  EXPECT_EQ(sys->flush_pending(), 0u);
  expect_replicas_converged(*sys, files);
  EXPECT_EQ(sys->download_report("alice", fx).opened().at("b"), bytes_of("v2 " + fx));
}

// ------------------------------------ rejoin without a full-store scan --

TEST(RecoveryChaos, KilledNodeRejoinsByteIdenticallyWithoutFullScan) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  const std::vector<std::string> files = eight_files();
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);
  expect_replicas_converged(*sys, files);

  const std::string fx = file_replicated_on(*sys, "node:1", files);
  ASSERT_FALSE(fx.empty());
  sys->cluster().kill_node("node:1");
  sys->upload("hosp", fx, {{"b", bytes_of("v2 " + fx), "Doctor@Med"}});
  sys->upload("hosp", fx, {{"c", bytes_of("v3 " + fx), "Doctor@Med"}});

  const ClusterStats cluster_before = sys->cluster().stats();
  const RecoveryStats rec_before = sys->cluster().recovery().stats();

  sys->cluster().restart_node("node:1");
  EXPECT_EQ(sys->flush_pending(), 0u);
  EXPECT_EQ(sys->cluster().recovery().pending_hints(), 0u);
  expect_replicas_converged(*sys, files);

  // Convergence came from hints + anti-entropy alone: the rejoin issued
  // zero quorum reads (the full-scan repair path), and moved strictly
  // less than the node's full store.
  const ClusterStats cluster_after = sys->cluster().stats();
  EXPECT_EQ(cluster_after.quorum_reads, cluster_before.quorum_reads);
  EXPECT_EQ(cluster_after.quorum_failures, cluster_before.quorum_failures);
  const RecoveryStats rec_after = sys->cluster().recovery().stats();
  EXPECT_GE(rec_after.rejoins, rec_before.rejoins + 1);
  EXPECT_GE(rec_after.hints_replayed, rec_before.hints_replayed + 1);
  const uint64_t moved = rec_after.bytes_transferred - rec_before.bytes_transferred;
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, sys->cluster().snapshot("node:1").size());
  EXPECT_TRUE(sys->download_report("alice", fx).all_ok());
}

TEST(RecoveryChaos, WorkloadKillAndRejoinConvergesUnderTraffic) {
  loadgen::WorkloadConfig cfg;
  cfg.nodes = 3;
  cfg.replication = 2;
  cfg.users = 4;
  cfg.files = 12;
  cfg.ops = 60;
  cfg.store_weight = 0.5;  // outage writes are what the rejoin must heal
  cfg.download_weight = 0.4;
  cfg.revoke_weight = 0.0;
  cfg.churn_weight = 0.1;
  cfg.flush_every = 0;  // no background replay: recovery works alone
  cfg.events.push_back(
      {10, loadgen::ScenarioEvent::Kind::kKillNode, "node:1", 0});
  cfg.events.push_back(
      {45, loadgen::ScenarioEvent::Kind::kRejoinNode, "node:1", 0});

  loadgen::LoadGenerator gen(Group::test_small(), cfg);
  gen.setup();
  const loadgen::WorkloadReport report = gen.run();

  EXPECT_EQ(report.rejoins, 1u);
  EXPECT_GT(report.recovery_convergence_ms, 0.0);
  EXPECT_GE(report.recovery_hints_replayed, 1u);
  EXPECT_GT(report.recovery_bytes_transferred, 0u);
  EXPECT_EQ(gen.system().flush_pending(), 0u);
  EXPECT_EQ(gen.system().cluster().recovery().pending_hints(), 0u);
  std::vector<std::string> files;
  for (size_t f = 0; f < cfg.files; ++f)
    files.push_back("file" + std::to_string(f));
  expect_replicas_converged(gen.system(), files);
}

// --------------------------------------- 2PC coordinator recovery --

TEST(RecoveryChaos, CoordinatorKilledAfterStagingResolvesPresumedAbort) {
  auto sys = make_system(Group::test_small(), 3, 3);
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3"};
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);

  // Crash the coordinator after every node staged but before any
  // decision was recorded: peers are staged-open with empty decision
  // logs everywhere — the presumed-abort case.
  const std::string coord = sys->cluster().coordinator();
  std::atomic<bool> fired{false};
  sys->cluster().set_epoch_fault_hook(
      [&](uint64_t, const std::string& phase) {
        if (phase == "staged" && !fired.exchange(true)) {
          sys->cluster().kill_node(coord);
          throw TransportError(TransportError::Kind::kLost,
                               "injected coordinator crash");
        }
      });
  EXPECT_EQ(sys->revoke_attribute("Med", "bob", "Doctor"), 0u);
  ASSERT_TRUE(fired.load());
  size_t staged_open = 0;
  for (const std::string& name : sys->cluster().node_names()) {
    if (name != coord) staged_open += sys->health(name).store.epochs_staged_open;
  }
  EXPECT_EQ(staged_open, 2u);

  // Survivors resolve with the coordinator still dead: no decision
  // record anywhere -> presumed abort, stores byte-identical to before
  // the epoch, nothing staged-open.
  const RecoveryStats before = sys->cluster().recovery().stats();
  EXPECT_EQ(sys->cluster().recovery().resolve_staged_epochs(), 2u);
  EXPECT_GE(sys->cluster().recovery().stats().epochs_resolved_abort,
            before.epochs_resolved_abort + 2);
  for (const std::string& name : sys->cluster().node_names()) {
    EXPECT_EQ(sys->health(name).store.epochs_staged_open, 0u) << name;
  }

  // Heal: the epoch message stayed parked at the dead coordinator's
  // queue; the restart replays it as a fresh 2PC which commits.
  sys->cluster().set_epoch_fault_hook({});
  sys->cluster().restart_node(coord);
  EXPECT_EQ(sys->flush_pending(), 0u);
  for (const std::string& name : sys->cluster().node_names()) {
    EXPECT_EQ(sys->health(name).store.epochs_staged_open, 0u) << name;
  }
  EXPECT_GE(sys->cluster().stats().epoch_commits, 1u);
  expect_replicas_converged(*sys, files);
  for (const std::string& f : files) {
    EXPECT_TRUE(sys->download_report("bob", f).opened().empty());
    EXPECT_TRUE(sys->download_report("alice", f).all_ok());
  }
}

TEST(RecoveryChaos, CoordinatorKilledAfterDecisionResolvesCommit) {
  auto sys = make_system(Group::test_small(), 3, 3);
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3"};
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);

  // Crash after the write-ahead commit verdict but before any commit
  // applied: the coordinator's decision log (which survives the kill)
  // is the only witness that this epoch must commit.
  const std::string coord = sys->cluster().coordinator();
  std::atomic<bool> fired{false};
  sys->cluster().set_epoch_fault_hook(
      [&](uint64_t, const std::string& phase) {
        if (phase == "decided" && !fired.exchange(true)) {
          sys->cluster().kill_node(coord);
          throw TransportError(TransportError::Kind::kLost,
                               "injected coordinator crash");
        }
      });
  EXPECT_EQ(sys->revoke_attribute("Med", "bob", "Doctor"), 0u);
  ASSERT_TRUE(fired.load());
  size_t staged_open = 0;
  for (const std::string& name : sys->cluster().node_names()) {
    if (name != coord) staged_open += sys->health(name).store.epochs_staged_open;
  }
  EXPECT_EQ(staged_open, 2u);

  // Rejoin resolves the peers from the recorded verdict (commit), then
  // anti-entropy pulls the re-encrypted bytes back onto the coordinator
  // (whose own staged copy died with it).
  sys->cluster().set_epoch_fault_hook({});
  const RecoveryStats before = sys->cluster().recovery().stats();
  sys->cluster().restart_node(coord);
  const RecoveryStats after = sys->cluster().recovery().stats();
  EXPECT_GE(after.epochs_resolved_commit, before.epochs_resolved_commit + 2);
  for (const std::string& name : sys->cluster().node_names()) {
    EXPECT_EQ(sys->health(name).store.epochs_staged_open, 0u) << name;
  }
  // The parked epoch message replays as a fresh 2PC over already
  // re-encrypted slots: it stages an empty change set and commits as a
  // no-op, leaving state untouched.
  EXPECT_EQ(sys->flush_pending(), 0u);
  expect_replicas_converged(*sys, files);
  for (const std::string& f : files) {
    EXPECT_TRUE(sys->download_report("bob", f).opened().empty());
    EXPECT_TRUE(sys->download_report("alice", f).all_ok());
  }
}

TEST(RecoveryChaos, PeerRestartedBetweenStageAndCommitCountsOneOrphan) {
  auto sys = make_system(Group::test_small(), 3, 3);
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3"};
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);

  // A peer restarts after every node staged and the commit verdict was
  // recorded, then the 2PC carries on: the restart wiped the peer's
  // staged epoch, so its commit finds nothing to apply (the orphan row
  // of the DESIGN.md §13 failure matrix).
  Cluster& c = sys->cluster();
  const std::string coord = c.coordinator();
  std::string peer;
  for (const std::string& name : c.node_names()) {
    if (name != coord) {
      peer = name;
      break;
    }
  }
  std::atomic<bool> fired{false};
  c.set_epoch_fault_hook([&](uint64_t, const std::string& phase) {
    if (phase == "decided" && !fired.exchange(true)) {
      c.kill_node(peer);
      c.restart_node(peer);
    }
  });
  EXPECT_NO_THROW(sys->revoke_attribute("Med", "bob", "Doctor"));
  ASSERT_TRUE(fired.load());
  c.set_epoch_fault_hook({});
  const ClusterStats stats = c.stats();
  EXPECT_EQ(stats.epoch_commit_orphans, 1u);
  EXPECT_EQ(stats.epoch_commits, 1u);

  // Anti-entropy carries the re-encrypted bytes to the orphaned peer.
  c.recovery().sync_all();
  expect_replicas_converged(*sys, files);
  for (const std::string& f : files) {
    EXPECT_TRUE(sys->download_report("bob", f).opened().empty());
    EXPECT_TRUE(sys->download_report("alice", f).all_ok());
  }
}

// Every commit notification is lost and then the coordinator dies: its
// decision log is the only record that the epoch committed. The next
// read must resolve the staged peers from that dead node's log. Bob's
// regenerated key never reaches him, so he still holds his pre-epoch
// Doctor key: a resolver that presumed abort would leave the peers'
// pre-epoch copies for that key to open.
TEST(RecoveryChaos, LostCommitsResolveFromTheDeadCoordinatorsLog) {
  auto sys = make_system(Group::test_small(), 3, 3, FaultPlan(1));
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3"};
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);
  sys->transport().faults().set_channel("aa:Med", "user:bob", down_channel());

  Cluster& c = sys->cluster();
  const std::string coord = c.coordinator();
  c.set_epoch_fault_hook([&](uint64_t, const std::string& phase) {
    if (phase != "decided") return;
    for (const std::string& peer : c.node_names()) {
      if (peer != coord) sys->transport().faults().set_channel(coord, peer, down_channel());
    }
  });
  sys->revoke_attribute("Med", "bob", "Doctor");
  c.set_epoch_fault_hook({});
  ASSERT_EQ(c.stats().epoch_commits, 1u);
  for (const std::string& name : c.node_names()) {
    if (name != coord) {
      ASSERT_EQ(sys->health(name).store.epochs_staged_open, 1u) << name;
    }
  }
  for (const std::string& name : c.node_names())
    EXPECT_EQ(sys->health(name).pending_in, 0u) << name;  // nothing parks
  ASSERT_EQ(sys->health().pending_by_destination.at("user:bob"), 1u);
  c.kill_node(coord);

  const RecoveryStats before = c.recovery().stats();
  for (const std::string& f : files)
    EXPECT_TRUE(sys->download_report("bob", f).opened().empty()) << f;
  EXPECT_EQ(c.recovery().stats().epochs_resolved_commit,
            before.epochs_resolved_commit + 2);
  for (const std::string& f : files) {
    const auto report = sys->download_report("alice", f);
    EXPECT_TRUE(report.all_ok()) << f;
    EXPECT_EQ(string_of(report.opened().at("a")), record_of(f));
  }
  for (const std::string& name : c.node_names()) {
    if (c.alive(name)) {
      EXPECT_EQ(sys->health(name).store.epochs_staged_open, 0u) << name;
    }
  }
}

// A revocation epoch parks while a peer is down and replays in the flush
// of the next read, after the peer is back. That replay commits, and a
// partition cuts the coordinator off at "decided", so both peers stay
// staged with their pre-epoch copies and form a read quorum on their
// own. Nothing is parked any more, so only a resolver run after the
// flush keeps the read from serving bob those copies under his
// pre-epoch key.
TEST(RecoveryChaos, CommitLostInTheReadsOwnReplayResolvesBeforeTheRead) {
  auto sys = make_system(Group::test_small(), 3, 3, FaultPlan(1));
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3"};
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);
  sys->transport().faults().set_channel("aa:Med", "user:bob", down_channel());

  Cluster& c = sys->cluster();
  const std::string coord = c.coordinator();
  const std::string down = c.node_name(c.size() - 1);
  ASSERT_NE(down, coord);
  c.kill_node(down);
  sys->revoke_attribute("Med", "bob", "Doctor");
  ASSERT_EQ(c.stats().epoch_commits, 0u);
  ASSERT_EQ(sys->health(coord).pending_in, 1u);  // the parked epoch
  c.restart_node(down);

  std::atomic<bool> cut{false};
  c.set_epoch_fault_hook([&](uint64_t, const std::string& phase) {
    if (phase != "decided" || cut.exchange(true)) return;
    for (const std::string& peer : c.node_names()) {
      if (peer == coord) continue;
      sys->transport().faults().set_channel(coord, peer, down_channel());
      sys->transport().faults().set_channel(peer, coord, down_channel());
    }
  });
  const RecoveryStats before = c.recovery().stats();
  for (const std::string& f : files) {
    std::map<std::string, Bytes> opened;
    try {
      opened = sys->download_report("bob", f).opened();
    } catch (const Error&) {
      // A read the partition fails closed opens nothing either.
    }
    EXPECT_TRUE(opened.empty()) << f;
  }
  ASSERT_TRUE(cut.load());
  c.set_epoch_fault_hook({});
  EXPECT_EQ(c.stats().epoch_commits, 1u);
  EXPECT_EQ(c.recovery().stats().epochs_resolved_commit,
            before.epochs_resolved_commit + 2);
  for (const std::string& name : c.node_names())
    EXPECT_EQ(sys->health(name).store.epochs_staged_open, 0u) << name;

  for (const std::string& peer : c.node_names()) {
    if (peer == coord) continue;
    sys->transport().faults().set_channel(coord, peer, FaultSpec());
    sys->transport().faults().set_channel(peer, coord, FaultSpec());
  }
  for (const std::string& f : files) {
    const auto report = sys->download_report("alice", f);
    EXPECT_TRUE(report.all_ok()) << f;
    EXPECT_EQ(string_of(report.opened().at("a")), record_of(f));
  }
}

// A stage fault on node:2 aborts the epoch, and the abort notification
// to the already-staged node:1 is lost. The next flush resolves node:1
// from the coordinator's logged abort; the replayed epoch aborts again
// (the fault stays armed) and every store is byte-identical to before.
TEST(RecoveryChaos, LostAbortResolvesOnTheNextFlush) {
  auto sys = make_system(Group::test_small(), 3, 3, FaultPlan(1));
  enroll(*sys);
  const std::vector<std::string> files = {"f1", "f2", "f3"};
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);
  Cluster& c = sys->cluster();
  ASSERT_EQ(c.coordinator(), "node:0");
  std::vector<Bytes> before;
  for (const std::string& name : c.node_names()) before.push_back(c.snapshot(name));

  // The hook runs on engine workers, one call per slot.
  std::atomic<bool> cut{false};
  c.node_store("node:2").set_reencrypt_fault_hook([&](const std::string&) {
    if (!cut.exchange(true))
      sys->transport().faults().set_channel("node:0", "node:1", down_channel());
    throw TransportError(TransportError::Kind::kLost, "injected stage fault");
  });
  EXPECT_EQ(sys->revoke_attribute("Med", "bob", "Doctor"), 0u);
  ASSERT_TRUE(cut.load());
  EXPECT_EQ(c.stats().epoch_commits, 0u);
  EXPECT_EQ(sys->health("node:1").store.epochs_staged_open, 1u);

  sys->transport().faults().set_channel("node:0", "node:1", FaultSpec());
  sys->flush_pending();
  EXPECT_EQ(c.stats().epoch_commits, 0u);
  for (size_t i = 0; i < c.size(); ++i) {
    const std::string& name = c.node_name(i);
    EXPECT_EQ(sys->health(name).store.epochs_staged_open, 0u) << name;
    EXPECT_EQ(c.snapshot(name), before[i]) << name;
  }
}

// ---------------------------------------------- snapshot consistency --

// A drain on one thread (the flush loop's) races writes on another that
// record hints for the same target: node mutexes order them (TSan-backed),
// and once the channel heals nothing is owed and the replicas converge.
TEST(RecoveryTest, HintDrainRacesWritesThatRecordHints) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.replication = 2;
  auto sys = std::make_unique<CloudSystem>(
      Group::test_small(), "recovery-suite",
      std::make_unique<LoopbackTransport>(FaultPlan(5)), RetryPolicy(), cfg);
  enroll(*sys);
  const std::vector<std::string> files = eight_files();
  upload_all(*sys, files);
  ASSERT_EQ(sys->flush_pending(), 0u);

  RecoveryManager& rec = sys->cluster().recovery();
  const uint64_t recorded = rec.stats().hints_recorded;
  FaultSpec lossy;
  lossy.drop = 0.8;
  sys->transport().faults().set_channel("node:0", "node:2", lossy);
  std::atomic<bool> done{false};
  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) {
      rec.drain_all_hints();
      (void)sys->health("node:2");
    }
  });
  for (int round = 0; round < 4; ++round) {
    const std::string slot = "w" + std::to_string(round);
    for (const std::string& f : files)
      sys->upload("hosp", f, {{slot, bytes_of(slot + " " + f), "Doctor@Med"}});
  }
  done.store(true, std::memory_order_release);
  drainer.join();
  EXPECT_GT(rec.stats().hints_recorded, recorded);

  sys->transport().faults().set_channel("node:0", "node:2", FaultSpec());
  size_t left = sys->flush_pending();
  for (int i = 0; i < 3 && left != 0; ++i) left = sys->flush_pending();
  EXPECT_EQ(left, 0u);
  EXPECT_EQ(rec.pending_hints(), 0u);
  expect_replicas_converged(*sys, files);
}

TEST(RecoveryTest, SnapshotNeverTearsVersionFromBytes) {
  auto sys = make_system(Group::test_small(), 3, 2);
  enroll(*sys);
  upload_all(*sys, {"tf"});
  ASSERT_EQ(sys->flush_pending(), 0u);

  Cluster& c = sys->cluster();
  const std::string coord = c.route_for("tf");
  const uint64_t base = c.version_of(coord, "tf");

  // Pre-build K distinct versions of the file (same id, perturbed
  // sealed bytes) so the writer thread needs no client-side crypto.
  constexpr size_t kVersions = 24;
  std::vector<Bytes> wires;
  for (size_t v = 0; v < kVersions; ++v) {
    StoredFile variant = *c.node_store(coord).fetch("tf");
    variant.slots[0].sealed_data[0] ^= static_cast<uint8_t>(v + 1);
    wires.push_back(serialize(sys->group(), variant));
  }
  const Bytes initial = serialize(sys->group(), *c.node_store(coord).fetch("tf"));
  std::vector<Bytes> hashes;
  for (const Bytes& wire : wires) hashes.push_back(crypto::Sha256::digest(wire));
  const Bytes initial_hash = crypto::Sha256::digest(initial);

  std::atomic<bool> done{false};
  std::atomic<size_t> torn{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const Bytes snap = c.snapshot(coord);
      Reader r(snap);
      const uint32_t count = r.u32();
      for (uint32_t i = 0; i < count; ++i) {
        const std::string id = r.str();
        const uint64_t version = r.u64();
        const Bytes bytes = r.var_bytes();
        if (id != "tf") continue;
        // handle_store assigns base+1, base+2, ... to wires[0], [1], ...
        // under the same mutex hold that stores the bytes; any other
        // pairing is a torn read.
        const Bytes& want =
            version == base ? initial : wires.at(version - base - 1);
        if (bytes != want) torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // The replica record read directly: version, recorded hash and kept
  // bytes come from one revision.
  std::thread record_reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const FetchReply copy = c.local_read(coord, "tf");
      const bool at_base = copy.version == base;
      const Bytes& want = at_base ? initial : wires.at(copy.version - base - 1);
      const Bytes& want_hash = at_base ? initial_hash : hashes.at(copy.version - base - 1);
      if (!copy.found || copy.wire != want || copy.hash != want_hash)
        torn.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const Bytes& wire : wires) c.handle_store(coord, wire);
  done.store(true, std::memory_order_release);
  reader.join();
  record_reader.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(c.version_of(coord, "tf"), base + kVersions);
  sys->flush_pending();
}

}  // namespace
}  // namespace maabe::cloud
