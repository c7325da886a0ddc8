// Self-healing recovery for the replicated Cluster (DESIGN.md §15).
//
// Three protocols, all speaking node-to-node over the same transport the
// data plane uses (so the meter and fault injection see every byte):
//
//  * Merkle anti-entropy — each node's store state folds into a per-
//    shard hash tree over (file_id, version, content-hash of the bytes
//    it currently holds); `sync(a, b)` walks the two trees level by
//    level, root first, and transfers only the files under divergent
//    leaves. Hashing the *current* bytes (not the recorded write hash)
//    means silent bit-rot diverges the trees too, so sync heals
//    corrupt and missing replicas with O(divergence) transfers instead
//    of O(files) quorum fetches.
//
//  * Hinted hand-off — the one record of a missed replica write: the
//    sending node records (target, file_id, version), one per file. A
//    drain (a read, flush_pending, or rejoin of either node) ships the
//    holder's *current* copy where the target's is older: epochs bump
//    each replica's version on its own, so a version hinted before one
//    compares to nothing. It only guards the clear, so a hint
//    re-recorded during a drain survives it. Until it drains, the
//    target takes no write of the file and wins no read without the
//    holder (holders_owing).
//
//  * 2PC epoch resolution — every commit/abort verdict is recorded in a
//    per-node decision log that (unlike staged state) survives
//    kill_node, and that log is the one record of a verdict: a
//    notification that misses a peer is never parked. The resolver
//    applies to each alive node's staged epochs the verdict it reads
//    directly from every node's log, dead or alive: a recorded commit
//    wins, then a recorded abort, otherwise presumed abort. It runs
//    first in every read (CloudSystem::download_report, and again
//    after the read's queue flush), in flush_pending and in a rejoin,
//    so after any of them no alive node holds a staged epoch except one
//    still in flight. A holder whose store holds a staged epoch that is
//    not in flight drains no hint until it is resolved.
//
// `rejoin(node)` (run by Cluster::restart_node) strings the three into
// one traced sequence: resolve staged epochs, drain the hints owed to
// and held by the node, then a scoped anti-entropy round against each
// alive peer — byte-identical state without a full-store scan. It runs
// at every cluster size; a single node has no holder or peer, so its
// drain and sync are empty.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cloud/replication.h"
#include "common/bytes.h"
#include "telemetry/metrics.h"

namespace maabe::cloud {

class Cluster;

/// Result of one pairwise anti-entropy session (initiator's view).
struct SyncReport {
  uint64_t rounds = 0;             ///< tree-level exchanges (root → leaves)
  uint64_t shards_divergent = 0;   ///< leaf shards whose digests differed
  uint64_t files_pushed = 0;       ///< initiator → peer transfers
  uint64_t files_pulled = 0;       ///< peer → initiator transfers
  uint64_t bytes_transferred = 0;  ///< file payload bytes moved either way

  bool converged_without_transfer() const {
    return files_pushed + files_pulled == 0;
  }
  SyncReport& operator+=(const SyncReport& o) {
    rounds += o.rounds;
    shards_divergent += o.shards_divergent;
    files_pushed += o.files_pushed;
    files_pulled += o.files_pulled;
    bytes_transferred += o.bytes_transferred;
    return *this;
  }
};

/// Monotonic counters (snapshot/subtract, ClusterStats style).
struct RecoveryStats {
  uint64_t hints_recorded = 0;
  uint64_t hints_replayed = 0;    ///< holder's current copy pulled and applied
  uint64_t hints_superseded = 0;  ///< cleared: target as new as the holder's copy
  uint64_t hints_dropped = 0;     ///< cleared: holder no longer had the file
  uint64_t syncs = 0;             ///< pairwise anti-entropy sessions
  uint64_t sync_rounds = 0;       ///< tree-level exchanges across sessions
  uint64_t shards_divergent = 0;
  uint64_t files_transferred = 0;
  uint64_t bytes_transferred = 0;
  uint64_t epochs_resolved_commit = 0;
  uint64_t epochs_resolved_abort = 0;
  uint64_t rejoins = 0;
  uint64_t sync_failures = 0;  ///< sessions/drains lost to transport faults
};

class RecoveryManager {
 public:
  // Both out of line: Session is incomplete here, and the sessions_ map
  // needs its complete type for (exception-path) destruction.
  explicit RecoveryManager(Cluster& cluster);
  ~RecoveryManager();

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  // ---- Merkle anti-entropy -------------------------------------------
  /// One pairwise session: `initiator` walks `peer`'s tree over the
  /// transport and converges the files both nodes replicate. Both nodes
  /// must be alive; throws TransportError(kLost) otherwise and lets
  /// in-flight transport faults propagate.
  SyncReport sync(const std::string& initiator, const std::string& peer);
  /// Every alive pair, tolerating per-pair transport failures (counted
  /// in stats().sync_failures). The operator-facing repair: O(divergence)
  /// transfers instead of O(files) reads.
  SyncReport sync_all();

  // ---- Hinted hand-off -----------------------------------------------
  /// Records at `holder` that `target` missed (file_id, version); one
  /// hint per (holder, target, file), at the newest version. Called by
  /// Cluster::send_replica.
  void record_hint(const std::string& holder, const std::string& target,
                   const std::string& file_id, uint64_t version);
  /// Drains the hints `holder` owes `target`, both alive and no epoch
  /// staged in the holder's store: the target pulls the holder's current
  /// copy of each file it holds older, then clears the hint. Returns
  /// hints drained (replayed, superseded or dropped); a transport
  /// failure leaves the rest for a later drain.
  size_t drain_hints(const std::string& holder, const std::string& target);
  /// drain_hints over every (holder, target) pair; returns the hints
  /// still owed afterwards (pending_hints).
  size_t drain_all_hints();
  /// The nodes that owe `target` a hint for `file_id`. Until each has
  /// drained it, `target`'s copy may miss a write that holder took.
  std::vector<std::string> holders_owing(const std::string& target,
                                         const std::string& file_id) const;
  /// Hints currently held for `target`, across all holders.
  size_t hint_count(const std::string& target) const;
  /// All hints across all holders and targets: the cluster's replication
  /// lag in missed (replica, file) writes, exported as the
  /// maabe_cluster_replication_lag gauge.
  size_t pending_hints() const;

  // ---- 2PC epoch resolution ------------------------------------------
  /// Resolves every epoch an alive node's store holds staged from every
  /// node's decision log, dead or alive: a recorded commit wins, then a
  /// recorded abort, otherwise presumed abort. Skips epochs whose 2PC is
  /// still in flight. Returns the number of staged epochs resolved.
  size_t resolve_staged_epochs();

  // ---- Rejoin orchestration ------------------------------------------
  /// The restart_node recovery sequence, linked under one
  /// "recovery.rejoin" span: resolve staged epochs, drain the hints owed
  /// to and held by this node, scoped anti-entropy against each alive
  /// peer. No full-store scan and no quorum reads.
  void rejoin(const std::string& name);

  RecoveryStats stats() const;

 private:
  struct ShardLeaf;
  struct Session;

  /// Cluster::rpc with this manager's serve() as the responder.
  Bytes rpc(const std::string& from, const std::string& to, Bytes request);
  /// `node`'s current copy of a file as a replication op (nullopt when
  /// absent), the payload of both kFilePull and push_file.
  std::optional<ReplicationOp> current_op(const std::string& node,
                                          const std::string& file_id);
  /// Responder dispatch for every recovery verb.
  Bytes serve(const std::string& self, ByteView request);
  /// The verdict recorded for an epoch across every node's decision log
  /// (Cluster::kVerdict*; a commit wins), 0 when no log records one.
  uint8_t logged_verdict(uint64_t epoch_id) const;

  std::vector<std::vector<ShardLeaf>> pair_listing(const std::string& owner,
                                                   const std::string& peer);
  static std::vector<std::vector<Bytes>> build_tree_levels(
      const std::vector<std::vector<ShardLeaf>>& listing);
  Session& session_for(const std::string& owner, const std::string& peer,
                       uint64_t sync_id);
  void push_file(const std::string& from, const std::string& to,
                 const ShardLeaf& leaf, SyncReport* rep);
  bool pull_file(const std::string& to, const std::string& from,
                 const std::string& file_id, uint64_t* bytes);

  Cluster& cluster_;

  std::mutex mu_;  ///< guards sessions_
  std::map<std::string, std::unique_ptr<Session>> sessions_;  // responder → latest
  std::atomic<uint64_t> next_sync_id_{0};

  /// maabe_recovery_<name>_total{instance}: one add per event.
  struct {
    telemetry::CounterSeries hints_recorded, hints_replayed, hints_superseded,
        hints_dropped, syncs, sync_rounds, shards_divergent, files_transferred,
        bytes_transferred, epochs_resolved_commit, epochs_resolved_abort, rejoins,
        sync_failures;
  } m_;
};

}  // namespace maabe::cloud
