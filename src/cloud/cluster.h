// Cluster: N CloudServer nodes joined only through the transport
// (DESIGN.md §13).
//
// Placement is a consistent-hash ring (HashRing): each file lives on R
// replicas; the coordinator of an operation is the first *alive* node
// of the file's preference order, so node failure changes who serves a
// request, never where the data belongs.
//
// Each node's CloudServer owns its copies' revisions (version, recorded
// hash and kept bytes in one record): the cluster reads a copy with
// CloudServer::copy and writes one with its versioned writes, and never
// re-serializes a copy it received.
//
// Writes: the coordinator's store keeps the file as the next version of
// its copy (apply_next), and the coordinator sends that ReplicationOp
// to the other replicas. A replica the send misses is owed a hint at
// the coordinator — the one record of the miss — and the drain later
// ships the coordinator's current copy (DESIGN.md §15). A node owed a
// hint for a file takes no write of it: the write parks until it drains.
//
// Reads: the coordinator collects one FetchReply per alive replica
// (its own copy locally, the rest over a two-leg rpc), requires a
// majority quorum, picks the winner (authentic > newest > preferred) and
// repairs divergent replicas (read-repair) through the same replica
// send as the write fan-out. A winner owed a hint by a replica that did
// not answer fails the read closed.
//
// Revocation epochs: cluster-wide two-phase commit over the server's
// stage-then-commit hooks, at every cluster size. The coordinator stages
// the epoch on every node through one path (each node re-encrypts only
// the files it holds; its store keeps them by epoch id), records its
// commit decision, commits everywhere once all staged, and aborts
// everywhere byte-identically if any node cannot stage. The decision
// log is the one record of a verdict: a commit or abort that misses a
// peer is never parked, and the peer stays staged until the recovery
// resolver applies the logged verdict (a read, flush_pending or a
// rejoin runs it first).
//
// Failure model: alive/killed is scripted by the chaos harness
// (kill_node / restart_node); a killed node loses its memory-only
// staged epochs (abort_all_staged) but keeps its committed store and
// its decision log, and a message addressed to a dead node fails like
// any lost frame, so the ReliableLink retry machinery needs no special
// cases.
//
// A single-node cluster (the default) runs the same paths with one
// participant: the node is named "server", writes have no replica to
// fan out to, quorum reads have only the local copy, and epochs run
// the 2PC with no peer messages.
#pragma once

#include <atomic>
#include <functional>
#include <set>

#include "cloud/recovery.h"
#include "cloud/replication.h"
#include "cloud/ring.h"
#include "cloud/server.h"

namespace maabe::cloud {

struct ClusterConfig {
  size_t nodes = 1;
  size_t replication = 1;  ///< copies per file, clamped to [1, nodes]
};

/// Per-node liveness/robustness view (satellite of ISSUE 6): the store
/// and epoch counters come from the node, the transport and queue
/// fields are filled in by CloudSystem::health(node), which owns the
/// meter and the durable queues.
struct NodeHealth {
  std::string node;
  bool alive = true;
  ServerStats store;                 ///< the node's store, epoch ledger included
  uint64_t pending_in = 0;           ///< parked deliveries + replication_lag
  uint64_t replication_lag = 0;      ///< hints owed to it (hint_count)
  ChannelStats transport_in;         ///< meter rows with to == node
  ChannelStats transport_out;        ///< meter rows with from == node
};

/// Cluster-wide monotonic counters (snapshot, subtract, report).
struct ClusterStats {
  size_t nodes = 0;
  size_t alive = 0;
  size_t replication = 0;
  uint64_t replication_ops_sent = 0;  ///< ops fanned out (incl. hinted)
  uint64_t replication_ops_applied = 0;
  uint64_t read_repairs = 0;          ///< repair ops issued by quorum reads
  uint64_t quorum_reads = 0;          ///< reads that met quorum
  uint64_t quorum_failures = 0;       ///< reads that could not meet quorum
  uint64_t epochs_2pc = 0;            ///< epochs attempted (every cluster size)
  uint64_t epoch_commits = 0;         ///< 2PC epochs committed everywhere
  uint64_t epoch_aborts = 0;          ///< 2PC epochs aborted everywhere
  /// Commit notifications that found no staged state: the peer was
  /// dead when the commit was sent, or had restarted since it staged.
  /// A commit lost to an alive peer that is then killed before the
  /// resolver runs is not counted; its rejoin re-keys the copy.
  uint64_t epoch_commit_orphans = 0;
  /// Totals over every node's store, epoch ledger included.
  ServerStats store_totals;
};

class Cluster {
 public:
  /// Node names: "server" for a single-node cluster (byte-compatible
  /// with the PR 3 channel layout), else "node:0" .. "node:N-1".
  /// Series are labelled with the link's instance, so each Cluster
  /// needs its own link.
  Cluster(std::shared_ptr<const pairing::Group> grp, const ClusterConfig& config,
          ReliableLink& link, DurableLink& durable);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  size_t size() const { return nodes_.size(); }
  const std::vector<std::string>& node_names() const { return names_; }
  const std::string& node_name(size_t i) const;
  size_t node_index(const std::string& name) const;  ///< throws SchemeError
  CloudServer& node_store(size_t i);
  CloudServer& node_store(const std::string& name);
  const CloudServer& node_store(const std::string& name) const;
  const HashRing& ring() const { return ring_; }
  const ClusterConfig& config() const { return config_; }
  const std::string& instance() const { return link_.instance(); }

  // ---- Liveness (scripted by the chaos harness) ----------------------
  bool alive(const std::string& name) const;
  size_t alive_count() const;
  /// Marks the node dead and discards its memory-only staged epochs
  /// (restart semantics: the committed store is durable, stage state is
  /// not). Messages to it now fail; durable sends park.
  void kill_node(const std::string& name);
  /// Marks the node alive again and runs the rejoin protocol (DESIGN.md
  /// §15: resolve staged epochs, drain the hints owed to and held by the
  /// node, scoped Merkle anti-entropy against each alive peer). After
  /// this the node is byte-identical to its peers on the files it
  /// replicates, without a full-store scan. A single node rejoins the
  /// same way, with no peers.
  void restart_node(const std::string& name);

  // ---- Placement -----------------------------------------------------
  std::vector<std::string> replicas_for(const std::string& file_id) const;
  /// The coordinator for this file: first alive replica, or the primary
  /// when the whole replica set is down (sends then park at it).
  std::string route_for(const std::string& file_id) const;
  /// The epoch coordinator: first alive node (node 0 when all are down).
  std::string coordinator() const;

  // ---- Node-side handlers (run inside transport applies) -------------
  /// Write path at the coordinator: assign version, store locally,
  /// send_replica to the other replicas. Throws TransportError(kLost)
  /// when `self` is dead and kDegraded when it is owed a hint for the
  /// file (the delivery never happened; a durable send parks it).
  void handle_store(const std::string& self, ByteView stored_file_wire);
  /// Replica side of replication and read-repair: applies the op iff it
  /// is newer than the local copy, or same-version with differing bytes
  /// (corruption repair). Idempotent.
  void handle_replication(const std::string& self, ByteView op_wire);
  /// Quorum read at the coordinator. Returns the winner's serialized
  /// StoredFile; sends read-repair ops to divergent replicas. Throws
  /// TransportError(kDegraded) when quorum cannot be met or a silent
  /// replica holds a hint for the winner, SchemeError when no replica
  /// has the file.
  Bytes handle_fetch(const std::string& self, const std::string& file_id);
  /// Revocation epoch at the coordinator, as a 2PC at every cluster
  /// size: stage on every node, record the commit decision, commit
  /// everywhere when all staged, abort everywhere otherwise and throw so
  /// the epoch message itself stays parked and replays. A verdict that
  /// misses a peer is resolved from the decision log later. One node is
  /// one participant.
  void handle_epoch(const std::string& self, ByteView epoch_wire);

  // ---- Anti-entropy / introspection ----------------------------------
  /// The self-healing subsystem (Merkle anti-entropy, hinted hand-off,
  /// 2PC epoch resolution — DESIGN.md §15).
  RecoveryManager& recovery() { return *recovery_; }
  const RecoveryManager& recovery() const { return *recovery_; }

  /// Test hook for 2PC crash injection: called during an epoch with
  /// phase "staged" (all nodes staged, no decision recorded) and
  /// "decided" (commit decision recorded, before any commit applies).
  /// A hook that kills the coordinator and throws TransportError
  /// simulates a coordinator crash at that point.
  using EpochFaultHook = std::function<void(uint64_t, const std::string&)>;
  void set_epoch_fault_hook(EpochFaultHook hook) {
    epoch_fault_hook_ = std::move(hook);
  }

  /// Canonical bytes of one node's store (CloudServer::snapshot). Two
  /// replicas converged iff snapshots agree on their shared files;
  /// chaos tests compare these across runs.
  Bytes snapshot(const std::string& name) const { return node_store(name).snapshot(); }
  /// Version of this node's copy (0 when absent).
  uint64_t version_of(const std::string& name, const std::string& file_id) const {
    return node_store(name).version_of(file_id);
  }
  /// This node's copy as its quorum-read reply (CloudServer::copy):
  /// version, recorded hash and kept bytes (found = false when absent).
  /// Counts one fetch on the node's store.
  FetchReply local_read(const std::string& name, const std::string& file_id) const {
    return node_store(name).copy(file_id);
  }

  /// Human-readable dump of one node's flight-recorder ring (last N
  /// spans + typed events, DESIGN.md §16). Empty-ish ("0 entries")
  /// when the FlightRegistry was never armed or the node recorded
  /// nothing; chaos and recovery tests attach this on failure.
  std::string dump_flight_recorder(const std::string& name) const;

  NodeHealth node_health(const std::string& name) const;
  ClusterStats stats() const;
  /// Sum of per-node reencrypted_slots — the unit revocation returns.
  uint64_t total_reencrypted_slots() const;

 private:
  friend class RecoveryManager;

  // 2PC decision-log verdicts (persisted per node, survive kill_node).
  static constexpr uint8_t kVerdictCommit = 1;
  static constexpr uint8_t kVerdictAbort = 2;

  /// `mu` guards liveness, hints and decisions; no store call runs under it.
  struct Node {
    std::string name;
    std::unique_ptr<CloudServer> store;
    bool alive = true;                       // guarded by mu
    /// Hinted hand-off, the one record of a missed replica write:
    /// target node -> (file_id -> newest missed version), held by the
    /// node whose send missed; survives kill_node like the committed
    /// store. Guarded by mu.
    std::map<std::string, std::map<std::string, uint64_t>> hints;
    /// 2PC decision log: epoch id -> kVerdict*. The durable half of the
    /// presumed-abort protocol — kill_node wipes staged state but never
    /// this, so peers can resolve a dead coordinator's epochs. By mu.
    std::map<uint64_t, uint8_t> decisions;
    mutable std::mutex mu;
  };

  Node& node(const std::string& name);
  const Node& node(const std::string& name) const;
  /// Throws TransportError(kLost) when the node is down, so an apply
  /// aimed at it fails exactly like a lost frame.
  void ensure_alive(const Node& n) const;
  /// CloudServer::apply on n's store, counted when it applied.
  void apply_replication(Node& n, ReplicationOp op);
  /// The one replica send, write fan-out and read-repair alike. A send
  /// that fails, or that would overtake deliveries parked for `replica`
  /// or the hint `self` already owes it for the file, records a hint and
  /// parks nothing.
  void send_replica(const std::string& self, const std::string& replica,
                    const std::string& file_id, uint64_t version, ByteView op_wire);
  /// Two transport legs, so the meter and fault injection see both
  /// directions: `serve` runs at `to` and its result travels back.
  Bytes rpc(const std::string& from, const std::string& to, ByteView request,
            const std::function<Bytes(ByteView)>& serve);
  /// Phase 1 at one node, coordinator and peers alike: stages the
  /// decoded epoch in the node's store under `epoch_id`.
  void stage_epoch(const std::string& name, uint64_t epoch_id, ByteView epoch_wire);
  /// Records the verdict in n's decision log, then commits or aborts
  /// the epoch if n's store holds it. Returns whether it did.
  /// Used by phase 2, by control applies and by the recovery resolver.
  bool apply_epoch_decision(Node& n, uint64_t epoch_id, bool commit);
  /// Notifies `peer` of a verdict over the link's retries, and never
  /// parks it: a lost notification leaves the peer staged for the
  /// resolver. A commit that misses a dead peer counts one orphan.
  void send_epoch_control(const std::string& self, const std::string& peer,
                          uint8_t verb, uint64_t epoch_id);
  bool epoch_in_flight(uint64_t epoch_id) const;

  std::shared_ptr<const pairing::Group> grp_;
  ClusterConfig config_;
  ReliableLink& link_;
  DurableLink& durable_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Node>> nodes_;
  HashRing ring_;
  std::unique_ptr<RecoveryManager> recovery_;
  EpochFaultHook epoch_fault_hook_;
  /// Epochs whose 2PC is currently executing; the recovery resolver
  /// skips them (they are not stuck, just in flight).
  mutable std::mutex active_epochs_mu_;
  std::set<uint64_t> active_epochs_;
  std::atomic<uint64_t> next_epoch_id_{0};
  /// maabe_cluster_<name>{instance}: one add per event (DESIGN.md §11).
  struct {
    telemetry::CounterSeries replication_ops, replication_applied, read_repairs,
        quorum_reads, quorum_failures, epochs_2pc, epoch_commits, epoch_aborts,
        epoch_commit_orphans;
    telemetry::GaugeSeries nodes_alive;
  } m_;
};

}  // namespace maabe::cloud
