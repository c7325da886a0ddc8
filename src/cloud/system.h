// CloudSystem: the full multi-authority access-control deployment.
//
// Wires the CA, attribute authorities, data owners, consumers and the
// storage cluster together. Every artefact that crosses an entity
// boundary travels through the transport as serialized bytes (DESIGN.md
// §10): serialize -> frame -> deliver -> verify -> deserialize. Sends
// use a ReliableLink (capped exponential backoff, per-request ids,
// origin-scoped receiver dedup); revocation and upload traffic
// additionally parks in per-destination FIFO queues (DurableLink) when
// the destination stays unreachable and replays on the next successful
// call, so a revocation epoch that could not reach its node is applied
// before any later read.
//
// The storage tier is a Cluster (DESIGN.md §13): client traffic is
// routed over the consistent-hash ring to the first alive replica,
// writes replicate to the other replicas (a missed one is owed a hint),
// reads are quorum reads with read-repair, and revocation epochs are
// cluster-wide two-phase commits. The default single-node cluster runs
// the same paths with one participant, named "server". Canonical
// entity names used for channels and metering:
//   "ca", "aa:<AID>", "owner:<id>", "user:<UID>",
//   "server" (single-node cluster) or "node:<i>" (multi-node).
#pragma once

#include "cloud/cluster.h"
#include "cloud/entities.h"
#include "cloud/server.h"
#include "cloud/transport.h"
#include "telemetry/metrics.h"

namespace maabe::cloud {

class CloudSystem {
 public:
  explicit CloudSystem(std::shared_ptr<const pairing::Group> grp,
                       const std::string& seed = "maabe-system");
  /// Full control: inject a transport (typically with a FaultPlan), a
  /// retry policy, and the cluster shape (defaults to a single node
  /// named "server").
  CloudSystem(std::shared_ptr<const pairing::Group> grp, const std::string& seed,
              std::unique_ptr<LoopbackTransport> transport, RetryPolicy retry = RetryPolicy(),
              ClusterConfig cluster = ClusterConfig());

  // ---- Enrollment ----------------------------------------------------
  /// Registers an AA with the CA and creates its entity. Owner shares
  /// are delivered through the transport; shares that cannot be
  /// delivered park and replay later (issue_user_key reports a typed
  /// error until the share arrives).
  AttributeAuthority& add_authority(const std::string& aid,
                                    const std::set<std::string>& attributes);
  /// Registers a user with the CA and creates its consumer entity from
  /// the transported PK bytes. Safe to retry after a TransportError.
  Consumer& add_user(const std::string& uid);
  /// Creates an owner and distributes SK_o to every existing authority.
  DataOwner& add_owner(const std::string& owner_id);

  // ---- Attribute & key management -------------------------------------
  /// AA-side role assignment (admin request routed ca -> aa).
  void assign_attributes(const std::string& aid, const std::string& uid,
                         const std::set<std::string>& attributes);
  /// User pulls SK_{UID,AID} for one owner's data from one authority.
  void issue_user_key(const std::string& aid, const std::string& uid,
                      const std::string& owner_id);
  /// Owner pulls the current public keys from one authority.
  void publish_authority_keys(const std::string& aid, const std::string& owner_id);

  // ---- Data path -------------------------------------------------------
  /// Owner protects and uploads a file. If the server is unreachable the
  /// upload parks and replays before any later server delivery.
  void upload(const std::string& owner_id, const std::string& file_id,
              const std::vector<DataComponent>& components);

  /// Per-slot outcome of a degraded-mode download.
  enum class SlotState {
    kOk,       ///< decrypted; plaintext present
    kNoKey,    ///< keys do not satisfy the slot (authority unreachable
               ///< at issuance time, insufficient attributes, or stale
               ///< version) — indistinguishable by design
    kCorrupt,  ///< keys satisfy the slot but authentication failed
    kError,    ///< other typed failure (detail has the message)
  };
  struct SlotReport {
    std::string component;
    SlotState state = SlotState::kNoKey;
    Bytes plaintext;     ///< only for kOk
    std::string detail;  ///< human-readable cause for non-kOk states
  };
  struct DownloadReport {
    std::string file_id;
    std::vector<SlotReport> slots;
    /// The kOk slots, keyed by component name.
    std::map<std::string, Bytes> opened() const;
    bool all_ok() const;
    bool any_corrupt() const;
  };

  /// Degraded-mode download: decrypts the slots it can and reports the
  /// rest as kNoKey/kCorrupt/kError per slot, instead of failing the
  /// whole file. Resolves staged epochs from the decision logs, drains
  /// the hints between alive nodes, flushes, then resolves again (a
  /// replayed epoch may lose its own notifications). Reads are fail-closed
  /// against parked revocation epochs: throws
  /// TransportError(kDegraded) while server deliveries are pending and
  /// the flush could not drain them.
  DownloadReport download_report(const std::string& uid, const std::string& file_id);

  /// download_report's receive step on the bytes of one stored file as
  /// `consumer` gets them: walk the wire (view_stored_file), look each
  /// slot up in the decrypt cache by its bytes, decode every slot that
  /// missed, then plan and open. A malformed file throws WireError before
  /// any slot is opened or counted. Public so that a test can hand it
  /// the bytes a faulty or hostile server would send.
  std::vector<SlotReport> open_wire(const Consumer& consumer, ByteView wire) const;

  /// Legacy strict download: the opened slots; re-throws the first
  /// kCorrupt/kError slot's failure as a typed error.
  std::map<std::string, Bytes> download(const std::string& uid,
                                        const std::string& file_id);

  // ---- Revocation (paper Section V-C, both phases) ---------------------
  /// Runs the complete protocol: AA re-keys, the revoked user receives
  /// regenerated keys, all other holders update, owners update public
  /// keys and emit UpdateInfo, the server re-encrypts. Deliveries that
  /// cannot complete park per destination and replay later (the epoch
  /// extends PR 2's failure atomicity across the network boundary).
  /// Returns the number of ciphertext slots re-encrypted *and committed
  /// on the server during this call* — parked work shows in health().
  size_t revoke_attribute(const std::string& aid, const std::string& uid,
                          const std::string& attribute);

  /// User-level revocation: strips every attribute the authority has
  /// assigned to `uid` with a single version bump, then runs the same
  /// update/re-encryption pipeline.
  size_t revoke_user(const std::string& aid, const std::string& uid);

  // ---- Degraded-mode plumbing ------------------------------------------
  /// Resolves every staged epoch from the decision logs, attempts to
  /// replay every parked delivery, in per-destination FIFO order, then
  /// drains every hint between alive nodes (the target gets
  /// the holder's current copy), then replays again for the writes that
  /// waited on a hint. Stops a queue at its first transport failure
  /// (order must be preserved). Returns the parked deliveries plus the
  /// hints still owed.
  size_t flush_pending();

  /// Liveness/robustness counters for operators and the chaos harness.
  struct Health {
    ChannelStats transport;         ///< aggregate over every channel
    uint64_t sends_ok = 0;          ///< reliable sends that succeeded
    uint64_t sends_failed = 0;      ///< reliable sends that exhausted retries
    uint64_t applied_requests = 0;  ///< distinct request ids applied
    uint64_t pending_deliveries = 0;
    std::map<std::string, size_t> pending_by_destination;
    uint64_t virtual_ms = 0;  ///< transport clock (delays + backoff)
  };
  /// health() may be called concurrently with operations on other
  /// threads: the meter, link counters and pending queues synchronize
  /// themselves, and every row of the result is internally coherent.
  Health health() const;

  /// Per-node health: the node's store/epoch counters plus its share of
  /// the transport meter and the durable queues, so an injected fault
  /// is attributable to the node it hit. Throws SchemeError on an
  /// unknown node name.
  NodeHealth health(const std::string& node_id) const;
  /// health(node) for every node of the cluster, in node order.
  std::vector<NodeHealth> cluster_health() const;

  // ---- Admission control -----------------------------------------------
  /// Caps every per-destination durable queue (default
  /// kDefaultPendingCap ops; 0 restores the default). When a queue is
  /// full further sends are rejected with TransportError(kOverloaded),
  /// and the entity traffic (uploads, revocation distribution) sees the
  /// typed error. Nothing else parks: a replica write's hints are bounded
  /// at one per (holder, target, file), and an epoch verdict is recorded
  /// once, in the coordinator's decision log.
  void set_pending_cap(size_t cap) { durable_.set_pending_cap(cap); }
  size_t pending_cap() const { return durable_.pending_cap(); }
  /// Sends rejected at the cap (maabe_transport_parked_rejected_total).
  uint64_t parked_rejected_total() const { return durable_.rejected_total(); }

  /// Point-in-time view of the process-wide telemetry registry
  /// (maabe_engine_*, maabe_transport_*, maabe_server_*, ... counters
  /// and histograms), including this system's collector contributions
  /// (per-channel totals, pending queues, server occupancy), labelled
  /// {instance=instance()}. Render with Snapshot::prometheus_text().
  telemetry::Snapshot telemetry_snapshot() const;
  /// The `instance` label of every series this system records.
  const std::string& instance() const { return transport_->instance(); }

  /// One aggregated cluster-observability document (ISSUE 9): per-node
  /// health (liveness, store totals, epoch ledger, queue depth),
  /// replication lag, parked-delivery queues, staged 2PC epochs, link
  /// counters, and every maabe_slo_* burn-rate gauge currently in the
  /// registry — a single JSON object an operator (or `maabe-loadgen
  /// --status-out`) can poll instead of stitching five views together.
  std::string status_json() const;

  // ---- Introspection ----------------------------------------------------
  AttributeAuthority& authority(const std::string& aid);
  DataOwner& owner(const std::string& owner_id);
  Consumer& user(const std::string& uid);
  /// Node 0's store — the whole store on a single-node cluster.
  CloudServer& server() { return cluster_.node_store(0); }
  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }
  LoopbackTransport& transport() { return *transport_; }
  const ChannelMeter& meter() const { return transport_->meter(); }
  ChannelMeter& meter() { return transport_->meter(); }
  const pairing::Group& group() const { return *grp_; }

  /// Table III storage accounting. AA storage is the version key |p|;
  /// owner storage is MK_o + cached public keys; user storage is held
  /// secret keys; server storage is stored files.
  struct StorageReport {
    std::map<std::string, size_t> per_entity;
  };
  StorageReport storage_report() const;

 private:
  crypto::Drbg fork_rng(const std::string& label);
  size_t distribute_revocation(const std::string& aid, const std::string& uid,
                               uint32_t from_version,
                               const AttributeAuthority::RevocationBundle& bundle);
  /// A user's sink for a delivered update key: joins the revocation's
  /// batch while distribute_revocation collects one, and otherwise (a
  /// parked delivery replayed later) applies as a batch of one.
  void deliver_update_key(const std::string& uid, abe::UpdateKey uk);
  /// Applies the collected batch (cloud::apply_key_updates) and empties it.
  void apply_key_updates();

  std::shared_ptr<const pairing::Group> grp_;
  crypto::Drbg rng_;
  CertificateAuthority ca_;
  std::unique_ptr<LoopbackTransport> transport_;
  ReliableLink link_;
  /// Per-destination write-ahead queues for entity traffic.
  DurableLink durable_;
  Cluster cluster_;
  std::map<std::string, AttributeAuthority> authorities_;
  std::map<std::string, DataOwner> owners_;
  std::map<std::string, Consumer> users_;
  /// Update keys delivered while distribute_revocation collects them.
  std::vector<KeyUpdateDelivery> key_updates_;
  bool collecting_key_updates_ = false;
  /// Declared last: deregisters on destruction before any member the
  /// collector callback reads goes away.
  telemetry::MetricsRegistry::CollectorToken collector_;
};

}  // namespace maabe::cloud
