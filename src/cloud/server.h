// The honest-but-curious cloud server.
//
// Stores owners' protected files, serves them to consumers, and runs the
// ReEncrypt half of attribute revocation via proxy re-encryption — it
// never holds content keys and never decrypts anything (paper Section
// III-B trust model).
//
// The store has one way in for each job: files are written only by the
// versioned writes (apply, apply_next) and re-encrypted only through the
// epoch ledger (stage_reencrypt, then commit_reencrypt or
// abort_reencrypt).
//
// Concurrency model (DESIGN.md §9): the store is split into N shards by
// hash of file_id, each guarded by its own std::shared_mutex. fetch()
// returns an immutable snapshot (shared_ptr<const StoredFile>) of the
// revision kept at the time of the call, so readers are never
// invalidated by a concurrent write or epoch commit. Writers lock only
// their shard, so re-encryption of one owner's files never blocks reads
// of unrelated shards. Each entry is a replica record — kept bytes,
// version, recorded hash and owner of one revision — read and written
// under one shard lock, so no reader pairs a version with another
// revision's bytes. Versioned writes keep the bytes they received;
// only an epoch commit serializes.
//
// A versioned write checks every point of the file it keeps
// (check_stored_file: a Legendre symbol per point) and decodes none.
// A revision is decoded once, as a batch with the owner's other
// undecoded revisions, when an epoch first re-encrypts one of its slots
// (a stage reads the other revisions' slot ids and versions without
// decoding a point), or when fetch() asks for it; the decode stays on
// the entry until the next write (DESIGN.md §27).
//
// Revocation is a failure-atomic epoch in two steps: staging builds
// re-encrypted copies of every affected ciphertext off to the side
// (one abe::reencrypt_batch, whose pairings the engine fans out) and
// the commit swaps them
// in under the shard write locks, only after every slot has succeeded;
// if any slot throws, the store is exactly what it was before, so the
// scheme's strict per-authority version checks (abe::reencrypt) never
// observe a half-updated store. The cluster's 2PC holds staged epochs
// in the store's ledger by epoch id: the store is the one owner of
// staged state, and its ledger lock orders a commit against a restart's
// wipe. A test-only fault hook lets tests prove this.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>

#include "abe/scheme.h"
#include "cloud/hybrid.h"
#include "cloud/replication.h"
#include "telemetry/metrics.h"

namespace maabe::cloud {

/// Whole-store snapshot from CloudServer::stats(). files and bytes are
/// state, summed under the shard locks; the event counts are reads of
/// the node's maabe_server_<name>_total{instance,node} series.
struct ServerStats {
  uint64_t files = 0;              ///< live files
  uint64_t bytes = 0;              ///< serialized bytes at rest
  uint64_t stores = 0;             ///< revisions written by apply / apply_next
  uint64_t fetches = 0;            ///< successful fetch() snapshots served
  uint64_t reencrypted_slots = 0;  ///< ciphertext slots committed by epochs
  uint64_t epochs_committed = 0;   ///< staged epochs committed
  uint64_t epochs_aborted = 0;     ///< epochs staged, then discarded on failure
  uint64_t epochs_staged_open = 0; ///< staged, neither committed nor aborted

  ServerStats& operator+=(const ServerStats& o);
};

class CloudServer {
 public:
  static constexpr size_t kDefaultShards = 16;

  /// `node_name` stamps this store's spans (node_id attr) and, with
  /// `instance`, labels its series; the Cluster passes its own.
  explicit CloudServer(std::shared_ptr<const pairing::Group> grp,
                       size_t shard_count = kDefaultShards,
                       std::string node_name = "server",
                       const std::string& instance = telemetry::next_instance());

  CloudServer(const CloudServer&) = delete;
  CloudServer& operator=(const CloudServer&) = delete;

  /// Immutable snapshot of the file at the time of the call, decoded
  /// now unless a stage or an earlier fetch decoded this revision (the
  /// decode stays on the entry). The snapshot stays valid (and
  /// unchanged) however many writes and epoch commits race with the
  /// reader.
  std::shared_ptr<const StoredFile> fetch(const std::string& file_id) const;

  /// The replica record as a quorum-read reply (found = false when
  /// absent). Counts one fetch when found, like fetch().
  FetchReply copy(const std::string& file_id) const;
  /// The same record for introspection (Merkle listings, and whether a
  /// file is held): no fetch.
  FetchReply peek(const std::string& file_id) const;
  /// Version of the kept revision (0 when absent).
  uint64_t version_of(const std::string& file_id) const;

  /// Replica write: keeps op's bytes, version and hash when op is newer
  /// than the kept revision, or the same version while the kept bytes'
  /// hash differs from op.hash (corruption repair); older ops are
  /// ignored, so replays are idempotent. Returns whether it applied.
  /// Throws (WireError from check_stored_file, SchemeError for an empty
  /// id or owner or another file's bytes) before the store changes. An
  /// owner id is required: a file without one could never match any
  /// UpdateKey.owner_id and would silently escape revocation.
  bool apply(ReplicationOp op);
  /// Coordinator write: keeps `wire` as the kept version + 1 under its
  /// own hash; returns that revision as the op to fan out. Checks the
  /// bytes as apply does.
  ReplicationOp apply_next(Bytes wire);

  /// Canonical bytes of the store: sorted (file_id, version, kept
  /// bytes). Introspection: counts no fetch.
  Bytes snapshot() const;

  /// All file ids, sorted (stable across shard counts).
  std::vector<std::string> file_ids() const;

  // ---- ReEncrypt (paper Section V-C Phase 2): two-phase epochs ------
  // The only way to re-encrypt; the cluster's 2PC (DESIGN.md §13)
  // drives it. The ledger holds staged epochs by the cluster's epoch id, empty ones
  // too (so their commit is no orphan), but an epoch that affects no
  // stored file counts in no epochs_* stat. An unknown id is "not held",
  // never an error.

  /// Runs the staging pass (select the owner's revisions with an
  /// affected slot, decode the undecoded ones, deep-copy + re-encrypt
  /// into private copies; span server.reencrypt_stage, whose `decoded`
  /// counts the revisions it decoded) and holds the
  /// result under `epoch_id`. Throws SchemeError on duplicate or
  /// missing UpdateInfo or a held id, and propagates re-encryption
  /// failures; either way the ledger and the store are unchanged.
  void stage_reencrypt(uint64_t epoch_id, const abe::UpdateKey& uk,
                       const std::vector<abe::UpdateInfo>& infos);
  /// Swaps the held epoch in: the slots committed, or nullopt when not
  /// held (a restart lost it: the orphan case). Each swapped file moves
  /// to the next version under its new bytes' hash; a file replaced
  /// since staging keeps the replacement and is neither swapped nor
  /// bumped.
  std::optional<size_t> commit_reencrypt(uint64_t epoch_id);
  /// Discards the held epoch; returns whether it was held.
  bool abort_reencrypt(uint64_t epoch_id);
  /// Ids the ledger holds, empty epochs included.
  std::set<uint64_t> staged_epoch_ids() const;
  /// Discards every staged epoch (a restart: staged state is memory-only).
  void abort_all_staged();

  /// Bytes at rest (Table III row "Server"): serialized stored files.
  size_t storage_bytes() const;

  /// Bytes of ABE group material at rest (the paper's |GT|+(l+1)|G|
  /// accounting, excluding the symmetric payloads), counted from each
  /// slot's ciphertext fields: no point is decoded.
  size_t ciphertext_group_material_bytes() const;

  size_t shard_count() const { return shards_.size(); }
  size_t shard_of(const std::string& file_id) const;
  ServerStats stats() const;

  const std::string& node_name() const { return node_name_; }

  /// Test-only: invoked once per slot during the staging pass, in slot
  /// order on the staging thread, just before the slot's re-encryption
  /// is written to its staged copy; throwing from the hook aborts the
  /// epoch. Not thread-safe against a running stage — install before
  /// use.
  void set_reencrypt_fault_hook(std::function<void(const std::string& ct_id)> hook) {
    fault_hook_ = std::move(hook);
  }

 private:
  struct Entry {
    /// The revision's bytes, as received or serialized once. Every write
    /// installs a new buffer, so the pointer names the revision: a
    /// commit or a decode compares it, since a same-version repair keeps
    /// the version.
    std::shared_ptr<const Bytes> wire;
    uint64_t version = 0;
    Bytes hash;  ///< SHA-256 recorded when the revision was written
    std::string owner_id;
    /// deserialize_stored_file(*wire), or null until a stage or a
    /// fetch decodes it; set under the shard's write lock.
    std::shared_ptr<const StoredFile> file;
  };
  struct Shard {
    mutable std::shared_mutex mu;
    mutable std::map<std::string, Entry> files;  // guarded by mu
  };
  /// One entry read under its shard lock, for work done outside it.
  struct Pick {
    size_t shard;
    std::string file_id;
    std::shared_ptr<const Bytes> wire;
    std::shared_ptr<const StoredFile> file;
  };
  struct StagedFile {
    size_t shard;
    std::shared_ptr<const Bytes> original;  // for commit-time identity check
    std::shared_ptr<StoredFile> staged;
    std::vector<size_t> slot_indices;
  };
  struct StagedEpoch {
    std::vector<StagedFile> files;  ///< empty when no stored file is affected
    uint64_t start_ns = 0;  ///< steady-clock, for the epoch histogram
  };

  StagedEpoch stage(const abe::UpdateKey& uk, const std::vector<abe::UpdateInfo>& infos);
  size_t commit(StagedEpoch epoch);
  /// Fills every pick's file: the undecoded ones as one
  /// deserialize_stored_files, each kept on its entry unless a write
  /// has replaced the revision since it was picked.
  void decode(std::vector<Pick>& picks) const;

  std::shared_ptr<const pairing::Group> grp_;
  const std::string node_name_;
  std::vector<Shard> shards_;
  /// maabe_server_<name>_total{instance,node}: one add per event.
  struct {
    telemetry::CounterSeries stores, fetches, reencrypted_slots, epochs_committed,
        epochs_aborted;
  } m_;
  std::function<void(const std::string&)> fault_hook_;
  mutable std::mutex ledger_mu_;
  std::map<uint64_t, StagedEpoch> ledger_;  // epoch id -> staged, by ledger_mu_
};

}  // namespace maabe::cloud
