// The honest-but-curious cloud server.
//
// Stores owners' protected files, serves them to consumers, and runs the
// ReEncrypt half of attribute revocation via proxy re-encryption — it
// never holds content keys and never decrypts anything (paper Section
// III-B trust model).
//
// Concurrency model (DESIGN.md §9): the store is split into N shards by
// hash of file_id, each guarded by its own std::shared_mutex. fetch()
// returns an immutable snapshot (shared_ptr<const StoredFile>) taken
// under the shard's read lock, so readers are never invalidated by a
// concurrent store() or reencrypt(). Writers lock only their shard, so
// re-encryption of one owner's files never blocks reads of unrelated
// shards. Each entry is a replica record — parsed file, kept bytes,
// version and recorded hash of one revision — read and written under
// one shard lock, so no reader pairs a version with another revision's
// bytes. Versioned writes keep the bytes they received; only store()
// and an epoch commit serialize.
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
// wipe. reencrypt() is the two steps back to back. A test-only fault
// hook lets tests prove this.
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
  uint64_t stores = 0;             ///< revisions written (store() + applied writes)
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

  /// Stores (or replaces) a file out of band. Both file_id and
  /// owner_id must be non-empty — a file without an owner could never
  /// match any UpdateKey.owner_id and would silently escape revocation.
  /// A replaced file keeps its recorded version and hash; a new one
  /// gets version 0 and the hash of its own bytes.
  void store(StoredFile file);

  bool has_file(const std::string& file_id) const;

  /// Immutable snapshot of the file at the time of the call. The
  /// snapshot stays valid (and unchanged) however many store() /
  /// reencrypt() calls race with the reader.
  std::shared_ptr<const StoredFile> fetch(const std::string& file_id) const;

  /// The replica record as a quorum-read reply (found = false when
  /// absent). Counts one fetch when found, like fetch().
  FetchReply copy(const std::string& file_id) const;
  /// The same record for introspection (Merkle listings): no fetch.
  FetchReply peek(const std::string& file_id) const;
  /// Version of the kept revision (0 when absent).
  uint64_t version_of(const std::string& file_id) const;

  /// Replica write: keeps op's bytes, version and hash when op is newer
  /// than the kept revision, or the same version while the kept bytes'
  /// hash differs from op.hash (corruption repair); older ops are
  /// ignored, so replays are idempotent. Returns whether it applied.
  bool apply(ReplicationOp op);
  /// Coordinator write: keeps `wire` as the kept version + 1 under its
  /// own hash; returns that revision as the op to fan out.
  ReplicationOp apply_next(Bytes wire);

  /// Canonical bytes of the store: sorted (file_id, version, kept
  /// bytes). Introspection: counts no fetch.
  Bytes snapshot() const;

  /// All file ids, sorted (stable across shard counts).
  std::vector<std::string> file_ids() const;

  /// ReEncrypt (paper Section V-C Phase 2): applies the update key and
  /// the per-ciphertext update information to every affected slot, as
  /// one all-or-nothing epoch, staged and committed outside the ledger.
  /// Throws SchemeError on duplicate or missing UpdateInfo; on any
  /// failure the store is unchanged. Returns the number of ciphertext
  /// slots re-encrypted and committed.
  size_t reencrypt(const abe::UpdateKey& uk, const std::vector<abe::UpdateInfo>& infos);

  // ---- Two-phase epoch hooks (cluster 2PC, DESIGN.md §13) -------------
  // The ledger holds staged epochs by the cluster's epoch id, empty ones
  // too (so their commit is no orphan), but an epoch that affects no
  // stored file counts in no epochs_* stat. An unknown id is "not held",
  // never an error.

  /// Runs the staging pass (select + deep-copy + re-encrypt into private
  /// copies) and holds the result under `epoch_id`. Throws SchemeError
  /// on protocol violations or a held id, and propagates re-encryption
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
  /// accounting, excluding the symmetric payloads).
  size_t ciphertext_group_material_bytes() const;

  size_t shard_count() const { return shards_.size(); }
  size_t shard_of(const std::string& file_id) const;
  ServerStats stats() const;

  const std::string& node_name() const { return node_name_; }

  /// Test-only: invoked once per slot during the staging pass, in slot
  /// order on the staging thread, just before the slot's re-encryption
  /// is written to its staged copy; throwing from the hook aborts the
  /// epoch. Not thread-safe against a running
  /// reencrypt() — install before use.
  void set_reencrypt_fault_hook(std::function<void(const std::string& ct_id)> hook) {
    fault_hook_ = std::move(hook);
  }

 private:
  struct Entry {
    std::shared_ptr<const StoredFile> file;
    Bytes wire;  ///< serialize(*file), as received or serialized once
    uint64_t version = 0;
    Bytes hash;  ///< SHA-256 recorded when the revision was written
  };
  struct Shard {
    mutable std::shared_mutex mu;
    std::map<std::string, Entry> files;     // guarded by mu
  };
  struct StagedFile {
    size_t shard;
    std::shared_ptr<const StoredFile> original;  // for commit-time identity check
    std::shared_ptr<StoredFile> staged;
    std::vector<size_t> slot_indices;
  };
  struct StagedEpoch {
    std::vector<StagedFile> files;  ///< empty when no stored file is affected
    uint64_t start_ns = 0;  ///< steady-clock, for the epoch histogram
  };

  StagedEpoch stage(const abe::UpdateKey& uk, const std::vector<abe::UpdateInfo>& infos);
  size_t commit(StagedEpoch epoch);

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
