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
// and commit_reencrypt() serialize.
//
// Revocation is a failure-atomic epoch in two steps: stage_reencrypt()
// builds re-encrypted copies of every affected ciphertext off to the
// side (fanned out over CryptoEngine::parallel_for) and commit_reencrypt()
// swaps them in under the shard write locks, only after every slot has
// succeeded. If any slot throws, the staged copies are discarded and the
// stored bytes are exactly what they were before the call — the
// scheme's strict per-authority version checks (abe::reencrypt) can
// therefore never observe a half-updated store. reencrypt() is the two
// steps back to back. A test-only fault hook lets tests prove this.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
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
  /// bytes). Counts one fetch per file, like copy().
  Bytes snapshot() const;

  /// All file ids, sorted (stable across shard counts).
  std::vector<std::string> file_ids() const;

  /// ReEncrypt (paper Section V-C Phase 2): applies the update key and
  /// the per-ciphertext update information to every affected slot, as
  /// one all-or-nothing epoch — commit_reencrypt(stage_reencrypt(...)).
  /// Throws SchemeError on duplicate or missing UpdateInfo; on any
  /// failure the store is unchanged. Returns the number of ciphertext
  /// slots re-encrypted and committed.
  size_t reencrypt(const abe::UpdateKey& uk, const std::vector<abe::UpdateInfo>& infos);

  // ---- Two-phase epoch hooks (cluster 2PC, DESIGN.md §13) -------------
  // stage_reencrypt runs the whole staging pass (select + deep-copy +
  // re-encrypt into private copies) but does NOT touch the store; the
  // staged epoch is held under an opaque token until the coordinator
  // decides its fate. commit_reencrypt swaps the staged copies in;
  // abort_reencrypt discards them, leaving the store byte-identical to
  // before the stage. The cluster's 2PC drives these three directly.

  /// Stages an epoch. Returns a nonzero token, or 0 when no stored file
  /// is affected (nothing to commit or abort). Throws SchemeError on
  /// protocol violations and propagates re-encryption failures; either
  /// way nothing is retained and the store is unchanged.
  uint64_t stage_reencrypt(const abe::UpdateKey& uk,
                           const std::vector<abe::UpdateInfo>& infos);

  /// Commits a staged epoch; returns the slots committed. Each swapped
  /// file moves to the next version under the hash of its new bytes; a
  /// file replaced by a concurrent write since staging keeps the
  /// replacement and is neither swapped nor bumped. Token 0 is a no-op.
  /// Throws SchemeError on an unknown token — a node that lost its
  /// staged state (restart) must surface that to the coordinator rather
  /// than silently ack an empty commit.
  size_t commit_reencrypt(uint64_t token);

  /// Discards a staged epoch. Unknown (or 0) tokens are a no-op: aborts
  /// are broadcast best-effort and may race a restart.
  void abort_reencrypt(uint64_t token);

  /// Discards every staged epoch (process restart: staged state is
  /// memory-only and does not survive). Returns the number discarded.
  size_t abort_all_staged();

  /// Bytes at rest (Table III row "Server"): serialized stored files.
  size_t storage_bytes() const;

  /// Bytes of ABE group material at rest (the paper's |GT|+(l+1)|G|
  /// accounting, excluding the symmetric payloads).
  size_t ciphertext_group_material_bytes() const;

  size_t shard_count() const { return shards_.size(); }
  size_t shard_of(const std::string& file_id) const;
  ServerStats stats() const;

  const std::string& node_name() const { return node_name_; }

  /// Test-only: invoked (from pool workers) once per slot during the
  /// staging pass, before the slot is re-encrypted; throwing from the
  /// hook aborts the epoch. Not thread-safe against a running
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
    std::vector<StagedFile> files;
    uint64_t start_ns = 0;  ///< steady-clock, for the epoch histogram
  };

  std::shared_ptr<const pairing::Group> grp_;
  const std::string node_name_;
  std::vector<Shard> shards_;
  /// maabe_server_<name>_total{instance,node}: one add per event.
  struct {
    telemetry::CounterSeries stores, fetches, reencrypted_slots, epochs_committed,
        epochs_aborted;
  } m_;
  std::function<void(const std::string&)> fault_hook_;
  mutable std::mutex staged_mu_;
  uint64_t next_token_ = 0;                       // guarded by staged_mu_
  std::map<uint64_t, StagedEpoch> staged_epochs_;  // guarded by staged_mu_
};

}  // namespace maabe::cloud
