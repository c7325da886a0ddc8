// The stateful entities of the access-control framework (paper Fig. 1):
// certificate authority, attribute authorities, data owners and data
// consumers. The cloud server lives in server.h; the wiring (who sends
// what to whom, with byte metering) lives in system.h.
#pragma once

#include <list>
#include <mutex>
#include <optional>

#include "abe/scheme.h"
#include "cloud/hybrid.h"
#include "telemetry/metrics.h"

namespace maabe::cloud {

/// Fully trusted CA: assigns global UIDs and AIDs, issues PK_UID.
class CertificateAuthority {
 public:
  CertificateAuthority(std::shared_ptr<const pairing::Group> grp, crypto::Drbg rng);

  /// Authenticates and registers a user; throws SchemeError on duplicate.
  const abe::UserPublicKey& register_user(const std::string& uid);
  /// Registers an attribute authority; throws SchemeError on duplicate.
  void register_authority(const std::string& aid);

  const abe::UserPublicKey& user_public_key(const std::string& uid) const;
  bool has_user(const std::string& uid) const { return users_.contains(uid); }
  bool has_authority(const std::string& aid) const { return authorities_.contains(aid); }

 private:
  std::shared_ptr<const pairing::Group> grp_;
  crypto::Drbg rng_;
  std::map<std::string, abe::UserPublicKey> users_;
  std::map<std::string, pairing::Zr> user_secrets_;  // CA archive of u
  std::set<std::string> authorities_;
};

/// An attribute authority: manages its attribute universe, assigns
/// attributes to users, issues per-owner secret keys and runs the ReKey
/// side of revocation.
class AttributeAuthority {
 public:
  AttributeAuthority(std::shared_ptr<const pairing::Group> grp, std::string aid,
                     crypto::Drbg rng);

  const std::string& aid() const { return aid_; }
  uint32_t version() const { return vk_.version; }

  /// Adds an attribute to this authority's universe.
  void define_attribute(const std::string& name);
  bool manages(const std::string& name) const { return universe_.contains(name); }

  /// Owner onboarding: the AA stores SK_o so it can issue keys for this
  /// owner's data.
  void accept_owner_share(const abe::OwnerSecretShare& share);

  /// Current PK_{o,AID} = e(g,g)^alpha.
  abe::AuthorityPublicKey public_key() const;
  /// Current PK_{x,AID} for every attribute in the universe, keyed by
  /// qualified handle.
  std::map<std::string, abe::PublicAttributeKey> attribute_public_keys() const;

  /// Assigns attributes to a user (role assignment in the AA's domain).
  void assign(const std::string& uid, const std::set<std::string>& names);
  const std::set<std::string>& assignment(const std::string& uid) const;

  /// Issues SK_{UID,AID} for the user's current assignment under the
  /// given owner's SK_o.
  abe::UserSecretKey issue_key(const abe::UserPublicKey& user,
                               const std::string& owner_id);

  /// Everything the ReKey phase produces (paper Section V-C Phase 1).
  struct RevocationBundle {
    uint32_t new_version = 0;
    /// Fresh keys for the revoked user, one per onboarded owner.
    std::map<std::string, abe::UserSecretKey> regenerated_keys;
    /// Update keys, one per onboarded owner (UK1 is owner-specific).
    std::map<std::string, abe::UpdateKey> update_keys;
  };

  /// Revokes attribute `name` from `uid`: removes the assignment, bumps
  /// the version key and produces the regenerated/update keys.
  RevocationBundle revoke(const abe::UserPublicKey& user, const std::string& name);

  /// User-level revocation: strips EVERY attribute this authority has
  /// assigned to the user, with a single version bump (the paper cites
  /// schemes limited to user-level revocation; here it composes from the
  /// same ReKey machinery). Throws if the user holds nothing.
  RevocationBundle revoke_all(const abe::UserPublicKey& user);

 private:
  RevocationBundle rekey_for(const abe::UserPublicKey& user,
                             const std::set<std::string>& remaining);

  std::shared_ptr<const pairing::Group> grp_;
  std::string aid_;
  crypto::Drbg rng_;
  abe::AuthorityVersionKey vk_;
  std::set<std::string> universe_;
  std::map<std::string, std::set<std::string>> assignments_;  // uid -> names
  std::map<std::string, abe::OwnerSecretShare> owners_;       // owner_id -> SK_o
};

/// A data owner: holds MK_o, tracks current public keys, hybrid-encrypts
/// files (Fig. 2) and produces UpdateInfo during revocation.
class DataOwner {
 public:
  DataOwner(std::shared_ptr<const pairing::Group> grp, std::string owner_id,
            crypto::Drbg rng);

  const std::string& owner_id() const { return owner_id_; }
  const abe::OwnerSecretShare& share() const { return share_; }

  /// Key distribution: the owner caches the AA-published keys it will
  /// encrypt under.
  void learn_authority_key(const abe::AuthorityPublicKey& pk);
  void learn_attribute_key(const abe::PublicAttributeKey& pk);

  /// Splits `components` per Fig. 2: symmetric-encrypts each component
  /// under a fresh content key, CP-ABE-protects the keys. Keeps one
  /// EncryptionRecord per key ciphertext for later re-keying, and no
  /// copy of the ciphertext: the slots go to the cloud.
  StoredFile protect(const std::string& file_id,
                     const std::vector<DataComponent>& components);

  /// Revocation phase-1 step 3: fold UK into the cached public keys.
  /// Returns false if the update does not concern this owner.
  bool apply_update(const abe::UpdateKey& uk);

  /// Revocation phase 2 prep: UpdateInfo for every record of this owner
  /// at uk.from_version of uk.aid, in ct-id order, advancing each such
  /// record to uk.to_version. One engine batch on the base UK1
  /// (abe::owner_update_infos); the cached keys play no part.
  std::vector<abe::UpdateInfo> update_infos(const abe::UpdateKey& uk);

  /// Ciphertexts the owner keeps a record of, superseded revisions
  /// included.
  size_t tracked_ciphertexts() const { return records_.size(); }
  /// The record of ciphertext `ct_id`; throws SchemeError if unknown.
  const abe::EncryptionRecord& record(const std::string& ct_id) const;

 private:
  std::shared_ptr<const pairing::Group> grp_;
  std::string owner_id_;
  crypto::Drbg rng_;
  abe::OwnerMasterKey mk_;
  abe::OwnerSecretShare share_;
  std::map<std::string, abe::AuthorityPublicKey> authority_pks_;
  std::map<std::string, abe::PublicAttributeKey> attribute_pks_;
  /// ct_id -> {s, row attributes, versions}: the owner's only
  /// per-ciphertext state (Table III counts MK_o and the cached keys).
  std::map<std::string, abe::EncryptionRecord> records_;
};

/// A data consumer: accumulates per-(owner, authority) secret keys,
/// applies update keys, opens stored files.
///
/// Decrypt-result cache: open_slot memoizes successful plaintexts in a
/// bounded LRU keyed by a hash of the slot's wire bytes (file id,
/// component name, the serialized ABE key-ct — which embeds every
/// per-authority version — and the sealed payload). The encoding is
/// canonical, so the bytes a slot arrives in are the bytes its decoded
/// value serializes to, and a reader can look a slot up before decoding
/// it (CloudSystem::download_report decodes only the misses). A
/// revocation epoch rewrites the ciphertext, so the re-encrypted slot
/// misses by construction; and any change to this consumer's own keys
/// (update key applied, key replaced/regenerated) invalidates the whole
/// cache, so a stale plaintext can never be served across a key-version
/// bump. Failed decrypts are never cached.
class Consumer {
 public:
  /// `instance` labels the consumer's cache series; CloudSystem passes
  /// its own.
  Consumer(std::shared_ptr<const pairing::Group> grp, abe::UserPublicKey pk,
           const std::string& instance = telemetry::next_instance());
  Consumer(Consumer&&) noexcept;
  Consumer& operator=(Consumer&&) noexcept;
  ~Consumer();  // out of line: DecryptCache is incomplete here

  const std::string& uid() const { return pk_.uid; }
  const abe::UserPublicKey& public_key() const { return pk_; }

  /// Installs the key for its (owner, authority) slot, replacing any
  /// held one, and drops the decrypt cache. Key updates install through
  /// it (apply_key_updates).
  void add_key(const abe::UserSecretKey& sk);
  /// Replaces the key outright (revoked user receiving its regenerated,
  /// reduced key).
  void replace_key(const abe::UserSecretKey& sk) { add_key(sk); }

  bool has_key(const std::string& owner_id, const std::string& aid) const;
  const abe::UserSecretKey& key(const std::string& owner_id, const std::string& aid) const;

  /// Decrypts every slot this consumer is authorized for. Components it
  /// cannot open are simply absent from the result (the paper's
  /// different-granularity property).
  std::map<std::string, Bytes> open_file(const StoredFile& file) const;

  /// The decryption plan for one slot (reconstruction coefficients and
  /// this consumer's keys for the slot's owner); nullopt when the keys
  /// cannot open it.
  std::optional<abe::DecryptionPlan> decryption_plan(const SealedSlot& slot) const;

  /// The decrypt-cache key of one slot, hashed over its wire bytes;
  /// empty when caching is disabled.
  Bytes decrypt_cache_key(std::string_view file_id, const SlotView& slot) const;
  /// True when `cache_key` holds a plaintext. Counts nothing and leaves
  /// the LRU order alone.
  bool decrypt_cached(const Bytes& cache_key) const;
  /// The plaintext cached under `cache_key`: counts a hit and makes it
  /// the most recent entry. Never counts a miss.
  std::optional<Bytes> cached_plaintext(const Bytes& cache_key) const;

  /// Opens one slot of file `file_id` with the plan decryption_plan(slot)
  /// returned: cached_plaintext(cache_key), then on a miss (counted) the
  /// decrypt, whose plaintext is cached under `cache_key`. Throws
  /// CryptoError when the sealed payload fails authentication.
  Bytes open_slot(const std::string& file_id, const SealedSlot& slot,
                  const abe::DecryptionPlan& plan, const Bytes& cache_key) const;

  /// True when the consumer's keys can open the given slot.
  bool can_open(const SealedSlot& slot) const { return decryption_plan(slot).has_value(); }

  /// Total serialized size of held secret keys (Table III row "User").
  size_t key_storage_bytes() const;

  /// Bounds the decrypt-result cache in entries; 0 disables it. The
  /// default (64) keeps a hot working set of slots decrypt-free.
  void set_decrypt_cache_capacity(size_t entries);
  size_t decrypt_cache_capacity() const;
  size_t decrypt_cache_size() const;
  /// Hit/miss counts: reads of this consumer's
  /// maabe_decrypt_cache_{hits,misses}_total{instance,user} series,
  /// which roll up into the process-wide family totals.
  uint64_t decrypt_cache_hits() const;
  uint64_t decrypt_cache_misses() const;

 private:
  /// Decrypt-result LRU state (entities.cpp); behind a unique_ptr so
  /// Consumer stays movable despite the cache's internal mutex.
  struct DecryptCache;

  std::map<std::string, abe::UserSecretKey> keys_for_owner(const std::string& owner_id) const;
  void invalidate_decrypt_cache();

  std::shared_ptr<const pairing::Group> grp_;
  abe::UserPublicKey pk_;
  /// Keyed by owner_id + '\0' + aid.
  std::map<std::string, abe::UserSecretKey> keys_;
  std::unique_ptr<DecryptCache> cache_;
};

/// An update key delivered to a user.
struct KeyUpdateDelivery {
  Consumer* user;
  abe::UpdateKey uk;
};

/// Applies every delivery to its user's key of (uk.owner_id, uk.aid) as
/// one abe::apply_updates_to_secret_keys batch: deliveries to one key in
/// order, each distinct UK1 checked once. A delivery for a key its user
/// does not hold is skipped. Installs each updated key with add_key, so
/// each such user's decrypt cache is dropped. Throws as the batch throws,
/// with no key changed. Traced as `entities.key_updates` (attributes
/// `keys`, the jobs, and `update_keys`, the distinct UK1s).
void apply_key_updates(const pairing::Group& grp,
                       std::span<const KeyUpdateDelivery> deliveries);

}  // namespace maabe::cloud
