// Wire serialization for every ABE artifact.
//
// The byte counts these encoders produce are what the storage and
// communication benchmarks (paper Tables II-IV) measure. Group-element
// fields are fixed-width; strings and maps carry length prefixes. Every
// decoder validates lengths, tags and group membership (points are
// re-derived from compressed coordinates) and throws WireError on
// malformed input.
#pragma once

#include "abe/types.h"
#include "common/wire.h"

namespace maabe::abe {

Bytes serialize(const pairing::Group& grp, const UserPublicKey& v);
UserPublicKey deserialize_user_public_key(const pairing::Group& grp, ByteView data);

// Secret-material encodings (for local keystores; never transmit these).
Bytes serialize(const pairing::Group& grp, const OwnerMasterKey& v);
OwnerMasterKey deserialize_owner_master_key(const pairing::Group& grp, ByteView data);

Bytes serialize(const pairing::Group& grp, const AuthorityVersionKey& v);
AuthorityVersionKey deserialize_authority_version_key(const pairing::Group& grp,
                                                      ByteView data);

Bytes serialize(const pairing::Group& grp, const EncryptionRecord& v);
EncryptionRecord deserialize_encryption_record(const pairing::Group& grp, ByteView data);

Bytes serialize(const pairing::Group& grp, const OwnerSecretShare& v);
OwnerSecretShare deserialize_owner_secret_share(const pairing::Group& grp, ByteView data);

Bytes serialize(const pairing::Group& grp, const AuthorityPublicKey& v);
AuthorityPublicKey deserialize_authority_public_key(const pairing::Group& grp, ByteView data);

Bytes serialize(const pairing::Group& grp, const PublicAttributeKey& v);
PublicAttributeKey deserialize_public_attribute_key(const pairing::Group& grp, ByteView data);

/// What an authority publishes to a data owner: its public key and its
/// attribute keys, each in its own encoding behind a length prefix. The
/// decoder reads every key's fields first, then decodes and
/// subgroup-checks all the attribute keys' points as one batch.
struct AuthorityKeyBundle {
  AuthorityPublicKey pk;
  std::vector<PublicAttributeKey> attribute_keys;
};

Bytes serialize(const pairing::Group& grp, const AuthorityKeyBundle& v);
AuthorityKeyBundle deserialize_authority_key_bundle(const pairing::Group& grp, ByteView data);

Bytes serialize(const pairing::Group& grp, const UserSecretKey& v);
UserSecretKey deserialize_user_secret_key(const pairing::Group& grp, ByteView data);

Bytes serialize(const pairing::Group& grp, const Ciphertext& v);
/// Every ciphertext's fields, then all their points as one
/// Group::g1_from_bytes_batch. A batch of one is deserialize_ciphertext.
std::vector<Ciphertext> deserialize_ciphertexts(const pairing::Group& grp,
                                                std::span<const ByteView> data);
Ciphertext deserialize_ciphertext(const pairing::Group& grp, ByteView data);
/// Throws exactly the WireError deserialize_ciphertexts would throw on
/// the same input, and decodes no point: the same walk, then every
/// point through Group::g1_check_encodings (a Legendre symbol each, no
/// square root).
void check_ciphertexts(const pairing::Group& grp, std::span<const ByteView> data);
/// Every field of a serialized Ciphertext but its points (c_prime and
/// ci stay empty), from the walk deserialize_ciphertexts runs: its
/// structural WireErrors, and no point decoded or checked. A store reads
/// a slot's id and versions with it.
Ciphertext ciphertext_fields(const pairing::Group& grp, ByteView data);
/// The owner id of a serialized Ciphertext, read after its tag and id
/// without decoding the rest. Throws WireError on a wrong tag or a
/// truncated prefix.
std::string ciphertext_owner_id(ByteView data);

/// Receiver-dependent validation depth for update keys: the order-r
/// subgroup at decode (kKeyMaterial), or on the curve only
/// (kCiphertextPath). The server only injects uk1 into ciphertext
/// components, where — like per-row ciphertext points — an off-subgroup
/// value degrades to a typed decryption failure, so the on-curve check
/// suffices. Users and owners decode on-curve only too: their updates
/// (apply_updates_to_secret_keys, apply_update_to_attribute_pks) check
/// uk1 in the pass that raises their keys, and throw kOutsideSubgroup's
/// WireError before any key changes.
enum class UkCheck { kKeyMaterial, kCiphertextPath };

/// The WireError message of every failed subgroup check on key material.
inline constexpr const char kOutsideSubgroup[] = "deserialize: point outside the order-r subgroup";

Bytes serialize(const pairing::Group& grp, const UpdateKey& v);
UpdateKey deserialize_update_key(const pairing::Group& grp, ByteView data,
                                 UkCheck check = UkCheck::kKeyMaterial);

Bytes serialize(const pairing::Group& grp, const UpdateInfo& v);
UpdateInfo deserialize_update_info(const pairing::Group& grp, ByteView data);

/// Bytes of group material only (excluding policy text, ids and framing):
/// |GT| + (l+1)|G| — the quantity the paper's Table II tracks for the
/// ciphertext. l is the policy's row count, so ciphertext_fields'
/// output (no point decoded) counts the same as the decoded ciphertext.
size_t ciphertext_group_material_bytes(const pairing::Group& grp, const Ciphertext& v);

}  // namespace maabe::abe
