// Hybrid data format (paper Fig. 2).
//
// The owner splits data into logical components m_1..m_n, encrypts each
// with a fresh symmetric content key k_i, and CP-ABE-protects only the
// content keys:
//
//   [ CT_1 | E_{k_1}(m_1) ]  [ CT_2 | E_{k_2}(m_2) ]  ...
//
// The content key is transported KEM-style: the ABE "message" is a
// random GT element whose serialization feeds a KDF that yields the
// 32-byte AES/HMAC key. Users whose attributes satisfy a component's
// policy recover that component only — different users obtain different
// granularities of the same file.
//
// A stored file's wire form can be walked without decoding a point
// (view_stored_file): a reader keys its decrypt cache on each slot's
// bytes and decodes only the slots it must decrypt (decode_slot), and a
// store checks every point without decoding it (check_stored_file).
#pragma once

#include "abe/types.h"
#include "crypto/authenc.h"

namespace maabe::cloud {

/// Owner-side input: one logical component and its access policy.
struct DataComponent {
  std::string name;    ///< e.g. "diagnosis", "billing"
  Bytes data;
  std::string policy;  ///< policy-language string (lsss/parser.h)
};

/// One protected component as stored in the cloud.
struct SealedSlot {
  std::string component_name;
  abe::Ciphertext key_ct;  ///< CP-ABE ciphertext of the content-key seed
  Bytes sealed_data;       ///< authenc box: iv || E_k(data) || tag
};

struct StoredFile {
  std::string file_id;
  std::string owner_id;
  std::vector<SealedSlot> slots;
};

/// Derives the 32-byte content key from the ABE-transported GT element.
Bytes content_key_from_gt(const pairing::GT& seed);

/// Stable ciphertext id for a component: "<file_id>/<component_name>".
std::string slot_ct_id(const std::string& file_id, const std::string& component_name);

/// Splits a slot ciphertext id back into {file_id, component_name} at
/// the first '/' (file ids themselves never contain one). An id with no
/// separator maps to {id, ""} — pre-hybrid single-component ids.
std::pair<std::string, std::string> split_slot_ct_id(const std::string& ct_id);

/// Additional authenticated data binding a sealed box to its slot.
Bytes slot_aad(const std::string& file_id, const std::string& component_name);

/// One slot of a serialized StoredFile, walked but not decoded. The
/// views point into the wire it was read from and are valid only while
/// that buffer lives.
struct SlotView {
  std::string component_name;
  ByteView key_ct;       ///< serialized abe::Ciphertext
  ByteView sealed_data;  ///< authenc box
};

struct StoredFileView {
  std::string file_id;
  std::string owner_id;
  std::vector<SlotView> slots;
};

Bytes serialize(const pairing::Group& grp, const StoredFile& v);
/// Walks a serialized StoredFile without decoding a point: checks its
/// tag, every length and count, that nothing trails, and that each
/// slot's ciphertext names the file's owner. Throws WireError.
StoredFileView view_stored_file(ByteView data);
/// view_stored_file, then abe::check_ciphertexts on every slot: throws
/// exactly the WireError deserialize_stored_file would throw, and
/// decodes no point. Returns the view. What a store runs on a write.
StoredFileView check_stored_file(const pairing::Group& grp, ByteView data);
/// Decodes one walked slot (abe::deserialize_ciphertext on its key_ct).
SealedSlot decode_slot(const pairing::Group& grp, const SlotView& slot);
/// view_stored_file on every wire, then every slot's ciphertext with
/// all their points in one abe::deserialize_ciphertexts.
std::vector<StoredFile> deserialize_stored_files(const pairing::Group& grp,
                                                 std::span<const ByteView> wires);
/// deserialize_stored_files of one. The encoding is canonical:
/// serialize(grp, deserialize_stored_file(grp, w)) == w for every
/// accepted w, so a slot's wire bytes identify its decoded value.
StoredFile deserialize_stored_file(const pairing::Group& grp, ByteView data);
/// The file id of a serialized StoredFile, read without decoding its slots.
std::string stored_file_id(ByteView data);

}  // namespace maabe::cloud
