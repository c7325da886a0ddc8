// File-based keystore for the maabe command-line tool.
//
// Single-host demo layout under a --home directory:
//
//   group.params                     curve parameters (q, r, h hex)
//   ca/users/<uid>.pk                UserPublicKey
//   aa/<aid>/state                   authority state (version key,
//                                    universe, assignments)
//   owners/<id>/master               OwnerMasterKey        (secret)
//   owners/<id>/share                OwnerSecretShare      (for AAs)
//   owners/<id>/records/<ct>         EncryptionRecord      (secret; the
//                                    owner's only per-ciphertext state:
//                                    s, row attributes, versions)
//   users/<uid>/keys/<owner>__<aid>  UserSecretKey         (secret)
//   server/<file_id>                 StoredFile
//
// Entity identifiers are restricted to [A-Za-z0-9_.-] so they can
// double as path components without escaping. Ciphertext ids are the
// exception: hybrid slot ids are "<file_id>/<component>" (see
// cloud::slot_ct_id), so they additionally allow '/' and are
// percent-encoded (encode_ct_id) before being used as a path leaf —
// "f1/data" is stored as "f1%2Fdata".
#pragma once

#include <filesystem>
#include <optional>
#include <vector>

#include "abe/types.h"
#include "common/bytes.h"
#include "pairing/group.h"

namespace maabe::tools {

/// Persistent authority state beyond the bare version key.
struct AuthorityState {
  abe::AuthorityVersionKey vk;
  std::set<std::string> universe;
  std::map<std::string, std::set<std::string>> assignments;  // uid -> names
};

class Keystore {
 public:
  explicit Keystore(std::filesystem::path home);

  const std::filesystem::path& home() const { return home_; }

  /// Throws SchemeError when the id contains characters unsafe for a
  /// path component.
  static void validate_id(const std::string& id);

  /// Ciphertext-id variant: also accepts '/' (hybrid slot ids are
  /// "<file_id>/<component>"); such ids must be percent-encoded before
  /// use in a path.
  static void validate_ct_id(const std::string& id);

  /// Bijective percent-encoding of a ct id into a safe path leaf:
  /// characters outside [A-Za-z0-9_.-] (and '%' itself) become %XX.
  static std::string encode_ct_id(const std::string& id);
  /// Inverse of encode_ct_id; throws SchemeError on malformed %-escapes.
  static std::string decode_ct_id(const std::string& name);

  // ---- group -----------------------------------------------------------
  void init_group(const pairing::TypeAParams& params);
  /// Loads (and caches) the group; throws if init was never run.
  std::shared_ptr<const pairing::Group> group();
  bool initialized() const;

  // ---- CA / users ------------------------------------------------------
  void save_user_pk(const abe::UserPublicKey& pk);
  abe::UserPublicKey load_user_pk(const std::string& uid);
  bool has_user(const std::string& uid) const;
  std::vector<std::string> list_users() const;

  // ---- authorities -----------------------------------------------------
  void save_authority(const AuthorityState& state);
  AuthorityState load_authority(const std::string& aid);
  bool has_authority(const std::string& aid) const;
  std::vector<std::string> list_authorities() const;

  // ---- owners ----------------------------------------------------------
  void save_owner(const abe::OwnerMasterKey& mk, const abe::OwnerSecretShare& share);
  abe::OwnerMasterKey load_owner_master(const std::string& owner_id);
  abe::OwnerSecretShare load_owner_share(const std::string& owner_id);
  bool has_owner(const std::string& owner_id) const;
  std::vector<std::string> list_owners() const;

  void save_record(const std::string& owner_id, const abe::EncryptionRecord& rec);
  abe::EncryptionRecord load_record(const std::string& owner_id, const std::string& ct_id);
  /// The ct ids the owner keeps records of (decoded path leaves).
  std::vector<std::string> list_records(const std::string& owner_id) const;

  // ---- user secret keys --------------------------------------------------
  void save_user_key(const abe::UserSecretKey& sk);
  std::optional<abe::UserSecretKey> load_user_key(const std::string& uid,
                                                  const std::string& owner_id,
                                                  const std::string& aid);
  /// All keys the user holds for one owner, keyed by AID.
  std::map<std::string, abe::UserSecretKey> load_user_keys_for_owner(
      const std::string& uid, const std::string& owner_id);
  void delete_user_key(const std::string& uid, const std::string& owner_id,
                       const std::string& aid);

  // ---- server ------------------------------------------------------------
  // The `node` overloads address one replica shard of a multi-node CLI
  // deployment (`maabe-cli --nodes N`): files live under
  // server/<node>/<file_id>. An empty node id selects the legacy
  // single-server layout server/<file_id>, which is what the two-arg
  // forms use.
  void save_server_file(const std::string& file_id, ByteView bytes);
  Bytes load_server_file(const std::string& file_id);
  bool has_server_file(const std::string& file_id) const;
  std::vector<std::string> list_server_files() const;
  void save_server_file(const std::string& node, const std::string& file_id,
                        ByteView bytes);
  Bytes load_server_file(const std::string& node, const std::string& file_id);
  bool has_server_file(const std::string& node, const std::string& file_id) const;
  std::vector<std::string> list_server_files(const std::string& node) const;

 private:
  Bytes read(const std::filesystem::path& rel) const;
  void write(const std::filesystem::path& rel, ByteView data);
  std::vector<std::string> list_dir(const std::filesystem::path& rel) const;

  std::filesystem::path home_;
  std::shared_ptr<const pairing::Group> group_;
};

}  // namespace maabe::tools
