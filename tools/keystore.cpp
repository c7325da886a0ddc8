#include "keystore.h"

#include <algorithm>
#include <fstream>

#include "abe/serial.h"
#include "common/errors.h"

namespace maabe::tools {

namespace fs = std::filesystem;

Keystore::Keystore(fs::path home) : home_(std::move(home)) {}

void Keystore::validate_id(const std::string& id) {
  if (id.empty() || id.size() > 128)
    throw SchemeError("keystore: identifier must be 1..128 characters");
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok)
      throw SchemeError("keystore: identifier '" + id +
                        "' contains characters outside [A-Za-z0-9_.-]");
  }
  if (id == "." || id == "..") throw SchemeError("keystore: reserved identifier");
}

namespace {

bool plain_id_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '.' || c == '-';
}

}  // namespace

void Keystore::validate_ct_id(const std::string& id) {
  if (id.empty() || id.size() > 192)
    throw SchemeError("keystore: ciphertext id must be 1..192 characters");
  for (char c : id) {
    if (!plain_id_char(c) && c != '/')
      throw SchemeError("keystore: ciphertext id '" + id +
                        "' contains characters outside [A-Za-z0-9_.-/]");
  }
  if (id == "." || id == "..") throw SchemeError("keystore: reserved identifier");
}

std::string Keystore::encode_ct_id(const std::string& id) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(id.size());
  for (char c : id) {
    if (plain_id_char(c)) {
      out.push_back(c);
    } else {
      const auto b = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(hex[b >> 4]);
      out.push_back(hex[b & 0xF]);
    }
  }
  return out;
}

std::string Keystore::decode_ct_id(const std::string& name) {
  const auto nibble = [&](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw SchemeError("keystore: malformed %-escape in '" + name + "'");
  };
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    if (name[i] != '%') {
      out.push_back(name[i]);
      continue;
    }
    if (i + 2 >= name.size())
      throw SchemeError("keystore: truncated %-escape in '" + name + "'");
    out.push_back(static_cast<char>((nibble(name[i + 1]) << 4) | nibble(name[i + 2])));
    i += 2;
  }
  return out;
}

Bytes Keystore::read(const fs::path& rel) const {
  const fs::path path = home_ / rel;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SchemeError("keystore: cannot read " + path.string());
  Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return data;
}

void Keystore::write(const fs::path& rel, ByteView data) {
  const fs::path path = home_ / rel;
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SchemeError("keystore: cannot write " + path.string());
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw SchemeError("keystore: short write to " + path.string());
}

std::vector<std::string> Keystore::list_dir(const fs::path& rel) const {
  std::vector<std::string> out;
  const fs::path dir = home_ / rel;
  if (!fs::exists(dir)) return out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    out.push_back(entry.path().filename().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- group ---------------------------------------------------------------

void Keystore::init_group(const pairing::TypeAParams& params) {
  Writer w;
  w.str("maabe-type-a-params-v1");
  w.str(params.q.to_hex());
  w.str(params.r.to_hex());
  w.str(params.h.to_hex());
  write("group.params", w.bytes());
}

bool Keystore::initialized() const { return fs::exists(home_ / "group.params"); }

std::shared_ptr<const pairing::Group> Keystore::group() {
  if (group_) return group_;
  if (!initialized())
    throw SchemeError("keystore: not initialized (run 'maabe-cli init' first)");
  const Bytes data = read("group.params");
  Reader r(data);
  if (r.str() != "maabe-type-a-params-v1")
    throw WireError("keystore: unrecognized group.params header");
  pairing::TypeAParams params;
  params.q = math::Bignum::from_hex(r.str());
  params.r = math::Bignum::from_hex(r.str());
  params.h = math::Bignum::from_hex(r.str());
  r.expect_done();
  group_ = pairing::Group::create(params);
  return group_;
}

// ---- CA / users ------------------------------------------------------------

void Keystore::save_user_pk(const abe::UserPublicKey& pk) {
  validate_id(pk.uid);
  write(fs::path("ca/users") / (pk.uid + ".pk"), abe::serialize(*group(), pk));
}

abe::UserPublicKey Keystore::load_user_pk(const std::string& uid) {
  validate_id(uid);
  return abe::deserialize_user_public_key(*group(),
                                          read(fs::path("ca/users") / (uid + ".pk")));
}

bool Keystore::has_user(const std::string& uid) const {
  return fs::exists(home_ / "ca/users" / (uid + ".pk"));
}

std::vector<std::string> Keystore::list_users() const {
  std::vector<std::string> out;
  for (std::string name : list_dir("ca/users")) {
    if (name.size() > 3 && name.ends_with(".pk")) out.push_back(name.substr(0, name.size() - 3));
  }
  return out;
}

// ---- authorities -------------------------------------------------------------

void Keystore::save_authority(const AuthorityState& state) {
  validate_id(state.vk.aid);
  Writer w;
  w.var_bytes(abe::serialize(*group(), state.vk));
  w.u32(static_cast<uint32_t>(state.universe.size()));
  for (const std::string& name : state.universe) w.str(name);
  w.u32(static_cast<uint32_t>(state.assignments.size()));
  for (const auto& [uid, names] : state.assignments) {
    w.str(uid);
    w.u32(static_cast<uint32_t>(names.size()));
    for (const std::string& name : names) w.str(name);
  }
  write(fs::path("aa") / state.vk.aid / "state", w.bytes());
}

AuthorityState Keystore::load_authority(const std::string& aid) {
  validate_id(aid);
  const Bytes data = read(fs::path("aa") / aid / "state");
  Reader r(data);
  AuthorityState state;
  state.vk = abe::deserialize_authority_version_key(*group(), r.var_bytes());
  const uint32_t nu = r.u32();
  for (uint32_t i = 0; i < nu; ++i) state.universe.insert(r.str());
  const uint32_t na = r.u32();
  for (uint32_t i = 0; i < na; ++i) {
    const std::string uid = r.str();
    const uint32_t nn = r.u32();
    std::set<std::string> names;
    for (uint32_t j = 0; j < nn; ++j) names.insert(r.str());
    state.assignments.emplace(uid, std::move(names));
  }
  r.expect_done();
  return state;
}

bool Keystore::has_authority(const std::string& aid) const {
  return fs::exists(home_ / "aa" / aid / "state");
}

std::vector<std::string> Keystore::list_authorities() const { return list_dir("aa"); }

// ---- owners -------------------------------------------------------------------

void Keystore::save_owner(const abe::OwnerMasterKey& mk,
                          const abe::OwnerSecretShare& share) {
  validate_id(mk.owner_id);
  write(fs::path("owners") / mk.owner_id / "master", abe::serialize(*group(), mk));
  write(fs::path("owners") / mk.owner_id / "share", abe::serialize(*group(), share));
}

abe::OwnerMasterKey Keystore::load_owner_master(const std::string& owner_id) {
  validate_id(owner_id);
  return abe::deserialize_owner_master_key(*group(),
                                           read(fs::path("owners") / owner_id / "master"));
}

abe::OwnerSecretShare Keystore::load_owner_share(const std::string& owner_id) {
  validate_id(owner_id);
  return abe::deserialize_owner_secret_share(*group(),
                                             read(fs::path("owners") / owner_id / "share"));
}

bool Keystore::has_owner(const std::string& owner_id) const {
  return fs::exists(home_ / "owners" / owner_id / "master");
}

std::vector<std::string> Keystore::list_owners() const { return list_dir("owners"); }

void Keystore::save_record(const std::string& owner_id, const abe::EncryptionRecord& rec) {
  validate_id(owner_id);
  validate_ct_id(rec.ct_id);
  write(fs::path("owners") / owner_id / "records" / encode_ct_id(rec.ct_id),
        abe::serialize(*group(), rec));
}

abe::EncryptionRecord Keystore::load_record(const std::string& owner_id,
                                            const std::string& ct_id) {
  validate_id(owner_id);
  validate_ct_id(ct_id);
  return abe::deserialize_encryption_record(
      *group(), read(fs::path("owners") / owner_id / "records" / encode_ct_id(ct_id)));
}

std::vector<std::string> Keystore::list_records(const std::string& owner_id) const {
  std::vector<std::string> out;
  for (const std::string& name : list_dir(fs::path("owners") / owner_id / "records"))
    out.push_back(decode_ct_id(name));
  return out;
}

// ---- user secret keys ------------------------------------------------------------

void Keystore::save_user_key(const abe::UserSecretKey& sk) {
  validate_id(sk.uid);
  validate_id(sk.owner_id);
  validate_id(sk.aid);
  write(fs::path("users") / sk.uid / "keys" / (sk.owner_id + "__" + sk.aid),
        abe::serialize(*group(), sk));
}

std::optional<abe::UserSecretKey> Keystore::load_user_key(const std::string& uid,
                                                          const std::string& owner_id,
                                                          const std::string& aid) {
  validate_id(uid);
  validate_id(owner_id);
  validate_id(aid);
  const fs::path rel = fs::path("users") / uid / "keys" / (owner_id + "__" + aid);
  if (!fs::exists(home_ / rel)) return std::nullopt;
  return abe::deserialize_user_secret_key(*group(), read(rel));
}

std::map<std::string, abe::UserSecretKey> Keystore::load_user_keys_for_owner(
    const std::string& uid, const std::string& owner_id) {
  std::map<std::string, abe::UserSecretKey> out;
  const std::string prefix = owner_id + "__";
  for (const std::string& name : list_dir(fs::path("users") / uid / "keys")) {
    if (!name.starts_with(prefix)) continue;
    abe::UserSecretKey sk = abe::deserialize_user_secret_key(
        *group(), read(fs::path("users") / uid / "keys" / name));
    out.emplace(sk.aid, std::move(sk));
  }
  return out;
}

void Keystore::delete_user_key(const std::string& uid, const std::string& owner_id,
                               const std::string& aid) {
  fs::remove(home_ / "users" / uid / "keys" / (owner_id + "__" + aid));
}

// ---- server ------------------------------------------------------------------------

namespace {
// "" = legacy single-server layout; otherwise one node's shard.
fs::path server_shard(const std::string& node) {
  return node.empty() ? fs::path("server") : fs::path("server") / node;
}
}  // namespace

void Keystore::save_server_file(const std::string& file_id, ByteView bytes) {
  save_server_file("", file_id, bytes);
}

Bytes Keystore::load_server_file(const std::string& file_id) {
  return load_server_file("", file_id);
}

bool Keystore::has_server_file(const std::string& file_id) const {
  return has_server_file("", file_id);
}

std::vector<std::string> Keystore::list_server_files() const { return list_dir("server"); }

void Keystore::save_server_file(const std::string& node, const std::string& file_id,
                                ByteView bytes) {
  if (!node.empty()) validate_id(node);
  validate_id(file_id);
  write(server_shard(node) / file_id, bytes);
}

Bytes Keystore::load_server_file(const std::string& node, const std::string& file_id) {
  if (!node.empty()) validate_id(node);
  validate_id(file_id);
  return read(server_shard(node) / file_id);
}

bool Keystore::has_server_file(const std::string& node,
                               const std::string& file_id) const {
  return fs::exists(home_ / server_shard(node) / file_id);
}

std::vector<std::string> Keystore::list_server_files(const std::string& node) const {
  return list_dir(server_shard(node));
}

}  // namespace maabe::tools
