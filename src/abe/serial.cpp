#include "abe/serial.h"

#include "common/errors.h"

namespace maabe::abe {

using pairing::G1;
using pairing::Group;
using pairing::GT;
using pairing::Zr;

namespace {

// One-byte type tags catch cross-type decoding mistakes early.
enum Tag : uint8_t {
  kUserPublicKey = 0x01,
  kOwnerSecretShare = 0x02,
  kAuthorityPublicKey = 0x03,
  kPublicAttributeKey = 0x04,
  kUserSecretKey = 0x05,
  kCiphertext = 0x06,
  kUpdateKey = 0x07,
  kUpdateInfo = 0x08,
  kOwnerMasterKey = 0x09,
  kAuthorityVersionKey = 0x0a,
  kEncryptionRecord = 0x0b,
};

void put_g1(Writer& w, const G1& v) { w.raw(v.to_bytes()); }
void put_gt(Writer& w, const GT& v) { w.raw(v.to_bytes()); }
void put_zr(Writer& w, const Zr& v) { w.raw(v.to_bytes()); }

/// One compressed point's bytes. A decoder with several points reads
/// all their views first and decodes them as one
/// Group::g1_from_bytes_batch.
ByteView g1_view(const Group& grp, Reader& r) { return r.raw_view(grp.g1_size()); }

// Transient revocation-protocol messages (update keys / update infos)
// use the uncompressed x||y encoding: decoding skips the per-point
// square root, which dominates epoch delivery over the byte-level
// transport. Durable artefacts (keys, ciphertexts) keep the compressed
// form whose sizes Tables II-IV count.
void put_g1_xy(Writer& w, const G1& v) { w.raw(v.to_bytes_uncompressed()); }
G1 get_g1_xy(const Group& grp, Reader& r) {
  return grp.g1_from_bytes_uncompressed(r.raw_view(grp.g1_uncompressed_size()));
}

// Key material additionally gets an order check: decompression only
// guarantees on-curve, not membership in the order-r subgroup. Applied
// to the handful of points inside keys (not to per-row ciphertext
// components, where it would cost one scalar multiplication per policy
// row on every load; see README "Architecture notes").
void check_subgroup(const G1& point) {
  if (!point.in_subgroup())
    throw WireError("deserialize: point outside the order-r subgroup");
}
G1 get_g1_checked(const Group& grp, Reader& r) {
  G1 point = grp.g1_from_bytes(g1_view(grp, r));
  check_subgroup(point);
  return point;
}
GT get_gt(const Group& grp, Reader& r) { return grp.gt_from_bytes(r.raw_view(grp.gt_size())); }
Zr get_zr(const Group& grp, Reader& r) { return grp.zr_from_bytes(r.raw_view(grp.zr_size())); }

void expect_tag(Reader& r, Tag tag, const char* what) {
  if (r.u8() != tag) throw WireError(std::string("deserialize: wrong tag for ") + what);
}

lsss::Attribute parse_handle(const std::string& handle) {
  const size_t at = handle.rfind('@');
  if (at == std::string::npos || at == 0 || at + 1 == handle.size())
    throw WireError("deserialize: malformed attribute handle '" + handle + "'");
  return {handle.substr(0, at), handle.substr(at + 1)};
}

// The per-authority versions of a Ciphertext and of an EncryptionRecord:
// a count, then (aid, version) pairs in AID order.
void put_versions(Writer& w, const std::map<std::string, uint32_t>& versions) {
  w.u32(static_cast<uint32_t>(versions.size()));
  for (const auto& [aid, version] : versions) {
    w.str(aid);
    w.u32(version);
  }
}

std::map<std::string, uint32_t> get_versions(Reader& r) {
  std::map<std::string, uint32_t> versions;
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n; ++i) {
    const std::string aid = r.str();
    const uint32_t version = r.u32();
    // Strictly ascending, as put_versions writes them, so that every
    // accepted encoding is the one serialize() would produce.
    if (!versions.empty() && aid <= versions.rbegin()->first)
      throw WireError(versions.contains(aid) ? "deserialize: duplicate authority version"
                                             : "deserialize: authority versions out of order");
    versions.emplace_hint(versions.end(), aid, version);
  }
  return versions;
}

}  // namespace

Bytes serialize(const Group& grp, const UserPublicKey& v) {
  (void)grp;
  Writer w;
  w.u8(kUserPublicKey);
  w.str(v.uid);
  put_g1(w, v.pk);
  return w.take();
}

UserPublicKey deserialize_user_public_key(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kUserPublicKey, "UserPublicKey");
  UserPublicKey v;
  v.uid = r.str();
  v.pk = get_g1_checked(grp, r);
  r.expect_done();
  return v;
}

Bytes serialize(const Group& grp, const OwnerSecretShare& v) {
  (void)grp;
  Writer w;
  w.u8(kOwnerSecretShare);
  w.str(v.owner_id);
  put_g1(w, v.g_inv_beta);
  put_zr(w, v.r_over_beta);
  return w.take();
}

OwnerSecretShare deserialize_owner_secret_share(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kOwnerSecretShare, "OwnerSecretShare");
  OwnerSecretShare v;
  v.owner_id = r.str();
  v.g_inv_beta = get_g1_checked(grp, r);
  v.r_over_beta = get_zr(grp, r);
  r.expect_done();
  return v;
}

Bytes serialize(const Group& grp, const AuthorityPublicKey& v) {
  (void)grp;
  Writer w;
  w.u8(kAuthorityPublicKey);
  w.str(v.aid);
  w.u32(v.version);
  put_gt(w, v.e_gg_alpha);
  return w.take();
}

AuthorityPublicKey deserialize_authority_public_key(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kAuthorityPublicKey, "AuthorityPublicKey");
  AuthorityPublicKey v;
  v.aid = r.str();
  v.version = r.u32();
  v.e_gg_alpha = get_gt(grp, r);
  r.expect_done();
  return v;
}

Bytes serialize(const Group& grp, const PublicAttributeKey& v) {
  (void)grp;
  Writer w;
  w.u8(kPublicAttributeKey);
  w.str(v.attr.name);
  w.str(v.attr.aid);
  w.u32(v.version);
  put_g1(w, v.key);
  return w.take();
}

PublicAttributeKey deserialize_public_attribute_key(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kPublicAttributeKey, "PublicAttributeKey");
  PublicAttributeKey v;
  v.attr.name = r.str();
  v.attr.aid = r.str();
  v.version = r.u32();
  v.key = get_g1_checked(grp, r);
  r.expect_done();
  return v;
}

Bytes serialize(const Group& grp, const UserSecretKey& v) {
  (void)grp;
  Writer w;
  w.u8(kUserSecretKey);
  w.str(v.uid);
  w.str(v.aid);
  w.str(v.owner_id);
  w.u32(v.version);
  put_g1(w, v.k);
  w.u32(static_cast<uint32_t>(v.kx.size()));
  for (const auto& [handle, key] : v.kx) {
    w.str(handle);
    put_g1(w, key);
  }
  return w.take();
}

UserSecretKey deserialize_user_secret_key(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kUserSecretKey, "UserSecretKey");
  UserSecretKey v;
  v.uid = r.str();
  v.aid = r.str();
  v.owner_id = r.str();
  v.version = r.u32();
  std::vector<ByteView> points = {g1_view(grp, r)};  // K, then each K_x
  std::vector<G1*> slots = {&v.k};
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n; ++i) {
    const std::string handle = r.str();
    (void)parse_handle(handle);  // validate shape
    points.push_back(g1_view(grp, r));
    const auto [it, fresh] = v.kx.try_emplace(handle);
    if (!fresh) throw WireError("deserialize: duplicate attribute in UserSecretKey");
    slots.push_back(&it->second);
  }
  r.expect_done();
  std::vector<G1> decoded = grp.g1_from_bytes_batch(points);
  for (size_t i = 0; i < decoded.size(); ++i) {
    check_subgroup(decoded[i]);
    *slots[i] = std::move(decoded[i]);
  }
  return v;
}

Bytes serialize(const Group& grp, const Ciphertext& v) {
  (void)grp;
  Writer w;
  w.u8(kCiphertext);
  w.str(v.id);
  w.str(v.owner_id);
  v.policy.serialize(w);
  put_gt(w, v.c);
  put_g1(w, v.c_prime);
  w.u32(static_cast<uint32_t>(v.ci.size()));
  for (const G1& c : v.ci) put_g1(w, c);
  put_versions(w, v.versions);
  return w.take();
}

Ciphertext deserialize_ciphertext(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kCiphertext, "Ciphertext");
  Ciphertext v;
  v.id = r.str();
  v.owner_id = r.str();
  v.policy = lsss::LsssMatrix::deserialize(r);
  v.c = get_gt(grp, r);
  std::vector<ByteView> points = {g1_view(grp, r)};  // C', then each C_i
  const uint32_t rows = r.u32();
  if (rows != static_cast<uint32_t>(v.policy.rows()))
    throw WireError("deserialize: ciphertext row count mismatch");
  points.reserve(rows + 1);
  for (uint32_t i = 0; i < rows; ++i) points.push_back(g1_view(grp, r));
  v.versions = get_versions(r);
  r.expect_done();
  // Every structural check has passed: the square roots run as one batch.
  std::vector<G1> decoded = grp.g1_from_bytes_batch(points);
  v.c_prime = std::move(decoded.front());
  v.ci.assign(std::make_move_iterator(decoded.begin() + 1),
              std::make_move_iterator(decoded.end()));
  return v;
}

std::string ciphertext_owner_id(ByteView data) {
  Reader r(data);
  expect_tag(r, kCiphertext, "Ciphertext");
  r.str();  // id
  return r.str();
}

Bytes serialize(const Group& grp, const UpdateKey& v) {
  (void)grp;
  Writer w;
  w.u8(kUpdateKey);
  w.str(v.aid);
  w.str(v.owner_id);
  w.u32(v.from_version);
  w.u32(v.to_version);
  put_g1_xy(w, v.uk1);
  put_zr(w, v.uk2);
  return w.take();
}

UpdateKey deserialize_update_key(const Group& grp, ByteView data, UkCheck check) {
  Reader r(data);
  expect_tag(r, kUpdateKey, "UpdateKey");
  UpdateKey v;
  v.aid = r.str();
  v.owner_id = r.str();
  v.from_version = r.u32();
  v.to_version = r.u32();
  v.uk1 = get_g1_xy(grp, r);
  if (check == UkCheck::kKeyMaterial && !v.uk1.in_subgroup())
    throw WireError("deserialize: point outside the order-r subgroup");
  v.uk2 = get_zr(grp, r);
  r.expect_done();
  return v;
}

Bytes serialize(const Group& grp, const UpdateInfo& v) {
  (void)grp;
  Writer w;
  w.u8(kUpdateInfo);
  w.str(v.aid);
  w.str(v.owner_id);
  w.str(v.ct_id);
  w.u32(v.from_version);
  w.u32(v.to_version);
  w.u32(static_cast<uint32_t>(v.ui.size()));
  for (const auto& [handle, g] : v.ui) {
    w.str(handle);
    put_g1_xy(w, g);
  }
  return w.take();
}

UpdateInfo deserialize_update_info(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kUpdateInfo, "UpdateInfo");
  UpdateInfo v;
  v.aid = r.str();
  v.owner_id = r.str();
  v.ct_id = r.str();
  v.from_version = r.u32();
  v.to_version = r.u32();
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n; ++i) {
    const std::string handle = r.str();
    (void)parse_handle(handle);
    const G1 g = get_g1_xy(grp, r);
    if (!v.ui.emplace(handle, g).second)
      throw WireError("deserialize: duplicate attribute in UpdateInfo");
  }
  r.expect_done();
  return v;
}

Bytes serialize(const Group& grp, const OwnerMasterKey& v) {
  (void)grp;
  Writer w;
  w.u8(kOwnerMasterKey);
  w.str(v.owner_id);
  put_zr(w, v.beta);
  put_zr(w, v.r);
  return w.take();
}

OwnerMasterKey deserialize_owner_master_key(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kOwnerMasterKey, "OwnerMasterKey");
  OwnerMasterKey v;
  v.owner_id = r.str();
  v.beta = get_zr(grp, r);
  v.r = get_zr(grp, r);
  r.expect_done();
  if (v.beta.is_zero()) throw WireError("deserialize: zero beta in OwnerMasterKey");
  return v;
}

Bytes serialize(const Group& grp, const AuthorityVersionKey& v) {
  (void)grp;
  Writer w;
  w.u8(kAuthorityVersionKey);
  w.str(v.aid);
  w.u32(v.version);
  put_zr(w, v.alpha);
  return w.take();
}

AuthorityVersionKey deserialize_authority_version_key(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kAuthorityVersionKey, "AuthorityVersionKey");
  AuthorityVersionKey v;
  v.aid = r.str();
  v.version = r.u32();
  v.alpha = get_zr(grp, r);
  r.expect_done();
  if (v.alpha.is_zero()) throw WireError("deserialize: zero alpha in AuthorityVersionKey");
  return v;
}

Bytes serialize(const Group& grp, const EncryptionRecord& v) {
  (void)grp;
  Writer w;
  w.u8(kEncryptionRecord);
  w.str(v.ct_id);
  put_zr(w, v.s);
  w.u32(static_cast<uint32_t>(v.attributes.size()));
  for (const lsss::Attribute& attr : v.attributes) w.str(attr.qualified());
  put_versions(w, v.versions);
  return w.take();
}

EncryptionRecord deserialize_encryption_record(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kEncryptionRecord, "EncryptionRecord");
  EncryptionRecord v;
  v.ct_id = r.str();
  v.s = get_zr(grp, r);
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n; ++i) {
    if (!v.attributes.insert(parse_handle(r.str())).second)
      throw WireError("deserialize: duplicate attribute in EncryptionRecord");
  }
  v.versions = get_versions(r);
  r.expect_done();
  for (const lsss::Attribute& attr : v.attributes) {
    if (!v.versions.contains(attr.aid))
      throw WireError("deserialize: no version for the authority of '" + attr.qualified() +
                      "' in EncryptionRecord");
  }
  return v;
}

size_t ciphertext_group_material_bytes(const Group& grp, const Ciphertext& v) {
  return grp.gt_size() + (v.ci.size() + 1) * grp.g1_size();
}

}  // namespace maabe::abe
