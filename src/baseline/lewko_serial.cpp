#include "baseline/lewko_serial.h"

#include "common/errors.h"

namespace maabe::baseline {

using pairing::G1;
using pairing::Group;
using pairing::GT;

namespace {

constexpr uint8_t kTagAttributePk = 0x41;
constexpr uint8_t kTagUserKey = 0x42;
constexpr uint8_t kTagCiphertext = 0x43;

void expect_tag(Reader& r, uint8_t tag, const char* what) {
  if (r.u8() != tag) throw WireError(std::string("deserialize: wrong tag for ") + what);
}

}  // namespace

Bytes serialize(const Group& grp, const LewkoAttributePublicKey& v) {
  (void)grp;
  Writer w;
  w.u8(kTagAttributePk);
  w.str(v.attr.name);
  w.str(v.attr.aid);
  w.raw(v.e_gg_alpha.to_bytes());
  w.raw(v.g_y.to_bytes());
  return w.take();
}

LewkoAttributePublicKey deserialize_lewko_attribute_pk(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kTagAttributePk, "LewkoAttributePublicKey");
  LewkoAttributePublicKey v;
  v.attr.name = r.str();
  v.attr.aid = r.str();
  v.e_gg_alpha = grp.gt_from_bytes(r.raw_view(grp.gt_size()));
  v.g_y = grp.g1_from_bytes(r.raw_view(grp.g1_size()));
  r.expect_done();
  return v;
}

Bytes serialize(const Group& grp, const LewkoUserKey& v) {
  (void)grp;
  Writer w;
  w.u8(kTagUserKey);
  w.str(v.gid);
  w.u32(static_cast<uint32_t>(v.k.size()));
  for (const auto& [handle, key] : v.k) {
    w.str(handle);
    w.raw(key.to_bytes());
  }
  return w.take();
}

LewkoUserKey deserialize_lewko_user_key(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kTagUserKey, "LewkoUserKey");
  LewkoUserKey v;
  v.gid = r.str();
  std::vector<ByteView> points;
  std::vector<G1*> slots;
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n; ++i) {
    const std::string handle = r.str();
    points.push_back(r.raw_view(grp.g1_size()));
    const auto [it, fresh] = v.k.try_emplace(handle);
    if (!fresh) throw WireError("deserialize: duplicate attribute in LewkoUserKey");
    slots.push_back(&it->second);
  }
  r.expect_done();
  std::vector<G1> decoded = grp.g1_from_bytes_batch(points);
  for (size_t i = 0; i < decoded.size(); ++i) *slots[i] = std::move(decoded[i]);
  return v;
}

Bytes serialize(const Group& grp, const LewkoCiphertext& v) {
  (void)grp;
  Writer w;
  w.u8(kTagCiphertext);
  v.policy.serialize(w);
  w.raw(v.c0.to_bytes());
  w.u32(static_cast<uint32_t>(v.c1.size()));
  for (size_t i = 0; i < v.c1.size(); ++i) {
    w.raw(v.c1[i].to_bytes());
    w.raw(v.c2[i].to_bytes());
    w.raw(v.c3[i].to_bytes());
  }
  return w.take();
}

LewkoCiphertext deserialize_lewko_ciphertext(const Group& grp, ByteView data) {
  Reader r(data);
  expect_tag(r, kTagCiphertext, "LewkoCiphertext");
  LewkoCiphertext v;
  v.policy = lsss::LsssMatrix::deserialize(r);
  v.c0 = grp.gt_from_bytes(r.raw_view(grp.gt_size()));
  const uint32_t rows = r.u32();
  if (rows != static_cast<uint32_t>(v.policy.rows()))
    throw WireError("deserialize: lewko ciphertext row count mismatch");
  std::vector<ByteView> points;  // C2_i, C3_i per row
  points.reserve(2 * size_t{rows});
  for (uint32_t i = 0; i < rows; ++i) {
    v.c1.push_back(grp.gt_from_bytes(r.raw_view(grp.gt_size())));
    points.push_back(r.raw_view(grp.g1_size()));
    points.push_back(r.raw_view(grp.g1_size()));
  }
  r.expect_done();
  const std::vector<G1> decoded = grp.g1_from_bytes_batch(points);
  for (size_t i = 0; i < decoded.size(); i += 2) {
    v.c2.push_back(decoded[i]);
    v.c3.push_back(decoded[i + 1]);
  }
  return v;
}

size_t lewko_ciphertext_group_material_bytes(const Group& grp, const LewkoCiphertext& v) {
  return (v.c1.size() + 1) * grp.gt_size() + 2 * v.c2.size() * grp.g1_size();
}

size_t lewko_authority_storage_bytes(const Group& grp, const LewkoAuthorityKeys& v) {
  return 2 * v.secrets.size() * grp.zr_size();
}

}  // namespace maabe::baseline
