#include "cloud/hybrid.h"

#include "abe/serial.h"
#include "common/errors.h"
#include "crypto/hmac.h"

namespace maabe::cloud {

Bytes content_key_from_gt(const pairing::GT& seed) {
  return crypto::kdf(seed.to_bytes(), "maabe/content-key", crypto::kContentKeySize);
}

std::string slot_ct_id(const std::string& file_id, const std::string& component_name) {
  return file_id + "/" + component_name;
}

std::pair<std::string, std::string> split_slot_ct_id(const std::string& ct_id) {
  const size_t slash = ct_id.find('/');
  if (slash == std::string::npos) return {ct_id, ""};
  return {ct_id.substr(0, slash), ct_id.substr(slash + 1)};
}

Bytes slot_aad(const std::string& file_id, const std::string& component_name) {
  Writer w;
  w.str(file_id);
  w.str(component_name);
  return w.take();
}

Bytes serialize(const pairing::Group& grp, const StoredFile& v) {
  Writer w;
  w.u8(0x60);
  w.str(v.file_id);
  w.str(v.owner_id);
  w.u32(static_cast<uint32_t>(v.slots.size()));
  for (const SealedSlot& slot : v.slots) {
    w.str(slot.component_name);
    w.var_bytes(abe::serialize(grp, slot.key_ct));
    w.var_bytes(slot.sealed_data);
  }
  return w.take();
}

std::string stored_file_id(ByteView data) {
  Reader r(data);
  if (r.u8() != 0x60) throw WireError("deserialize: wrong tag for StoredFile");
  return r.str();
}

StoredFile deserialize_stored_file(const pairing::Group& grp, ByteView data) {
  Reader r(data);
  if (r.u8() != 0x60) throw WireError("deserialize: wrong tag for StoredFile");
  StoredFile v;
  v.file_id = r.str();
  v.owner_id = r.str();
  const uint32_t n = r.u32();
  v.slots.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SealedSlot slot;
    slot.component_name = r.str();
    slot.key_ct = abe::deserialize_ciphertext(grp, r.var_bytes());
    slot.sealed_data = r.var_bytes();
    if (slot.key_ct.owner_id != v.owner_id)
      throw WireError("deserialize: slot ciphertext owner mismatch");
    v.slots.push_back(std::move(slot));
  }
  r.expect_done();
  return v;
}

}  // namespace maabe::cloud
