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

StoredFileView view_stored_file(ByteView data) {
  Reader r(data);
  if (r.u8() != 0x60) throw WireError("deserialize: wrong tag for StoredFile");
  StoredFileView v;
  v.file_id = r.str();
  v.owner_id = r.str();
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n; ++i) {
    SlotView slot;
    slot.component_name = r.str();
    slot.key_ct = r.var_view();
    slot.sealed_data = r.var_view();
    if (abe::ciphertext_owner_id(slot.key_ct) != v.owner_id)
      throw WireError("deserialize: slot ciphertext owner mismatch");
    v.slots.push_back(std::move(slot));
  }
  r.expect_done();
  return v;
}

SealedSlot decode_slot(const pairing::Group& grp, const SlotView& slot) {
  return {slot.component_name, abe::deserialize_ciphertext(grp, slot.key_ct),
          Bytes(slot.sealed_data.begin(), slot.sealed_data.end())};
}

StoredFile deserialize_stored_file(const pairing::Group& grp, ByteView data) {
  StoredFileView view = view_stored_file(data);
  StoredFile v{std::move(view.file_id), std::move(view.owner_id), {}};
  v.slots.reserve(view.slots.size());
  for (const SlotView& slot : view.slots) v.slots.push_back(decode_slot(grp, slot));
  return v;
}

}  // namespace maabe::cloud
