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

namespace {

/// Every slot's key ciphertext bytes across the views, in order.
std::vector<ByteView> key_cts(const std::vector<StoredFileView>& views) {
  std::vector<ByteView> cts;
  for (const StoredFileView& view : views)
    for (const SlotView& slot : view.slots) cts.push_back(slot.key_ct);
  return cts;
}

}  // namespace

std::vector<StoredFile> deserialize_stored_files(const pairing::Group& grp,
                                                 std::span<const ByteView> wires) {
  std::vector<StoredFileView> views;
  views.reserve(wires.size());
  for (const ByteView wire : wires) views.push_back(view_stored_file(wire));
  std::vector<abe::Ciphertext> cts = abe::deserialize_ciphertexts(grp, key_cts(views));
  std::vector<StoredFile> out;
  out.reserve(views.size());
  auto ct = cts.begin();
  for (StoredFileView& view : views) {
    StoredFile& v = out.emplace_back(
        StoredFile{std::move(view.file_id), std::move(view.owner_id), {}});
    v.slots.reserve(view.slots.size());
    for (const SlotView& slot : view.slots)
      v.slots.push_back({slot.component_name, std::move(*ct++),
                         Bytes(slot.sealed_data.begin(), slot.sealed_data.end())});
  }
  return out;
}

StoredFile deserialize_stored_file(const pairing::Group& grp, ByteView data) {
  return std::move(deserialize_stored_files(grp, std::span(&data, 1)).front());
}

StoredFileView check_stored_file(const pairing::Group& grp, ByteView data) {
  std::vector<StoredFileView> views{view_stored_file(data)};
  abe::check_ciphertexts(grp, key_cts(views));
  return std::move(views.front());
}

}  // namespace maabe::cloud
