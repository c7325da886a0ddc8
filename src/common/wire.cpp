#include "common/wire.h"

#include "common/errors.h"

namespace maabe {

void Writer::u8(uint8_t v) { buf_.push_back(v); }

void Writer::u32(uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    buf_.push_back(static_cast<uint8_t>(v >> shift));
}

void Writer::u64(uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    buf_.push_back(static_cast<uint8_t>(v >> shift));
}

void Writer::raw(ByteView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

void Writer::var_bytes(ByteView data) {
  raw(var_bytes_prefix(data));
  raw(data);
}

void Writer::str(std::string_view s) {
  var_bytes(ByteView(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

std::array<uint8_t, 4> var_bytes_prefix(ByteView data) {
  if (data.size() > UINT32_MAX) throw WireError("var_bytes: field too large");
  const auto n = static_cast<uint32_t>(data.size());
  return {static_cast<uint8_t>(n >> 24), static_cast<uint8_t>(n >> 16),
          static_cast<uint8_t>(n >> 8), static_cast<uint8_t>(n)};
}

void Reader::need(size_t n) const {
  if (data_.size() - pos_ < n) throw WireError("wire: truncated input");
}

uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

uint32_t Reader::u32() {
  need(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = v << 8 | data_[pos_++];
  return v;
}

uint64_t Reader::u64() {
  need(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | data_[pos_++];
  return v;
}

Bytes Reader::raw(size_t n) {
  need(n);
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Bytes Reader::var_bytes() {
  const ByteView v = var_view();
  return Bytes(v.begin(), v.end());
}

ByteView Reader::var_view() {
  const uint32_t n = u32();
  need(n);
  const ByteView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string Reader::str() {
  const ByteView b = var_view();
  return std::string(b.begin(), b.end());
}

void Reader::expect_done() const {
  if (!done()) throw WireError("wire: trailing bytes after message");
}

}  // namespace maabe
