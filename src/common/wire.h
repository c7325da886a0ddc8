// Minimal length-prefixed binary wire format.
//
// Every persistent artefact in the library (keys, ciphertexts, stored
// files) serializes through Writer/Reader so that the size and
// communication benchmarks (paper Tables II-IV) measure real byte counts
// rather than in-memory sizes. Integers are big-endian; variable-size
// fields carry a u32 length prefix. Reader performs strict bounds checks
// and throws WireError on any malformed input.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace maabe {

class Writer {
 public:
  void u8(uint8_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  /// Fixed-size field; caller and reader must agree on the size.
  void raw(ByteView data);
  /// u32 length prefix followed by the bytes.
  void var_bytes(ByteView data);
  void str(std::string_view s);

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// The u32 length prefix Writer::var_bytes puts before `data`: streams
/// Writer's layout into a hash without building the buffer.
std::array<uint8_t, 4> var_bytes_prefix(ByteView data);

class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  uint8_t u8();
  uint32_t u32();
  uint64_t u64();
  Bytes raw(size_t n);
  Bytes var_bytes();
  /// var_bytes() without the copy: a view into the buffer this Reader
  /// reads, valid only while that buffer lives.
  ByteView var_view();
  std::string str();

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  /// Throws WireError unless the whole buffer has been consumed.
  void expect_done() const;

 private:
  void need(size_t n) const;

  ByteView data_;
  size_t pos_ = 0;
};

}  // namespace maabe
