// Fixed-capacity arbitrary-precision unsigned integers.
//
// The pairing substrate needs integers up to ~1100 bits (products of
// 512-bit field elements plus headroom); Bignum stores up to kMaxLimbs
// 64-bit limbs inline, giving cheap value semantics with no heap traffic.
// All operations throw MathError on capacity overflow instead of silently
// truncating.
//
// This type is deliberately unsigned: the library only ever computes in
// residue rings, where subtraction is expressed as modular subtraction.
// Modular multiplication, powers and inverses run on MontField
// (math/field.h).
//
// None of these routines are constant-time; this is a research
// reproduction, not a hardened production crypto library (see README).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace maabe::math {

class Bignum {
 public:
  /// 2560-bit capacity: enough for products of 1024-bit values with room
  /// for division normalization.
  static constexpr int kMaxLimbs = 40;

  /// Zero.
  Bignum() = default;

  static Bignum from_u64(uint64_t v);
  /// Builds from little-endian limbs (FieldElem's conversion back to
  /// Bignum).
  static Bignum from_limbs_le(const uint64_t* limbs, int n);
  /// Parses big-endian hex, optional "0x" prefix. Throws MathError.
  static Bignum from_hex(std::string_view hex);
  /// Big-endian bytes, any length up to capacity.
  static Bignum from_bytes_be(ByteView data);

  /// Throws MathError if the value does not fit in 64 bits.
  uint64_t to_u64() const;
  /// Lowercase hex without leading zeros ("0" for zero).
  std::string to_hex() const;
  /// Big-endian, exactly `width` bytes; throws MathError if it can't fit.
  Bytes to_bytes_be(size_t width) const;
  /// Minimal big-endian encoding (empty for zero).
  Bytes to_bytes_be_min() const;

  int limb_count() const { return n_; }
  /// Returns 0 beyond the significant length.
  uint64_t limb(int i) const { return i < n_ ? l_[i] : 0; }

  bool is_zero() const { return n_ == 0; }
  bool is_odd() const { return n_ > 0 && (l_[0] & 1); }
  bool is_one() const { return n_ == 1 && l_[0] == 1; }
  /// Number of significant bits (0 for zero).
  int bit_length() const;
  /// Bit i (0 = least significant); 0 beyond the length.
  bool bit(int i) const;

  /// -1 / 0 / +1.
  static int cmp(const Bignum& a, const Bignum& b);
  friend bool operator==(const Bignum& a, const Bignum& b) { return cmp(a, b) == 0; }
  friend bool operator!=(const Bignum& a, const Bignum& b) { return cmp(a, b) != 0; }
  friend bool operator<(const Bignum& a, const Bignum& b) { return cmp(a, b) < 0; }
  friend bool operator<=(const Bignum& a, const Bignum& b) { return cmp(a, b) <= 0; }
  friend bool operator>(const Bignum& a, const Bignum& b) { return cmp(a, b) > 0; }
  friend bool operator>=(const Bignum& a, const Bignum& b) { return cmp(a, b) >= 0; }

  static Bignum add(const Bignum& a, const Bignum& b);
  /// Requires a >= b; throws MathError otherwise.
  static Bignum sub(const Bignum& a, const Bignum& b);
  static Bignum mul(const Bignum& a, const Bignum& b);
  static Bignum sqr(const Bignum& a) { return mul(a, a); }
  static Bignum shl(const Bignum& a, int bits);
  static Bignum shr(const Bignum& a, int bits);

  /// Knuth Algorithm D. Throws MathError if b == 0.
  static void divmod(const Bignum& a, const Bignum& b, Bignum* q, Bignum* r);
  static Bignum div(const Bignum& a, const Bignum& b);
  static Bignum mod(const Bignum& a, const Bignum& m);

  // Plain modular add/sub; inputs must already be reduced mod m.
  static Bignum mod_add(const Bignum& a, const Bignum& b, const Bignum& m);
  static Bignum mod_sub(const Bignum& a, const Bignum& b, const Bignum& m);

 private:
  void normalize();
  void set_limbs(int n);

  std::array<uint64_t, kMaxLimbs> l_{};
  int n_ = 0;  // significant limbs; invariant: n_ == 0 || l_[n_-1] != 0
};

}  // namespace maabe::math
