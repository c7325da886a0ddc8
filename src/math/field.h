// Fixed-width prime-field elements and their Montgomery kernels.
//
// The pairing stack spends nearly all of its time in F_q arithmetic on
// moduli of at most 512 bits (8 limbs on the paper curve). FieldElem
// stores exactly 8 little-endian 64-bit limbs inline — 64 bytes, no
// length field — so copies are two cache lines and add/sub/neg/compare
// are straight carry chains over a fixed width. Limbs at or above the
// modulus' limb count are always zero.
//
// MontField owns one odd modulus p and performs Montgomery arithmetic
// (elements held as a*R mod p, R = 2^(64*N), N = limbs of p). mul/sqr
// and inversion run through kernels templated on N in field.cpp, picked
// once at construction; everything above this layer is written against
// FieldElem and never sees N. Moduli wider than 512 bits throw
// MathError — there is no fallback. pow_batch runs up to eight
// exponentiations by one exponent as lanes of an AVX-512 IFMA kernel
// when the CPU has it (DESIGN.md §22), and lanes() hands the same 8-lane
// field to the pairing layer's batch passes (§23).
//
// Like the rest of the library, nothing here is constant-time.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "math/bignum.h"

namespace maabe::math {

struct FieldElem {
  static constexpr int kLimbs = 8;

  std::array<uint64_t, kLimbs> l{};

  FieldElem() = default;
  /// Boundary conversions. Throws MathError when `v` needs more than
  /// kLimbs limbs. Implicit, so setup code written against Bignum keeps
  /// compiling; each conversion copies the limbs.
  FieldElem(const Bignum& v);
  operator Bignum() const;

  static FieldElem from_u64(uint64_t v) {
    FieldElem e;
    e.l[0] = v;
    return e;
  }

  bool is_zero() const {
    uint64_t acc = 0;
    for (uint64_t v : l) acc |= v;
    return acc == 0;
  }
  bool is_odd() const { return (l[0] & 1) != 0; }

  friend bool operator==(const FieldElem& a, const FieldElem& b) = default;
};

namespace detail {

/// The modulus side of the 8-lane IFMA field (DESIGN.md §22-23): ten
/// radix-2^52 limbs, Montgomery radix R' = 2^520.
struct LaneModulus {
  static constexpr int kLimbs = 10;
  std::array<uint64_t, kLimbs> p{};
  std::array<uint64_t, kLimbs> p2{};          ///< 2p: lane values lie in [0, 2p)
  std::array<uint64_t, kLimbs> to_lanes{};    ///< 2^528 mod p: aR -> aR'
  std::array<uint64_t, kLimbs> from_lanes{};  ///< 2^512 mod p: aR' -> aR
  uint64_t n0 = 0;                            ///< -p^-1 mod 2^52
};

class LaneField;  // math/field_kernels.h

}  // namespace detail

class MontField {
 public:
  /// Modulus must be odd, >= 3 and at most 512 bits; throws MathError
  /// otherwise.
  explicit MontField(const Bignum& modulus);

  const Bignum& modulus() const { return modulus_; }
  int limbs() const { return n_; }
  /// Bytes needed to serialize a reduced residue.
  size_t byte_length() const { return (bits_ + 7) / 8; }

  /// a < modulus, compared limb by limb from the top.
  bool is_reduced(const FieldElem& a) const {
    for (int i = FieldElem::kLimbs - 1; i >= 0; --i)
      if (a.l[i] != p_.l[i]) return a.l[i] < p_.l[i];
    return false;
  }

  /// a must be < modulus.
  FieldElem to_mont(const FieldElem& a) const { return mul_(a, r2_, p_, n0_); }
  FieldElem from_mont(const FieldElem& a) const {
    return mul_(a, FieldElem::from_u64(1), p_, n0_);
  }

  FieldElem mul(const FieldElem& a, const FieldElem& b) const { return mul_(a, b, p_, n0_); }
  FieldElem sqr(const FieldElem& a) const { return sqr_(a, p_, n0_); }

  // Representation-agnostic modular add/sub/neg on reduced operands.
  FieldElem add(const FieldElem& a, const FieldElem& b) const;
  FieldElem sub(const FieldElem& a, const FieldElem& b) const;
  FieldElem neg(const FieldElem& a) const;

  /// base in Montgomery form, exponent a plain integer; Montgomery result.
  FieldElem pow(const FieldElem& base, const Bignum& exp) const;
  /// out[k] = pow(bases[k], exp) for every k, the same residues. Runs as
  /// 8-lane IFMA passes on an 8-limb modulus when the CPU has the
  /// kernel, and as a loop over pow otherwise. Throws MathError when the
  /// spans differ in size.
  void pow_batch(std::span<const FieldElem> bases, const Bignum& exp,
                 std::span<FieldElem> out) const;
  /// Inverse of a Montgomery-form value, in Montgomery form (batched
  /// binary gcd, variable-time). Throws MathError when gcd(a, p) != 1.
  FieldElem inv(const FieldElem& a) const;
  /// Inverts every nonzero element of `xs` in place with one inv
  /// (Montgomery's trick); zeros stay zero. The inverses are unique, so
  /// each is the same value inv gives. Throws MathError like inv when a
  /// nonzero element is not invertible (p not prime).
  void inv_batch(std::span<FieldElem> xs) const;

  /// The 8-lane IFMA view of this field (math/field_kernels.h), or null
  /// when the modulus is not 8 limbs or the CPU lacks the kernels.
  const detail::LaneField* lanes() const { return lanes_.get(); }

  /// Montgomery form of 1 (R mod p).
  const FieldElem& one() const { return one_; }

 private:
  using MulFn = FieldElem (*)(const FieldElem&, const FieldElem&, const FieldElem&, uint64_t);
  using SqrFn = FieldElem (*)(const FieldElem&, const FieldElem&, uint64_t);
  using InvFn = bool (*)(const FieldElem&, const FieldElem&, uint64_t, int, FieldElem*);

  Bignum modulus_;
  FieldElem p_;
  FieldElem one_;  // R mod p
  FieldElem r2_;   // R^2 mod p
  FieldElem r3_;   // R^3 mod p: lifts a plain-domain inverse of aR back to a^-1 R
  uint64_t n0_ = 0;  // -p^{-1} mod 2^64
  int n_ = 0;
  int bits_ = 0;
  MulFn mul_ = nullptr;
  SqrFn sqr_ = nullptr;
  InvFn inv_ = nullptr;
  std::shared_ptr<const detail::LaneField> lanes_;  // set when IFMA passes run
};

// Fixed-width add/sub/neg: inline because they are too short to pay for
// a call, and identical for every limb count (limbs above N are zero).

inline FieldElem MontField::add(const FieldElem& a, const FieldElem& b) const {
  using u128 = unsigned __int128;
  FieldElem s, d;
  uint64_t carry = 0, borrow = 0;
  for (int i = 0; i < FieldElem::kLimbs; ++i) {
    const u128 t = u128(a.l[i]) + b.l[i] + carry;
    s.l[i] = static_cast<uint64_t>(t);
    carry = static_cast<uint64_t>(t >> 64);
  }
  for (int i = 0; i < FieldElem::kLimbs; ++i) {
    const u128 t = u128(s.l[i]) - p_.l[i] - borrow;
    d.l[i] = static_cast<uint64_t>(t);
    borrow = static_cast<uint64_t>(t >> 64) & 1;
  }
  // a + b >= p iff the sum carried out (only possible at 8 limbs) or
  // subtracting p did not borrow.
  const uint64_t keep_d = 0 - (carry | (borrow ^ 1));
  for (int i = 0; i < FieldElem::kLimbs; ++i) s.l[i] = (d.l[i] & keep_d) | (s.l[i] & ~keep_d);
  return s;
}

inline FieldElem MontField::sub(const FieldElem& a, const FieldElem& b) const {
  using u128 = unsigned __int128;
  FieldElem d;
  uint64_t borrow = 0;
  for (int i = 0; i < FieldElem::kLimbs; ++i) {
    const u128 t = u128(a.l[i]) - b.l[i] - borrow;
    d.l[i] = static_cast<uint64_t>(t);
    borrow = static_cast<uint64_t>(t >> 64) & 1;
  }
  // On borrow, add p back (the wrap-around cancels the missing 2^512).
  const uint64_t mask = 0 - borrow;
  uint64_t carry = 0;
  for (int i = 0; i < FieldElem::kLimbs; ++i) {
    const u128 t = u128(d.l[i]) + (p_.l[i] & mask) + carry;
    d.l[i] = static_cast<uint64_t>(t);
    carry = static_cast<uint64_t>(t >> 64);
  }
  return d;
}

inline FieldElem MontField::neg(const FieldElem& a) const {
  if (a.is_zero()) return a;
  return sub(p_, a);  // p - a, never borrows
}

}  // namespace maabe::math
