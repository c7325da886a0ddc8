// Prime-field context: Montgomery arithmetic plus the field-level
// operations the curve and pairing layers need (inversion, square roots,
// serialization, uniform sampling).
//
// Field elements are fixed-width math::FieldElem values in Montgomery
// form; all operations go through the owning FpCtx (context-object style
// keeps the hot path free of per-element field pointers). The kernels
// underneath are picked once from the modulus' limb count (see
// math/field.h); q wider than 512 bits throws MathError here.
#pragma once

#include "crypto/drbg.h"
#include "math/bignum.h"
#include "math/field.h"

namespace maabe::pairing {

using math::FieldElem;

class FpCtx {
 public:
  /// p must be an odd prime of at most 512 bits.
  explicit FpCtx(const math::Bignum& p);

  const math::Bignum& modulus() const { return field_.modulus(); }
  size_t byte_length() const { return field_.byte_length(); }

  // Montgomery codec (plain values in and out are fixed-width too).
  FieldElem enc(const FieldElem& plain) const { return field_.to_mont(plain); }
  FieldElem dec(const FieldElem& m) const { return field_.from_mont(m); }

  // Arithmetic on Montgomery-form elements.
  FieldElem add(const FieldElem& a, const FieldElem& b) const { return field_.add(a, b); }
  FieldElem sub(const FieldElem& a, const FieldElem& b) const { return field_.sub(a, b); }
  FieldElem neg(const FieldElem& a) const { return field_.neg(a); }
  FieldElem mul(const FieldElem& a, const FieldElem& b) const { return field_.mul(a, b); }
  FieldElem sqr(const FieldElem& a) const { return field_.sqr(a); }
  FieldElem inv(const FieldElem& a) const;
  FieldElem pow(const FieldElem& base, const math::Bignum& exp) const {
    return field_.pow(base, exp);
  }
  FieldElem dbl(const FieldElem& a) const { return field_.add(a, a); }

  const FieldElem& one() const { return field_.one(); }
  FieldElem zero() const { return FieldElem(); }

  /// Quadratic-residue test via Euler's criterion (element in Montgomery
  /// form; zero counts as a residue).
  bool is_qr(const FieldElem& a) const;

  /// Candidate square root for p = 3 (mod 4): a^((p+1)/4). It is a root
  /// exactly when a is a residue — check sqr(result) == a. One
  /// exponentiation, no residuosity test.
  FieldElem sqrt_candidate(const FieldElem& a) const { return field_.pow(a, sqrt_exp_); }

  /// Square root for p = 3 (mod 4). Throws MathError if `a` is a
  /// non-residue.
  FieldElem sqrt(const FieldElem& a) const;

  /// Uniform field element (Montgomery form).
  FieldElem random(crypto::Drbg& rng) const;

  /// Fixed-width big-endian serialization of the *plain* value.
  Bytes to_bytes(const FieldElem& mont_form) const;
  FieldElem from_bytes(ByteView data) const;

 private:
  math::MontField field_;
  math::Bignum qr_exp_;    // (p-1)/2
  math::Bignum sqrt_exp_;  // (p+1)/4
};

}  // namespace maabe::pairing
