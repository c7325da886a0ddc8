// Prime-field context: the fixed-width Montgomery field (math/field.h)
// plus the field-level operations the curve and pairing layers need on
// top of it (square roots, serialization, uniform sampling).
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

class FpCtx : public math::MontField {
 public:
  /// p must be an odd prime of at most 512 bits.
  explicit FpCtx(const math::Bignum& p);

  FieldElem dbl(const FieldElem& a) const { return add(a, a); }
  FieldElem zero() const { return FieldElem(); }

  /// Candidate square root for p = 3 (mod 4): a^((p+1)/4). It is a root
  /// exactly when a is a residue — check sqr(result) == a. One
  /// exponentiation, no residuosity test.
  FieldElem sqrt_candidate(const FieldElem& a) const { return pow(a, sqrt_exp_); }

  /// Uniform field element (Montgomery form).
  FieldElem random(crypto::Drbg& rng) const;

  /// Fixed-width big-endian serialization of the *plain* value.
  Bytes to_bytes(const FieldElem& mont_form) const;
  FieldElem from_bytes(ByteView data) const;

 private:
  math::Bignum sqrt_exp_;  // (p+1)/4
};

}  // namespace maabe::pairing
