// Arithmetic on the supersingular curve E: y^2 = x^3 + x over F_q.
//
// Affine points are the external representation; scalar multiplication
// and the Miller loop run in Jacobian coordinates ((X:Y:Z) with
// x = X/Z^2, y = Y/Z^3) to avoid per-step field inversions.
#pragma once

#include <vector>

#include "pairing/fp.h"

namespace maabe::pairing {

/// Affine point; coordinates in Montgomery form. `inf` marks the point
/// at infinity (coordinates ignored).
struct AffinePoint {
  FieldElem x;
  FieldElem y;
  bool inf = true;

  static AffinePoint infinity() { return {}; }
};

/// Jacobian point used internally by scalar multiplication and pairing.
struct JacPoint {
  FieldElem x;
  FieldElem y;
  FieldElem z;  // zero z encodes infinity
};

class CurveCtx {
 public:
  explicit CurveCtx(const FpCtx& fq) : fq_(fq) {}

  const FpCtx& field() const { return fq_; }

  bool eq(const AffinePoint& p, const AffinePoint& q) const;
  bool is_on_curve(const AffinePoint& p) const;

  AffinePoint neg(const AffinePoint& p) const;
  AffinePoint add(const AffinePoint& p, const AffinePoint& q) const;
  AffinePoint dbl(const AffinePoint& p) const;
  /// Scalar multiplication; k is a plain (non-Montgomery) integer.
  AffinePoint mul(const AffinePoint& p, const math::Bignum& k) const;
  /// mul() before its affine conversion, for callers that convert a
  /// batch with to_affine_batch.
  JacPoint mul_jac(const AffinePoint& p, const math::Bignum& k) const;

  // Jacobian core (also used by the Miller loop).
  JacPoint to_jac(const AffinePoint& p) const;
  AffinePoint to_affine(const JacPoint& p) const;
  /// to_affine over every point with ONE field inversion (Montgomery's
  /// trick). Affine coordinates are canonical, so the results are the
  /// same bits as per-point to_affine.
  std::vector<AffinePoint> to_affine_batch(const JacPoint* pts, size_t n) const;
  JacPoint jac_dbl(const JacPoint& p) const;
  /// Mixed addition with an affine q; q must not be infinity.
  JacPoint jac_add_mixed(const JacPoint& p, const AffinePoint& q) const;
  /// Full Jacobian addition; either operand may be infinity.
  JacPoint jac_add(const JacPoint& p, const JacPoint& q) const;
  /// k*p by double-and-add on a Jacobian point, for scalars that fit a
  /// machine word (the multi-pairing kernel's folded exponents).
  JacPoint jac_mul_u64(const JacPoint& p, uint64_t k) const;

  /// Solves y^2 = x^3 + x for y given x (Montgomery form); returns false
  /// if the RHS is a non-residue.
  bool lift_x(const FieldElem& x, FieldElem* y) const;

 private:
  const FpCtx& fq_;
};

}  // namespace maabe::pairing
