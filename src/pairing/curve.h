// Arithmetic on the supersingular curve E: y^2 = x^3 + x over F_q.
//
// Affine points are the external representation; scalar multiplication
// and the Miller loop run in Jacobian coordinates ((X:Y:Z) with
// x = X/Z^2, y = Y/Z^3) to avoid per-step field inversions.
#pragma once

#include <span>
#include <vector>

#include "math/field_kernels.h"
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

/// Jacobian point used internally by scalar multiplication and pairing,
/// over a base field's element type (FieldElem, or math::detail::Lanes
/// for eight points at a time).
template <class E>
struct JacOf {
  E x;
  E y;
  E z;  // zero z encodes infinity
};
using JacPoint = JacOf<FieldElem>;

// The Jacobian formulas, once, over any base field F with MontField's
// method names (FpCtx, math::detail::LaneField). They take no branch on
// the values: CurveCtx handles infinity and the exceptional cases
// around them, and a lane pass detects them from the result's z. Always
// inlined, so CurveCtx's scalar additions keep the one-function shape
// they had before the formulas were shared.
namespace jac {

/// 2T (dbl-2007-bl with a = 1: M = 3X^2 + Z^4). z = 2YZ, zero exactly
/// when Y or Z is.
template <class F, class E>
[[gnu::always_inline]] inline JacOf<E> dbl(const F& fq, const JacOf<E>& p) {
  const E y2 = fq.sqr(p.y);
  const E s = fq.dbl(fq.dbl(fq.mul(p.x, y2)));  // 4XY^2
  const E z2 = fq.sqr(p.z);
  const E x2 = fq.sqr(p.x);
  const E m = fq.add(fq.add(fq.dbl(x2), x2), fq.sqr(z2));  // 3X^2 + Z^4
  const E xr = fq.sub(fq.sqr(m), fq.dbl(s));
  const E y4 = fq.sqr(y2);
  const E yr = fq.sub(fq.mul(m, fq.sub(s, xr)), fq.dbl(fq.dbl(fq.dbl(y4))));
  const E zr = fq.dbl(fq.mul(p.y, p.z));
  return {xr, yr, zr};
}

/// The chord pieces of T + Q for an affine Q = (qx, qy):
/// H = qx*Z^2 - X and R = qy*Z^3 - Y. H is zero exactly when T = +-Q.
template <class F, class E>
[[gnu::always_inline]] inline void chord(const F& fq, const JacOf<E>& t, const E& qx, const E& qy, E* hh, E* rr) {
  const E z2 = fq.sqr(t.z);
  *hh = fq.sub(fq.mul(qx, z2), t.x);
  *rr = fq.sub(fq.mul(qy, fq.mul(z2, t.z)), t.y);
}

/// T + Q from chord(t, Q)'s pieces (mixed addition). z = Z*H.
template <class F, class E>
[[gnu::always_inline]] inline JacOf<E> add_chord(const F& fq, const JacOf<E>& t, const E& hh, const E& rr) {
  const E h2 = fq.sqr(hh);
  const E h3 = fq.mul(hh, h2);
  const E v = fq.mul(t.x, h2);
  const E xr = fq.sub(fq.sub(fq.sqr(rr), h3), fq.dbl(v));
  const E yr = fq.sub(fq.mul(rr, fq.sub(v, xr)), fq.mul(t.y, h3));
  const E zr = fq.mul(t.z, hh);
  return {xr, yr, zr};
}

}  // namespace jac

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
  /// mul_jac(ps[j], k) for up to eight finite points at once, one per
  /// lane, by k >= 1: the same double-and-add on jac::dbl and
  /// jac::add_chord over the lanes. out[j] gets lane j's point, the
  /// same residues, except in the lanes of the returned mask: those met
  /// a doubling at Y = 0 or an addition at H = 0 (seen as z = 0 at the
  /// end, since z only ever multiplies by 2Y or H), where mul_jac takes
  /// another branch; their out[j] is left for the caller to take from
  /// mul_jac.
  unsigned mul_jac_lanes(const math::detail::LaneField& lf, std::span<const AffinePoint> ps,
                         const math::Bignum& k, std::span<JacPoint> out) const;

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

  /// x^3 + x, the right-hand side of the curve equation (Montgomery form).
  FieldElem rhs(const FieldElem& x) const { return fq_.add(fq_.mul(fq_.sqr(x), x), x); }
  /// Solves y^2 = x^3 + x for y given x (Montgomery form); returns false
  /// if the RHS is a non-residue.
  bool lift_x(const FieldElem& x, FieldElem* y) const;

 private:
  const FpCtx& fq_;
};

}  // namespace maabe::pairing
