#include "pairing/curve.h"

#include <bit>

#include "common/errors.h"

namespace maabe::pairing {

using math::Bignum;

bool CurveCtx::eq(const AffinePoint& p, const AffinePoint& q) const {
  if (p.inf || q.inf) return p.inf == q.inf;
  return p.x == q.x && p.y == q.y;
}

bool CurveCtx::is_on_curve(const AffinePoint& p) const {
  if (p.inf) return true;
  // y^2 == x^3 + x  (curve coefficient a = 1, b = 0).
  const FieldElem lhs = fq_.sqr(p.y);
  const FieldElem rhs = fq_.add(fq_.mul(fq_.sqr(p.x), p.x), p.x);
  return lhs == rhs;
}

AffinePoint CurveCtx::neg(const AffinePoint& p) const {
  if (p.inf) return p;
  return {p.x, fq_.neg(p.y), false};
}

JacPoint CurveCtx::to_jac(const AffinePoint& p) const {
  if (p.inf) return {fq_.one(), fq_.one(), fq_.zero()};
  return {p.x, p.y, fq_.one()};
}

AffinePoint CurveCtx::to_affine(const JacPoint& p) const {
  if (p.z.is_zero()) return AffinePoint::infinity();
  const FieldElem zi = fq_.inv(p.z);
  const FieldElem zi2 = fq_.sqr(zi);
  return {fq_.mul(p.x, zi2), fq_.mul(p.y, fq_.mul(zi2, zi)), false};
}

std::vector<AffinePoint> CurveCtx::to_affine_batch(const JacPoint* pts,
                                                  size_t n) const {
  if (n == 0) return {};
  // prefix[i] = product of the nonzero z's of pts[0..i].
  std::vector<FieldElem> prefix(n);
  FieldElem acc = fq_.one();
  for (size_t i = 0; i < n; ++i) {
    if (!pts[i].z.is_zero()) acc = fq_.mul(acc, pts[i].z);
    prefix[i] = acc;
  }
  std::vector<AffinePoint> out(n);
  FieldElem inv = fq_.inv(acc);  // a product of nonzero z's, so invertible
  for (size_t i = n; i-- > 0;) {
    const JacPoint& p = pts[i];
    if (p.z.is_zero()) continue;  // infinity, already in place
    const FieldElem zi = i > 0 ? fq_.mul(inv, prefix[i - 1]) : inv;
    inv = fq_.mul(inv, p.z);
    const FieldElem zi2 = fq_.sqr(zi);
    out[i] = {fq_.mul(p.x, zi2), fq_.mul(p.y, fq_.mul(zi2, zi)), false};
  }
  return out;
}

JacPoint CurveCtx::jac_dbl(const JacPoint& p) const {
  if (p.z.is_zero() || p.y.is_zero()) return {fq_.one(), fq_.one(), fq_.zero()};
  // dbl-2007-bl style with a = 1 handled via M = 3X^2 + Z^4.
  const FieldElem y2 = fq_.sqr(p.y);
  const FieldElem s = fq_.dbl(fq_.dbl(fq_.mul(p.x, y2)));       // 4XY^2
  const FieldElem z2 = fq_.sqr(p.z);
  const FieldElem x2 = fq_.sqr(p.x);
  const FieldElem m = fq_.add(fq_.add(fq_.dbl(x2), x2), fq_.sqr(z2));  // 3X^2 + Z^4
  const FieldElem xr = fq_.sub(fq_.sqr(m), fq_.dbl(s));
  const FieldElem y4 = fq_.sqr(y2);
  const FieldElem yr = fq_.sub(fq_.mul(m, fq_.sub(s, xr)), fq_.dbl(fq_.dbl(fq_.dbl(y4))));
  const FieldElem zr = fq_.dbl(fq_.mul(p.y, p.z));
  return {xr, yr, zr};
}

JacPoint CurveCtx::jac_add_mixed(const JacPoint& p, const AffinePoint& q) const {
  if (q.inf) throw MathError("jac_add_mixed: affine operand is infinity");
  if (p.z.is_zero()) return {q.x, q.y, fq_.one()};
  const FieldElem z2 = fq_.sqr(p.z);
  const FieldElem u2 = fq_.mul(q.x, z2);
  const FieldElem s2 = fq_.mul(q.y, fq_.mul(z2, p.z));
  const FieldElem hh = fq_.sub(u2, p.x);
  const FieldElem rr = fq_.sub(s2, p.y);
  if (hh.is_zero()) {
    if (rr.is_zero()) return jac_dbl(p);
    return {fq_.one(), fq_.one(), fq_.zero()};  // p == -q
  }
  const FieldElem h2 = fq_.sqr(hh);
  const FieldElem h3 = fq_.mul(hh, h2);
  const FieldElem v = fq_.mul(p.x, h2);
  const FieldElem xr = fq_.sub(fq_.sub(fq_.sqr(rr), h3), fq_.dbl(v));
  const FieldElem yr = fq_.sub(fq_.mul(rr, fq_.sub(v, xr)), fq_.mul(p.y, h3));
  const FieldElem zr = fq_.mul(p.z, hh);
  return {xr, yr, zr};
}

JacPoint CurveCtx::jac_add(const JacPoint& p, const JacPoint& q) const {
  if (p.z.is_zero()) return q;
  if (q.z.is_zero()) return p;
  // jac_add_mixed with q's Z^2 and Z^3 scaled into p's side.
  const FieldElem pz2 = fq_.sqr(p.z), qz2 = fq_.sqr(q.z);
  const FieldElem u1 = fq_.mul(p.x, qz2), u2 = fq_.mul(q.x, pz2);
  const FieldElem s1 = fq_.mul(p.y, fq_.mul(qz2, q.z));
  const FieldElem s2 = fq_.mul(q.y, fq_.mul(pz2, p.z));
  const FieldElem hh = fq_.sub(u2, u1);
  const FieldElem rr = fq_.sub(s2, s1);
  if (hh.is_zero()) {
    if (rr.is_zero()) return jac_dbl(p);
    return {fq_.one(), fq_.one(), fq_.zero()};  // p == -q
  }
  const FieldElem h2 = fq_.sqr(hh);
  const FieldElem h3 = fq_.mul(hh, h2);
  const FieldElem v = fq_.mul(u1, h2);
  const FieldElem xr = fq_.sub(fq_.sub(fq_.sqr(rr), h3), fq_.dbl(v));
  const FieldElem yr = fq_.sub(fq_.mul(rr, fq_.sub(v, xr)), fq_.mul(s1, h3));
  const FieldElem zr = fq_.mul(fq_.mul(p.z, q.z), hh);
  return {xr, yr, zr};
}

JacPoint CurveCtx::jac_mul_u64(const JacPoint& p, uint64_t k) const {
  JacPoint acc{fq_.one(), fq_.one(), fq_.zero()};
  for (int i = std::bit_width(k) - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    if ((k >> i) & 1) acc = jac_add(acc, p);
  }
  return acc;
}

AffinePoint CurveCtx::dbl(const AffinePoint& p) const {
  if (p.inf) return p;
  return to_affine(jac_dbl(to_jac(p)));
}

AffinePoint CurveCtx::add(const AffinePoint& p, const AffinePoint& q) const {
  if (p.inf) return q;
  if (q.inf) return p;
  return to_affine(jac_add_mixed(to_jac(p), q));
}

AffinePoint CurveCtx::mul(const AffinePoint& p, const Bignum& k) const {
  return to_affine(mul_jac(p, k));
}

JacPoint CurveCtx::mul_jac(const AffinePoint& p, const Bignum& k) const {
  JacPoint acc{fq_.one(), fq_.one(), fq_.zero()};
  if (p.inf) return acc;
  for (int i = k.bit_length() - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    if (k.bit(i)) acc = jac_add_mixed(acc, p);
  }
  return acc;
}

bool CurveCtx::lift_x(const FieldElem& x, FieldElem* y) const {
  // For q = 3 (mod 4), s = rhs^((q+1)/4) squares to rhs exactly when rhs
  // is a residue, so one exponentiation both tests and extracts the root.
  const FieldElem r = rhs(x);
  const FieldElem s = fq_.sqrt_candidate(r);
  if (fq_.sqr(s) != r) return false;
  *y = s;
  return true;
}

}  // namespace maabe::pairing
