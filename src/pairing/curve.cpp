#include "pairing/curve.h"

#include <array>
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
  std::vector<FieldElem> zi(n);
  for (size_t i = 0; i < n; ++i) zi[i] = pts[i].z;
  fq_.inv_batch(zi);  // one inversion; a zero z (infinity) stays zero
  std::vector<AffinePoint> out(n);
  for (size_t i = 0; i < n; ++i) {
    if (zi[i].is_zero()) continue;  // infinity, already in place
    const FieldElem zi2 = fq_.sqr(zi[i]);
    out[i] = {fq_.mul(pts[i].x, zi2), fq_.mul(pts[i].y, fq_.mul(zi2, zi[i])), false};
  }
  return out;
}

JacPoint CurveCtx::jac_dbl(const JacPoint& p) const {
  if (p.z.is_zero() || p.y.is_zero()) return {fq_.one(), fq_.one(), fq_.zero()};
  return jac::dbl(fq_, p);
}

JacPoint CurveCtx::jac_add_mixed(const JacPoint& p, const AffinePoint& q) const {
  if (q.inf) throw MathError("jac_add_mixed: affine operand is infinity");
  if (p.z.is_zero()) return {q.x, q.y, fq_.one()};
  FieldElem hh, rr;
  jac::chord(fq_, p, q.x, q.y, &hh, &rr);
  if (hh.is_zero()) {
    if (rr.is_zero()) return jac_dbl(p);
    return {fq_.one(), fq_.one(), fq_.zero()};  // p == -q
  }
  return jac::add_chord(fq_, p, hh, rr);
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
  // The mixed-addition tail on (U1 : S1 : Z1*Z2), which is p scaled to
  // q's denominators.
  return jac::add_chord(fq_, JacPoint{u1, s1, fq_.mul(p.z, q.z)}, hh, rr);
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

unsigned CurveCtx::mul_jac_lanes(const math::detail::LaneField& lf,
                                 std::span<const AffinePoint> ps, const Bignum& k,
                                 std::span<JacPoint> out) const {
  using math::detail::Lanes;
  const size_t n = ps.size();
  if (n == 0 || n > Lanes::kLanes || out.size() != n || k.is_zero())
    throw MathError("mul_jac_lanes: needs 1..8 points, as many outputs and k >= 1");
  std::array<FieldElem, Lanes::kLanes> xs{}, ys{}, zs{};
  for (size_t j = 0; j < n; ++j) {
    if (ps[j].inf) throw MathError("mul_jac_lanes: point at infinity");
    xs[j] = ps[j].x;
    ys[j] = ps[j].y;
  }
  const Lanes px = lf.to_lanes(std::span(xs).first(n));
  const Lanes py = lf.to_lanes(std::span(ys).first(n));
  // mul_jac's first step turns the identity into P; the rest is the
  // same schedule without its branches.
  JacOf<Lanes> acc{px, py, lf.one()};
  for (int i = k.bit_length() - 2; i >= 0; --i) {
    acc = jac::dbl(lf, acc);
    if (!k.bit(i)) continue;
    Lanes hh, rr;
    jac::chord(lf, acc, px, py, &hh, &rr);
    acc = jac::add_chord(lf, acc, hh, rr);
  }
  const unsigned exceptional = lf.zero_mask(acc.z) & ((1u << n) - 1);
  lf.from_lanes(acc.x, std::span(xs).first(n));
  lf.from_lanes(acc.y, std::span(ys).first(n));
  lf.from_lanes(acc.z, std::span(zs).first(n));
  for (size_t j = 0; j < n; ++j)
    if (!(exceptional >> j & 1)) out[j] = {xs[j], ys[j], zs[j]};
  return exceptional;
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
