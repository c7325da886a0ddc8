#include "pairing/curve.h"

#include <algorithm>
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
  FieldElem hh, rr;
  const JacPoint scaled = jac::chord_jac(fq_, p, q, &hh, &rr);
  if (hh.is_zero()) {
    if (rr.is_zero()) return jac_dbl(p);
    return {fq_.one(), fq_.one(), fq_.zero()};  // p == -q
  }
  return jac::add_chord(fq_, scaled, hh, rr);
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
                                 std::span<const AffinePoint> ps,
                                 std::span<const Bignum* const> ks,
                                 std::span<JacPoint> out) const {
  using math::detail::LaneField;
  using math::detail::Lanes;
  constexpr int kWindow = 4, kMultiples = (1 << kWindow) - 1;
  const size_t n = ps.size();
  if (n == 0 || n > Lanes::kLanes || ks.size() != n || out.size() != n)
    throw MathError("mul_jac_lanes: needs 1..8 points, as many scalars and outputs");
  std::array<FieldElem, Lanes::kLanes> xs{}, ys{}, zs{};
  int bits = 0;
  for (size_t j = 0; j < n; ++j) {
    if (ps[j].inf) throw MathError("mul_jac_lanes: point at infinity");
    if (ks[j]->is_zero()) throw MathError("mul_jac_lanes: scalar zero");
    xs[j] = ps[j].x;
    ys[j] = ps[j].y;
    bits = std::max(bits, ks[j]->bit_length());
  }
  // mults[d - 1] = d * P in every lane: P, one doubling, then mixed
  // additions of P.
  const Lanes px = lf.to_lanes(std::span(xs).first(n));
  const Lanes py = lf.to_lanes(std::span(ys).first(n));
  std::array<JacOf<Lanes>, kMultiples> mults;
  mults[0] = {px, py, lf.one()};
  mults[1] = jac::dbl(lf, mults[0]);
  for (int d = 2; d < kMultiples; ++d) {
    Lanes hh, rr;
    jac::chord(lf, mults[d - 1], px, py, &hh, &rr);
    mults[d] = jac::add_chord(lf, mults[d - 1], hh, rr);
  }
  // The windows from the top. A lane starts at its first non-zero digit
  // with that multiple itself; before that its accumulator is unused.
  const unsigned all = (1u << n) - 1;
  JacOf<Lanes> acc{lf.zero(), lf.zero(), lf.zero()}, sel;
  unsigned started = 0;
  for (int w = (bits + kWindow - 1) / kWindow - 1; w >= 0; --w) {
    if (started != 0)
      for (int b = 0; b < kWindow; ++b) acc = jac::dbl(lf, acc);
    unsigned live = 0;
    for (size_t j = 0; j < n; ++j) {
      int digit = 0;
      for (int b = kWindow - 1; b >= 0; --b)
        digit = digit << 1 | (ks[j]->bit(w * kWindow + b) ? 1 : 0);
      if (digit == 0) continue;
      live |= 1u << j;
      const JacOf<Lanes>& m = mults[digit - 1];
      for (int i = 0; i < math::detail::LaneModulus::kLimbs; ++i) {
        sel.x.limb[i][j] = m.x.limb[i][j];
        sel.y.limb[i][j] = m.y.limb[i][j];
        sel.z.limb[i][j] = m.z.limb[i][j];
      }
    }
    const unsigned add = live & started, fresh = live & ~started;
    if (add != 0) {
      Lanes hh, rr;
      const JacOf<Lanes> scaled = jac::chord_jac(lf, acc, sel, &hh, &rr);
      const JacOf<Lanes> sum = jac::add_chord(lf, scaled, hh, rr);
      acc = add == all ? sum
                       : JacOf<Lanes>{LaneField::select(add, sum.x, acc.x),
                                      LaneField::select(add, sum.y, acc.y),
                                      LaneField::select(add, sum.z, acc.z)};
    }
    if (fresh != 0) {
      acc = {LaneField::select(fresh, sel.x, acc.x), LaneField::select(fresh, sel.y, acc.y),
             LaneField::select(fresh, sel.z, acc.z)};
    }
    started |= live;
  }
  const unsigned exceptional = lf.zero_mask(acc.z) & all;
  lf.from_lanes(acc.x, std::span(xs).first(n));
  lf.from_lanes(acc.y, std::span(ys).first(n));
  lf.from_lanes(acc.z, std::span(zs).first(n));
  for (size_t j = 0; j < n; ++j)
    if (!(exceptional >> j & 1)) out[j] = {xs[j], ys[j], zs[j]};
  return exceptional;
}

std::vector<JacPoint> CurveCtx::mul_jac_batch(const math::detail::LaneField* lf,
                                              size_t min_lanes,
                                              std::span<const AffinePoint> ps,
                                              std::span<const Bignum* const> ks) const {
  using math::detail::Lanes;
  if (ks.size() != ps.size()) throw MathError("mul_jac_batch: points/scalars size mismatch");
  std::vector<JacPoint> out(ps.size(), to_jac(AffinePoint::infinity()));
  std::vector<size_t> live;
  for (size_t i = 0; i < ps.size(); ++i)
    if (!ps[i].inf && !ks[i]->is_zero()) live.push_back(i);
  const auto lanes = [&](std::span<const size_t> pass) {
    const size_t m = pass.size();
    std::array<AffinePoint, Lanes::kLanes> pts;
    std::array<const Bignum*, Lanes::kLanes> exps{};
    std::array<JacPoint, Lanes::kLanes> got;
    for (size_t j = 0; j < m; ++j) {
      pts[j] = ps[pass[j]];
      exps[j] = ks[pass[j]];
    }
    const unsigned left = mul_jac_lanes(*lf, std::span(pts).first(m), std::span(exps).first(m),
                                        std::span(got).first(m));
    for (size_t j = 0; j < m; ++j)
      if (!(left >> j & 1)) out[pass[j]] = got[j];
    return left;
  };
  math::detail::run_passes(live, lf != nullptr, min_lanes, lanes,
                           [&](size_t i) { out[i] = mul_jac(ps[i], *ks[i]); });
  return out;
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
