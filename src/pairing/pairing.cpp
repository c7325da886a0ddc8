#include "pairing/pairing.h"

#include "common/errors.h"
#include "math/window_pow.h"

namespace maabe::pairing {

using math::Bignum;

PairingCtx::PairingCtx(const TypeAParams& params)
    : params_(params), fq_(params.q), fq2_(fq_), curve_(fq_) {}

namespace {

// Line through T (Jacobian, = tangent when doubling) evaluated at
// phi(Q) = (-x_q, i*y_q), scaled by an arbitrary F_q constant.
//
// Tangent at T: l = 2YZ^3*y - 2Y^2 - (3X^2 + Z^4)(Z^2*x - X), so at
// phi(Q):  real = M*(Z^2*x_q + X) - 2Y^2,  imag = 2YZ^3 * y_q,
// with M = 3X^2 + Z^4 (curve coefficient a = 1).
Fp2 tangent_line(const FpCtx& fq, const JacPoint& t, const AffinePoint& q) {
  const FieldElem z2 = fq.sqr(t.z);
  const FieldElem x2 = fq.sqr(t.x);
  const FieldElem m = fq.add(fq.add(fq.dbl(x2), x2), fq.sqr(z2));
  const FieldElem real =
      fq.sub(fq.mul(m, fq.add(fq.mul(z2, q.x), t.x)), fq.dbl(fq.sqr(t.y)));
  const FieldElem imag = fq.mul(fq.dbl(fq.mul(t.y, fq.mul(z2, t.z))), q.y);
  return {real, imag};
}

// Line through T (Jacobian) and affine P evaluated at phi(Q), scaled by
// an arbitrary F_q constant:
//   real = R*(x_q + x_p) - H*Z*y_p,   imag = H*Z*y_q,
// with H = x_p*Z^2 - X, R = y_p*Z^3 - Y (chord slope numerator pieces).
Fp2 chord_line(const FpCtx& fq, const JacPoint& t, const AffinePoint& p,
               const AffinePoint& q, const FieldElem& hh, const FieldElem& rr) {
  const FieldElem hz = fq.mul(hh, t.z);
  const FieldElem real = fq.sub(fq.mul(rr, fq.add(q.x, p.x)), fq.mul(hz, p.y));
  const FieldElem imag = fq.mul(hz, q.y);
  return {real, imag};
}

}  // namespace

Fp2 PairingCtx::final_exponentiation(const Fp2& f) const {
  if (fq2_.is_zero(f)) throw MathError("final_exponentiation: zero input");
  // f^(q-1) = conj(f) / f.
  const Fp2 f1 = fq2_.mul(fq2_.conj(f), fq2_.inv(f));
  // f1 has norm 1 (f1^(q+1) = f^(q^2-1) = 1 by Fermat), so the hard
  // part h = (q+1)/r runs on cyclotomic squarings — the same bits as a
  // generic pow at roughly half the base-field multiplies per square.
  return fq2_.pow_cyclotomic(f1, params_.h);
}

unsigned PairingCtx::final_exponentiation_lanes(const math::detail::LaneField& lf,
                                                const Fp2Of<math::detail::Lanes>& f,
                                                std::span<Fp2> out) const {
  using math::detail::Lanes;
  using L2 = Fp2Of<Lanes>;
  const size_t n = out.size();
  // f^(q-1) = conj(f) / f = conj(f)^2 / N(f), N(f) = a^2 + b^2 in F_q:
  // the norms leave the lanes for one batch inversion and come back.
  std::array<FieldElem, Lanes::kLanes> norms{};
  lf.from_lanes(lf.add(lf.sqr(f.a), lf.sqr(f.b)), std::span(norms).first(n));
  unsigned zero = 0;
  for (size_t k = 0; k < n; ++k)
    if (norms[k].is_zero()) zero |= 1u << k;
  fq_.inv_batch(std::span(norms).first(n));
  const Lanes inv_norm = lf.to_lanes(std::span(norms).first(n));
  const L2 c = fp2::sqr(lf, L2{f.a, lf.neg(f.b)});
  const L2 f1{lf.mul(c.a, inv_norm), lf.mul(c.b, inv_norm)};
  const L2 h = math::window_pow(
      L2{lf.one(), lf.zero()}, f1, params_.h,
      [&lf](const L2& x, const L2& y) { return fp2::mul(lf, x, y); },
      [&lf](const L2& x) { return fp2::sqr_cyclotomic(lf, x); });
  std::array<FieldElem, Lanes::kLanes> a{}, b{};
  lf.from_lanes(h.a, std::span(a).first(n));
  lf.from_lanes(h.b, std::span(b).first(n));
  for (size_t k = 0; k < n; ++k)
    if (!(zero >> k & 1)) out[k] = {a[k], b[k]};
  return zero;
}

Fp2 PairingCtx::miller_loop(const AffinePoint& p, const AffinePoint& q) const {
  if (p.inf || q.inf) return fq2_.one();

  Fp2 f = fq2_.one();
  JacPoint t = curve_.to_jac(p);
  const Bignum& r = params_.r;

  for (int i = r.bit_length() - 2; i >= 0; --i) {
    f = fq2_.sqr(f);
    if (!t.z.is_zero()) {
      const Fp2 line = tangent_line(fq_, t, q);
      f = fq2_.mul(f, line);
      t = curve_.jac_dbl(t);
    }
    if (r.bit(i) && !t.z.is_zero()) {
      // Mixed addition, reusing H and R for the line.
      FieldElem hh, rr;
      jac::chord(fq_, t, p.x, p.y, &hh, &rr);
      if (hh.is_zero()) {
        if (rr.is_zero()) {
          // T == P: tangent case (cannot occur for points of prime order
          // r > 2 before the last step, but handle it for robustness).
          f = fq2_.mul(f, tangent_line(fq_, t, q));
          t = curve_.jac_dbl(t);
        } else {
          // T == -P: vertical line lies in F_q, contributes 1.
          t = {fq_.one(), fq_.one(), fq_.zero()};
        }
      } else {
        f = fq2_.mul(f, chord_line(fq_, t, p, q, hh, rr));
        t = jac::add_chord(fq_, t, hh, rr);
      }
    }
  }
  return f;
}

Fp2 PairingCtx::pair(const AffinePoint& p, const AffinePoint& q) const {
  if (p.inf || q.inf) return fq2_.one();
  return final_exponentiation(miller_loop(p, q));
}

// ---------------------------------------------------------- precomp --

PairingPrecomp::PairingPrecomp(const PairingCtx& ctx, const AffinePoint& p)
    : ctx_(&ctx) {
  if (p.inf) {
    inf_ = true;
    return;
  }
  // Replay miller_loop(p, ·)'s exact control flow — which depends only
  // on P and r — recording each line's Q-independent coefficients. The
  // on-line tangent evaluates as M*(Z^2*x_q + X) - 2Y^2; distributing
  // gives c0 = M*Z^2, c1 = M*X - 2Y^2, and the chord analogously —
  // exact modular arithmetic keeps the distributed form bit-identical.
  const FpCtx& fq = ctx.fq();
  const CurveCtx& curve = ctx.curve();
  JacPoint t = curve.to_jac(p);
  const Bignum& r = ctx.params().r;
  uint32_t pending = 0;

  const auto push_tangent = [&] {
    const FieldElem z2 = fq.sqr(t.z);
    const FieldElem x2 = fq.sqr(t.x);
    const FieldElem m = fq.add(fq.add(fq.dbl(x2), x2), fq.sqr(z2));
    lines_.push_back({{fq.mul(m, z2), fq.sub(fq.mul(m, t.x), fq.dbl(fq.sqr(t.y))),
                       fq.dbl(fq.mul(t.y, fq.mul(z2, t.z)))},
                      pending});
    pending = 0;
  };

  for (int i = r.bit_length() - 2; i >= 0; --i) {
    ++pending;  // the f = f^2 at the top of each iteration
    if (!t.z.is_zero()) {
      push_tangent();
      t = curve.jac_dbl(t);
    }
    if (r.bit(i) && !t.z.is_zero()) {
      FieldElem hh, rr;
      jac::chord(fq, t, p.x, p.y, &hh, &rr);
      if (hh.is_zero()) {
        if (rr.is_zero()) {
          push_tangent();
          t = curve.jac_dbl(t);
        } else {
          t = {fq.one(), fq.one(), fq.zero()};
        }
      } else {
        const FieldElem hz = fq.mul(hh, t.z);
        lines_.push_back({{rr, fq.sub(fq.mul(rr, p.x), fq.mul(hz, p.y)), hz}, pending});
        pending = 0;
        t = jac::add_chord(fq, t, hh, rr);
      }
    }
  }
  trailing_sqrs_ = pending;
}

template <class F, class E, class Coef>
Fp2Of<E> PairingPrecomp::replay(const F& fq, const E& qx, const E& qy,
                                const Coef& coef) const {
  Fp2Of<E> f{fq.one(), fq.zero()};
  for (size_t i = 0; i < lines_.size(); ++i) {
    for (uint32_t s = 0; s < lines_[i].sqrs_before; ++s) f = fp2::sqr(fq, f);
    f = fp2::mul(fq, f, Fp2Of<E>{fq.add(fq.mul(coef(i, 0), qx), coef(i, 1)),
                                 fq.mul(coef(i, 2), qy)});
  }
  for (uint32_t s = 0; s < trailing_sqrs_; ++s) f = fp2::sqr(fq, f);
  return f;
}

Fp2 PairingPrecomp::miller(const AffinePoint& q) const {
  if (inf_ || q.inf) return ctx_->fq2().one();
  return replay(ctx_->fq(), q.x, q.y,
                [this](size_t i, int j) -> const FieldElem& { return lines_[i].c[j]; });
}

Fp2Of<math::detail::Lanes> PairingPrecomp::miller_lanes(const math::detail::LaneField& lf,
                                                        const math::detail::Lanes& qx,
                                                        const math::detail::Lanes& qy) const {
  using math::detail::Lanes;
  std::call_once(lane_once_, [&] {
    // Coefficients go to lane form eight at a time: one conversion
    // multiply per eight, then each lane's limbs are kept compact.
    std::vector<FieldElem> flat;
    flat.reserve(3 * lines_.size());
    for (const Line& l : lines_) flat.insert(flat.end(), l.c.begin(), l.c.end());
    lane_lines_.resize(lines_.size());
    for (size_t at = 0; at < flat.size(); at += Lanes::kLanes) {
      const size_t n = std::min<size_t>(Lanes::kLanes, flat.size() - at);
      const Lanes x = lf.to_lanes(std::span(flat).subspan(at, n));
      for (size_t k = 0; k < n; ++k)
        lane_lines_[(at + k) / 3][(at + k) % 3] = math::detail::LaneField::lane(x, static_cast<int>(k));
    }
  });
  return replay(lf, qx, qy, [this](size_t i, int j) {
    return math::detail::LaneField::broadcast(lane_lines_[i][j]);
  });
}

}  // namespace maabe::pairing
