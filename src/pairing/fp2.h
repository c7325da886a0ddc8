// Quadratic extension F_{q^2} = F_q[i] / (i^2 + 1).
//
// Valid because q = 3 (mod 4) makes -1 a non-residue. This is the target
// field of the embedding-degree-2 pairing: GT elements live in the
// order-(q+1) cyclotomic subgroup of F_{q^2}^*, where inversion is
// conjugation.
#pragma once

#include "pairing/fp.h"

namespace maabe::pairing {

/// Element a + b*i with both coordinates in Montgomery form, over a base
/// field's element type: FieldElem, or math::detail::Lanes for eight
/// elements at a time (the batch passes of DESIGN.md §23).
template <class E>
struct Fp2Of {
  E a;
  E b;

  friend bool operator==(const Fp2Of& x, const Fp2Of& y) = default;
};
using Fp2 = Fp2Of<FieldElem>;

// The F_{q^2} formulas, once, over any base field F with MontField's
// method names (FpCtx, math::detail::LaneField). Exact arithmetic makes
// every instance compute the same residues. mul and sqr stay out of
// line, as Fp2Ctx's were: inlined into the scalar Miller replay's loop
// they made it 2-3% slower.
namespace fp2 {

/// Karatsuba: 3 base-field multiplications.
template <class F, class E>
[[gnu::noinline]] Fp2Of<E> mul(const F& fq, const Fp2Of<E>& x, const Fp2Of<E>& y) {
  const E t0 = fq.mul(x.a, y.a);
  const E t1 = fq.mul(x.b, y.b);
  const E mixed = fq.mul(fq.add(x.a, x.b), fq.add(y.a, y.b));
  return {fq.sub(t0, t1), fq.sub(fq.sub(mixed, t0), t1)};
}

/// (a+bi)^2 = (a-b)(a+b) + 2ab i: 2 base-field multiplications.
template <class F, class E>
[[gnu::noinline]] Fp2Of<E> sqr(const F& fq, const Fp2Of<E>& x) {
  const E t = fq.mul(fq.sub(x.a, x.b), fq.add(x.a, x.b));
  const E ab = fq.mul(x.a, x.b);
  return {t, fq.dbl(ab)};
}

/// Square of a norm-1 element: with a^2 + b^2 = 1,
/// (a+bi)^2 = (a^2 - b^2) + 2ab i = (2a^2 - 1) + ((a+b)^2 - 1) i, two
/// base-field squarings. The same residue as sqr there.
template <class F, class E>
Fp2Of<E> sqr_cyclotomic(const F& fq, const Fp2Of<E>& x) {
  const E a2 = fq.sqr(x.a);
  const E s2 = fq.sqr(fq.add(x.a, x.b));
  return {fq.sub(fq.dbl(a2), fq.one()), fq.sub(s2, fq.one())};
}

}  // namespace fp2

class Fp2Ctx {
 public:
  explicit Fp2Ctx(const FpCtx& fq) : fq_(fq) {}

  const FpCtx& base() const { return fq_; }

  Fp2 zero() const { return {fq_.zero(), fq_.zero()}; }
  Fp2 one() const { return {fq_.one(), fq_.zero()}; }
  bool is_one(const Fp2& x) const { return x.a == fq_.one() && x.b.is_zero(); }
  bool is_zero(const Fp2& x) const { return x.a.is_zero() && x.b.is_zero(); }

  Fp2 add(const Fp2& x, const Fp2& y) const;
  Fp2 sub(const Fp2& x, const Fp2& y) const;
  Fp2 neg(const Fp2& x) const;
  /// Karatsuba: 3 base-field multiplications.
  Fp2 mul(const Fp2& x, const Fp2& y) const;
  /// (a+bi)^2 = (a-b)(a+b) + 2ab i: 2 base-field multiplications.
  Fp2 sqr(const Fp2& x) const;
  Fp2 conj(const Fp2& x) const { return {x.a, fq_.neg(x.b)}; }
  /// (a+bi)^{-1} = (a-bi) / (a^2+b^2). Throws MathError on zero.
  Fp2 inv(const Fp2& x) const;
  /// Sliding-window exponentiation (math::window_pow, up to 5-bit
  /// windows over odd powers).
  Fp2 pow(const Fp2& base, const math::Bignum& exp) const;

  /// Norm a^2 + b^2 == 1, i.e. membership in the order-(q+1) cyclotomic
  /// subgroup (where every pairing value lands after the easy part of
  /// the final exponentiation, and where all of GT lives).
  bool is_norm_one(const Fp2& x) const;
  /// Square of a norm-1 element: (2a^2 - 1) + ((a+b)^2 - 1) i — two
  /// base-field *squarings* and no multiplications. Only valid when
  /// is_norm_one(x); produces bits identical to sqr(x) there.
  Fp2 sqr_cyclotomic(const Fp2& x) const;
  /// pow() with cyclotomic squarings — the same window routine, so the
  /// final exponentiation's hard part and GT::pow share one loop; base
  /// must satisfy is_norm_one.
  Fp2 pow_cyclotomic(const Fp2& base, const math::Bignum& exp) const;

  /// Uniform nonzero-capable random element.
  Fp2 random(crypto::Drbg& rng) const;

  /// 2*|F_q| bytes: a || b (plain big-endian).
  Bytes to_bytes(const Fp2& x) const;
  Fp2 from_bytes(ByteView data) const;
  size_t byte_length() const { return 2 * fq_.byte_length(); }

 private:
  const FpCtx& fq_;
};

}  // namespace maabe::pairing
