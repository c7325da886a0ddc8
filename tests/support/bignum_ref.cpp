#include "bignum_ref.h"

#include "common/errors.h"

namespace maabe::math::reference {

Bignum mod_mul(const Bignum& a, const Bignum& b, const Bignum& m) {
  return Bignum::mod(Bignum::mul(a, b), m);
}

Bignum mod_pow(const Bignum& base, const Bignum& exp, const Bignum& m) {
  if (m.is_zero()) throw MathError("mod_pow: zero modulus");
  if (m.is_one()) return Bignum();
  Bignum result = Bignum::from_u64(1);
  const Bignum b = Bignum::mod(base, m);
  for (int i = exp.bit_length() - 1; i >= 0; --i) {
    result = mod_mul(result, result, m);
    if (exp.bit(i)) result = mod_mul(result, b, m);
  }
  return result;
}

namespace {

// Extended Euclid with coefficients tracked modulo m (avoids signed bignums:
// each update t_{k+1} = t_{k-1} - q*t_k is computed in Z_m).
Bignum inverse_euclid(const Bignum& a, const Bignum& m) {
  Bignum r0 = m, r1 = Bignum::mod(a, m);
  Bignum t0, t1 = Bignum::from_u64(1);
  while (!r1.is_zero()) {
    Bignum q, r2;
    Bignum::divmod(r0, r1, &q, &r2);
    const Bignum qt = Bignum::mod(Bignum::mul(Bignum::mod(q, m), t1), m);
    const Bignum t2 = Bignum::mod_sub(t0, qt, m);
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t1 = t2;
  }
  if (!r0.is_one()) throw MathError("mod_inverse: element not invertible");
  return t0;
}

// Bit-at-a-time binary extended gcd; m must be odd.
Bignum inverse_binary(const Bignum& a, const Bignum& m) {
  Bignum u = Bignum::mod(a, m);
  if (u.is_zero()) throw MathError("mod_inverse: zero is not invertible");
  Bignum v = m;
  Bignum x1 = Bignum::from_u64(1);
  Bignum x2;
  const auto half_mod = [&m](Bignum x) {
    if (x.is_odd()) x = Bignum::add(x, m);
    return Bignum::shr(x, 1);
  };
  while (!u.is_one() && !v.is_one()) {
    while (!u.is_odd()) {
      u = Bignum::shr(u, 1);
      x1 = half_mod(x1);
    }
    while (!v.is_odd()) {
      v = Bignum::shr(v, 1);
      x2 = half_mod(x2);
    }
    if (Bignum::cmp(u, v) >= 0) {
      u = Bignum::sub(u, v);
      x1 = Bignum::mod_sub(x1, x2, m);
    } else {
      v = Bignum::sub(v, u);
      x2 = Bignum::mod_sub(x2, x1, m);
    }
    if (u.is_zero() || v.is_zero()) throw MathError("mod_inverse: element not invertible");
  }
  return u.is_one() ? x1 : x2;
}

}  // namespace

Bignum mod_inverse(const Bignum& a, const Bignum& m) {
  if (m.is_zero() || m.is_one()) throw MathError("mod_inverse: bad modulus");
  return m.is_odd() ? inverse_binary(a, m) : inverse_euclid(a, m);
}

}  // namespace maabe::math::reference
