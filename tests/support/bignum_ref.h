// Plain (non-Montgomery) modular arithmetic on Bignum: the slow,
// obviously-correct reference that the tests check MontField, Z_r, the
// LSSS solver and the pairing substrate against, and that
// bench/pairing_micro times as its division-based baseline. Nothing in
// the library calls these.
#pragma once

#include "math/bignum.h"

namespace maabe::math::reference {

/// a*b mod m; a and b need not be reduced.
Bignum mod_mul(const Bignum& a, const Bignum& b, const Bignum& m);
/// Square-and-multiply, one bit at a time. Throws MathError for m == 0.
Bignum mod_pow(const Bignum& base, const Bignum& exp, const Bignum& m);
/// Binary extended gcd for odd m; general extended Euclid otherwise.
/// Throws MathError when gcd(a, m) != 1 or m < 2.
Bignum mod_inverse(const Bignum& a, const Bignum& m);

}  // namespace maabe::math::reference
