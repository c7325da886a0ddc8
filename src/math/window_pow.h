// Sliding-window exponentiation over odd powers, shared by every
// exponentiation with a variable base and a variable exponent: F_q
// (MontField::pow) and F_{q^2} (Fp2Ctx::pow and pow_cyclotomic, which
// differ only in their squaring).
#pragma once

#include <algorithm>

#include "math/bignum.h"

namespace maabe::math {

/// base^exp for any monoid given as (one, mul, sqr). The exponent splits
/// into runs of zeros (one squaring per bit) and windows of at most w
/// bits that start and end on a set bit (w squarings, then one multiply
/// by the window's odd power). A 510-bit exponent with half its bits set
/// pays ~509 squarings + ~89 multiplies instead of 509 + 260, plus 16
/// for the table. Exact arithmetic makes the result the same value as
/// square-and-multiply; `sqr` must agree with mul(x, x) on every power
/// of `base`.
template <class T, class Mul, class Sqr>
T window_pow(const T& one, const T& base, const Bignum& exp, const Mul& mul,
             const Sqr& sqr) {
  const int bits = exp.bit_length();
  if (bits == 0) return one;
  const int w = bits > 256 ? 5 : bits > 64 ? 4 : bits > 16 ? 3 : bits > 4 ? 2 : 1;
  T odd[16];  // odd[k] = base^(2k+1)
  odd[0] = base;
  if (w > 1) {
    const T base2 = sqr(base);
    for (int k = 1; k < (1 << (w - 1)); ++k) odd[k] = mul(odd[k - 1], base2);
  }
  T result;
  bool first = true;  // the top bit is set, so the first step is a window
  for (int i = bits - 1; i >= 0;) {
    if (!exp.bit(i)) {
      result = sqr(result);
      --i;
      continue;
    }
    int low = std::max(i - w + 1, 0);
    while (!exp.bit(low)) ++low;
    int digit = 0;
    for (int b = i; b >= low; --b) digit = (digit << 1) | static_cast<int>(exp.bit(b));
    if (first) {
      result = odd[digit >> 1];
      first = false;
    } else {
      for (int b = i; b >= low; --b) result = sqr(result);
      result = mul(result, odd[digit >> 1]);
    }
    i = low - 1;
  }
  return result;
}

}  // namespace maabe::math
