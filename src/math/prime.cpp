#include "math/prime.h"

#include "common/errors.h"
#include "math/field.h"

namespace maabe::math {

namespace {

constexpr uint64_t kBases[] = {2,  3,  5,  7,  11, 13, 17, 19, 23, 29,
                               31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                               73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
                               127, 131, 137, 139, 149, 151, 157, 163, 167, 173};

}  // namespace

bool is_probable_prime(const Bignum& n) {
  if (n.bit_length() > 64 * FieldElem::kLimbs)
    throw MathError("is_probable_prime: n exceeds 512 bits");
  if (n.bit_length() <= 6) {
    const uint64_t v = n.to_u64();
    for (uint64_t p : kBases) {
      if (v == p) return true;
      if (v % p == 0) return false;
    }
    return v > 1;
  }
  if (!n.is_odd()) return false;

  // Cheap trial division first (n may itself be one of the small primes).
  // An n that gets past it exceeds 173, so every base is below n.
  for (uint64_t p : kBases) {
    if (Bignum::mod(n, Bignum::from_u64(p)).is_zero())
      return n.bit_length() <= 8 && n.to_u64() == p;
  }

  // n-1 = d * 2^s with d odd.
  int s = 0;
  Bignum d = Bignum::sub(n, Bignum::from_u64(1));
  while (!d.is_odd()) {
    d = Bignum::shr(d, 1);
    ++s;
  }

  const MontField mont(n);
  const FieldElem one_m = mont.one();
  const FieldElem minus_one_m = mont.neg(one_m);

  for (uint64_t base : kBases) {
    FieldElem x = mont.pow(mont.to_mont(FieldElem::from_u64(base)), d);
    if (x == one_m || x == minus_one_m) continue;
    bool witness = true;
    for (int r = 1; r < s; ++r) {
      x = mont.sqr(x);
      if (x == minus_one_m) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

}  // namespace maabe::math
