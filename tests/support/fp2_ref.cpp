#include "fp2_ref.h"

namespace maabe::pairing::reference {

Fp2 fp2_pow(const Fp2Ctx& fq2, const Fp2& base, const math::Bignum& exp) {
  Fp2 result = fq2.one();
  for (int i = exp.bit_length() - 1; i >= 0; --i) {
    result = fq2.sqr(result);
    if (exp.bit(i)) result = fq2.mul(result, base);
  }
  return result;
}

Fp2 fp2_pow_cyclotomic(const Fp2Ctx& fq2, const Fp2& base, const math::Bignum& exp) {
  Fp2 result = fq2.one();
  for (int i = exp.bit_length() - 1; i >= 0; --i) {
    result = fq2.sqr_cyclotomic(result);
    if (exp.bit(i)) result = fq2.mul(result, base);
  }
  return result;
}

}  // namespace maabe::pairing::reference
