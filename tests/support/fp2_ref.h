// Square-and-multiply exponentiation in F_{q^2}, one bit at a time: the
// loop Fp2Ctx::pow and Fp2Ctx::pow_cyclotomic ran before they moved to
// the sliding-window routine, kept as the reference the window tests
// check against. Nothing in the library calls these.
#pragma once

#include "pairing/fp2.h"

namespace maabe::pairing::reference {

/// base^exp with generic squarings.
Fp2 fp2_pow(const Fp2Ctx& fq2, const Fp2& base, const math::Bignum& exp);
/// base^exp with cyclotomic squarings; base must satisfy is_norm_one.
Fp2 fp2_pow_cyclotomic(const Fp2Ctx& fq2, const Fp2& base, const math::Bignum& exp);

}  // namespace maabe::pairing::reference
