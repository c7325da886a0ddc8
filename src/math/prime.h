// Primality testing.
//
// Miller-Rabin with fixed small-prime bases. For the parameter-generation
// use case (random candidates, not adversarial inputs) 40 bases give a
// composite-acceptance probability far below 4^-40.
#pragma once

#include "math/bignum.h"

namespace maabe::math {

/// Miller-Rabin probable-prime test over all 40 built-in small-prime
/// bases, run on the fixed-width Montgomery field (math/field.h). n must
/// be at most 512 bits — the widest modulus the scheme uses — and a
/// wider n throws MathError.
bool is_probable_prime(const Bignum& n);

}  // namespace maabe::math
