// Fixed-base windowed exponentiation.
//
// Every algorithm in the scheme exponentiates the same two bases over
// and over: the generator g (KeyGen, Encrypt) and e(g,g) (Encrypt,
// authority public keys). Precomputing radix-2^w digit tables
//   T[d][j] = base^(j * 2^(w*d)),  j in [0, 2^w)
// turns a b-bit exponentiation into ceil(b/w) group operations with no
// doublings/squarings — a 4-6x speedup for w = 4 at 160-bit exponents.
//
// The tables are built once per Group (see group.h) and shared by all
// callers; lookups are value-dependent (NOT constant-time, like the rest
// of this research library).
#pragma once

#include <vector>

#include "pairing/curve.h"
#include "pairing/fp2.h"

namespace maabe::pairing {

/// Window table for a fixed point of E(F_q).
class G1FixedBase {
 public:
  /// base must not be infinity; `exp_bits` is the maximum exponent
  /// length (the group order's bit length).
  G1FixedBase(const CurveCtx& curve, const AffinePoint& base, int exp_bits,
              int window_bits = 4);

  /// base^k (written multiplicatively) for 0 <= k < 2^exp_bits, left
  /// in Jacobian coordinates: callers convert with CurveCtx::to_affine,
  /// or a whole batch with one inversion via to_affine_batch.
  JacPoint pow_jac(const math::Bignum& k) const;

 private:
  const CurveCtx& curve_;
  int window_bits_;
  int digits_;
  /// table_[d][j] = base * (j << (w*d)); j = 0 entries stay infinity.
  std::vector<std::vector<AffinePoint>> table_;
};

/// Window table for a fixed element of the order-r subgroup of F_{q^2}.
class GtFixedBase {
 public:
  GtFixedBase(const Fp2Ctx& fq2, const Fp2& base, int exp_bits, int window_bits = 4);

  Fp2 pow(const math::Bignum& k) const;

 private:
  const Fp2Ctx& fq2_;
  int window_bits_;
  int digits_;
  std::vector<std::vector<Fp2>> table_;
};

}  // namespace maabe::pairing
