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

#include <span>
#include <vector>

#include "pairing/curve.h"
#include "pairing/fp2.h"

namespace maabe::pairing {

/// Fewest live lanes that earn a fixed-base walk pass in
/// Group::g1_pow_with_batch_jac, and a row pass in G1FixedBase's build.
/// A walk pass costs about 2.2 scalar walks whatever its live lanes
/// (bench/pairing_micro `g1_table_pass_us` 68.5 us against
/// `g1_exp_table_us` 31.0 us on the paper curve, DESIGN.md section 24),
/// so three exponents gain and one or two stay scalar.
inline constexpr size_t kMinG1TableLanesPerPass = 3;

/// Window table for a fixed point of E(F_q).
class G1FixedBase {
 public:
  /// base must not be infinity; `exp_bits` is the maximum exponent
  /// length (the group order's bit length). The table is built in two
  /// phases: the digit bases B_d = base * 2^(w*d) by doublings, then
  /// the rows j * B_d (j >= 2) by mixed additions, each phase taken to
  /// affine with one inversion. The rows run eight at a time as passes
  /// on `lanes` when it is non-null; the table is the same either way,
  /// since affine coordinates are canonical. The first form passes the
  /// base field's IFMA view (MontField::lanes(), null without the
  /// kernels).
  G1FixedBase(const CurveCtx& curve, const AffinePoint& base, int exp_bits,
              int window_bits = 4)
      : G1FixedBase(curve, base, exp_bits, window_bits, curve.field().lanes()) {}
  G1FixedBase(const CurveCtx& curve, const AffinePoint& base, int exp_bits, int window_bits,
              const math::detail::LaneField* lanes);

  /// base^k (written multiplicatively) for 0 <= k < 2^exp_bits, left
  /// in Jacobian coordinates: callers convert with CurveCtx::to_affine,
  /// or a whole batch with one inversion via to_affine_batch.
  JacPoint pow_jac(const math::Bignum& k) const;

  /// tables[j]->pow_jac(*ks[j]) for up to eight lanes at once: pow_jac's
  /// walk over the digits as one pass of jac::chord + jac::add_chord on
  /// the lanes, each lane reading its own table's entry. The tables
  /// must share window and digit count and be finite(), and each k must
  /// be >= 1 and in range. out[j] gets the same residues as pow_jac,
  /// except in the lanes of the returned mask: an addition there met
  /// H = 0 (seen as z = 0 at the end), where pow_jac branches, and
  /// out[j] is left for the caller to take from pow_jac.
  static unsigned pow_jac_lanes(const math::detail::LaneField& lf,
                                std::span<const G1FixedBase* const> tables,
                                std::span<const math::Bignum* const> ks,
                                std::span<JacPoint> out);

  /// True when every entry j >= 1 is a finite point, as for every base
  /// of the order-r subgroup. Only such tables enter a lane walk.
  bool finite() const { return finite_; }
  /// Table entry base * (j << (w*d)), for tests and benches.
  const AffinePoint& entry(int d, int j) const { return table_[d][j]; }
  int digits() const { return digits_; }

 private:
  const CurveCtx& curve_;
  int window_bits_;
  int digits_;
  bool finite_ = true;
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
