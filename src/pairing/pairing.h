// Modified Tate pairing on the type-A curve.
//
//   e(P, Q) = f_{r,P}(phi(Q))^((q^2-1)/r),  phi(x, y) = (-x, i*y)
//
// Implementation notes:
//  * Miller loop in Jacobian coordinates; lines are scaled by arbitrary
//    F_q factors (killed by the final exponentiation), which removes all
//    inversions from the loop.
//  * Denominator elimination: vertical lines evaluate inside F_q because
//    x(phi(Q)) = -x_Q is in F_q, so they are skipped entirely.
//  * Final exponentiation splits as (q^2-1)/r = (q-1) * h:
//    f^(q-1) = conj(f) * f^{-1} (one Fp2 inversion), then
//    square-and-multiply by the cofactor h = (q+1)/r using cyclotomic
//    squarings (f^(q-1) has norm 1).
//  * Multi-pairing: miller_loop() exposes the unreduced Miller value so
//    products of pairings can be folded in F_{q^2} and pay ONE shared
//    final exponentiation. Because x -> x^((q^2-1)/r) is a group
//    homomorphism of F_{q^2}^* and the arithmetic is exact, the result
//    is bit-for-bit the same as multiplying individually reduced
//    pairings.
//  * PairingPrecomp caches the Miller-loop line coefficients of a fixed
//    first argument (the pairing analogue of G1FixedBase): evaluation
//    against a fresh Q then costs two F_q multiplications per line
//    instead of re-deriving tangents/chords and advancing the Jacobian
//    accumulator.
//  * Batches against one precomputed P (Group::pair_batch) run the
//    replay and the final exponentiation on eight Qs at once, as lanes
//    of the AVX-512 IFMA field (DESIGN.md §23): the same templated
//    formulas, so each lane is the residue the scalar path computes.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "math/field_kernels.h"
#include "pairing/curve.h"
#include "pairing/fp2.h"
#include "pairing/params.h"

namespace maabe::pairing {

class PairingCtx;

/// Precomputed Miller-loop line coefficients for a fixed first pairing
/// argument P. Every line the loop multiplies in evaluates at phi(Q) as
///   l(phi(Q)) = (c0 * x_q + c1) + (c2 * y_q) * i
/// with c0..c2 depending only on P (and the loop's Jacobian state,
/// which P determines). miller() replays the recorded schedule and is
/// bit-identical to PairingCtx::miller_loop(P, Q) — distributing the
/// line evaluation over the cached coefficients is exact in modular
/// arithmetic. Immutable after construction; safe for concurrent use.
class PairingPrecomp {
 public:
  PairingPrecomp(const PairingCtx& ctx, const AffinePoint& p);

  /// True when the fixed argument was the point at infinity; miller()
  /// then always returns 1.
  bool base_is_infinity() const { return inf_; }
  size_t line_count() const { return lines_.size(); }

  /// The unreduced Miller value f_{r,P}(phi(Q)).
  Fp2 miller(const AffinePoint& q) const;
  /// miller() for up to eight finite Qs at once: lane k of (qx, qy) is
  /// Q_k's affine coordinates, and lane k of the result is the residue
  /// miller(Q_k) gives. The lanes' copy of the coefficients is built on
  /// first use (thread-safe) and kept with the table: 3 x 80 bytes per
  /// line, 8 coefficients per conversion multiply.
  Fp2Of<math::detail::Lanes> miller_lanes(const math::detail::LaneField& lf,
                                          const math::detail::Lanes& qx,
                                          const math::detail::Lanes& qy) const;

 private:
  struct Line {
    std::array<FieldElem, 3> c;  ///< c0, c1, c2
    uint32_t sqrs_before;        ///< f-squarings preceding this line multiply
  };
  /// The replay over base field F; coef(i, j) is line i's c_j as an E.
  template <class F, class E, class Coef>
  Fp2Of<E> replay(const F& fq, const E& qx, const E& qy, const Coef& coef) const;

  const PairingCtx* ctx_;
  bool inf_ = false;
  std::vector<Line> lines_;
  uint32_t trailing_sqrs_ = 0;
  mutable std::once_flag lane_once_;
  mutable std::vector<std::array<math::detail::LaneLimbs, 3>> lane_lines_;
};

/// Bundles every context needed to evaluate pairings on one parameter
/// set. Cheap to construct; Group (group.h) owns one per instance.
class PairingCtx {
 public:
  explicit PairingCtx(const TypeAParams& params);

  const TypeAParams& params() const { return params_; }
  const FpCtx& fq() const { return fq_; }
  const Fp2Ctx& fq2() const { return fq2_; }
  const CurveCtx& curve() const { return curve_; }

  /// e(P, Q); symmetric and bilinear on the order-r subgroup. Returns 1
  /// if either input is the point at infinity.
  Fp2 pair(const AffinePoint& p, const AffinePoint& q) const;

  /// f_{r,P}(phi(Q)) — the Miller loop only, no final exponentiation.
  /// Returns 1 if either input is the point at infinity (so the value
  /// is always safe to fold into a shared product).
  Fp2 miller_loop(const AffinePoint& p, const AffinePoint& q) const;

  /// Maps an arbitrary f in F_{q^2}^* to the order-r target group.
  /// Throws MathError on zero.
  Fp2 final_exponentiation(const Fp2& f) const;
  /// final_exponentiation of lanes 0..out.size()-1 of `f` at once: the
  /// easy part as conj(f)^2 / N(f) with every norm inverted in one
  /// batch, the hard part by h over the lanes with cyclotomic squarings.
  /// out[k] gets lane k's value, the bits final_exponentiation gives,
  /// except in the lanes of the returned mask: there f is zero, out[k]
  /// is left alone, and final_exponentiation would throw.
  unsigned final_exponentiation_lanes(const math::detail::LaneField& lf,
                                      const Fp2Of<math::detail::Lanes>& f,
                                      std::span<Fp2> out) const;

 private:
  TypeAParams params_;
  FpCtx fq_;
  Fp2Ctx fq2_;
  CurveCtx curve_;
};

}  // namespace maabe::pairing
