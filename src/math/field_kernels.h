// The N = 8 Montgomery kernels MontField chooses between (DESIGN.md §17
// and §22), named so tests/math/field_test.cpp and bench/pairing_micro
// can run each one directly, and the 8-lane IFMA field built on them
// (§23). Not part of the scalar field API: everything else calls
// MontField::mul/sqr/pow_batch, which dispatch once at construction;
// the pairing layer's batch passes reach LaneField through
// MontField::lanes().
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "math/field.h"

namespace maabe::math::detail {

/// -p^{-1} mod 2^64 for odd p0 (the low limb of p).
uint64_t mont_n0(uint64_t p0);

/// Portable CIOS multiply / SOS square for an 8-limb modulus.
FieldElem mont_mul8_portable(const FieldElem& a, const FieldElem& b, const FieldElem& p,
                             uint64_t n0);
FieldElem mont_sqr8_portable(const FieldElem& a, const FieldElem& p, uint64_t n0);

/// True when this build carries the BMI2/ADX kernel (x86-64 ELF, GCC
/// or Clang) and CPUID reports both bmi2 and adx. Computed once.
bool adx_kernel_available();

/// mulx/adcx/adox CIOS multiply for an 8-limb modulus. Call only when
/// adx_kernel_available(); a, b < p.
FieldElem mont_mul8_adx(const FieldElem& a, const FieldElem& b, const FieldElem& p,
                        uint64_t n0);

/// Eight residues mod an 8-limb modulus, one per lane, in ten radix-2^52
/// limbs: limb[i][k] is limb i of lane k. Plain words, so the shared
/// code around the kernels (window_pow, the Fp2 and curve formulas, the
/// radix conversions) compiles without an AVX-512 target. Not
/// over-aligned: GCC 12 has placed a returned 64-byte-aligned temporary
/// off its alignment, so the kernels use unaligned loads and stores.
struct Lanes {
  static constexpr int kLanes = 8;
  uint64_t limb[LaneModulus::kLimbs][kLanes]{};
};

/// One lane's ten radix-2^52 limbs.
using LaneLimbs = std::array<uint64_t, LaneModulus::kLimbs>;

/// Fewest live lanes that earn a vector exponentiation pass. A pass
/// costs about 1.2 scalar exponentiations by (q+1)/4 on the paper curve
/// whatever its live-lane count (bench/pairing_micro `sqrt_pass_us`
/// against `sqrt_scalar_us`), so a batch runs in passes of eight, a
/// remainder of two or more runs as one pass padded with zero lanes, and
/// a single base runs on the scalar pow.
inline constexpr size_t kMinLanesPerPass = 2;

/// Runs the items `live` in passes of up to eight: `lanes(pass)` on each
/// pass of at least `min_lanes` items when `has_lanes`, which returns
/// the mask of the pass's items it left undone; `scalar(i)` on every
/// item left undone and on every other pass.
template <class LanePass, class Scalar>
void run_passes(std::span<const size_t> live, bool has_lanes, size_t min_lanes,
                const LanePass& lanes, const Scalar& scalar) {
  for (size_t at = 0; at < live.size(); at += Lanes::kLanes) {
    const std::span<const size_t> pass =
        live.subspan(at, std::min<size_t>(Lanes::kLanes, live.size() - at));
    unsigned left = (1u << pass.size()) - 1;
    if (has_lanes && pass.size() >= min_lanes) left = lanes(pass);
    for (size_t j = 0; j < pass.size(); ++j)
      if (left >> j & 1) scalar(pass[j]);
  }
}

/// The LaneModulus of an odd modulus of at most 512 bits.
LaneModulus lane_modulus(const Bignum& p);

/// True when this build carries the AVX-512 IFMA kernels (x86-64, GCC or
/// Clang), CPUID reports avx512f and avx512ifma, and XCR0 shows the OS
/// saving the opmask and ZMM state. Computed once.
bool ifma_kernel_available();

/// Lane-wise Montgomery product a*b/R' and square a*a/R' (vpmadd52luq /
/// vpmadd52huq; word-by-word multiply, SOS square). Inputs have every
/// limb below 2^52 and each lane below 2p; so do the outputs, which stay
/// below 2p because 4p < R'. Call only when ifma_kernel_available().
Lanes mont_mul52x8_ifma(const Lanes& a, const Lanes& b, const LaneModulus& m);
Lanes mont_sqr52x8_ifma(const Lanes& a, const LaneModulus& m);
/// Lane-wise a + b, a - b and -a modulo p, on the same representation:
/// every limb below 2^52 and each lane in [0, 2p), in and out (one
/// conditional subtraction or addition of 2p). Representation-agnostic,
/// like MontField::add/sub/neg. Call only when ifma_kernel_available().
Lanes lane_add52x8_ifma(const Lanes& a, const Lanes& b, const LaneModulus& m);
Lanes lane_sub52x8_ifma(const Lanes& a, const Lanes& b, const LaneModulus& m);
Lanes lane_neg52x8_ifma(const Lanes& a, const LaneModulus& m);

/// An 8-limb field as eight lanes (DESIGN.md §22-23): the kernels above
/// behind the method names of MontField, so the formulas written as
/// templates over a field (window_pow, the Fp2 and curve formulas, the
/// Miller replay) run on it unchanged, eight residues at a time. Lanes
/// are in Montgomery form with R' = 2^520 and lie in [0, 2p); each is
/// the residue the scalar field computes, and from_lanes returns it
/// canonical, so a lane's result has the scalar result's bits. Obtain
/// one through MontField::lanes(), which is null unless
/// ifma_kernel_available().
class LaneField {
 public:
  explicit LaneField(const Bignum& p);

  Lanes mul(const Lanes& a, const Lanes& b) const { return mont_mul52x8_ifma(a, b, m_); }
  Lanes sqr(const Lanes& a) const { return mont_sqr52x8_ifma(a, m_); }
  Lanes add(const Lanes& a, const Lanes& b) const { return lane_add52x8_ifma(a, b, m_); }
  Lanes sub(const Lanes& a, const Lanes& b) const { return lane_sub52x8_ifma(a, b, m_); }
  Lanes neg(const Lanes& a) const { return lane_neg52x8_ifma(a, m_); }
  Lanes dbl(const Lanes& a) const { return add(a, a); }
  Lanes zero() const { return Lanes(); }
  /// R' mod p in every lane.
  const Lanes& one() const { return one_; }

  /// Lane k holds xs[k] (Montgomery form, R = 2^512, below p) as a
  /// lane value; lanes from xs.size() on hold zero. 1 <= xs.size() <= 8.
  Lanes to_lanes(std::span<const FieldElem> xs) const;
  /// out[k] = lane k of x, canonical and in Montgomery form (R = 2^512),
  /// for k < out.size() <= 8.
  void from_lanes(const Lanes& x, std::span<FieldElem> out) const;
  /// Every lane set to `limbs` (a lane value kept in compact form).
  static Lanes broadcast(const LaneLimbs& limbs);
  /// Lane k's limbs.
  static LaneLimbs lane(const Lanes& x, int k);
  /// Bit k set when lane k is 0 mod p (all limbs zero, or equal to p).
  unsigned zero_mask(const Lanes& x) const;
  /// Lane k of a where bit k of mask is set, else lane k of b: a plain
  /// word blend, for passes whose lanes take different branches.
  static Lanes select(unsigned mask, const Lanes& a, const Lanes& b);

  /// out[k] = bases[k]^exp for 1 <= bases.size() <= 8, Montgomery form
  /// (R = 2^512) in and out, canonical: one window_pow over the lanes,
  /// unused lanes padded with zero.
  void pow(std::span<const FieldElem> bases, const Bignum& exp,
           std::span<FieldElem> out) const;

 private:
  LaneModulus m_;
  FieldElem p_;
  Lanes one_;         // R' mod p
  Lanes to_lanes_;    // 2^528 mod p: aR -> aR'
  Lanes from_lanes_;  // 2^512 mod p: aR' -> aR
};

}  // namespace maabe::math::detail
