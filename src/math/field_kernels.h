// The N = 8 Montgomery kernels MontField chooses between (DESIGN.md §17
// and §22), named so tests/math/field_test.cpp and bench/pairing_micro
// can run each one directly. Not part of the field API: everything else
// calls MontField::mul/sqr/pow_batch, which dispatch once at
// construction.
#pragma once

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
/// code around the kernels (window_pow, the radix conversions) compiles
/// without an AVX-512 target. Not over-aligned: GCC 12 has placed a
/// returned 64-byte-aligned temporary off its alignment, so the kernels
/// use unaligned loads and stores.
struct Lanes {
  static constexpr int kLanes = 8;
  uint64_t limb[LaneModulus::kLimbs][kLanes]{};
};

/// Fewest live lanes that earn a vector pass. A pass costs about 1.2
/// scalar exponentiations by (q+1)/4 on the paper curve whatever its
/// live-lane count (bench/pairing_micro `sqrt_pass_us` against
/// `sqrt_scalar_us`), so a batch runs in passes of eight, a remainder of
/// two or more runs as one pass padded with zero lanes, and a single
/// base runs on the scalar pow.
inline constexpr size_t kMinLanesPerPass = 2;

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

/// out[k] = bases[k]^exp for 1 <= bases.size() <= 8, Montgomery form
/// (R = 2^512) in and out, canonical: one window_pow over Lanes on the
/// two kernels above, unused lanes padded with zero. `p` is the modulus
/// of `m`. Call only when ifma_kernel_available().
void pow8_ifma(const LaneModulus& m, const FieldElem& p, std::span<const FieldElem> bases,
               const Bignum& exp, std::span<FieldElem> out);

}  // namespace maabe::math::detail
