// The N = 8 Montgomery kernels MontField chooses between (DESIGN.md §17),
// named so tests/math/field_test.cpp and bench/pairing_micro can run
// each one directly. Not part of the field API: everything else calls
// MontField::mul/sqr, which dispatch once at construction.
#pragma once

#include <cstdint>

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

}  // namespace maabe::math::detail
