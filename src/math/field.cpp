#include "math/field.h"

#include <algorithm>
#include <bit>

#include "common/errors.h"
#include "math/field_kernels.h"

#if defined(__x86_64__) && defined(__GNUC__) && defined(__ELF__)
#define MAABE_FIELD_ADX 1
#include <cpuid.h>
#else
#define MAABE_FIELD_ADX 0
#endif

namespace maabe::math {

using u128 = unsigned __int128;

FieldElem::FieldElem(const Bignum& v) {
  if (v.limb_count() > kLimbs) throw MathError("FieldElem: value exceeds 512 bits");
  for (int i = 0; i < kLimbs; ++i) l[i] = v.limb(i);
}

FieldElem::operator Bignum() const { return Bignum::from_limbs_le(l.data(), kLimbs); }

namespace {

// ------------------------------------------------------------ kernels --
// Each kernel is instantiated for N = 1..8 limbs; loops over N are fully
// unrolled by the compiler. Limbs N..7 of every input are zero and stay
// zero in every output.

/// t[0..N] < 2p  ->  t mod p.
template <int N>
FieldElem reduce_once(const uint64_t* t, const FieldElem& p) {
  FieldElem out, d;
  uint64_t borrow = 0;
  for (int i = 0; i < N; ++i) {
    const u128 s = u128(t[i]) - p.l[i] - borrow;
    d.l[i] = static_cast<uint64_t>(s);
    borrow = static_cast<uint64_t>(s >> 64) & 1;
  }
  // t >= p iff the carry limb is set or subtracting p did not borrow.
  const uint64_t keep_d = 0 - (t[N] | (borrow ^ 1));
  for (int i = 0; i < N; ++i) out.l[i] = (d.l[i] & keep_d) | (t[i] & ~keep_d);
  return out;
}

/// lo + hi*2^64 = a*b + t + c; returns lo and leaves hi in c. The
/// halves are added as 64-bit words with explicit carries: GCC turns
/// that into add/adc pairs, where an unsigned __int128 sum gets spilled.
inline uint64_t mac(uint64_t a, uint64_t b, uint64_t t, uint64_t& c) {
  const u128 pr = u128(a) * b;
  uint64_t lo = static_cast<uint64_t>(pr);
  uint64_t hi = static_cast<uint64_t>(pr >> 64);
  lo += t;
  hi += lo < t;
  lo += c;
  hi += lo < c;
  c = hi;
  return lo;
}

/// CIOS Montgomery product a*b*R^-1 mod p.
template <int N>
FieldElem mont_mul(const FieldElem& a, const FieldElem& b, const FieldElem& p, uint64_t n0) {
  uint64_t t[N + 2] = {};
  for (int i = 0; i < N; ++i) {
    uint64_t c = 0;
    for (int j = 0; j < N; ++j) t[j] = mac(a.l[i], b.l[j], t[j], c);
    t[N] += c;
    t[N + 1] = t[N] < c;

    // t = (t + m*p) / 2^64; the low word is zero by choice of m.
    const uint64_t m = t[0] * n0;
    c = 0;
    (void)mac(m, p.l[0], t[0], c);
    for (int j = 1; j < N; ++j) t[j - 1] = mac(m, p.l[j], t[j], c);
    t[N - 1] = t[N] + c;
    t[N] = t[N + 1] + (t[N - 1] < c);
  }
  return reduce_once<N>(t, p);
}

/// SOS Montgomery square: the 2N-limb square from N(N-1)/2 cross
/// products (doubled) plus N diagonal terms, then N reduction passes.
/// Same value as mont_mul(a, a).
template <int N>
FieldElem mont_sqr(const FieldElem& a, const FieldElem& p, uint64_t n0) {
  uint64_t t[2 * N + 1] = {};
  for (int i = 0; i < N; ++i) {
    uint64_t c = 0;
    for (int j = i + 1; j < N; ++j) t[i + j] = mac(a.l[i], a.l[j], t[i + j], c);
    t[i + N] = c;
  }
  // Double the cross products (they are < a^2 / 2, so no overflow out
  // of 2N limbs), then add the diagonal squares.
  for (int k = 2 * N - 1; k > 0; --k) t[k] = (t[k] << 1) | (t[k - 1] >> 63);
  t[0] <<= 1;
  uint64_t c = 0;
  for (int i = 0; i < N; ++i) {
    t[2 * i] = mac(a.l[i], a.l[i], t[2 * i], c);
    t[2 * i + 1] += c;
    c = t[2 * i + 1] < c;
  }
  // N reduction passes, each clearing one low limb; the carry out of
  // pass i is folded into limb i+N+1 by pass i+1 (or lands in t[2N]).
  uint64_t extra = 0;
  for (int i = 0; i < N; ++i) {
    const uint64_t m = t[i] * n0;
    uint64_t cc = 0;
    for (int j = 0; j < N; ++j) t[i + j] = mac(m, p.l[j], t[i + j], cc);
    t[i + N] += cc;
    uint64_t carry = t[i + N] < cc;
    t[i + N] += extra;
    carry += t[i + N] < extra;
    extra = carry;
  }
  t[2 * N] = extra;
  return reduce_once<N>(t + N, p);
}

// N-limb helpers for the gcd.

template <int N>
bool is_one(const uint64_t* x) {
  uint64_t acc = x[0] ^ 1;
  for (int i = 1; i < N; ++i) acc |= x[i];
  return acc == 0;
}

template <int N>
bool is_zero(const uint64_t* x) {
  uint64_t acc = 0;
  for (int i = 0; i < N; ++i) acc |= x[i];
  return acc == 0;
}

/// x >>= k for 0 < k < 64.
template <int N>
void shr(uint64_t* x, int k) {
  for (int i = 0; i < N - 1; ++i) x[i] = (x[i] >> k) | (x[i + 1] << (64 - k));
  x[N - 1] >>= k;
}

/// x -= y, returning the borrow.
template <int N>
uint64_t sub_in(uint64_t* x, const uint64_t* y) {
  uint64_t borrow = 0;
  for (int i = 0; i < N; ++i) {
    const u128 s = u128(x[i]) - y[i] - borrow;
    x[i] = static_cast<uint64_t>(s);
    borrow = static_cast<uint64_t>(s >> 64) & 1;
  }
  return borrow;
}

/// x += y & mask, returning the carry.
template <int N>
uint64_t add_masked(uint64_t* x, const uint64_t* y, uint64_t mask) {
  uint64_t carry = 0;
  for (int i = 0; i < N; ++i) {
    const u128 s = u128(x[i]) + (y[i] & mask) + carry;
    x[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  return carry;
}

/// x = x / 2 mod p (p odd): add p when x is odd, then shift in the carry.
template <int N>
void half_mod(uint64_t* x, const uint64_t* p) {
  const uint64_t carry = add_masked<N>(x, p, 0 - (x[0] & 1));
  shr<N>(x, 1);
  x[N - 1] |= carry << 63;
}

/// x = x - y mod p.
template <int N>
void sub_mod(uint64_t* x, const uint64_t* y, const uint64_t* p) {
  const uint64_t borrow = sub_in<N>(x, y);
  add_masked<N>(x, p, 0 - borrow);
}

template <int N>
bool greater_equal(const uint64_t* x, const uint64_t* y) {
  for (int i = N - 1; i >= 0; --i)
    if (x[i] != y[i]) return x[i] > y[i];
  return true;
}

/// Binary extended gcd on a reduced nonzero a, for odd p: out = a^-1
/// mod p. Returns false when gcd(a, p) != 1. The invariants are
/// x1*a == u and x2*a == v (mod p); the same algorithm as
/// Bignum::mod_inverse, on fixed-width limbs.
template <int N>
bool gcd_inverse(const FieldElem& a, const FieldElem& p, FieldElem* out) {
  uint64_t u[N], v[N], x1[N] = {1}, x2[N] = {};
  for (int i = 0; i < N; ++i) {
    u[i] = a.l[i];
    v[i] = p.l[i];
  }
  if (is_zero<N>(u)) return false;
  while (!is_one<N>(u) && !is_one<N>(v)) {
    while ((u[0] & 1) == 0) {
      // u is nonzero here, so the loop ends; strip trailing zeros in
      // one shift, halving x1 once per bit.
      const int k = u[0] == 0 ? 63 : std::countr_zero(u[0]);
      shr<N>(u, k);
      for (int b = 0; b < k; ++b) half_mod<N>(x1, p.l.data());
    }
    while ((v[0] & 1) == 0) {
      const int k = v[0] == 0 ? 63 : std::countr_zero(v[0]);
      shr<N>(v, k);
      for (int b = 0; b < k; ++b) half_mod<N>(x2, p.l.data());
    }
    if (greater_equal<N>(u, v)) {
      sub_in<N>(u, v);
      sub_mod<N>(x1, x2, p.l.data());
    } else {
      sub_in<N>(v, u);
      sub_mod<N>(x2, x1, p.l.data());
    }
    if (is_zero<N>(u) || is_zero<N>(v)) return false;
  }
  const uint64_t* r = is_one<N>(u) ? x1 : x2;
  *out = FieldElem();
  for (int i = 0; i < N; ++i) out->l[i] = r[i];
  return true;
}

}  // namespace

#if MAABE_FIELD_ADX
// ------------------------------------------------------- ADX kernel --
// CIOS Montgomery multiply for N = 8 on BMI2/ADX: mulx forms each
// 64x64 product without touching the flags, so the low halves ride the
// CF chain (adcx) and the high halves the OF chain (adox) through one
// pass. The accumulator is ten registers, t0..t8 plus the 10th carry
// word t9: q has its top bit set, so t + a_i*b + m*p can pass 2^576
// (it stays below 2^577) and there is no spare bit to fold the carry
// into. Each round is a
// multiply pass (t += a_i*b) then a reduction pass (t += m*p, which
// zeroes t0); the next round renames t1..t9,t0 as t0..t9, so the shift
// by one word is free. rbp is never touched (the sanitizer presets keep
// frame pointers), and the C++ wrapper below calls the function
// directly. Frame: 0 = zero word (a memory source for adcx/adox),
// 8 = out, 16 = a, 24 = b, 32 = p, 40 = n0.
//
// void maabe_mont_mul8_adx(uint64_t* out, const uint64_t* a,
//                          const uint64_t* b, const uint64_t* p,
//                          uint64_t n0)
asm(R"(
  .pushsection .text
  .macro maabe_adx_mac off, lo, hi
    mulx \off(%rsi), %rax, %rdi
    adcx %rax, \lo
    adox %rdi, \hi
  .endm
  # t0..t9 += rdx * (8 limbs at rsi); CF and OF clear on entry.
  .macro maabe_adx_pass t0, t1, t2, t3, t4, t5, t6, t7, t8, t9
    maabe_adx_mac 0, \t0, \t1
    maabe_adx_mac 8, \t1, \t2
    maabe_adx_mac 16, \t2, \t3
    maabe_adx_mac 24, \t3, \t4
    maabe_adx_mac 32, \t4, \t5
    maabe_adx_mac 40, \t5, \t6
    maabe_adx_mac 48, \t6, \t7
    maabe_adx_mac 56, \t7, \t8
    adcx 0(%rsp), \t8
    adox 0(%rsp), \t9
    adcx 0(%rsp), \t9
  .endm
  .macro maabe_adx_round i, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9
    mov 16(%rsp), %rdx
    mov 8*\i(%rdx), %rdx
    mov 24(%rsp), %rsi
    xor \t9, \t9
    maabe_adx_pass \t0, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8, \t9
    mov \t0, %rdx
    imul 40(%rsp), %rdx
    mov 32(%rsp), %rsi
    xor %eax, %eax
    maabe_adx_pass \t0, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8, \t9
  .endm

  .p2align 4
  .globl maabe_mont_mul8_adx
  .hidden maabe_mont_mul8_adx
  .type maabe_mont_mul8_adx, @function
maabe_mont_mul8_adx:
  .cfi_startproc
  push %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_offset %rbx, -16
  push %r12
  .cfi_adjust_cfa_offset 8
  .cfi_offset %r12, -24
  push %r13
  .cfi_adjust_cfa_offset 8
  .cfi_offset %r13, -32
  push %r14
  .cfi_adjust_cfa_offset 8
  .cfi_offset %r14, -40
  push %r15
  .cfi_adjust_cfa_offset 8
  .cfi_offset %r15, -48
  sub $48, %rsp
  .cfi_adjust_cfa_offset 48
  movq $0, 0(%rsp)
  mov %rdi, 8(%rsp)
  mov %rsi, 16(%rsp)
  mov %rdx, 24(%rsp)
  mov %rcx, 32(%rsp)
  mov %r8, 40(%rsp)
  xor %r8d, %r8d
  xor %r9d, %r9d
  xor %r10d, %r10d
  xor %r11d, %r11d
  xor %r12d, %r12d
  xor %r13d, %r13d
  xor %r14d, %r14d
  xor %r15d, %r15d
  xor %ebx, %ebx
  maabe_adx_round 0, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15, %rbx, %rcx
  maabe_adx_round 1, %r9, %r10, %r11, %r12, %r13, %r14, %r15, %rbx, %rcx, %r8
  maabe_adx_round 2, %r10, %r11, %r12, %r13, %r14, %r15, %rbx, %rcx, %r8, %r9
  maabe_adx_round 3, %r11, %r12, %r13, %r14, %r15, %rbx, %rcx, %r8, %r9, %r10
  maabe_adx_round 4, %r12, %r13, %r14, %r15, %rbx, %rcx, %r8, %r9, %r10, %r11
  maabe_adx_round 5, %r13, %r14, %r15, %rbx, %rcx, %r8, %r9, %r10, %r11, %r12
  maabe_adx_round 6, %r14, %r15, %rbx, %rcx, %r8, %r9, %r10, %r11, %r12, %r13
  maabe_adx_round 7, %r15, %rbx, %rcx, %r8, %r9, %r10, %r11, %r12, %r13, %r14
  # t = rbx,rcx,r8..r13 (low to high) + r14 * 2^512 < 2p. Store t,
  # subtract p in registers, and restore the stored t when that borrows
  # out of the carry word (t < p).
  mov 8(%rsp), %rdx
  mov 32(%rsp), %rsi
  mov %rbx, 0(%rdx)
  mov %rcx, 8(%rdx)
  mov %r8, 16(%rdx)
  mov %r9, 24(%rdx)
  mov %r10, 32(%rdx)
  mov %r11, 40(%rdx)
  mov %r12, 48(%rdx)
  mov %r13, 56(%rdx)
  sub 0(%rsi), %rbx
  sbb 8(%rsi), %rcx
  sbb 16(%rsi), %r8
  sbb 24(%rsi), %r9
  sbb 32(%rsi), %r10
  sbb 40(%rsi), %r11
  sbb 48(%rsi), %r12
  sbb 56(%rsi), %r13
  sbb $0, %r14
  cmovc 0(%rdx), %rbx
  cmovc 8(%rdx), %rcx
  cmovc 16(%rdx), %r8
  cmovc 24(%rdx), %r9
  cmovc 32(%rdx), %r10
  cmovc 40(%rdx), %r11
  cmovc 48(%rdx), %r12
  cmovc 56(%rdx), %r13
  mov %rbx, 0(%rdx)
  mov %rcx, 8(%rdx)
  mov %r8, 16(%rdx)
  mov %r9, 24(%rdx)
  mov %r10, 32(%rdx)
  mov %r11, 40(%rdx)
  mov %r12, 48(%rdx)
  mov %r13, 56(%rdx)
  add $48, %rsp
  .cfi_adjust_cfa_offset -48
  pop %r15
  .cfi_adjust_cfa_offset -8
  pop %r14
  .cfi_adjust_cfa_offset -8
  pop %r13
  .cfi_adjust_cfa_offset -8
  pop %r12
  .cfi_adjust_cfa_offset -8
  pop %rbx
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size maabe_mont_mul8_adx, .-maabe_mont_mul8_adx
  .popsection
)");

extern "C" void maabe_mont_mul8_adx(uint64_t* out, const uint64_t* a, const uint64_t* b,
                                    const uint64_t* p, uint64_t n0);
#endif  // MAABE_FIELD_ADX

namespace detail {

uint64_t mont_n0(uint64_t p0) {
  // Newton-Hensel lifting: x*p == 1 mod 8 to start for odd p; each step
  // doubles the correct bits.
  uint64_t x = p0;
  for (int i = 0; i < 6; ++i) x *= 2 - p0 * x;
  return 0 - x;
}

FieldElem mont_mul8_portable(const FieldElem& a, const FieldElem& b, const FieldElem& p,
                             uint64_t n0) {
  return mont_mul<8>(a, b, p, n0);
}

FieldElem mont_sqr8_portable(const FieldElem& a, const FieldElem& p, uint64_t n0) {
  return mont_sqr<8>(a, p, n0);
}

bool adx_kernel_available() {
#if MAABE_FIELD_ADX
  static const bool available = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    return (ebx & bit_BMI2) != 0 && (ebx & bit_ADX) != 0;
  }();
  return available;
#else
  return false;
#endif
}

FieldElem mont_mul8_adx(const FieldElem& a, const FieldElem& b, const FieldElem& p,
                        uint64_t n0) {
#if MAABE_FIELD_ADX
  FieldElem out;
  maabe_mont_mul8_adx(out.l.data(), a.l.data(), b.l.data(), p.l.data(), n0);
  return out;
#else
  return mont_mul<8>(a, b, p, n0);  // unreachable: adx_kernel_available() is false
#endif
}

}  // namespace detail

namespace {

/// The ADX path squares with the multiply (a == b): in bench/pairing_micro
/// that already beats the portable SOS square, so there is no second
/// assembly kernel for squaring.
FieldElem mont_sqr8_adx(const FieldElem& a, const FieldElem& p, uint64_t n0) {
  return detail::mont_mul8_adx(a, a, p, n0);
}

}  // namespace

MontField::MontField(const Bignum& modulus) : modulus_(modulus) {
  if (!modulus.is_odd() || modulus.bit_length() < 2)
    throw MathError("MontField: modulus must be odd and >= 3");
  if (modulus.limb_count() > FieldElem::kLimbs)
    throw MathError("MontField: modulus exceeds 512 bits");
  n_ = modulus.limb_count();
  bits_ = modulus.bit_length();
  p_ = FieldElem(modulus);

  switch (n_) {
#define MAABE_FIELD_KERNELS(N)  \
  case N:                       \
    mul_ = &mont_mul<N>;        \
    sqr_ = &mont_sqr<N>;        \
    inv_ = &gcd_inverse<N>;     \
    break;
    MAABE_FIELD_KERNELS(1)
    MAABE_FIELD_KERNELS(2)
    MAABE_FIELD_KERNELS(3)
    MAABE_FIELD_KERNELS(4)
    MAABE_FIELD_KERNELS(5)
    MAABE_FIELD_KERNELS(6)
    MAABE_FIELD_KERNELS(7)
    MAABE_FIELD_KERNELS(8)
#undef MAABE_FIELD_KERNELS
  }
  // The paper field (8 limbs) runs on the mulx/adcx/adox kernel when
  // the CPU has it; every other width, and CPUs without ADX, stay on
  // the portable kernels. Both produce the same canonical residues.
  if (n_ == 8 && detail::adx_kernel_available()) {
    mul_ = &detail::mont_mul8_adx;
    sqr_ = &mont_sqr8_adx;
  }

  n0_ = detail::mont_n0(p_.l[0]);

  // R, R^2, R^3 mod p on the setup path.
  const Bignum r = Bignum::mod(Bignum::shl(Bignum::from_u64(1), 64 * n_), modulus);
  one_ = r;
  const Bignum r2 = Bignum::mod(Bignum::mul(r, r), modulus);
  r2_ = r2;
  r3_ = Bignum::mod(Bignum::mul(r2, r), modulus);
}

FieldElem MontField::pow(const FieldElem& base, const Bignum& exp) const {
  // Sliding window over odd powers: the exponent splits into runs of
  // zeros (one squaring per bit) and windows of at most w bits that
  // start and end on a set bit (w squarings, then one multiply by the
  // window's odd power). A 510-bit exponent with half its bits set
  // pays ~509 squarings + ~89 multiplies instead of 509 + 260, plus 16
  // for the table. Canonical residues make the result the same bits as
  // square-and-multiply.
  const int bits = exp.bit_length();
  if (bits == 0) return one_;
  const int w = bits > 256 ? 5 : bits > 64 ? 4 : bits > 16 ? 3 : bits > 4 ? 2 : 1;
  FieldElem odd[16];  // odd[k] = base^(2k+1)
  odd[0] = base;
  if (w > 1) {
    const FieldElem base2 = sqr(base);
    for (int k = 1; k < (1 << (w - 1)); ++k) odd[k] = mul(odd[k - 1], base2);
  }
  FieldElem result;
  bool first = true;  // the top bit is set, so the first step is a window
  for (int i = bits - 1; i >= 0;) {
    if (!exp.bit(i)) {
      result = sqr(result);
      --i;
      continue;
    }
    int low = std::max(i - w + 1, 0);
    while (!exp.bit(low)) ++low;
    int digit = 0;
    for (int b = i; b >= low; --b) digit = (digit << 1) | static_cast<int>(exp.bit(b));
    if (first) {
      result = odd[digit >> 1];
      first = false;
    } else {
      for (int b = i; b >= low; --b) result = sqr(result);
      result = mul(result, odd[digit >> 1]);
    }
    i = low - 1;
  }
  return result;
}

FieldElem MontField::inv(const FieldElem& a) const {
  // The gcd inverts aR as a plain residue, giving a^-1 R^-1; one
  // Montgomery product with R^3 lifts it to a^-1 R.
  FieldElem plain_inverse;
  if (!inv_(a, p_, &plain_inverse)) throw MathError("MontField::inv: element not invertible");
  return mul(plain_inverse, r3_);
}

}  // namespace maabe::math
