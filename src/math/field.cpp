#include "math/field.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "common/errors.h"
#include "math/field_kernels.h"
#include "math/window_pow.h"

#if defined(__x86_64__) && defined(__GNUC__) && defined(__ELF__)
#define MAABE_FIELD_ADX 1
#include <cpuid.h>
#else
#define MAABE_FIELD_ADX 0
#endif

#if defined(__x86_64__) && defined(__GNUC__)
#define MAABE_FIELD_IFMA 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define MAABE_FIELD_IFMA 0
#endif

namespace maabe::math {

using u128 = unsigned __int128;
using i128 = __int128;
using detail::LaneModulus;
using detail::Lanes;

constexpr uint64_t kMask52 = (uint64_t(1) << 52) - 1;  // one radix-2^52 limb

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

// ---------------------------------------------------------- inversion --
// Pornin's optimized binary GCD (IACR ePrint 2020/972, Algorithm 2):
// the binary extended gcd on (a, b) = (x, p) with a == u*x and
// b == v*x (mod p), run in rounds of 31 steps. Each round decides its
// 31 steps on 64-bit approximations of a and b (their low 31 bits and
// their top 33 bits at a common bit length n), collecting the steps as
// a 2x2 matrix of signed factors with |f| + |g| <= 2^31 per row; then
// one pass applies the matrix to the full (a, b) and one to (u, v).
// The low 31 bits are exact, so the (a, b) combination is divisible by
// 2^31; the (u, v) one is divided by 2^31 mod p by adding k*p first
// (k from n0 = -p^-1 mod 2^64, as in a Montgomery reduction). Each
// round shrinks len(a) + len(b) by at least 31 bits, so
// ceil((2*bits(p) - 1) / 31) rounds reach a = 0; the loop stops as soon
// as a is zero. Variable-time, like the rest of the library.

constexpr int kGcdSteps = 31;
constexpr uint64_t kLow31 = (uint64_t(1) << kGcdSteps) - 1;

template <int N>
bool is_zero(const uint64_t* x) {
  uint64_t acc = 0;
  for (int i = 0; i < N; ++i) acc |= x[i];
  return acc == 0;
}

template <int N>
bool is_one(const uint64_t* x) {
  uint64_t acc = x[0] ^ 1;
  for (int i = 1; i < N; ++i) acc |= x[i];
  return acc == 0;
}

template <int N>
bool greater_equal(const uint64_t* x, const uint64_t* y) {
  for (int i = N - 1; i >= 0; --i)
    if (x[i] != y[i]) return x[i] > y[i];
  return true;
}

/// Low 31 bits of x, below bits n-33..n-1 of x (x < 2^n, n >= 64).
template <int N>
uint64_t approx(const uint64_t* x, int n) {
  const int s = n - 33;
  const int li = s / 64, bi = s % 64;
  uint64_t top = x[li] >> bi;
  if (bi != 0 && li + 1 < N) top |= x[li + 1] << (64 - bi);
  return (top << kGcdSteps) | (x[0] & kLow31);
}

/// out = |a*f + b*g| / 2^31 for a combination the caller knows is
/// divisible by 2^31 and at most max(a, b) in magnitude; returns
/// whether it was negative. Each output limb is shifted into place as
/// soon as the limb above it is known: a separate shift pass over a
/// stored t[] gets vectorized into loads that stall on those stores.
template <int N>
bool combine_exact(const uint64_t* a, const uint64_t* b, int64_t f, int64_t g, uint64_t* out) {
  i128 c = 0;
  uint64_t prev = 0;
  for (int i = 0; i < N; ++i) {
    c += i128(a[i]) * f + i128(b[i]) * g;
    const uint64_t t = static_cast<uint64_t>(c);
    c >>= 64;
    if (i > 0) out[i - 1] = (prev >> kGcdSteps) | (t << (64 - kGcdSteps));
    prev = t;
  }
  const uint64_t top = static_cast<uint64_t>(c);
  out[N - 1] = (prev >> kGcdSteps) | (top << (64 - kGcdSteps));
  if (static_cast<int64_t>(top) >= 0) return false;
  uint64_t carry = 1;
  for (int i = 0; i < N; ++i) {
    out[i] = ~out[i] + carry;
    carry &= out[i] == 0;
  }
  return true;
}

/// out = (u*f + v*g) / 2^31 mod p, for u, v < p and |f| + |g| <= 2^31.
template <int N>
void combine_mod(const uint64_t* u, const uint64_t* v, int64_t f, int64_t g, const uint64_t* p,
                 uint64_t n0, uint64_t* out) {
  // k*p cancels the low 31 bits; the sum lies in (-2^31 p, 2^32 p), so
  // w = sum / 2^31 lies in (-p, 2p), with its sign or carry in `top`.
  const uint64_t lo = u[0] * static_cast<uint64_t>(f) + v[0] * static_cast<uint64_t>(g);
  const uint64_t k = (lo * n0) & kLow31;
  i128 c = 0;
  uint64_t prev = 0;
  for (int i = 0; i < N; ++i) {
    c += i128(u[i]) * f + i128(v[i]) * g + i128(u128(k) * p[i]);
    const uint64_t t = static_cast<uint64_t>(c);
    c >>= 64;
    if (i > 0) out[i - 1] = (prev >> kGcdSteps) | (t << (64 - kGcdSteps));
    prev = t;
  }
  out[N - 1] = (prev >> kGcdSteps) | (static_cast<uint64_t>(c) << (64 - kGcdSteps));
  const int64_t top = static_cast<int64_t>(c >> kGcdSteps);
  if (top != 0 || greater_equal<N>(out, p)) {
    // Negative: add p. At least p: subtract it. Either way the result
    // is in [0, p) and the top word cancels.
    uint64_t carry = 0;
    for (int i = 0; i < N; ++i) {
      const u128 s = top < 0 ? u128(out[i]) + p[i] + carry : u128(out[i]) - p[i] - carry;
      out[i] = static_cast<uint64_t>(s);
      carry = static_cast<uint64_t>(s >> 64) & 1;
    }
  }
}

/// out = x^-1 mod p for a reduced x and odd p. Returns false when
/// gcd(x, p) != 1 (x = 0 included).
template <int N>
bool gcd_inverse(const FieldElem& x, const FieldElem& p, uint64_t n0, int bits, FieldElem* out) {
  // Each round writes (a, b, u, v) into the other half of buf and then
  // swaps the pointers.
  uint64_t buf[8][N] = {};
  uint64_t *a = buf[0], *b = buf[1], *u = buf[2], *v = buf[3];
  uint64_t *na = buf[4], *nb = buf[5], *nu = buf[6], *nv = buf[7];
  for (int i = 0; i < N; ++i) {
    a[i] = x.l[i];
    b[i] = p.l[i];
  }
  u[0] = 1;
  const int rounds = (2 * bits - 1 + kGcdSteps - 1) / kGcdSteps;
  for (int round = 0; round < rounds && !is_zero<N>(a); ++round) {
    int top = N - 1;
    while (top > 0 && (a[top] | b[top]) == 0) --top;
    const int n = std::max(64 * top + 64 - std::countl_zero(a[top] | b[top]), 64);
    uint64_t xa = approx<N>(a, n), xb = approx<N>(b, n);
    int64_t f0 = 1, g0 = 0, f1 = 0, g1 = 1;
    for (int j = 0; j < kGcdSteps; ++j) {
      // Masks instead of branches: each step's parity and order are
      // unpredictable.
      const uint64_t odd = 0 - (xa & 1);
      const uint64_t swap = odd & (0 - static_cast<uint64_t>(xa < xb));
      const int64_t sodd = static_cast<int64_t>(odd), sswap = static_cast<int64_t>(swap);
      const uint64_t dx = (xa ^ xb) & swap;
      const int64_t df = (f0 ^ f1) & sswap, dg = (g0 ^ g1) & sswap;
      xa ^= dx;
      xb ^= dx;
      f0 ^= df;
      f1 ^= df;
      g0 ^= dg;
      g1 ^= dg;
      xa = (xa - (xb & odd)) >> 1;
      f0 -= f1 & sodd;
      g0 -= g1 & sodd;
      f1 += f1;
      g1 += g1;
    }
    if (combine_exact<N>(a, b, f0, g0, na)) {
      f0 = -f0;
      g0 = -g0;
    }
    if (combine_exact<N>(a, b, f1, g1, nb)) {
      f1 = -f1;
      g1 = -g1;
    }
    combine_mod<N>(u, v, f0, g0, p.l.data(), n0, nu);
    combine_mod<N>(u, v, f1, g1, p.l.data(), n0, nv);
    std::swap(a, na);
    std::swap(b, nb);
    std::swap(u, nu);
    std::swap(v, nv);
  }
  if (!is_zero<N>(a) || !is_one<N>(b)) return false;
  *out = FieldElem();
  for (int i = 0; i < N; ++i) out->l[i] = v[i];
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

#if MAABE_FIELD_IFMA
// ------------------------------------------------------ IFMA kernels --
// Eight residues side by side, one per 64-bit lane of a zmm register,
// in ten radix-2^52 limbs (DESIGN.md §22). vpmadd52luq / vpmadd52huq add
// the low / high 52 bits of a 52x52-bit product to a 64-bit lane, so a
// limb's sum of partial products needs no carry until the end: an
// accumulator limb collects at most ~42 terms below 2^52 (< 2^58) before
// the one carry pass that normalizes the result. Montgomery radix
// R' = 2^520; inputs below 2p give outputs below (4p^2 + R'p)/R' < 2p.

#define MAABE_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))

namespace {

constexpr int kLaneLimbs = LaneModulus::kLimbs;

/// x >> 52 per lane. The zero-masking form: GCC 12's plain
/// _mm512_srli_epi64 trips -Wuninitialized on its undefined pass-through.
MAABE_IFMA_TARGET inline __m512i carry52(__m512i x) {
  return _mm512_maskz_srli_epi64(0xFF, x, 52);
}

/// Carries t[0..9] into ten limbs below 2^52 and stores them; the value
/// is below 2^520, so nothing carries out of limb 9.
MAABE_IFMA_TARGET inline Lanes normalize_lanes(__m512i* t) {
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  Lanes out;
  #pragma GCC unroll 20
  for (int j = 0; j + 1 < kLaneLimbs; ++j) {
    t[j + 1] = _mm512_add_epi64(t[j + 1], carry52(t[j]));
    _mm512_storeu_si512(out.limb[j], _mm512_and_si512(t[j], mask));
  }
  _mm512_storeu_si512(out.limb[kLaneLimbs - 1], t[kLaneLimbs - 1]);
  return out;
}

}  // namespace

namespace detail {

// Word-by-word: each round adds a_i*b, then m*p with m chosen so the
// low limb vanishes, then drops that limb (its carry moves up).
MAABE_IFMA_TARGET Lanes mont_mul52x8_ifma(const Lanes& a, const Lanes& b,
                                          const LaneModulus& m) {
  const __m512i n0 = _mm512_set1_epi64(static_cast<long long>(m.n0));
  const __m512i zero = _mm512_setzero_si512();
  __m512i bv[kLaneLimbs], t[kLaneLimbs + 1];
  #pragma GCC unroll 20
  for (int j = 0; j < kLaneLimbs; ++j) {
    bv[j] = _mm512_loadu_si512(b.limb[j]);
    t[j] = zero;
  }
  t[kLaneLimbs] = zero;
  #pragma GCC unroll 20
  for (int i = 0; i < kLaneLimbs; ++i) {
    const __m512i ai = _mm512_loadu_si512(a.limb[i]);
    #pragma GCC unroll 20
    for (int j = 0; j < kLaneLimbs; ++j) {
      t[j] = _mm512_madd52lo_epu64(t[j], ai, bv[j]);
      t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], ai, bv[j]);
    }
    const __m512i mi = _mm512_madd52lo_epu64(zero, t[0], n0);
    #pragma GCC unroll 20
    for (int j = 0; j < kLaneLimbs; ++j) {
      const __m512i pj = _mm512_set1_epi64(static_cast<long long>(m.p[j]));
      t[j] = _mm512_madd52lo_epu64(t[j], mi, pj);
      t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], mi, pj);
    }
    // t[0] is now a multiple of 2^52: shift its carry into t[1] and
    // rename the limbs down by one.
    const __m512i carry = carry52(t[0]);
    #pragma GCC unroll 20
    for (int j = 0; j < kLaneLimbs; ++j) t[j] = t[j + 1];
    t[0] = _mm512_add_epi64(t[0], carry);
    t[kLaneLimbs] = zero;
  }
  return normalize_lanes(t);
}

// SOS: the 20-limb square from the 45 cross products (the accumulators
// doubled once) plus the 10 diagonal ones, then ten reduction rounds
// over the low half.
MAABE_IFMA_TARGET Lanes mont_sqr52x8_ifma(const Lanes& a, const LaneModulus& m) {
  const __m512i n0 = _mm512_set1_epi64(static_cast<long long>(m.n0));
  const __m512i zero = _mm512_setzero_si512();
  __m512i av[kLaneLimbs], t[2 * kLaneLimbs];
  #pragma GCC unroll 20
  for (int j = 0; j < kLaneLimbs; ++j) av[j] = _mm512_loadu_si512(a.limb[j]);
  #pragma GCC unroll 20
  for (int k = 0; k < 2 * kLaneLimbs; ++k) t[k] = zero;
  #pragma GCC unroll 20
  for (int i = 0; i < kLaneLimbs; ++i) {
    #pragma GCC unroll 20
    for (int j = i + 1; j < kLaneLimbs; ++j) {
      t[i + j] = _mm512_madd52lo_epu64(t[i + j], av[i], av[j]);
      t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], av[i], av[j]);
    }
  }
  #pragma GCC unroll 20
  for (int k = 1; k < 2 * kLaneLimbs; ++k) t[k] = _mm512_add_epi64(t[k], t[k]);
  #pragma GCC unroll 20
  for (int i = 0; i < kLaneLimbs; ++i) {
    t[2 * i] = _mm512_madd52lo_epu64(t[2 * i], av[i], av[i]);
    t[2 * i + 1] = _mm512_madd52hi_epu64(t[2 * i + 1], av[i], av[i]);
  }
  #pragma GCC unroll 20
  for (int i = 0; i < kLaneLimbs; ++i) {
    const __m512i mi = _mm512_madd52lo_epu64(zero, t[i], n0);
    #pragma GCC unroll 20
    for (int j = 0; j < kLaneLimbs; ++j) {
      const __m512i pj = _mm512_set1_epi64(static_cast<long long>(m.p[j]));
      t[i + j] = _mm512_madd52lo_epu64(t[i + j], mi, pj);
      t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], mi, pj);
    }
    t[i + 1] = _mm512_add_epi64(t[i + 1], carry52(t[i]));
  }
  return normalize_lanes(t + kLaneLimbs);
}

}  // namespace detail

namespace {

/// Carries signed limbs t[0..9] (each of magnitude below 2^62) so that
/// limbs 0..8 lie below 2^52; the value's sign is left in t[9].
MAABE_IFMA_TARGET inline void carry_signed(__m512i* t) {
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  #pragma GCC unroll 20
  for (int j = 0; j + 1 < kLaneLimbs; ++j) {
    t[j + 1] = _mm512_add_epi64(t[j + 1], _mm512_maskz_srai_epi64(0xFF, t[j], 52));
    t[j] = _mm512_and_si512(t[j], mask);
  }
}

/// Per lane: x - y and x - y + 2p (x, y in [0, 2p)), both carried, then
/// the one in [0, 2p). `x` null reads as zero.
MAABE_IFMA_TARGET inline Lanes sub_lanes(const Lanes* x, const Lanes& y, const LaneModulus& m) {
  __m512i d[kLaneLimbs], e[kLaneLimbs];
  #pragma GCC unroll 20
  for (int j = 0; j < kLaneLimbs; ++j) {
    const __m512i xj = x ? _mm512_loadu_si512(x->limb[j]) : _mm512_setzero_si512();
    d[j] = _mm512_sub_epi64(xj, _mm512_loadu_si512(y.limb[j]));
    e[j] = _mm512_add_epi64(d[j], _mm512_set1_epi64(static_cast<long long>(m.p2[j])));
  }
  carry_signed(d);
  carry_signed(e);
  const __mmask8 borrow = _mm512_cmplt_epi64_mask(d[kLaneLimbs - 1], _mm512_setzero_si512());
  Lanes out;
  #pragma GCC unroll 20
  for (int j = 0; j < kLaneLimbs; ++j)
    _mm512_storeu_si512(out.limb[j], _mm512_mask_blend_epi64(borrow, d[j], e[j]));
  return out;
}

}  // namespace

namespace detail {

// a + b < 4p, and a + b - 2p is kept unless it is negative.
MAABE_IFMA_TARGET Lanes lane_add52x8_ifma(const Lanes& a, const Lanes& b, const LaneModulus& m) {
  __m512i s[kLaneLimbs], d[kLaneLimbs];
  #pragma GCC unroll 20
  for (int j = 0; j < kLaneLimbs; ++j) {
    s[j] = _mm512_add_epi64(_mm512_loadu_si512(a.limb[j]), _mm512_loadu_si512(b.limb[j]));
    d[j] = _mm512_sub_epi64(s[j], _mm512_set1_epi64(static_cast<long long>(m.p2[j])));
  }
  carry_signed(s);
  carry_signed(d);
  const __mmask8 below = _mm512_cmplt_epi64_mask(d[kLaneLimbs - 1], _mm512_setzero_si512());
  Lanes out;
  #pragma GCC unroll 20
  for (int j = 0; j < kLaneLimbs; ++j)
    _mm512_storeu_si512(out.limb[j], _mm512_mask_blend_epi64(below, d[j], s[j]));
  return out;
}

MAABE_IFMA_TARGET Lanes lane_sub52x8_ifma(const Lanes& a, const Lanes& b, const LaneModulus& m) {
  return sub_lanes(&a, b, m);
}

MAABE_IFMA_TARGET Lanes lane_neg52x8_ifma(const Lanes& a, const LaneModulus& m) {
  return sub_lanes(nullptr, a, m);
}

}  // namespace detail
#endif  // MAABE_FIELD_IFMA

namespace {

/// Ten radix-2^52 limbs of a value below 2^512.
std::array<uint64_t, LaneModulus::kLimbs> to_radix52(const FieldElem& x) {
  std::array<uint64_t, LaneModulus::kLimbs> out{};
  for (int i = 0; i < LaneModulus::kLimbs; ++i) {
    const int bit = 52 * i, w = bit / 64, s = bit % 64;
    uint64_t v = x.l[w] >> s;
    if (s > 12 && w + 1 < FieldElem::kLimbs) v |= x.l[w + 1] << (64 - s);
    out[i] = v & kMask52;
  }
  return out;
}

}  // namespace

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

LaneModulus lane_modulus(const Bignum& p) {
  const Bignum one = Bignum::from_u64(1);
  LaneModulus m;
  m.p = to_radix52(FieldElem(p));
  // 2p needs 513 bits: radix-convert p and double limb by limb.
  uint64_t carry = 0;
  for (int i = 0; i < LaneModulus::kLimbs; ++i) {
    const uint64_t v = 2 * m.p[i] + carry;
    m.p2[i] = i + 1 < LaneModulus::kLimbs ? v & kMask52 : v;
    carry = v >> 52;
  }
  m.to_lanes = to_radix52(FieldElem(Bignum::mod(Bignum::shl(one, 528), p)));
  m.from_lanes = to_radix52(FieldElem(Bignum::mod(Bignum::shl(one, 512), p)));
  m.n0 = mont_n0(p.limb(0)) & kMask52;
  return m;
}

bool ifma_kernel_available() {
#if MAABE_FIELD_IFMA
  static const bool available = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || (ecx & bit_OSXSAVE) == 0) return false;
    // XCR0 bits 1, 2 (SSE, AVX) and 5, 6, 7 (opmask, ZMM_Hi256,
    // Hi16_ZMM): the OS saves every register the kernels touch.
    uint32_t xcr0_lo = 0, xcr0_hi = 0;
    __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    (void)xcr0_hi;
    if ((xcr0_lo & 0xE6) != 0xE6) return false;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    return (ebx & bit_AVX512F) != 0 && (ebx & bit_AVX512IFMA) != 0;
  }();
  return available;
#else
  return false;
#endif
}

#if !MAABE_FIELD_IFMA
// Unreachable: ifma_kernel_available() is false in such builds.
Lanes mont_mul52x8_ifma(const Lanes&, const Lanes&, const LaneModulus&) {
  throw MathError("mont_mul52x8_ifma: not built for this target");
}
Lanes mont_sqr52x8_ifma(const Lanes&, const LaneModulus&) {
  throw MathError("mont_sqr52x8_ifma: not built for this target");
}
Lanes lane_add52x8_ifma(const Lanes&, const Lanes&, const LaneModulus&) {
  throw MathError("lane_add52x8_ifma: not built for this target");
}
Lanes lane_sub52x8_ifma(const Lanes&, const Lanes&, const LaneModulus&) {
  throw MathError("lane_sub52x8_ifma: not built for this target");
}
Lanes lane_neg52x8_ifma(const Lanes&, const LaneModulus&) {
  throw MathError("lane_neg52x8_ifma: not built for this target");
}
#endif

LaneField::LaneField(const Bignum& p) : m_(lane_modulus(p)), p_(p) {
  to_lanes_ = broadcast(m_.to_lanes);
  from_lanes_ = broadcast(m_.from_lanes);
  // 2^512 * 2^528 / R' = R' mod p, the lanes' one.
  one_ = mul(from_lanes_, to_lanes_);
}

Lanes LaneField::to_lanes(std::span<const FieldElem> xs) const {
  if (xs.empty() || xs.size() > Lanes::kLanes)
    throw MathError("LaneField::to_lanes: needs 1..8 values");
  Lanes x;
  for (size_t k = 0; k < xs.size(); ++k) {
    const LaneLimbs limbs = to_radix52(xs[k]);
    for (int i = 0; i < LaneModulus::kLimbs; ++i) x.limb[i][k] = limbs[i];
  }
  // aR * 2^528 / R' = aR'.
  return mul(x, to_lanes_);
}

void LaneField::from_lanes(const Lanes& x, std::span<FieldElem> out) const {
  if (out.size() > Lanes::kLanes) throw MathError("LaneField::from_lanes: at most 8 outputs");
  // aR' * 2^512 / R' = aR, below 2p; one conditional subtraction.
  const Lanes r = mul(x, from_lanes_);
  for (size_t k = 0; k < out.size(); ++k) {
    uint64_t t[FieldElem::kLimbs + 1] = {};
    for (int i = 0; i < LaneModulus::kLimbs; ++i) {
      const int bit = 52 * i, w = bit / 64, s = bit % 64;
      t[w] |= r.limb[i][k] << s;
      if (s > 12) t[w + 1] |= r.limb[i][k] >> (64 - s);
    }
    out[k] = reduce_once<FieldElem::kLimbs>(t, p_);
  }
}

Lanes LaneField::broadcast(const LaneLimbs& limbs) {
  Lanes x;
  for (int i = 0; i < LaneModulus::kLimbs; ++i)
    for (int k = 0; k < Lanes::kLanes; ++k) x.limb[i][k] = limbs[i];
  return x;
}

LaneLimbs LaneField::lane(const Lanes& x, int k) {
  LaneLimbs out;
  for (int i = 0; i < LaneModulus::kLimbs; ++i) out[i] = x.limb[i][k];
  return out;
}

unsigned LaneField::zero_mask(const Lanes& x) const {
  unsigned mask = 0;
  for (int k = 0; k < Lanes::kLanes; ++k) {
    bool zero = true, p = true;
    for (int i = 0; i < LaneModulus::kLimbs; ++i) {
      zero = zero && x.limb[i][k] == 0;
      p = p && x.limb[i][k] == m_.p[i];
    }
    if (zero || p) mask |= 1u << k;
  }
  return mask;
}

void LaneField::pow(std::span<const FieldElem> bases, const Bignum& exp,
                    std::span<FieldElem> out) const {
  if (out.size() != bases.size()) throw MathError("LaneField::pow: size mismatch");
  const Lanes r = window_pow(
      one_, to_lanes(bases), exp, [this](const Lanes& a, const Lanes& b) { return mul(a, b); },
      [this](const Lanes& a) { return sqr(a); });
  from_lanes(r, out);
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
  if (n_ == 8 && detail::ifma_kernel_available())
    lanes_ = std::make_shared<const detail::LaneField>(modulus);

  n0_ = detail::mont_n0(p_.l[0]);

  // R, R^2, R^3 mod p on the setup path.
  const Bignum r = Bignum::mod(Bignum::shl(Bignum::from_u64(1), 64 * n_), modulus);
  one_ = r;
  const Bignum r2 = Bignum::mod(Bignum::mul(r, r), modulus);
  r2_ = r2;
  r3_ = Bignum::mod(Bignum::mul(r2, r), modulus);
}

FieldElem MontField::pow(const FieldElem& base, const Bignum& exp) const {
  return window_pow(
      one_, base, exp, [this](const FieldElem& x, const FieldElem& y) { return mul(x, y); },
      [this](const FieldElem& x) { return sqr(x); });
}

void MontField::pow_batch(std::span<const FieldElem> bases, const Bignum& exp,
                          std::span<FieldElem> out) const {
  if (out.size() != bases.size()) throw MathError("MontField::pow_batch: size mismatch");
  for (size_t at = 0; at < bases.size(); at += detail::Lanes::kLanes) {
    const size_t live = std::min<size_t>(bases.size() - at, detail::Lanes::kLanes);
    if (lanes_ && live >= detail::kMinLanesPerPass) {
      lanes_->pow(bases.subspan(at, live), exp, out.subspan(at, live));
      continue;
    }
    for (size_t k = at; k < at + live; ++k) out[k] = pow(bases[k], exp);
  }
}

FieldElem MontField::inv(const FieldElem& a) const {
  // The gcd inverts aR as a plain residue, giving a^-1 R^-1; one
  // Montgomery product with R^3 lifts it to a^-1 R.
  FieldElem plain_inverse;
  if (!inv_(a, p_, n0_, bits_, &plain_inverse))
    throw MathError("MontField::inv: element not invertible");
  return mul(plain_inverse, r3_);
}

void MontField::inv_batch(std::span<FieldElem> xs) const {
  // prefix[i] = product of the nonzero xs[0..i].
  std::vector<FieldElem> prefix(xs.size());
  FieldElem acc = one_;
  bool any = false;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (!xs[i].is_zero()) {
      acc = mul(acc, xs[i]);
      any = true;
    }
    prefix[i] = acc;
  }
  if (!any) return;
  FieldElem inverse = inv(acc);  // of every nonzero element at once
  for (size_t i = xs.size(); i-- > 0;) {
    if (xs[i].is_zero()) continue;
    const FieldElem xi = i > 0 ? mul(inverse, prefix[i - 1]) : inverse;
    inverse = mul(inverse, xs[i]);
    xs[i] = xi;
  }
}

}  // namespace maabe::math
