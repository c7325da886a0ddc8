#include "math/field.h"

#include <bit>

#include "common/errors.h"

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

  // n0 = -p^{-1} mod 2^64 via Newton-Hensel lifting (x*p == 1 mod 8 to
  // start for odd p; each step doubles the correct bits).
  const uint64_t p0 = p_.l[0];
  uint64_t x = p0;
  for (int i = 0; i < 6; ++i) x *= 2 - p0 * x;
  n0_ = 0 - x;

  // R, R^2, R^3 mod p on the setup path.
  const Bignum r = Bignum::mod(Bignum::shl(Bignum::from_u64(1), 64 * n_), modulus);
  one_ = r;
  const Bignum r2 = Bignum::mod(Bignum::mul(r, r), modulus);
  r2_ = r2;
  r3_ = Bignum::mod(Bignum::mul(r2, r), modulus);
}

FieldElem MontField::pow(const FieldElem& base, const Bignum& exp) const {
  FieldElem result = one_;
  for (int i = exp.bit_length() - 1; i >= 0; --i) {
    result = sqr(result);
    if (exp.bit(i)) result = mul(result, base);
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
