#include "pairing/fp2.h"

#include "common/errors.h"
#include "math/window_pow.h"

namespace maabe::pairing {

using math::Bignum;

Fp2 Fp2Ctx::add(const Fp2& x, const Fp2& y) const {
  return {fq_.add(x.a, y.a), fq_.add(x.b, y.b)};
}

Fp2 Fp2Ctx::sub(const Fp2& x, const Fp2& y) const {
  return {fq_.sub(x.a, y.a), fq_.sub(x.b, y.b)};
}

Fp2 Fp2Ctx::neg(const Fp2& x) const { return {fq_.neg(x.a), fq_.neg(x.b)}; }

Fp2 Fp2Ctx::mul(const Fp2& x, const Fp2& y) const {
  const FieldElem t0 = fq_.mul(x.a, y.a);
  const FieldElem t1 = fq_.mul(x.b, y.b);
  const FieldElem mixed = fq_.mul(fq_.add(x.a, x.b), fq_.add(y.a, y.b));
  return {fq_.sub(t0, t1), fq_.sub(fq_.sub(mixed, t0), t1)};
}

Fp2 Fp2Ctx::sqr(const Fp2& x) const {
  const FieldElem t = fq_.mul(fq_.sub(x.a, x.b), fq_.add(x.a, x.b));
  const FieldElem ab = fq_.mul(x.a, x.b);
  return {t, fq_.dbl(ab)};
}

Fp2 Fp2Ctx::inv(const Fp2& x) const {
  const FieldElem norm = fq_.add(fq_.sqr(x.a), fq_.sqr(x.b));
  const FieldElem d = fq_.inv(norm);  // throws on zero
  return {fq_.mul(x.a, d), fq_.neg(fq_.mul(x.b, d))};
}

Fp2 Fp2Ctx::pow(const Fp2& base, const Bignum& exp) const {
  return math::window_pow(
      one(), base, exp, [this](const Fp2& x, const Fp2& y) { return mul(x, y); },
      [this](const Fp2& x) { return sqr(x); });
}

bool Fp2Ctx::is_norm_one(const Fp2& x) const {
  return fq_.add(fq_.sqr(x.a), fq_.sqr(x.b)) == fq_.one();
}

Fp2 Fp2Ctx::sqr_cyclotomic(const Fp2& x) const {
  // With a^2 + b^2 = 1: (a+bi)^2 = (a^2 - b^2) + 2ab i
  //                             = (2a^2 - 1) + ((a+b)^2 - 1) i.
  // Exact canonical arithmetic makes this bit-identical to sqr(x).
  const FieldElem a2 = fq_.sqr(x.a);
  const FieldElem s2 = fq_.sqr(fq_.add(x.a, x.b));
  return {fq_.sub(fq_.dbl(a2), fq_.one()), fq_.sub(s2, fq_.one())};
}

Fp2 Fp2Ctx::pow_cyclotomic(const Fp2& base, const Bignum& exp) const {
  // Every value the window routine squares is a power of `base`, so it
  // stays in the cyclotomic subgroup and may use the cheap square.
  return math::window_pow(
      one(), base, exp, [this](const Fp2& x, const Fp2& y) { return mul(x, y); },
      [this](const Fp2& x) { return sqr_cyclotomic(x); });
}

Fp2 Fp2Ctx::random(crypto::Drbg& rng) const {
  return {fq_.random(rng), fq_.random(rng)};
}

Bytes Fp2Ctx::to_bytes(const Fp2& x) const {
  Bytes out = fq_.to_bytes(x.a);
  const Bytes bb = fq_.to_bytes(x.b);
  out.insert(out.end(), bb.begin(), bb.end());
  return out;
}

Fp2 Fp2Ctx::from_bytes(ByteView data) const {
  const size_t half = fq_.byte_length();
  if (data.size() != 2 * half) throw WireError("Fp2Ctx::from_bytes: bad length");
  return {fq_.from_bytes(data.subspan(0, half)), fq_.from_bytes(data.subspan(half))};
}

}  // namespace maabe::pairing
