#include "pairing/fp.h"

#include "common/errors.h"

namespace maabe::pairing {

using math::Bignum;

FpCtx::FpCtx(const Bignum& p) : field_(p) {
  qr_exp_ = Bignum::shr(Bignum::sub(p, Bignum::from_u64(1)), 1);
  sqrt_exp_ = Bignum::shr(Bignum::add(p, Bignum::from_u64(1)), 2);
}

FieldElem FpCtx::inv(const FieldElem& a) const {
  if (a.is_zero()) throw MathError("FpCtx::inv: zero is not invertible");
  return field_.inv(a);
}

bool FpCtx::is_qr(const FieldElem& a) const {
  if (a.is_zero()) return true;
  return field_.pow(a, qr_exp_) == field_.one();
}

FieldElem FpCtx::sqrt(const FieldElem& a) const {
  const FieldElem root = sqrt_candidate(a);
  if (field_.sqr(root) != a) throw MathError("FpCtx::sqrt: not a quadratic residue");
  return root;
}

FieldElem FpCtx::random(crypto::Drbg& rng) const {
  return enc(rng.below(field_.modulus()));
}

Bytes FpCtx::to_bytes(const FieldElem& mont_form) const {
  const FieldElem plain = dec(mont_form);
  const size_t width = field_.byte_length();
  Bytes out(width);
  for (size_t k = 0; k < width; ++k)
    out[width - 1 - k] = static_cast<uint8_t>(plain.l[k / 8] >> (8 * (k % 8)));
  return out;
}

FieldElem FpCtx::from_bytes(ByteView data) const {
  const size_t width = field_.byte_length();
  if (data.size() != width) throw WireError("FpCtx::from_bytes: bad length");
  FieldElem plain;
  for (size_t k = 0; k < width; ++k)
    plain.l[k / 8] |= uint64_t(data[width - 1 - k]) << (8 * (k % 8));
  if (!field_.is_reduced(plain)) throw WireError("FpCtx::from_bytes: value exceeds modulus");
  return enc(plain);
}

}  // namespace maabe::pairing
