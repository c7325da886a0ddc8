#include "pairing/fp.h"

#include "common/errors.h"

namespace maabe::pairing {

using math::Bignum;

FpCtx::FpCtx(const Bignum& p)
    : MontField(p), sqrt_exp_(Bignum::shr(Bignum::add(p, Bignum::from_u64(1)), 2)) {}

FieldElem FpCtx::random(crypto::Drbg& rng) const { return to_mont(rng.below(modulus())); }

Bytes FpCtx::to_bytes(const FieldElem& mont_form) const {
  const FieldElem plain = from_mont(mont_form);
  const size_t width = byte_length();
  Bytes out(width);
  for (size_t k = 0; k < width; ++k)
    out[width - 1 - k] = static_cast<uint8_t>(plain.l[k / 8] >> (8 * (k % 8)));
  return out;
}

FieldElem FpCtx::from_bytes(ByteView data) const {
  const size_t width = byte_length();
  if (data.size() != width) throw WireError("FpCtx::from_bytes: bad length");
  FieldElem plain;
  for (size_t k = 0; k < width; ++k)
    plain.l[k / 8] |= uint64_t(data[width - 1 - k]) << (8 * (k % 8));
  if (!is_reduced(plain)) throw WireError("FpCtx::from_bytes: value exceeds modulus");
  return to_mont(plain);
}

}  // namespace maabe::pairing
