#include "pairing/fixed_base.h"

#include <algorithm>

#include "common/errors.h"

namespace maabe::pairing {

using math::Bignum;

namespace {

int digit_at(const Bignum& k, int d, int w) {
  int out = 0;
  for (int b = 0; b < w; ++b) {
    if (k.bit(d * w + b)) out |= 1 << b;
  }
  return out;
}

}  // namespace

G1FixedBase::G1FixedBase(const CurveCtx& curve, const AffinePoint& base, int exp_bits,
                         int window_bits)
    : curve_(curve), window_bits_(window_bits) {
  if (base.inf) throw MathError("G1FixedBase: base must not be infinity");
  if (window_bits < 1 || window_bits > 8) throw MathError("G1FixedBase: bad window");
  digits_ = (exp_bits + window_bits - 1) / window_bits;
  const int span = 1 << window_bits;

  // Each row is accumulated in Jacobian coordinates, then the row and
  // the next row's digit base go to affine together with one batch
  // inversion (CurveCtx::to_affine_batch) instead of one per entry.
  table_.resize(digits_);
  AffinePoint digit_base = base;  // base^(2^(w*d))
  std::vector<JacPoint> jac(span + 1);
  for (int d = 0; d < digits_; ++d) {
    auto& row = table_[d];
    row.assign(span, AffinePoint::infinity());
    if (digit_base.inf) continue;  // every later row stays infinity too
    row[1] = digit_base;
    // jac[j] = base * j (j = 2 .. span-1); jac[span] = next digit base.
    const int last = d + 1 < digits_ ? span : span - 1;
    jac[1] = curve_.to_jac(digit_base);
    for (int j = 2; j <= last; ++j) jac[j] = curve_.jac_add_mixed(jac[j - 1], digit_base);

    const std::vector<AffinePoint> affine =
        curve_.to_affine_batch(&jac[2], static_cast<size_t>(last - 1));
    std::copy(affine.begin(), affine.begin() + (span - 2), row.begin() + 2);
    digit_base = last == span ? affine.back() : AffinePoint::infinity();
  }
}

JacPoint G1FixedBase::pow_jac(const Bignum& k) const {
  if (k.bit_length() > digits_ * window_bits_)
    throw MathError("G1FixedBase: exponent exceeds table range");
  // Accumulate in Jacobian coordinates (mixed additions against the
  // affine table entries); the caller pays the one inversion.
  JacPoint acc = curve_.to_jac(AffinePoint::infinity());
  for (int d = 0; d < digits_; ++d) {
    const int digit = digit_at(k, d, window_bits_);
    if (digit != 0) acc = curve_.jac_add_mixed(acc, table_[d][digit]);
  }
  return acc;
}

GtFixedBase::GtFixedBase(const Fp2Ctx& fq2, const Fp2& base, int exp_bits,
                         int window_bits)
    : fq2_(fq2), window_bits_(window_bits) {
  if (fq2.is_zero(base)) throw MathError("GtFixedBase: zero base");
  if (window_bits < 1 || window_bits > 8) throw MathError("GtFixedBase: bad window");
  digits_ = (exp_bits + window_bits - 1) / window_bits;
  const int span = 1 << window_bits;

  // GT bases live in the norm-1 cyclotomic subgroup, where squaring
  // costs two base-field squarings instead of a full multiply; even
  // table entries are squares of earlier ones, so build them that way.
  // (Bit-identical either path — the guard only exists for callers that
  // precompute arbitrary F_{q^2} elements.)
  const bool norm1 = fq2.is_norm_one(base);
  table_.resize(digits_);
  Fp2 digit_base = base;
  for (int d = 0; d < digits_; ++d) {
    auto& row = table_[d];
    row.resize(span);
    row[0] = fq2_.one();
    row[1] = digit_base;
    for (int j = 2; j < span; ++j) {
      row[j] = (norm1 && j % 2 == 0) ? fq2_.sqr_cyclotomic(row[j / 2])
                                     : fq2_.mul(row[j - 1], digit_base);
    }
    if (d + 1 < digits_) {
      digit_base = norm1 ? fq2_.sqr_cyclotomic(row[span / 2])
                         : fq2_.mul(row[span - 1], digit_base);
    }
  }
}

Fp2 GtFixedBase::pow(const Bignum& k) const {
  if (k.bit_length() > digits_ * window_bits_)
    throw MathError("GtFixedBase: exponent exceeds table range");
  Fp2 acc = fq2_.one();
  for (int d = 0; d < digits_; ++d) {
    const int digit = digit_at(k, d, window_bits_);
    if (digit != 0) acc = fq2_.mul(acc, table_[d][digit]);
  }
  return acc;
}

}  // namespace maabe::pairing
