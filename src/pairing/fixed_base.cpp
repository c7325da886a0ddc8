#include "pairing/fixed_base.h"

#include <algorithm>
#include <array>

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
                         int window_bits, const math::detail::LaneField* lanes)
    : curve_(curve), window_bits_(window_bits) {
  using math::detail::Lanes;
  if (base.inf) throw MathError("G1FixedBase: base must not be infinity");
  if (window_bits < 1 || window_bits > 8) throw MathError("G1FixedBase: bad window");
  digits_ = (exp_bits + window_bits - 1) / window_bits;
  const int span = 1 << window_bits;

  // Phase 1: the digit bases B_d = base * 2^(w*d), each w doublings of
  // the last, to affine with one inversion. A base of small order
  // reaches infinity, and every later B_d stays there.
  std::vector<JacPoint> jac(static_cast<size_t>(digits_));
  jac[0] = curve_.to_jac(base);
  for (int d = 1; d < digits_; ++d) {
    jac[d] = jac[d - 1];
    for (int b = 0; b < window_bits; ++b) jac[d] = curve_.jac_dbl(jac[d]);
  }
  const std::vector<AffinePoint> digit_base = curve_.to_affine_batch(jac.data(), jac.size());

  // Phase 2: rows[d * (span - 2) + j - 2] = B_d * j for j = 2 .. span-1,
  // by mixed additions of B_d (the first is a doubling), for every
  // finite B_d.
  const size_t per_row = static_cast<size_t>(span - 2);
  std::vector<JacPoint> rows(digit_base.size() * per_row, curve_.to_jac(AffinePoint::infinity()));
  std::vector<size_t> live;
  for (size_t d = 0; d < digit_base.size(); ++d)
    if (!digit_base[d].inf && per_row > 0) live.push_back(d);
  // A pass runs eight rows' schedules as lanes; a lane whose row met
  // H = 0 or Y = 0 (z = 0 from there on) runs the scalar row instead.
  const auto lane_rows = [&](std::span<const size_t> pass) {
    const size_t n = pass.size();
    std::array<FieldElem, Lanes::kLanes> xs{}, ys{}, zs{};
    for (size_t k = 0; k < n; ++k) {
      xs[k] = digit_base[pass[k]].x;
      ys[k] = digit_base[pass[k]].y;
    }
    const Lanes bx = lanes->to_lanes(std::span(xs).first(n));
    const Lanes by = lanes->to_lanes(std::span(ys).first(n));
    JacOf<Lanes> acc{bx, by, lanes->one()};
    for (int j = 2; j < span; ++j) {
      if (j == 2) {
        acc = jac::dbl(*lanes, acc);
      } else {
        Lanes hh, rr;
        jac::chord(*lanes, acc, bx, by, &hh, &rr);
        acc = jac::add_chord(*lanes, acc, hh, rr);
      }
      lanes->from_lanes(acc.x, std::span(xs).first(n));
      lanes->from_lanes(acc.y, std::span(ys).first(n));
      lanes->from_lanes(acc.z, std::span(zs).first(n));
      for (size_t k = 0; k < n; ++k) rows[pass[k] * per_row + j - 2] = {xs[k], ys[k], zs[k]};
    }
    return lanes->zero_mask(acc.z) & ((1u << n) - 1);
  };
  const auto scalar_row = [&](size_t d) {
    JacPoint acc = curve_.to_jac(digit_base[d]);
    for (int j = 2; j < span; ++j) {
      acc = curve_.jac_add_mixed(acc, digit_base[d]);
      rows[d * per_row + j - 2] = acc;
    }
  };
  math::detail::run_passes(live, lanes != nullptr, kMinG1TableLanesPerPass, lane_rows,
                           scalar_row);
  const std::vector<AffinePoint> affine = curve_.to_affine_batch(rows.data(), rows.size());

  table_.resize(digits_);
  for (size_t d = 0; d < digit_base.size(); ++d) {
    auto& row = table_[d];
    row.assign(span, AffinePoint::infinity());
    row[1] = digit_base[d];
    std::copy_n(affine.begin() + static_cast<ptrdiff_t>(d * per_row), per_row, row.begin() + 2);
    for (int j = 1; j < span; ++j) finite_ = finite_ && !row[j].inf;
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

unsigned G1FixedBase::pow_jac_lanes(const math::detail::LaneField& lf,
                                    std::span<const G1FixedBase* const> tables,
                                    std::span<const Bignum* const> ks, std::span<JacPoint> out) {
  using math::detail::LaneField;
  using math::detail::Lanes;
  const size_t n = tables.size();
  if (n == 0 || n > Lanes::kLanes || ks.size() != n || out.size() != n)
    throw MathError("G1FixedBase::pow_jac_lanes: needs 1..8 tables, as many exponents and outputs");
  const int w = tables[0]->window_bits_, digits = tables[0]->digits_;
  for (size_t j = 0; j < n; ++j) {
    if (tables[j]->window_bits_ != w || tables[j]->digits_ != digits || !tables[j]->finite_)
      throw MathError("G1FixedBase::pow_jac_lanes: tables differ in shape or hold infinity");
    if (ks[j]->is_zero() || ks[j]->bit_length() > digits * w)
      throw MathError("G1FixedBase::pow_jac_lanes: exponent zero or out of table range");
  }
  // pow_jac's walk without its branches. Each step gathers the lanes'
  // entries T_j[d][digit_j]; a lane whose digit is 0 keeps its
  // accumulator, and one with no non-zero digit yet starts from the
  // entry as (x, y, 1), which is what jac_add_mixed gives from the
  // identity.
  const unsigned all = (1u << n) - 1;
  std::array<FieldElem, Lanes::kLanes> xs{}, ys{}, zs{};
  JacOf<Lanes> acc{lf.zero(), lf.zero(), lf.zero()};
  unsigned started = 0;
  for (int d = 0; d < digits; ++d) {
    unsigned live = 0;
    for (size_t j = 0; j < n; ++j) {
      const int digit = digit_at(*ks[j], d, w);
      if (digit == 0) continue;
      live |= 1u << j;
      const AffinePoint& q = tables[j]->table_[d][digit];
      xs[j] = q.x;
      ys[j] = q.y;
    }
    if (live == 0) continue;
    const Lanes qx = lf.to_lanes(std::span(xs).first(n));
    const Lanes qy = lf.to_lanes(std::span(ys).first(n));
    const unsigned add = live & started, fresh = live & ~started;
    if (add != 0) {
      Lanes hh, rr;
      jac::chord(lf, acc, qx, qy, &hh, &rr);
      const JacOf<Lanes> sum = jac::add_chord(lf, acc, hh, rr);
      acc = add == all ? sum
                       : JacOf<Lanes>{LaneField::select(add, sum.x, acc.x),
                                      LaneField::select(add, sum.y, acc.y),
                                      LaneField::select(add, sum.z, acc.z)};
    }
    if (fresh != 0) {
      acc = {LaneField::select(fresh, qx, acc.x), LaneField::select(fresh, qy, acc.y),
             LaneField::select(fresh, lf.one(), acc.z)};
    }
    started |= live;
  }
  const unsigned exceptional = lf.zero_mask(acc.z) & all;
  lf.from_lanes(acc.x, std::span(xs).first(n));
  lf.from_lanes(acc.y, std::span(ys).first(n));
  lf.from_lanes(acc.z, std::span(zs).first(n));
  for (size_t j = 0; j < n; ++j)
    if (!(exceptional >> j & 1)) out[j] = {xs[j], ys[j], zs[j]};
  return exceptional;
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
