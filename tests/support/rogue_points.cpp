#include "support/rogue_points.h"

#include "common/errors.h"

namespace maabe::pairing::rogue {

G1 point_of(const Group& grp, const AffinePoint& p) {
  const FpCtx& fq = grp.ctx().fq();
  Bytes enc = fq.to_bytes(p.x);
  enc.push_back(fq.from_mont(p.y).is_odd() ? 1 : 0);
  return grp.g1_from_bytes(enc);
}

AffinePoint random_curve_point(const Group& grp, crypto::Drbg& rng) {
  const CurveCtx& curve = grp.ctx().curve();
  for (;;) {
    const FieldElem x = grp.ctx().fq().random(rng);
    FieldElem y;
    if (curve.lift_x(x, &y)) return {x, y, false};
  }
}

std::vector<G1> small_order_points(const Group& grp, crypto::Drbg& rng) {
  std::vector<G1> out = {point_of(grp, {FieldElem(), FieldElem(), false})};
  const math::Bignum q1 = math::Bignum::add(grp.params().q, math::Bignum::from_u64(1));
  for (uint64_t d : {3, 4}) {
    math::Bignum quot, rem;
    math::Bignum::divmod(q1, math::Bignum::from_u64(d), &quot, &rem);
    if (!rem.is_zero()) continue;
    for (int tries = 0; tries < 8; ++tries) {
      const AffinePoint p = grp.ctx().curve().mul(random_curve_point(grp, rng), quot);
      if (p.inf) continue;
      out.push_back(point_of(grp, p));
      break;
    }
  }
  return out;
}

G1 point_of_order(const Group& grp, uint64_t d, crypto::Drbg& rng) {
  const math::Bignum q1 = math::Bignum::add(grp.params().q, math::Bignum::from_u64(1));
  math::Bignum quot, rem;
  math::Bignum::divmod(q1, math::Bignum::from_u64(d), &quot, &rem);
  if (!rem.is_zero()) throw MathError("point_of_order: d does not divide q + 1");
  for (;;) {
    const AffinePoint p = grp.ctx().curve().mul(random_curve_point(grp, rng), quot);
    if (!p.inf) return point_of(grp, p);
  }
}

std::vector<G1> outside_points(const Group& grp, crypto::Drbg& rng) {
  std::vector<G1> out = small_order_points(grp, rng);
  try {
    out.push_back(point_of_order(grp, 17, rng));
  } catch (const MathError&) {
    // 17 does not divide this curve's q + 1
  }
  const size_t small = out.size();
  for (size_t i = 0; i < small; ++i) out.push_back(out[i] + grp.g1_random(rng));
  out.push_back(point_of(grp, random_curve_point(grp, rng)));
  return out;
}

}  // namespace maabe::pairing::rogue
