#include "pairing/group.h"

#include <algorithm>
#include <array>
#include <atomic>

#include "common/errors.h"
#include "common/wire.h"
#include "crypto/sha256.h"

namespace maabe::pairing {

using math::Bignum;

namespace {

// Pairing-layer misuse is a MathError: this layer sits below the ABE
// schemes and must not reach up into their exception types (see
// common/errors.h).
void require_same_group(const void* a, const void* b, const char* op) {
  if (a == nullptr || b == nullptr) throw MathError(std::string(op) + ": uninitialized element");
  if (a != b) throw MathError(std::string(op) + ": elements from different groups");
}

// Domain-separated expansion of `data` to `out_len` bytes.
Bytes expand(std::string_view domain, ByteView data, size_t out_len) {
  Bytes out;
  uint32_t counter = 0;
  while (out.size() < out_len) {
    crypto::Sha256 h;
    Writer w;
    w.str(domain);
    w.u32(counter++);
    w.var_bytes(data);
    h.update(w.bytes());
    const Bytes d = h.finish();
    out.insert(out.end(), d.begin(), d.end());
  }
  out.resize(out_len);
  return out;
}

}  // namespace

// ---------------------------------------------------------------- Zr --

Zr Zr::add(const Zr& o) const {
  require_same_group(g_, o.g_, "Zr::add");
  return Zr(g_, Bignum::mod_add(v_, o.v_, g_->order()));
}

Zr Zr::sub(const Zr& o) const {
  require_same_group(g_, o.g_, "Zr::sub");
  return Zr(g_, Bignum::mod_sub(v_, o.v_, g_->order()));
}

Zr Zr::mul(const Zr& o) const {
  require_same_group(g_, o.g_, "Zr::mul");
  // Montgomery product of aR and b is ab: one product enters the
  // Montgomery domain, the second multiplies and leaves it.
  const math::MontField& f = g_->zr_field();
  return Zr(g_, f.mul(f.to_mont(v_), o.v_));
}

Zr Zr::neg() const {
  if (g_ == nullptr) throw MathError("Zr::neg: uninitialized element");
  return Zr(g_, Bignum::mod_sub(Bignum(), v_, g_->order()));
}

Zr Zr::inverse() const {
  if (g_ == nullptr) throw MathError("Zr::inverse: uninitialized element");
  const math::MontField& f = g_->zr_field();
  return Zr(g_, f.from_mont(f.inv(f.to_mont(v_))));
}

Bytes Zr::to_bytes() const {
  if (g_ == nullptr) throw MathError("Zr::to_bytes: uninitialized element");
  return v_.to_bytes_be(g_->zr_size());
}

// ---------------------------------------------------------------- G1 --

G1 G1::add(const G1& o) const {
  require_same_group(g_, o.g_, "G1::add");
  return G1(g_, g_->ctx().curve().add(pt_, o.pt_));
}

G1 G1::neg() const {
  if (g_ == nullptr) throw MathError("G1::neg: uninitialized element");
  return G1(g_, g_->ctx().curve().neg(pt_));
}

G1 G1::mul(const Zr& k) const {
  require_same_group(g_, k.group(), "G1::mul");
  return G1(g_, g_->ctx().curve().mul(pt_, k.value()));
}

bool operator==(const G1& a, const G1& b) {
  require_same_group(a.g_, b.g_, "G1::eq");
  return a.g_->ctx().curve().eq(a.pt_, b.pt_);
}

bool G1::in_subgroup() const {
  if (g_ == nullptr) throw MathError("G1::in_subgroup: uninitialized element");
  if (pt_.inf) return true;
  return g_->ctx().curve().mul(pt_, g_->order()).inf;
}

Bytes G1::to_bytes() const {
  if (g_ == nullptr) throw MathError("G1::to_bytes: uninitialized element");
  const FpCtx& fq = g_->ctx().fq();
  Bytes out;
  if (pt_.inf) {
    out.assign(fq.byte_length(), 0);
    out.push_back(2);  // infinity marker
    return out;
  }
  out = fq.to_bytes(pt_.x);
  out.push_back(static_cast<uint8_t>(fq.from_mont(pt_.y).is_odd() ? 1 : 0));
  return out;
}

Bytes G1::to_bytes_uncompressed() const {
  if (g_ == nullptr) throw MathError("G1::to_bytes_uncompressed: uninitialized element");
  const FpCtx& fq = g_->ctx().fq();
  Bytes out;
  if (pt_.inf) {
    out.assign(2 * fq.byte_length(), 0);
    out.push_back(2);  // infinity marker
    return out;
  }
  out = fq.to_bytes(pt_.x);
  const Bytes yb = fq.to_bytes(pt_.y);
  out.insert(out.end(), yb.begin(), yb.end());
  out.push_back(0);
  return out;
}

// ---------------------------------------------------------------- GT --

bool GT::is_one() const {
  if (g_ == nullptr) throw MathError("GT::is_one: uninitialized element");
  return g_->ctx().fq2().is_one(v_);
}

GT GT::mul(const GT& o) const {
  require_same_group(g_, o.g_, "GT::mul");
  return GT(g_, g_->ctx().fq2().mul(v_, o.v_));
}

GT GT::inverse() const {
  if (g_ == nullptr) throw MathError("GT::inverse: uninitialized element");
  // Elements of the order-r subgroup have norm 1, so conjugation inverts.
  return GT(g_, g_->ctx().fq2().conj(v_));
}

GT GT::pow(const Zr& k) const {
  require_same_group(g_, k.group(), "GT::pow");
  // Subgroup elements all have norm 1, unlocking cyclotomic squaring
  // (same bits, ~2/3 the base-field multiplies). The check keeps raw
  // gt_from_bytes values — which may sit outside the subgroup — on the
  // generic path.
  const Fp2Ctx& fq2 = g_->ctx().fq2();
  return GT(g_, fq2.is_norm_one(v_) ? fq2.pow_cyclotomic(v_, k.value())
                                    : fq2.pow(v_, k.value()));
}

bool operator==(const GT& a, const GT& b) {
  require_same_group(a.g_, b.g_, "GT::eq");
  return a.v_ == b.v_;
}

// --------------------------------------------------------- MillerVal --

bool MillerVal::is_one() const {
  if (g_ == nullptr) throw MathError("MillerVal::is_one: uninitialized element");
  return g_->ctx().fq2().is_one(v_);
}

MillerVal MillerVal::mul(const MillerVal& o) const {
  require_same_group(g_, o.g_, "MillerVal::mul");
  return MillerVal(g_, g_->ctx().fq2().mul(v_, o.v_));
}

MillerVal MillerVal::pow(const Zr& k) const {
  require_same_group(g_, k.group(), "MillerVal::pow");
  return MillerVal(g_, g_->ctx().fq2().pow(v_, k.value()));
}

Bytes MillerVal::to_bytes() const {
  if (g_ == nullptr) throw MathError("MillerVal::to_bytes: uninitialized element");
  return g_->ctx().fq2().to_bytes(v_);
}

bool GT::in_subgroup() const {
  if (g_ == nullptr) throw MathError("GT::in_subgroup: uninitialized element");
  return g_->ctx().fq2().is_one(g_->ctx().fq2().pow(v_, g_->order()));
}

Bytes GT::to_bytes() const {
  if (g_ == nullptr) throw MathError("GT::to_bytes: uninitialized element");
  return g_->ctx().fq2().to_bytes(v_);
}

// ------------------------------------------------------------- Group --

Group::Group(const TypeAParams& params) : ctx_(params), zr_field_(params.r) {
  static std::atomic<uint64_t> next_instance_id{1};
  instance_id_ = next_instance_id.fetch_add(1, std::memory_order_relaxed);
  params.validate();
  // Deterministic generator: hash to the curve, clear the cofactor.
  generator_ = hash_to_g1(std::string_view("maabe/type-a/generator/v1"));
  if (generator_.is_identity()) throw MathError("Group: generator derivation failed");
  e_gg_ = pair(generator_, generator_);
  if (e_gg_.is_one()) throw MathError("Group: degenerate pairing");
  // Window tables for the two fixed bases every scheme algorithm uses.
  g_table_ = std::make_unique<G1FixedBase>(ctx_.curve(), generator_.pt_,
                                           params.r.bit_length());
  egg_table_ = std::make_unique<GtFixedBase>(ctx_.fq2(), e_gg_.v_,
                                             params.r.bit_length());
}

G1 Group::g_pow(const Zr& k) const {
  return G1(this, ctx_.curve().to_affine(g_pow_jac(k)));
}

JacPoint Group::g_pow_jac(const Zr& k) const {
  if (k.group() != this) throw MathError("g_pow: exponent from another group");
  return g_table_->pow_jac(k.value());
}

GT Group::egg_pow(const Zr& k) const {
  if (k.group() != this) throw MathError("egg_pow: exponent from another group");
  return GT(this, egg_table_->pow(k.value()));
}

std::unique_ptr<G1FixedBase> Group::g1_precompute(const G1& base) const {
  require_same_group(this, base.g_, "g1_precompute");
  return std::make_unique<G1FixedBase>(ctx_.curve(), base.pt_,
                                       params().r.bit_length());
}

G1 Group::g1_pow_with(const G1FixedBase& table, const Zr& k) const {
  return G1(this, ctx_.curve().to_affine(g1_pow_with_jac(table, k)));
}

JacPoint Group::g1_pow_with_jac(const G1FixedBase& table, const Zr& k) const {
  if (k.group() != this) throw MathError("g1_pow_with: exponent from another group");
  return table.pow_jac(k.value());
}

JacPoint Group::g1_mul_jac(const G1& base, const Zr& k) const {
  require_same_group(this, base.g_, "G1::mul");
  require_same_group(this, k.group(), "G1::mul");
  return ctx_.curve().mul_jac(base.pt_, k.value());
}

std::vector<G1> Group::g1_normalize(const std::vector<JacPoint>& pts) const {
  std::vector<G1> out;
  out.reserve(pts.size());
  for (AffinePoint& pt : ctx_.curve().to_affine_batch(pts.data(), pts.size()))
    out.push_back(G1(this, std::move(pt)));
  return out;
}

std::unique_ptr<GtFixedBase> Group::gt_precompute(const GT& base) const {
  require_same_group(this, base.g_, "gt_precompute");
  return std::make_unique<GtFixedBase>(ctx_.fq2(), base.v_,
                                       params().r.bit_length());
}

GT Group::gt_pow_with(const GtFixedBase& table, const Zr& k) const {
  if (k.group() != this) throw MathError("gt_pow_with: exponent from another group");
  return GT(this, table.pow(k.value()));
}

std::shared_ptr<const Group> Group::pbc_a512() {
  return std::make_shared<const Group>(TypeAParams::pbc_a512());
}

std::shared_ptr<const Group> Group::test_small() {
  return std::make_shared<const Group>(TypeAParams::test_small());
}

std::shared_ptr<const Group> Group::create(const TypeAParams& params) {
  return std::make_shared<const Group>(params);
}

size_t Group::zr_size() const { return (order().bit_length() + 7) / 8; }
size_t Group::g1_size() const { return ctx_.fq().byte_length() + 1; }
size_t Group::g1_uncompressed_size() const { return 2 * ctx_.fq().byte_length() + 1; }
size_t Group::gt_size() const { return 2 * ctx_.fq().byte_length(); }

Zr Group::zr_from_u64(uint64_t v) const {
  return Zr(this, Bignum::mod(Bignum::from_u64(v), order()));
}

Zr Group::zr_from_bignum(const Bignum& v) const {
  return Zr(this, Bignum::mod(v, order()));
}

Zr Group::zr_random(crypto::Drbg& rng) const { return Zr(this, rng.below(order())); }

Zr Group::zr_nonzero_random(crypto::Drbg& rng) const {
  return Zr(this, rng.nonzero_below(order()));
}

Zr Group::zr_from_bytes(ByteView data) const {
  if (data.size() != zr_size()) throw WireError("zr_from_bytes: bad length");
  const Bignum v = Bignum::from_bytes_be(data);
  if (Bignum::cmp(v, order()) >= 0) throw WireError("zr_from_bytes: value exceeds order");
  return Zr(this, v);
}

Zr Group::hash_to_zr(ByteView data) const {
  // 16 extra bytes make the mod-r bias negligible.
  const Bytes wide = expand("maabe/hash-to-zr", data, zr_size() + 16);
  return Zr(this, Bignum::mod(Bignum::from_bytes_be(wide), order()));
}

Zr Group::hash_to_zr(std::string_view s) const {
  return hash_to_zr(ByteView(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

G1 Group::g1_random(crypto::Drbg& rng) const {
  return g().mul(zr_nonzero_random(rng));
}

G1 Group::hash_to_g1(ByteView data) const {
  const FpCtx& fq = ctx_.fq();
  const CurveCtx& curve = ctx_.curve();
  for (uint32_t counter = 0; counter < 1000; ++counter) {
    Writer w;
    w.u32(counter);
    w.var_bytes(data);
    const Bytes xb = expand("maabe/hash-to-g1", w.bytes(), fq.byte_length() + 16);
    const FieldElem x = fq.to_mont(Bignum::mod(Bignum::from_bytes_be(xb), fq.modulus()));
    FieldElem y;
    if (!curve.lift_x(x, &y)) continue;
    // Pick the sign of y from one more hash bit for uniformity.
    const Bytes sign = expand("maabe/hash-to-g1/sign", w.bytes(), 1);
    if (sign[0] & 1) y = fq.neg(y);
    // Clear the cofactor to land in the order-r subgroup.
    const AffinePoint pt = curve.mul({x, y, false}, params().h);
    if (!pt.inf) return G1(this, pt);
  }
  throw MathError("hash_to_g1: failed to find a curve point");
}

G1 Group::hash_to_g1(std::string_view s) const {
  return hash_to_g1(ByteView(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

G1 Group::g1_from_bytes(ByteView data) const {
  return std::move(g1_from_bytes_batch(std::span<const ByteView>(&data, 1)).front());
}

std::vector<G1> Group::g1_from_bytes_batch(std::span<const ByteView> encodings) const {
  const FpCtx& fq = ctx_.fq();
  std::vector<G1> out(encodings.size(), g1_identity());
  std::vector<size_t> finite;  // indices into encodings, in order
  std::vector<FieldElem> xs, rhs;
  for (size_t k = 0; k < encodings.size(); ++k) {
    const ByteView data = encodings[k];
    if (data.size() != g1_size()) throw WireError("g1_from_bytes: bad length");
    const uint8_t flag = data.back();
    const ByteView xb = data.first(data.size() - 1);
    if (flag == 2) {
      for (uint8_t b : xb)
        if (b != 0) throw WireError("g1_from_bytes: malformed infinity encoding");
      continue;
    }
    if (flag > 1) throw WireError("g1_from_bytes: bad sign flag");
    finite.push_back(k);
    xs.push_back(fq.from_bytes(xb));
    rhs.push_back(ctx_.curve().rhs(xs.back()));
  }
  std::vector<FieldElem> ys(rhs.size());
  fq.sqrt_candidates(rhs, ys);
  for (size_t i = 0; i < finite.size(); ++i) {
    FieldElem& y = ys[i];
    if (fq.sqr(y) != rhs[i]) throw WireError("g1_from_bytes: x not on curve");
    // y = 0 has no odd root; flag 1 there would be a second encoding.
    const bool odd = encodings[finite[i]].back() == 1;
    if (odd && y.is_zero()) throw WireError("g1_from_bytes: bad sign flag");
    if (fq.from_mont(y).is_odd() != odd) y = fq.neg(y);
    out[finite[i]] = G1(this, {xs[i], y, false});
  }
  return out;
}

G1 Group::g1_from_bytes_uncompressed(ByteView data) const {
  if (data.size() != g1_uncompressed_size())
    throw WireError("g1_from_bytes_uncompressed: bad length");
  const FpCtx& fq = ctx_.fq();
  const size_t half = fq.byte_length();
  const uint8_t flag = data[data.size() - 1];
  if (flag == 2) {
    for (size_t i = 0; i + 1 < data.size(); ++i)
      if (data[i] != 0)
        throw WireError("g1_from_bytes_uncompressed: malformed infinity encoding");
    return g1_identity();
  }
  if (flag != 0) throw WireError("g1_from_bytes_uncompressed: bad flag");
  const AffinePoint pt{fq.from_bytes(data.subspan(0, half)),
                       fq.from_bytes(data.subspan(half, half)), false};
  if (!ctx_.curve().is_on_curve(pt))
    throw WireError("g1_from_bytes_uncompressed: point not on curve");
  return G1(this, pt);
}

GT Group::gt_random(crypto::Drbg& rng) const {
  return gt_generator().pow(zr_nonzero_random(rng));
}

GT Group::gt_from_bytes(ByteView data) const {
  return GT(this, ctx_.fq2().from_bytes(data));
}

GT Group::pair(const G1& a, const G1& b) const {
  require_same_group(this, a.g_, "Group::pair");
  require_same_group(this, b.g_, "Group::pair");
  if (a.pt_.inf || b.pt_.inf) return GT(this, ctx_.fq2().one());
  return GT(this, ctx_.final_exponentiation(ctx_.miller_loop(a.pt_, b.pt_)));
}

namespace {

using math::detail::Lanes;

/// Runs the items `live` in passes of up to eight: `lanes(pass)` on each
/// pass of at least `min_lanes` items when `has_lanes`, which returns
/// the mask of the pass's items it left undone; `scalar(i)` on every
/// item left undone and on every other pass.
template <class LanePass, class Scalar>
void run_passes(const std::vector<size_t>& live, bool has_lanes, size_t min_lanes,
                const LanePass& lanes, const Scalar& scalar) {
  for (size_t at = 0; at < live.size(); at += Lanes::kLanes) {
    const std::span<const size_t> pass =
        std::span(live).subspan(at, std::min<size_t>(Lanes::kLanes, live.size() - at));
    unsigned left = (1u << pass.size()) - 1;
    if (has_lanes && pass.size() >= min_lanes) left = lanes(pass);
    for (size_t j = 0; j < pass.size(); ++j)
      if (left >> j & 1) scalar(pass[j]);
  }
}

}  // namespace

std::vector<GT> Group::pair_batch(const PairingPrecomp& pre, std::span<const G1> bs) const {
  std::vector<GT> out(bs.size(), gt_one());
  std::vector<size_t> live;
  for (size_t i = 0; i < bs.size(); ++i) {
    require_same_group(this, bs[i].g_, "Group::pair_batch");
    if (!pre.base_is_infinity() && !bs[i].pt_.inf) live.push_back(i);
  }
  const math::detail::LaneField* lf = ctx_.fq().lanes();
  const auto lanes = [&](std::span<const size_t> pass) {
    const size_t n = pass.size();
    std::array<FieldElem, Lanes::kLanes> xs{}, ys{};
    for (size_t j = 0; j < n; ++j) {
      xs[j] = bs[pass[j]].pt_.x;
      ys[j] = bs[pass[j]].pt_.y;
    }
    const Fp2Of<Lanes> f = pre.miller_lanes(*lf, lf->to_lanes(std::span(xs).first(n)),
                                            lf->to_lanes(std::span(ys).first(n)));
    std::array<Fp2, Lanes::kLanes> vals;
    const unsigned left = ctx_.final_exponentiation_lanes(*lf, f, std::span(vals).first(n));
    for (size_t j = 0; j < n; ++j)
      if (!(left >> j & 1)) out[pass[j]] = GT(this, vals[j]);
    return left;
  };
  run_passes(live, lf != nullptr, kMinPairLanesPerPass, lanes, [&](size_t i) {
    out[i] = GT(this, ctx_.final_exponentiation(pre.miller(bs[i].pt_)));
  });
  return out;
}

std::vector<G1> Group::g1_pow_batch(std::span<const G1> bases, const Zr& k) const {
  require_same_group(this, k.group(), "Group::g1_pow_batch");
  const CurveCtx& curve = ctx_.curve();
  std::vector<JacPoint> jac(bases.size(), curve.to_jac(AffinePoint::infinity()));
  std::vector<size_t> live;
  for (size_t i = 0; i < bases.size(); ++i) {
    require_same_group(this, bases[i].g_, "Group::g1_pow_batch");
    if (!bases[i].pt_.inf && !k.is_zero()) live.push_back(i);
  }
  const math::detail::LaneField* lf = ctx_.fq().lanes();
  const auto lanes = [&](std::span<const size_t> pass) {
    const size_t n = pass.size();
    std::array<AffinePoint, Lanes::kLanes> pts;
    std::array<JacPoint, Lanes::kLanes> got;
    for (size_t j = 0; j < n; ++j) pts[j] = bases[pass[j]].pt_;
    const unsigned left = curve.mul_jac_lanes(*lf, std::span(pts).first(n), k.value(),
                                              std::span(got).first(n));
    for (size_t j = 0; j < n; ++j)
      if (!(left >> j & 1)) jac[pass[j]] = got[j];
    return left;
  };
  run_passes(live, lf != nullptr, kMinG1PowLanesPerPass, lanes,
             [&](size_t i) { jac[i] = curve.mul_jac(bases[i].pt_, k.value()); });
  return g1_normalize(jac);
}

MillerVal Group::miller(const G1& a, const G1& b) const {
  require_same_group(this, a.g_, "Group::miller");
  require_same_group(this, b.g_, "Group::miller");
  return MillerVal(this, ctx_.miller_loop(a.pt_, b.pt_));
}

GT Group::miller_reduce(const MillerVal& f) const {
  require_same_group(this, f.g_, "Group::miller_reduce");
  return GT(this, ctx_.final_exponentiation(f.v_));
}

JacPoint Group::g1_sum_jac(const std::vector<G1>& pts) const {
  const CurveCtx& curve = ctx_.curve();
  JacPoint acc = curve.to_jac(AffinePoint::infinity());
  for (const G1& p : pts) {
    require_same_group(this, p.g_, "Group::g1_sums");
    if (!p.pt_.inf) acc = curve.jac_add_mixed(acc, p.pt_);
  }
  return acc;
}

std::vector<G1> Group::g1_sums(const std::vector<std::vector<G1>>& sets) const {
  std::vector<JacPoint> jac;
  jac.reserve(sets.size());
  for (const std::vector<G1>& set : sets) jac.push_back(g1_sum_jac(set));
  return g1_normalize(jac);
}

std::vector<G1> Group::g1_combinations(const std::vector<std::vector<G1Run>>& combos) const {
  const CurveCtx& curve = ctx_.curve();
  const FpCtx& fq = ctx_.fq();
  std::vector<JacPoint> jac;
  jac.reserve(combos.size());
  for (const std::vector<G1Run>& runs : combos) {
    JacPoint acc = curve.to_jac(AffinePoint::infinity());
    for (const G1Run& run : runs) {
      JacPoint part = g1_sum_jac(run.pts);
      if (run.k.mag != 1) part = curve.jac_mul_u64(part, run.k.mag);
      if (run.k.neg) part.y = fq.neg(part.y);
      acc = curve.jac_add(acc, part);
    }
    jac.push_back(acc);
  }
  return g1_normalize(jac);
}

std::unique_ptr<PairingPrecomp> Group::pair_precompute(const G1& base) const {
  require_same_group(this, base.g_, "pair_precompute");
  return std::make_unique<PairingPrecomp>(ctx_, base.pt_);
}

MillerVal Group::miller_with(const PairingPrecomp& pre, const G1& b) const {
  require_same_group(this, b.g_, "Group::miller_with");
  return MillerVal(this, pre.miller(b.pt_));
}

}  // namespace maabe::pairing
