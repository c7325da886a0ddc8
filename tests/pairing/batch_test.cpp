// Group's same-schedule batches: pair_batch (many second arguments
// against one line table), CurveCtx::mul_jac_batch and the G1 batches on
// it (many bases, a scalar per lane, or one scalar in every lane),
// g1_pow_with_batch_jac (fixed-base table walks), G1FixedBase's lane
// build and g1_in_subgroup_batch (subgroup checks by r - 1). On an
// AVX-512 IFMA host the paper curve runs them as 8-lane passes; every
// result must be byte-identical to the scalar call it replaces,
// including the lanes that leave a pass for the scalar path (identity
// inputs, k = 0, and the exceptional additions and doublings that only
// points outside the order-r subgroup meet).
#include <gtest/gtest.h>

#include "common/errors.h"
#include "math/field_kernels.h"
#include "pairing/group.h"
#include "support/rogue_points.h"

namespace maabe::pairing {
namespace {

using rogue::point_of;
using rogue::random_curve_point;
using rogue::small_order_points;

/// The affine coordinates of a G1, through its uncompressed encoding.
AffinePoint affine_of(const Group& grp, const G1& p) {
  if (p.is_identity()) return AffinePoint::infinity();
  const FpCtx& fq = grp.ctx().fq();
  const Bytes b = p.to_bytes_uncompressed();
  const ByteView v(b);
  return {fq.from_bytes(v.subspan(0, fq.byte_length())),
          fq.from_bytes(v.subspan(fq.byte_length(), fq.byte_length())), false};
}

void check_pair_batch(const Group& grp) {
  crypto::Drbg rng(std::string_view("pair-batch"));
  const G1 a = grp.g1_random(rng);
  const auto pre = grp.pair_precompute(a);
  const auto pre_identity = grp.pair_precompute(grp.g1_identity());
  for (size_t n = 0; n <= 20; ++n) {
    SCOPED_TRACE("batch of " + std::to_string(n));
    std::vector<G1> bs;
    for (size_t i = 0; i < n; ++i)
      bs.push_back(i % 5 == 3 ? grp.g1_identity() : grp.g1_random(rng));
    const std::vector<GT> got = grp.pair_batch(*pre, bs);
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i)
      EXPECT_EQ(got[i].to_bytes(), grp.pair(a, bs[i]).to_bytes()) << "item " << i;
    for (const GT& one : grp.pair_batch(*pre_identity, bs)) EXPECT_TRUE(one.is_one());
  }
}

TEST(PairBatch, MatchesPairOnTestCurve) { check_pair_batch(*Group::test_small()); }

TEST(PairBatch, MatchesPairOnPaperCurve) { check_pair_batch(*Group::pbc_a512()); }

/// bases[i] * k for every i: one g1_mul_batch_jac with k in every lane,
/// then g1_normalize (a revocation's PK_x^{UK2}).
std::vector<G1> pow_batch(const Group& grp, std::span<const G1> bases, const Zr& k) {
  return grp.g1_normalize(grp.g1_mul_batch_jac(bases, std::vector<Zr>(bases.size(), k)));
}

void check_one_scalar_batch(const Group& grp) {
  crypto::Drbg rng(std::string_view("g1-pow-batch"));
  const std::vector<G1> odd = small_order_points(grp, rng);
  const G1 outside = point_of(grp, random_curve_point(grp, rng));
  const math::Bignum& r = grp.order();
  std::vector<Zr> scalars = {grp.zr_zero(), grp.zr_one(), grp.zr_from_u64(2),
                             grp.zr_from_u64(3), grp.zr_from_u64(5),
                             grp.zr_from_bignum(math::Bignum::sub(r, math::Bignum::from_u64(1)))};
  for (int k = 0; k < 3; ++k) scalars.push_back(grp.zr_random(rng));
  for (size_t n = 0; n <= 20; ++n) {
    // Subgroup points, with an identity, the small-order points and a
    // point outside the subgroup mixed in at varying lanes.
    std::vector<G1> bases;
    for (size_t i = 0; i < n; ++i) {
      if (i % 7 == 2) bases.push_back(grp.g1_identity());
      else if (i % 7 == 4) bases.push_back(odd[(i / 7) % odd.size()]);
      else if (i % 7 == 6) bases.push_back(outside);
      else bases.push_back(grp.g1_random(rng));
    }
    // Every scalar at a few sizes, one random scalar at the rest.
    const bool all = n <= 3 || n == 8 || n == 9 || n == 17;
    for (size_t s = all ? 0 : scalars.size() - 1; s < scalars.size(); ++s) {
      SCOPED_TRACE("batch of " + std::to_string(n) + ", scalar " + std::to_string(s));
      const std::vector<G1> got = pow_batch(grp, bases, scalars[s]);
      ASSERT_EQ(got.size(), n);
      for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i].to_bytes(), bases[i].mul(scalars[s]).to_bytes()) << "item " << i;
    }
  }
}

TEST(G1PowBatch, MatchesMulOnTestCurve) { check_one_scalar_batch(*Group::test_small()); }

TEST(G1PowBatch, MatchesMulOnPaperCurve) { check_one_scalar_batch(*Group::pbc_a512()); }

TEST(G1PowBatch, SmallOrderPointsTakeEveryExceptionalRoute) {
  // Eight copies of each small-order point fill a whole pass, so each
  // exceptional lane leaves a vector pass rather than a scalar loop.
  const auto grp = Group::pbc_a512();
  crypto::Drbg rng(std::string_view("g1-pow-exceptional"));
  for (const G1& p : small_order_points(*grp, rng)) {
    const std::vector<G1> bases(8, p);
    for (uint64_t k = 1; k <= 13; ++k) {
      const Zr zk = grp->zr_from_u64(k);
      const std::vector<G1> got = pow_batch(*grp, bases, zk);
      for (const G1& g : got) EXPECT_EQ(g.to_bytes(), p.mul(zk).to_bytes()) << "k = " << k;
    }
  }
}

TEST(G1PowBatch, RejectsElementsOfAnotherGroup) {
  const auto a = Group::test_small();
  const auto b = Group::test_small();
  crypto::Drbg rng(std::string_view("g1-pow-groups"));
  const std::vector<G1> bases = {a->g1_random(rng), b->g1_random(rng)};
  EXPECT_THROW((void)pow_batch(*a, bases, a->zr_one()), MathError);
  EXPECT_THROW((void)a->pair_batch(*a->pair_precompute(bases[0]), bases), MathError);
}

// ------------------------------------------- G1 passes, a scalar per lane --

/// The scalars of the lane kernel's edge cases: 1, 2, the window's 15,
/// 16 and 17, powers of two across and at window edges, r - 1 (two
/// non-zero windows) and random scalars.
std::vector<math::Bignum> lane_scalars(const Group& grp, crypto::Drbg& rng) {
  using math::Bignum;
  std::vector<Bignum> ks;
  for (const uint64_t k : {1, 2, 15, 16, 17}) ks.push_back(Bignum::from_u64(k));
  for (const int e : {3, 4, 7, 52, 64, 107, 158, 159})
    ks.push_back(Bignum::shl(Bignum::from_u64(1), e));
  ks.push_back(Bignum::sub(grp.order(), Bignum::from_u64(1)));
  for (int i = 0; i < 3; ++i) ks.push_back(grp.zr_nonzero_random(rng).value());
  return ks;
}

/// mul_jac_batch(lf, 1, pts, ks) against mul_jac on every item, compared
/// as points (the lanes' residues differ from mul_jac's).
void expect_batch_matches_mul_jac(const CurveCtx& curve, const math::detail::LaneField* lf,
                                  const std::vector<AffinePoint>& pts,
                                  const std::vector<const math::Bignum*>& ks,
                                  const std::string& what) {
  const std::vector<JacPoint> got = curve.mul_jac_batch(lf, 1, pts, ks);
  ASSERT_EQ(got.size(), pts.size()) << what;
  for (size_t i = 0; i < pts.size(); ++i) {
    const AffinePoint want = curve.to_affine(curve.mul_jac(pts[i], *ks[i]));
    EXPECT_TRUE(curve.eq(curve.to_affine(got[i]), want)) << what << ", item " << i;
  }
}

/// Subgroup points with scalars distinct per lane and repeated across
/// lanes, for one to eight lanes, on `lf` (null for the scalar path).
void check_lane_scalars(const Group& grp, const math::detail::LaneField* lf) {
  crypto::Drbg rng(std::string_view("g1-lane-scalars"));
  const CurveCtx& curve = grp.ctx().curve();
  const std::vector<math::Bignum> ks = lane_scalars(grp, rng);
  std::vector<AffinePoint> pts;
  for (size_t j = 0; j < 8; ++j) pts.push_back(affine_of(grp, grp.g1_random(rng)));
  for (size_t n = 1; n <= 8; ++n) {
    const std::vector<AffinePoint> pass(pts.begin(), pts.begin() + static_cast<ptrdiff_t>(n));
    for (size_t shift = 0; shift < ks.size(); ++shift) {
      std::vector<const math::Bignum*> distinct, repeated;
      for (size_t j = 0; j < n; ++j) {
        distinct.push_back(&ks[(shift + 5 * j) % ks.size()]);
        repeated.push_back(&ks[shift]);
      }
      const std::string what = std::to_string(n) + " lanes, shift " + std::to_string(shift);
      expect_batch_matches_mul_jac(curve, lf, pass, distinct, what + ", distinct");
      expect_batch_matches_mul_jac(curve, lf, pass, repeated, what + ", repeated");
    }
  }
}

/// The points of order 2, 3, 4 and 17 and their sums with subgroup
/// points, each at every position of a pass of subgroup points, under
/// every edge scalar, on `lf` (null for the scalar path).
void check_lane_rogues(const Group& grp, const math::detail::LaneField* lf) {
  crypto::Drbg rng(std::string_view("g1-lane-rogues"));
  const CurveCtx& curve = grp.ctx().curve();
  const std::vector<math::Bignum> ks = lane_scalars(grp, rng);
  std::vector<G1> small = small_order_points(grp, rng);
  small.push_back(rogue::point_of_order(grp, 17, rng));
  std::vector<AffinePoint> rogues;
  for (const G1& p : small) rogues.push_back(affine_of(grp, p));
  for (const G1& p : small) rogues.push_back(affine_of(grp, p + grp.g1_random(rng)));
  std::vector<AffinePoint> subgroup;
  for (size_t j = 0; j < 8; ++j) subgroup.push_back(affine_of(grp, grp.g1_random(rng)));
  for (size_t k = 0; k < rogues.size(); ++k) {
    for (size_t at = 0; at < subgroup.size(); ++at) {
      std::vector<AffinePoint> pts = subgroup;
      pts[at] = rogues[k];
      for (size_t s = 0; s < ks.size(); s += 3) {
        std::vector<const math::Bignum*> lane_ks;
        for (size_t j = 0; j < pts.size(); ++j) lane_ks.push_back(&ks[(s + j) % ks.size()]);
        expect_batch_matches_mul_jac(curve, lf, pts, lane_ks,
                                     "rogue " + std::to_string(k) + " at " + std::to_string(at) +
                                         ", scalars from " + std::to_string(s));
      }
    }
  }
}

TEST(G1LanePass, ScalarPerLaneMatchesMulJacOnPaperCurve) {
  const auto grp = Group::pbc_a512();
  check_lane_scalars(*grp, grp->ctx().fq().lanes());
}

// The test curve has no lanes (its field is not 8 limbs), so it runs
// the same cases on the scalar path only.
TEST(G1LanePass, ScalarPerLaneMatchesMulJacWithoutLanes) {
  check_lane_scalars(*Group::test_small(), nullptr);
  check_lane_scalars(*Group::pbc_a512(), nullptr);
}

TEST(G1LanePass, SmallOrderPointsAndSumsAtEveryLaneMatchMulJac) {
  const auto grp = Group::pbc_a512();
  check_lane_rogues(*grp, grp->ctx().fq().lanes());
  check_lane_rogues(*grp, nullptr);
}

TEST(G1LanePass, SubgroupLanesNeverLeaveThePass) {
  // Only a point outside the order-r subgroup can meet an exceptional
  // step, so a pass of subgroup points hands no lane back, whatever
  // its scalars; every lane is the point mul_jac gives.
  const auto grp = Group::pbc_a512();
  const math::detail::LaneField* lf = grp->ctx().fq().lanes();
  if (lf == nullptr) GTEST_SKIP() << "no AVX-512 IFMA";
  crypto::Drbg rng(std::string_view("g1-lane-subgroup"));
  const CurveCtx& curve = grp->ctx().curve();
  const std::vector<math::Bignum> ks = lane_scalars(*grp, rng);
  for (size_t n = 1; n <= 8; ++n) {
    std::vector<AffinePoint> pts;
    std::vector<const math::Bignum*> lane_ks;
    for (size_t j = 0; j < n; ++j) {
      pts.push_back(affine_of(*grp, grp->g1_random(rng)));
      lane_ks.push_back(&ks[(n + 3 * j) % ks.size()]);
    }
    std::vector<JacPoint> out(n);
    EXPECT_EQ(curve.mul_jac_lanes(*lf, pts, lane_ks, out), 0u) << n << " lanes";
    for (size_t j = 0; j < n; ++j)
      EXPECT_TRUE(curve.eq(curve.to_affine(out[j]),
                           curve.to_affine(curve.mul_jac(pts[j], *lane_ks[j]))))
          << n << " lanes, lane " << j;
  }
  const math::Bignum zero;
  std::vector<JacPoint> out(1);
  EXPECT_THROW(curve.mul_jac_lanes(*lf, std::vector<AffinePoint>(1, affine_of(*grp, grp->g())),
                                   std::vector<const math::Bignum*>(1, &zero), out),
               MathError);
}

// ------------------------------------------------ fixed-base table walks --

/// A point of order 17 on the paper curve (17 divides its cofactor).
/// 16 = -1 mod 17, so every digit base is +-P and its table is finite,
/// while a walk meets H = 0 whenever two digits' multiples are +-equal.
G1 order17_point(const Group& grp, crypto::Drbg& rng) {
  return rogue::point_of_order(grp, 17, rng);
}

/// Same Jacobian residues, so the same point and the same bytes.
void expect_same_jac(const JacPoint& got, const JacPoint& want, const std::string& what) {
  EXPECT_EQ(got.x, want.x) << what;
  EXPECT_EQ(got.y, want.y) << what;
  EXPECT_EQ(got.z, want.z) << what;
}

/// One pow_jac_lanes pass over `ks` against pow_jac on each; returns the
/// exceptional mask after checking that every other lane matches.
unsigned check_walk_pass(const math::detail::LaneField& lf,
                         const std::vector<const G1FixedBase*>& tables,
                         const std::vector<math::Bignum>& ks) {
  std::vector<const math::Bignum*> kp;
  for (const math::Bignum& k : ks) kp.push_back(&k);
  std::vector<JacPoint> out(ks.size());
  const unsigned left = G1FixedBase::pow_jac_lanes(lf, tables, kp, out);
  for (size_t j = 0; j < ks.size(); ++j)
    if (!(left >> j & 1))
      expect_same_jac(out[j], tables[j]->pow_jac(ks[j]), "lane " + std::to_string(j));
  return left;
}

/// ks[at, at + 8), clipped to the end: one pass's exponents.
std::vector<math::Bignum> pass_at(const std::vector<math::Bignum>& ks, size_t at) {
  const auto begin = ks.begin() + static_cast<ptrdiff_t>(at);
  return {begin, begin + static_cast<ptrdiff_t>(std::min<size_t>(8, ks.size() - at))};
}

TEST(G1TableWalk, MatchesPowJacForBatchesOf0To20) {
  if (!math::detail::ifma_kernel_available()) GTEST_SKIP() << "no AVX-512 IFMA";
  const auto grp = Group::pbc_a512();
  crypto::Drbg rng(std::string_view("g1-table-walk"));
  const auto table = grp->g1_precompute(grp->g1_random(rng));
  for (size_t n = 0; n <= 20; ++n) {
    SCOPED_TRACE("batch of " + std::to_string(n));
    std::vector<const G1FixedBase*> tables;
    std::vector<Zr> ks;
    for (size_t i = 0; i < n; ++i) {
      tables.push_back(i % 3 == 1 ? &grp->g_table() : table.get());
      ks.push_back(i % 5 == 3 ? grp->zr_zero() : grp->zr_random(rng));
    }
    const std::vector<JacPoint> got = grp->g1_pow_with_batch_jac(tables, ks);
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i)
      expect_same_jac(got[i], grp->g1_pow_with_jac(*tables[i], ks[i]), "item " + std::to_string(i));
    std::vector<JacPoint> want;
    for (size_t i = 0; i < n; ++i) want.push_back(grp->g1_pow_with_jac(*tables[i], ks[i]));
    const std::vector<G1> got_affine = grp->g1_normalize(got);
    const std::vector<G1> want_affine = grp->g1_normalize(want);
    for (size_t i = 0; i < n; ++i)
      EXPECT_EQ(got_affine[i].to_bytes(), want_affine[i].to_bytes()) << "item " << i;
  }
}

TEST(G1TableWalk, EdgeExponentsAndLeadingZeroDigits) {
  if (!math::detail::ifma_kernel_available()) GTEST_SKIP() << "no AVX-512 IFMA";
  const auto grp = Group::pbc_a512();
  const math::detail::LaneField& lf = *grp->ctx().fq().lanes();
  crypto::Drbg rng(std::string_view("g1-table-walk-edges"));
  const G1FixedBase& g = grp->g_table();
  const math::Bignum& r = grp->order();
  std::vector<math::Bignum> ks = {math::Bignum::from_u64(1),
                                  math::Bignum::sub(r, math::Bignum::from_u64(1))};
  // A single non-zero digit at every position (digit values 1, 8, 15).
  for (int d = 0; d < g.digits(); ++d)
    for (uint64_t v = 1; v < 16; v += 7)
      ks.push_back(math::Bignum::shl(math::Bignum::from_u64(v), 4 * d));
  // Leading runs of zero digits (the walk starts at digit 0): a random
  // exponent shifted up, so each lane starts at a different step.
  for (int zeros = 1; zeros < g.digits(); ++zeros) {
    const math::Bignum top = math::Bignum::shr(grp->zr_random(rng).value(), 4 * zeros);
    if (!top.is_zero()) ks.push_back(math::Bignum::shl(top, 4 * zeros));
  }
  for (size_t at = 0; at < ks.size(); at += 8) {
    const std::vector<math::Bignum> pass = pass_at(ks, at);
    const std::vector<const G1FixedBase*> tables(pass.size(), &g);
    SCOPED_TRACE("pass at " + std::to_string(at));
    EXPECT_EQ(check_walk_pass(lf, tables, pass), 0u);
  }
  // A pass refuses zero and exponents past the table's range.
  const std::vector<const G1FixedBase*> one_table = {&g};
  std::vector<JacPoint> out(1);
  const math::Bignum past = math::Bignum::shl(math::Bignum::from_u64(1), 4 * g.digits());
  for (const math::Bignum& bad : {math::Bignum(), past}) {
    const std::vector<const math::Bignum*> kp = {&bad};
    EXPECT_THROW((void)G1FixedBase::pow_jac_lanes(lf, one_table, kp, out), MathError);
  }
}

TEST(G1TableWalk, LanesOverMixedTables) {
  if (!math::detail::ifma_kernel_available()) GTEST_SKIP() << "no AVX-512 IFMA";
  const auto grp = Group::pbc_a512();
  const math::detail::LaneField& lf = *grp->ctx().fq().lanes();
  crypto::Drbg rng(std::string_view("g1-table-walk-mixed"));
  std::vector<std::unique_ptr<G1FixedBase>> owned;
  std::vector<const G1FixedBase*> tables = {&grp->g_table()};
  for (int i = 0; i < 7; ++i) {
    owned.push_back(grp->g1_precompute(grp->g1_random(rng)));
    tables.push_back(owned.back().get());
  }
  for (size_t n = 1; n <= 8; ++n) {
    SCOPED_TRACE("lanes " + std::to_string(n));
    std::vector<math::Bignum> ks;
    for (size_t j = 0; j < n; ++j) ks.push_back(grp->zr_nonzero_random(rng).value());
    const std::vector<const G1FixedBase*> first(tables.begin(),
                                                tables.begin() + static_cast<ptrdiff_t>(n));
    EXPECT_EQ(check_walk_pass(lf, first, ks), 0u);
  }
  // A table of another shape does not share a pass.
  const G1FixedBase wide(grp->ctx().curve(), owned[0]->entry(0, 1),
                         static_cast<int>(grp->order().bit_length()), 5);
  const std::vector<const G1FixedBase*> shapes = {tables[0], &wide};
  const math::Bignum one = math::Bignum::from_u64(1);
  const std::vector<const math::Bignum*> kp = {&one, &one};
  std::vector<JacPoint> out(2);
  EXPECT_THROW((void)G1FixedBase::pow_jac_lanes(lf, shapes, kp, out), MathError);
}

TEST(G1TableWalk, ExceptionalLanesLeaveThePass) {
  if (!math::detail::ifma_kernel_available()) GTEST_SKIP() << "no AVX-512 IFMA";
  const auto grp = Group::pbc_a512();
  const math::detail::LaneField& lf = *grp->ctx().fq().lanes();
  crypto::Drbg rng(std::string_view("g1-table-walk-exceptional"));
  const G1 p17 = order17_point(*grp, rng);
  const auto table = grp->g1_precompute(p17);
  ASSERT_TRUE(table->finite());
  // Two digits d0, d1: d1 * 16P = -d1 * P, so H = 0 when d0 = d1 (the
  // sum is the identity) and when d0 + d1 = 17 (a doubling).
  std::vector<math::Bignum> ks;
  for (uint64_t d0 = 1; d0 < 16; ++d0)
    for (uint64_t d1 : {d0, 17 - d0, (d0 % 15) + 1})
      ks.push_back(math::Bignum::from_u64(d0 + 16 * d1 + 256 * 3));
  unsigned exceptional = 0;
  for (size_t at = 0; at < ks.size(); at += 8) {
    const std::vector<math::Bignum> pass = pass_at(ks, at);
    const std::vector<const G1FixedBase*> tables(pass.size(), table.get());
    exceptional |= check_walk_pass(lf, tables, pass);
  }
  EXPECT_NE(exceptional, 0u);
  // Through the Group, every item has pow_jac's bytes.
  std::vector<Zr> zks;
  for (const math::Bignum& k : ks) zks.push_back(grp->zr_from_bignum(k));
  const std::vector<const G1FixedBase*> tables(zks.size(), table.get());
  const std::vector<JacPoint> got = grp->g1_pow_with_batch_jac(tables, zks);
  for (size_t i = 0; i < zks.size(); ++i)
    EXPECT_EQ(grp->g1_normalize({got[i]})[0].to_bytes(), p17.mul(zks[i]).to_bytes()) << i;
}

/// Every entry of the lane build and the scalar build, compared.
void expect_same_table(const G1FixedBase& a, const G1FixedBase& b, int span) {
  ASSERT_EQ(a.digits(), b.digits());
  EXPECT_EQ(a.finite(), b.finite());
  for (int d = 0; d < a.digits(); ++d)
    for (int j = 0; j < span; ++j) {
      const AffinePoint &x = a.entry(d, j), &y = b.entry(d, j);
      ASSERT_EQ(x.inf, y.inf) << d << "," << j;
      if (!x.inf) {
        EXPECT_EQ(x.x, y.x) << d << "," << j;
        EXPECT_EQ(x.y, y.y) << d << "," << j;
      }
    }
}

TEST(G1FixedBaseBuild, LaneBuildEqualsScalarBuild) {
  if (!math::detail::ifma_kernel_available()) GTEST_SKIP() << "no AVX-512 IFMA";
  const auto grp = Group::pbc_a512();
  const CurveCtx& curve = grp->ctx().curve();
  const math::detail::LaneField* lf = grp->ctx().fq().lanes();
  crypto::Drbg rng(std::string_view("g1-table-build"));
  const int bits = static_cast<int>(grp->order().bit_length());
  // Subgroup bases, a point outside the subgroup, and small-order points
  // whose rows meet the exceptional additions (and whose later digit
  // bases are the identity).
  // A table's entry (0, 1) is its base: the affine form of a G1.
  const auto affine_of = [&](const G1& p) { return grp->g1_precompute(p)->entry(0, 1); };
  std::vector<AffinePoint> bases = {random_curve_point(*grp, rng), affine_of(grp->g()),
                                    affine_of(grp->g1_random(rng))};
  for (const G1& p : small_order_points(*grp, rng)) bases.push_back(affine_of(p));
  bases.push_back(affine_of(order17_point(*grp, rng)));
  for (const AffinePoint& base : bases) {
    for (const int w : {1, 3, 4, 5}) {
      SCOPED_TRACE("window " + std::to_string(w));
      const G1FixedBase scalar(curve, base, bits, w, nullptr);
      const G1FixedBase lanes(curve, base, bits, w, lf);
      expect_same_table(lanes, scalar, 1 << w);
      EXPECT_EQ(scalar.entry(0, 1).x, base.x);
    }
  }
}

// ------------------------------------------------------- subgroup checks --

void check_subgroup_batch(const Group& grp) {
  crypto::Drbg rng(std::string_view("g1-subgroup-batch"));
  const std::vector<G1> outside = rogue::outside_points(grp, rng);
  size_t next_outside = 0;
  const auto check = [&](const std::vector<G1>& pts, const std::vector<bool>& want) {
    const std::vector<bool> got = grp.g1_in_subgroup_batch(pts);
    ASSERT_EQ(got.size(), pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "item " << i;
      EXPECT_EQ(got[i], pts[i].in_subgroup()) << "item " << i;
    }
  };
  // The identity, subgroup points and outside points in turn, rotated
  // so that each kind sits at every position of every batch size.
  for (size_t n = 0; n <= 20; ++n) {
    for (size_t shift = 0; shift < 3; ++shift) {
      SCOPED_TRACE("batch of " + std::to_string(n) + ", shift " + std::to_string(shift));
      std::vector<G1> pts;
      std::vector<bool> want;
      for (size_t i = 0; i < n; ++i) {
        switch ((i + shift) % 3) {
          case 0: pts.push_back(grp.g1_identity()); break;
          case 1: pts.push_back(grp.g1_random(rng)); break;
          default: pts.push_back(outside[next_outside++ % outside.size()]);
        }
        want.push_back((i + shift) % 3 != 2);
      }
      check(pts, want);
    }
  }
  // One outside point among full passes of subgroup points, at every
  // position of a batch of 17 (two full passes and a lone point).
  std::vector<G1> subgroup;
  for (size_t i = 0; i < 17; ++i) subgroup.push_back(grp.g1_random(rng));
  for (size_t at = 0; at < subgroup.size(); ++at) {
    SCOPED_TRACE("outside point at " + std::to_string(at));
    std::vector<G1> pts = subgroup;
    pts[at] = outside[next_outside++ % outside.size()];
    std::vector<bool> want(pts.size(), true);
    want[at] = false;
    check(pts, want);
  }
}

TEST(G1SubgroupBatch, AgreesWithInSubgroupOnTestCurve) {
  check_subgroup_batch(*Group::test_small());
}

TEST(G1SubgroupBatch, AgreesWithInSubgroupOnPaperCurve) {
  check_subgroup_batch(*Group::pbc_a512());
}

TEST(G1SubgroupBatch, SmallOrderPointsAndTheirSumsFail) {
  const auto grp = Group::pbc_a512();
  crypto::Drbg rng(std::string_view("g1-subgroup-small-order"));
  std::vector<G1> small = small_order_points(*grp, rng);
  small.push_back(order17_point(*grp, rng));
  ASSERT_EQ(small.size(), 4u);  // orders 2, 3, 4 and 17
  std::vector<G1> rogues = small;
  for (const G1& p : small) rogues.push_back(p + grp->g1_random(rng));
  std::vector<G1> subgroup;
  for (size_t i = 0; i < 8; ++i) subgroup.push_back(grp->g1_random(rng));
  // Each rogue point at every position of a full pass of subgroup points.
  for (size_t k = 0; k < rogues.size(); ++k) {
    EXPECT_FALSE(rogues[k].in_subgroup()) << "rogue " << k;
    for (size_t at = 0; at < subgroup.size(); ++at) {
      std::vector<G1> pts = subgroup;
      pts[at] = rogues[k];
      const std::vector<bool> got = grp->g1_in_subgroup_batch(pts);
      for (size_t j = 0; j < pts.size(); ++j)
        EXPECT_EQ(got[j], j != at) << "rogue " << k << " at " << at << ", item " << j;
    }
    EXPECT_EQ(grp->g1_in_subgroup_batch(std::vector<G1>(8, rogues[k])),
              std::vector<bool>(8, false))
        << "rogue " << k;
  }
  // On the lanes, a multiply by r - 1 meets an exceptional step on every
  // small-order point (a doubling at Y = 0 or a multiple at infinity
  // while the pass builds 1P..15P, or for order 17 the addition of 8P to
  // 8 * 16^13 P = -8P), so those lanes take the scalar path; the sums do
  // not.
  const math::detail::LaneField* lf = grp->ctx().fq().lanes();
  if (lf == nullptr) GTEST_SKIP() << "no AVX-512 IFMA";
  const math::Bignum r_minus_1 = math::Bignum::sub(grp->order(), math::Bignum::from_u64(1));
  const std::vector<const math::Bignum*> ks(8, &r_minus_1);
  for (size_t k = 0; k < rogues.size(); ++k) {
    const std::vector<AffinePoint> lanes(8, affine_of(*grp, rogues[k]));
    std::vector<JacPoint> out(8);
    const unsigned left = grp->ctx().curve().mul_jac_lanes(*lf, lanes, ks, out);
    EXPECT_EQ(left, k < small.size() ? 0xFFu : 0u) << "rogue " << k;
  }
}

TEST(G1SubgroupBatch, RejectsElementsOfAnotherGroup) {
  const auto a = Group::test_small();
  const auto b = Group::test_small();
  crypto::Drbg rng(std::string_view("g1-subgroup-groups"));
  const std::vector<G1> pts = {a->g1_random(rng), b->g1_random(rng)};
  EXPECT_THROW((void)a->g1_in_subgroup_batch(pts), MathError);
}

}  // namespace
}  // namespace maabe::pairing
