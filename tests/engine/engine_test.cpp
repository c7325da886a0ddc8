// CryptoEngine batch APIs must agree bit-for-bit with the naive serial
// fold/loop they replace, for any thread count.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "abe/scheme.h"
#include "common/errors.h"
#include "lsss/parser.h"
#include "math/field_kernels.h"
#include "telemetry/metrics.h"

namespace maabe::engine {
namespace {

using pairing::G1;
using pairing::Group;
using pairing::GT;
using pairing::Zr;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : grp(Group::test_small()), rng(std::string_view("engine-test")) {}

  std::shared_ptr<const Group> grp;
  crypto::Drbg rng;
};

TEST_F(EngineTest, PairingProductMatchesSerialFold) {
  CryptoEngine eng(*grp, 4);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{5}, size_t{16},
                         size_t{17}}) {
    std::vector<CryptoEngine::PairTerm> terms;
    for (size_t i = 0; i < n; ++i)
      terms.push_back({grp->g1_random(rng), grp->g1_random(rng)});

    GT expected = grp->gt_one();
    for (const auto& t : terms) expected = expected * grp->pair(t.a, t.b);

    const GT got = eng.pairing_product(terms);
    EXPECT_EQ(got.to_bytes(), expected.to_bytes()) << "n=" << n;
  }
}

TEST_F(EngineTest, PairingProductSkipsIdentityTermsLikeSerialFold) {
  CryptoEngine eng(*grp, 4);
  const G1 inf = grp->g1_identity();
  std::vector<CryptoEngine::PairTerm> terms;
  terms.push_back({grp->g1_random(rng), grp->g1_random(rng)});
  terms.push_back({inf, grp->g1_random(rng)});
  terms.push_back({grp->g1_random(rng), inf});
  terms.push_back({grp->g1_random(rng), grp->g1_random(rng)});
  terms.push_back({inf, inf});
  GT expected = grp->gt_one();
  for (const auto& t : terms) expected = expected * grp->pair(t.a, t.b);
  EXPECT_EQ(eng.pairing_product(terms).to_bytes(), expected.to_bytes());

  // All-identity product: GT's one, and no final exponentiation paid.
  const EngineStats before = eng.stats();
  const GT one = eng.pairing_product({{inf, inf}, {inf, grp->g1_random(rng)}});
  EXPECT_EQ(one.to_bytes(), grp->gt_one().to_bytes());
  EXPECT_EQ((eng.stats() - before).final_exps, 0u);
  EXPECT_EQ((eng.stats() - before).miller_loops, 0u);
}

TEST_F(EngineTest, PairingPowerProductMatchesSerialFold) {
  CryptoEngine eng(*grp, 4);
  std::vector<CryptoEngine::PairTerm> terms;
  std::vector<Zr> exps;
  // Adjacent equal exponents (the decrypt-denominator shape, folded
  // into one exponentiation per run), then distinct ones.
  const Zr shared = grp->zr_random(rng);
  for (int i = 0; i < 6; ++i) {
    terms.push_back({grp->g1_random(rng), grp->g1_random(rng)});
    exps.push_back(i < 4 ? shared : grp->zr_random(rng));
  }
  // A zero exponent and an identity term must both drop out.
  terms.push_back({grp->g1_random(rng), grp->g1_random(rng)});
  exps.push_back(grp->zr_zero());
  terms.push_back({grp->g1_identity(), grp->g1_random(rng)});
  exps.push_back(grp->zr_random(rng));

  GT expected = grp->gt_one();
  for (size_t i = 0; i < terms.size(); ++i)
    expected = expected * grp->pair(terms[i].a, terms[i].b).pow(exps[i]);
  EXPECT_EQ(eng.pairing_power_product(terms, exps).to_bytes(),
            expected.to_bytes());
  EXPECT_THROW(eng.pairing_power_product(terms, {grp->zr_one()}), MathError);
}

// ---- Bilinear term merging ------------------------------------------
// The kernel runs ONE Miller loop per (first argument, full-size
// exponent) class, on e(a, sum of the class's b_i), and one per first
// argument for all its small exponents. Each case below compares
// against the serial per-pairing fold byte for byte at 1 and 4 threads
// and pins the exact op delta: every submitted term counts as a
// pairing, every class that does not cancel as a Miller loop, every
// run of equal full-size exponents as a GT exponentiation. Random
// exponents are full-size.

GT serial_power_fold(const Group& grp, const std::vector<CryptoEngine::PairTerm>& terms,
                     const std::vector<Zr>& exps) {
  GT acc = grp.gt_one();
  for (size_t i = 0; i < terms.size(); ++i)
    acc = acc * grp.pair(terms[i].a, terms[i].b).pow(exps[i]);
  return acc;
}

struct MergeCase {
  std::vector<CryptoEngine::PairTerm> terms;
  std::vector<Zr> exps;
};

void expect_merged(const Group& grp, const MergeCase& c, uint64_t loops,
                   uint64_t final_exps, uint64_t gt_exps) {
  const Bytes expected = serial_power_fold(grp, c.terms, c.exps).to_bytes();
  for (const int threads : {1, 4}) {
    CryptoEngine eng(grp, threads);
    const EngineStats before = eng.stats();
    EXPECT_EQ(eng.pairing_power_product(c.terms, c.exps).to_bytes(), expected)
        << threads << " threads";
    const EngineStats d = eng.stats() - before;
    EXPECT_EQ(d.pairings, c.terms.size()) << threads << " threads";
    EXPECT_EQ(d.miller_loops, loops) << threads << " threads";
    EXPECT_EQ(d.final_exps, final_exps) << threads << " threads";
    EXPECT_EQ(d.gt_exps, gt_exps) << threads << " threads";
  }
}

TEST_F(EngineTest, MergesRepeatedFirstArgumentsWithEqualExponents) {
  // Interleaved like a decrypt's rows: two first arguments, one shared
  // exponent -> two classes.
  const G1 p = grp->g1_random(rng), c = grp->g1_random(rng);
  const Zr e = grp->zr_random(rng);
  MergeCase mc;
  for (int i = 0; i < 5; ++i) {
    mc.terms.push_back({p, grp->g1_random(rng)});
    mc.terms.push_back({c, grp->g1_random(rng)});
    mc.exps.insert(mc.exps.end(), {e, e});
  }
  expect_merged(*grp, mc, 2, 1, 1);
}

TEST_F(EngineTest, MergeSplitsOneFirstArgumentByExponent) {
  const G1 a = grp->g1_random(rng);
  const Zr e1 = grp->zr_random(rng), e2 = grp->zr_random(rng);
  MergeCase mc;
  for (const Zr& e : {e1, e2, e1, e2, e1}) {
    mc.terms.push_back({a, grp->g1_random(rng)});
    mc.exps.push_back(e);
  }
  expect_merged(*grp, mc, 2, 1, 2);
}

TEST_F(EngineTest, MergeSkipsAClassWhoseSecondArgumentsCancel) {
  const G1 a = grp->g1_random(rng), b = grp->g1_random(rng);
  const Zr e = grp->zr_random(rng);
  MergeCase mc;
  mc.terms = {{a, b}, {grp->g1_random(rng), grp->g1_random(rng)}, {a, b.neg()}};
  mc.exps = {e, grp->zr_random(rng), e};
  expect_merged(*grp, mc, 1, 1, 1);
}

TEST_F(EngineTest, MergeDoublesDuplicateSecondArguments) {
  // b + b takes jac_add_mixed's doubling branch.
  const G1 a = grp->g1_random(rng), b = grp->g1_random(rng);
  const Zr e = grp->zr_random(rng);
  MergeCase mc;
  mc.terms = {{a, b}, {a, b}, {a, grp->g1_random(rng)}};
  mc.exps = {e, e, e};
  expect_merged(*grp, mc, 1, 1, 1);
  mc.terms.pop_back();
  mc.exps.pop_back();
  expect_merged(*grp, mc, 1, 1, 1);
}

TEST_F(EngineTest, AllCancellingProductIsOneWithoutFinalExponentiation) {
  const G1 a = grp->g1_random(rng), b = grp->g1_random(rng);
  const G1 c = grp->g1_random(rng), d = grp->g1_random(rng);
  const Zr e = grp->zr_random(rng), f = grp->zr_random(rng);
  MergeCase mc;
  mc.terms = {{a, b}, {c, d}, {a, b.neg()}, {c, d.neg()}};
  mc.exps = {e, f, e, f};
  ASSERT_EQ(serial_power_fold(*grp, mc.terms, mc.exps).to_bytes(),
            grp->gt_one().to_bytes());
  expect_merged(*grp, mc, 0, 0, 0);
}

// ---- Small exponents fold into the second argument -------------------
// An exponent e with min(e, r - e) below 2^64 becomes a signed k with
// e(a,b)^e == e(a, k*b), and the term joins its first argument's folded
// class: one Miller loop per first argument and no Miller-value power.

/// The residue of -k mod r.
Zr neg_small(const Group& grp, uint64_t k) { return grp.zr_from_u64(k).neg(); }

TEST_F(EngineTest, SmallPositiveAndNegativeExponentsFoldPerFirstArgument) {
  const G1 p = grp->g1_random(rng), c = grp->g1_random(rng);
  MergeCase mc;
  const uint64_t top = ~uint64_t{0};  // the largest magnitude that folds
  for (const uint64_t k : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{2}, top}) {
    mc.terms.push_back({p, grp->g1_random(rng)});
    mc.exps.push_back(grp->zr_from_u64(k));
    mc.terms.push_back({c, grp->g1_random(rng)});
    mc.exps.push_back(neg_small(*grp, k));
  }
  expect_merged(*grp, mc, 2, 1, 0);
}

TEST_F(EngineTest, SmallAndLargeExponentsSharingAFirstArgument) {
  // The folded class and each full-size class run their own loop; the
  // one just past the 64-bit bound on either side is full-size.
  const G1 a = grp->g1_random(rng);
  const Zr big = grp->zr_random(rng);
  const Zr two64 = grp->zr_from_u64(~uint64_t{0}) + grp->zr_one();
  MergeCase mc;
  for (const Zr& e : {grp->zr_from_u64(2), big, neg_small(*grp, 1), two64, big, two64.neg(),
                      grp->zr_from_u64(7)}) {
    mc.terms.push_back({a, grp->g1_random(rng)});
    mc.exps.push_back(e);
  }
  // Classes in first-appearance order: folded, big, 2^64, -2^64, each
  // raised once.
  expect_merged(*grp, mc, 4, 1, 3);
}

TEST_F(EngineTest, FoldedClassThatCancelsCountsNoLoop) {
  // e(a,b)^2 * e(a,-2b) == 1: the folded argument 2b - 2b is the
  // identity, so the class drops out like an identity term.
  const G1 a = grp->g1_random(rng), b = grp->g1_random(rng);
  const G1 minus_2b = (b + b).neg();
  MergeCase mc;
  mc.terms = {{a, b}, {a, minus_2b}};
  mc.exps = {grp->zr_from_u64(2), grp->zr_one()};
  ASSERT_EQ(serial_power_fold(*grp, mc.terms, mc.exps).to_bytes(),
            grp->gt_one().to_bytes());
  expect_merged(*grp, mc, 0, 0, 0);
  // Beside a live full-size class it costs that class's loop only.
  mc.terms.push_back({a, grp->g1_random(rng)});
  mc.exps.push_back(grp->zr_random(rng));
  expect_merged(*grp, mc, 1, 1, 1);
}

TEST_F(EngineTest, FoldSkipsZeroExponentsAndIdentityTerms) {
  const G1 a = grp->g1_random(rng);
  MergeCase mc;
  mc.terms = {{a, grp->g1_random(rng)},
              {a, grp->g1_random(rng)},
              {grp->g1_identity(), grp->g1_random(rng)},
              {a, grp->g1_identity()},
              {a, grp->g1_random(rng)}};
  mc.exps = {grp->zr_from_u64(3), grp->zr_zero(), grp->zr_from_u64(5),
             neg_small(*grp, 4), neg_small(*grp, 1)};
  expect_merged(*grp, mc, 1, 1, 0);
}

TEST_F(EngineTest, PairingProductRunsOneLoopPerFirstArgument) {
  // No exponents: every term is k = 1.
  const G1 p = grp->g1_random(rng), c = grp->g1_random(rng);
  std::vector<CryptoEngine::PairTerm> terms;
  for (int i = 0; i < 4; ++i) {
    terms.push_back({p, grp->g1_random(rng)});
    terms.push_back({c, grp->g1_random(rng)});
  }
  terms.push_back({grp->g1_random(rng), grp->g1_random(rng)});
  const Bytes expected =
      serial_power_fold(*grp, terms, std::vector<Zr>(terms.size(), grp->zr_one())).to_bytes();
  for (const int threads : {1, 4}) {
    CryptoEngine eng(*grp, threads);
    const EngineStats before = eng.stats();
    EXPECT_EQ(eng.pairing_product(terms).to_bytes(), expected) << threads << " threads";
    const EngineStats d = eng.stats() - before;
    EXPECT_EQ(d.miller_loops, 3u) << threads << " threads";
    EXPECT_EQ(d.gt_exps, 0u) << threads << " threads";
  }
}

// The MA-ABE AND decrypt's shape on the paper curve: rows
// (PK_UID, C_i, N_A) and (C', K_x, N_A), numerators (C', -K, 1).
TEST(EnginePaperCurve, AndDecryptShapeRunsTwoLoopsAndMatchesSerialFold) {
  const auto grp = Group::pbc_a512();
  crypto::Drbg rng(std::string_view("engine-paper-curve"));
  const G1 pk_uid = grp->g1_random(rng), c_prime = grp->g1_random(rng);
  const Zr n_a = grp->zr_from_u64(2);
  MergeCase mc;
  for (int row = 0; row < 3; ++row) {
    mc.terms.push_back({pk_uid, grp->g1_random(rng)});
    mc.terms.push_back({c_prime, grp->g1_random(rng)});
    mc.exps.insert(mc.exps.end(), {n_a, n_a});
  }
  for (int aid = 0; aid < 2; ++aid) {
    mc.terms.push_back({c_prime, grp->g1_random(rng).neg()});
    mc.exps.push_back(grp->zr_one());
  }
  expect_merged(*grp, mc, 2, 1, 0);
}

TEST_F(EngineTest, PairingProductPaysExactlyOneFinalExponentiation) {
  CryptoEngine eng(*grp, 4);
  std::vector<CryptoEngine::PairTerm> terms;
  for (int i = 0; i < 16; ++i)
    terms.push_back({grp->g1_random(rng), grp->g1_random(rng)});
  const EngineStats before = eng.stats();
  const telemetry::Snapshot snap_before = telemetry::MetricsRegistry::global().collect();
  (void)eng.pairing_product(terms);
  const telemetry::Snapshot snap_after = telemetry::MetricsRegistry::global().collect();
  const EngineStats delta = eng.stats() - before;
  EXPECT_EQ(delta.pairings, 16u);
  EXPECT_EQ(delta.miller_loops, 16u);
  EXPECT_EQ(delta.final_exps, 1u);
  EXPECT_EQ(delta.batches, 1u);
  // The same commit moves the registry series: 16 Miller loops, ONE
  // shared final exponentiation for the whole product.
  EXPECT_EQ(snap_after.counter("maabe_engine_final_exps_total") -
                snap_before.counter("maabe_engine_final_exps_total"),
            1u);
  EXPECT_EQ(snap_after.counter("maabe_engine_miller_loops_total") -
                snap_before.counter("maabe_engine_miller_loops_total"),
            16u);
}

TEST_F(EngineTest, RepeatedFirstArgumentPromotesToLineTable) {
  CryptoEngine eng(*grp, 2);
  const G1 hot = grp->g1_random(rng);
  // Enough single-term products against the same first argument to
  // cross the build threshold mid-sequence; bits must not change.
  for (int i = 0; i < 8; ++i) {
    const G1 q = grp->g1_random(rng);
    EXPECT_EQ(eng.pairing_product({{hot, q}}).to_bytes(),
              grp->pair(hot, q).to_bytes())
        << "round " << i;
  }
  const EngineStats s = eng.stats();
  EXPECT_GE(s.precomp_builds, 1u);
  EXPECT_GT(s.precomp_hits, 0u);
}

TEST_F(EngineTest, EnginePairUsesWarmedPrecomp) {
  CryptoEngine eng(*grp, 1);
  const G1 base = grp->g1_random(rng);
  eng.warm_pair_precomp(base);
  EXPECT_EQ(eng.stats().precomp_builds, 1u);
  // Warming twice is a no-op.
  eng.warm_pair_precomp(base);
  EXPECT_EQ(eng.stats().precomp_builds, 1u);
  for (int i = 0; i < 3; ++i) {
    const G1 q = grp->g1_random(rng);
    EXPECT_EQ(eng.pair_batch(base, {q}).front().to_bytes(), grp->pair(base, q).to_bytes());
  }
  EXPECT_EQ(eng.stats().precomp_hits, 3u);
  EXPECT_EQ(eng.pair_batch(base, {grp->g1_identity()}).front().to_bytes(),
            grp->gt_one().to_bytes());
}

TEST_F(EngineTest, PairBatchMatchesAndCountsLikeSinglePairs) {
  // The same run of pairings against one first argument, once as batches
  // of one and once as one pair_batch, on fresh engines: the same
  // bytes and the same counts, through the line table's build at the
  // 4th use, identity items and a batch wider than one pass.
  const G1 base = grp->g1_random(rng);
  std::vector<G1> bs;
  for (int i = 0; i < 19; ++i) bs.push_back(i % 6 == 4 ? grp->g1_identity() : grp->g1_random(rng));
  for (const int threads : {1, 3}) {
    CryptoEngine single(*grp, threads), batched(*grp, threads);
    std::vector<GT> want;
    for (const G1& b : bs) want.push_back(single.pair_batch(base, {b}).front());
    const std::vector<GT> got = batched.pair_batch(base, bs);
    ASSERT_EQ(got.size(), bs.size());
    for (size_t i = 0; i < bs.size(); ++i) EXPECT_EQ(got[i].to_bytes(), want[i].to_bytes()) << i;
    const EngineStats s = single.stats(), b = batched.stats();
    EXPECT_EQ(b.pairings, s.pairings);
    EXPECT_EQ(b.miller_loops, s.miller_loops);
    EXPECT_EQ(b.final_exps, s.final_exps);
    EXPECT_EQ(b.precomp_builds, s.precomp_builds);
    EXPECT_EQ(b.precomp_hits, s.precomp_hits);
    EXPECT_EQ(b.precomp_hits, 16u - 3u) << "live pairs from the table's 4th use on";
    EXPECT_EQ(b.batches, 1u);
    EXPECT_EQ(s.batches, bs.size());
    // A warmed table serves every live pair of the next batch.
    const std::vector<GT> again = batched.pair_batch(base, bs);
    EXPECT_EQ((batched.stats() - b).precomp_hits, 16u);
    EXPECT_EQ(again.front().to_bytes(), want.front().to_bytes());
  }
  CryptoEngine eng(*grp, 1);
  for (const GT& one : eng.pair_batch(grp->g1_identity(), bs)) EXPECT_TRUE(one.is_one());
  EXPECT_EQ(eng.stats().miller_loops, 0u);
  EXPECT_TRUE(eng.pair_batch(base, {}).empty());
}

// Many one-off bases to one exponent, as the owner's key update raises
// its PK_x to UK2: an uncached multi_exp_g1 in lane passes.
TEST_F(EngineTest, UncachedMultiExpG1ToOneExponentMatchesMulAndCountsOneExpPerBase) {
  const Zr k = grp->zr_random(rng);
  std::vector<G1> bases;
  for (int i = 0; i < 19; ++i) bases.push_back(i == 5 ? grp->g1_identity() : grp->g1_random(rng));
  std::vector<CryptoEngine::G1Term> terms;
  for (const G1& base : bases) terms.push_back({base, k});
  for (const int threads : {1, 3}) {
    CryptoEngine eng(*grp, threads);
    const std::vector<G1> got = eng.multi_exp_g1(terms, false);
    ASSERT_EQ(got.size(), bases.size());
    for (size_t i = 0; i < bases.size(); ++i)
      EXPECT_EQ(got[i].to_bytes(), bases[i].mul(k).to_bytes()) << i;
    const EngineStats s = eng.stats();
    EXPECT_EQ(s.g1_exps, bases.size());
    EXPECT_EQ(s.tasks, bases.size());
    EXPECT_EQ(s.table_builds, 0u);
    EXPECT_EQ(s.batches, 1u);
    EXPECT_EQ(eng.cached_bases(), 0u);
  }
}

TEST_F(EngineTest, MultiExpG1MatchesSerialAcrossCachePromotion) {
  CryptoEngine eng(*grp, 4);
  // One base repeated often enough to cross the table-build threshold
  // mid-batch, plus unique bases that stay on the plain-mul path.
  const G1 hot = grp->g1_random(rng);
  std::vector<CryptoEngine::G1Term> terms;
  for (int i = 0; i < 10; ++i) terms.push_back({hot, grp->zr_random(rng)});
  for (int i = 0; i < 3; ++i)
    terms.push_back({grp->g1_random(rng), grp->zr_random(rng)});
  terms.push_back({grp->g1_identity(), grp->zr_random(rng)});

  // Twice: first run builds the hot base's table, second is all hits.
  for (int round = 0; round < 2; ++round) {
    const std::vector<G1> got = eng.multi_exp_g1(terms);
    ASSERT_EQ(got.size(), terms.size());
    for (size_t i = 0; i < terms.size(); ++i) {
      EXPECT_EQ(got[i].to_bytes(), terms[i].base.mul(terms[i].exp).to_bytes())
          << "round=" << round << " i=" << i;
    }
  }
  const EngineStats s = eng.stats();
  EXPECT_GE(s.table_builds, 1u);
  EXPECT_GT(s.table_hits, 0u);
}

TEST_F(EngineTest, MultiExpG1CountsABaseOncePerBatch) {
  // A base repeated 2..7 times in one batch counts one LRU use and runs
  // in lane passes; from 8 terms it gets its table at once, which serves
  // every term and stays cached for the next batch. Same bits as
  // G1::mul throughout.
  for (const size_t reps : {2, 3, 4, 5, 6, 7, 8, 9, 17}) {
    SCOPED_TRACE(std::to_string(reps) + " terms");
    CryptoEngine eng(*grp, 2);
    const G1 base = grp->g1_random(rng);
    std::vector<CryptoEngine::G1Term> terms;
    for (size_t i = 0; i < reps; ++i) terms.push_back({base, grp->zr_random(rng)});
    terms.push_back({grp->g1_random(rng), grp->zr_random(rng)});
    const std::vector<G1> got = eng.multi_exp_g1(terms);
    ASSERT_EQ(got.size(), terms.size());
    for (size_t i = 0; i < terms.size(); ++i)
      EXPECT_EQ(got[i].to_bytes(), terms[i].base.mul(terms[i].exp).to_bytes()) << i;
    const uint64_t tabled = reps >= 8 ? 1 : 0;
    EngineStats s = eng.stats();
    EXPECT_EQ(s.g1_exps, terms.size());
    EXPECT_EQ(s.tasks, terms.size());
    EXPECT_EQ(s.table_builds, tabled);
    EXPECT_EQ(s.table_hits, tabled * reps);
    EXPECT_EQ(eng.cached_bases(), 2u);
    // A later batch of two terms: table hits only where a table exists.
    const std::vector<G1> again = eng.multi_exp_g1({terms[0], terms[1]});
    EXPECT_EQ(again[1].to_bytes(), got[1].to_bytes());
    s = eng.stats() - s;
    EXPECT_EQ(s.table_builds, 0u);
    EXPECT_EQ(s.table_hits, tabled * 2);
  }
}

TEST_F(EngineTest, MultiExpG1BasePromotesOnItsFourthBatch) {
  CryptoEngine eng(*grp, 1);
  const G1 base = grp->g1_random(rng);
  for (int batch = 1; batch <= 5; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    std::vector<CryptoEngine::G1Term> terms;
    for (int i = 0; i < 3; ++i) terms.push_back({base, grp->zr_random(rng)});
    const EngineStats before = eng.stats();
    const std::vector<G1> got = eng.multi_exp_g1(terms);
    const EngineStats d = eng.stats() - before;
    for (size_t i = 0; i < terms.size(); ++i)
      EXPECT_EQ(got[i].to_bytes(), base.mul(terms[i].exp).to_bytes()) << i;
    EXPECT_EQ(d.table_builds, batch == 4 ? 1u : 0u);
    EXPECT_EQ(d.table_hits, batch >= 4 ? 3u : 0u);
  }
}

TEST_F(EngineTest, MultiExpGtMatchesSerial) {
  CryptoEngine eng(*grp, 4);
  const GT hot = grp->gt_random(rng);
  std::vector<CryptoEngine::GtTerm> terms;
  for (int i = 0; i < 8; ++i) terms.push_back({hot, grp->zr_random(rng)});
  terms.push_back({grp->gt_random(rng), grp->zr_random(rng)});
  terms.push_back({grp->gt_one(), grp->zr_random(rng)});

  for (int round = 0; round < 2; ++round) {
    const std::vector<GT> got = eng.multi_exp_gt(terms);
    ASSERT_EQ(got.size(), terms.size());
    for (size_t i = 0; i < terms.size(); ++i) {
      EXPECT_EQ(got[i].to_bytes(), terms[i].base.pow(terms[i].exp).to_bytes())
          << "round=" << round << " i=" << i;
    }
  }
}

TEST_F(EngineTest, UncachedMultiExpMatchesToo) {
  CryptoEngine eng(*grp, 2);
  std::vector<CryptoEngine::GtTerm> terms;
  for (int i = 0; i < 5; ++i)
    terms.push_back({grp->gt_random(rng), grp->zr_random(rng)});
  const std::vector<GT> got = eng.multi_exp_gt(terms, /*cache_bases=*/false);
  for (size_t i = 0; i < terms.size(); ++i)
    EXPECT_EQ(got[i].to_bytes(), terms[i].base.pow(terms[i].exp).to_bytes());
  EXPECT_EQ(eng.stats().table_builds, 0u);
}

TEST_F(EngineTest, FixedBaseBatchesMatchGroupTables) {
  CryptoEngine eng(*grp, 4);
  std::vector<Zr> exps;
  for (int i = 0; i < 9; ++i) exps.push_back(grp->zr_random(rng));
  const std::vector<G1> g = eng.g_pow_batch(exps);
  const std::vector<GT> egg = eng.egg_pow_batch(exps);
  for (size_t i = 0; i < exps.size(); ++i) {
    EXPECT_EQ(g[i].to_bytes(), grp->g_pow(exps[i]).to_bytes());
    EXPECT_EQ(egg[i].to_bytes(), grp->egg_pow(exps[i]).to_bytes());
  }
}

TEST_F(EngineTest, MultiExpG1WalksGsTableOutsideTheLru) {
  // Nine terms of g (past kBatchTableThreshold) beside another base's
  // three: g's terms walk Group::g_table(), build no table, count no
  // hit and leave no LRU entry, as g_pow_batch counts them.
  CryptoEngine eng(*grp, 2);
  const G1 other = grp->g1_random(rng);
  std::vector<CryptoEngine::G1Term> terms;
  std::vector<Zr> g_exps;
  for (int i = 0; i < 12; ++i) {
    const Zr e = grp->zr_random(rng);
    terms.push_back({i % 4 == 3 ? other : grp->g(), e});
    if (i % 4 != 3) g_exps.push_back(e);
  }
  for (const bool cache : {true, false}) {
    SCOPED_TRACE(cache ? "cached" : "uncached");
    const EngineStats before = eng.stats();
    const std::vector<G1> got = eng.multi_exp_g1(terms, cache);
    const EngineStats d = eng.stats() - before;
    for (size_t i = 0; i < terms.size(); ++i)
      EXPECT_EQ(got[i].to_bytes(), terms[i].base.mul(terms[i].exp).to_bytes()) << i;
    EXPECT_EQ(d.g1_exps, terms.size());
    EXPECT_EQ(d.tasks, terms.size());
    EXPECT_EQ(d.batches, 1u);
    EXPECT_EQ(d.table_builds, 0u);
    EXPECT_EQ(d.table_hits, 0u);
    EXPECT_EQ(eng.cached_bases(), 1u);  // `other` only
  }
  const EngineStats before = eng.stats();
  const std::vector<G1> g = eng.g_pow_batch(g_exps);
  const EngineStats d = eng.stats() - before;
  for (size_t i = 0; i < g_exps.size(); ++i)
    EXPECT_EQ(g[i].to_bytes(), grp->g_pow(g_exps[i]).to_bytes()) << i;
  EXPECT_EQ(d.g1_exps, g_exps.size());
  EXPECT_EQ(d.tasks, g_exps.size());
  EXPECT_EQ(d.batches, 1u);
  EXPECT_EQ(d.table_builds + d.table_hits, 0u);
  EXPECT_EQ(eng.cached_bases(), 1u);
}

TEST_F(EngineTest, EncryptSubmitsOneG1Batch) {
  // C' and the l g-powers ride with the l PK-powers: one multi_exp_g1
  // of 2l + 1 terms beside the blind's multi_exp_gt.
  const abe::OwnerMasterKey mk = abe::owner_gen(*grp, "owner", rng);
  const abe::AuthorityVersionKey vk = abe::aa_setup(*grp, "A", rng);
  std::map<std::string, abe::AuthorityPublicKey> apks{{"A", abe::aa_public_key(*grp, vk)}};
  std::map<std::string, abe::PublicAttributeKey> attr_pks;
  for (const char* attr : {"x1", "x2", "x3"}) {
    const abe::PublicAttributeKey pk = abe::aa_attribute_key(*grp, vk, attr);
    attr_pks.emplace(pk.attr.qualified(), pk);
  }
  const lsss::LsssMatrix policy =
      lsss::LsssMatrix::from_policy(lsss::parse_policy("x1@A AND x2@A AND x3@A"));
  CryptoEngine& eng = CryptoEngine::for_group(*grp);
  const EngineStats before = eng.stats();
  (void)abe::encrypt(*grp, mk, "f/c", grp->gt_random(rng), policy, apks, attr_pks, rng);
  const EngineStats d = eng.stats() - before;
  EXPECT_EQ(d.batches, 2u);
  EXPECT_EQ(d.g1_exps, 7u);
  EXPECT_EQ(d.gt_exps, 1u);
}

TEST_F(EngineTest, BasePowBatchMatchesMulBelowAndAboveTheBuildThreshold) {
  // 7 exponents, one short of the once-used table's break-even, stay on
  // plain multiplies; 8 build one table for the batch, which never
  // enters the LRU. The identity base builds none. Zero and one
  // exponents ride along.
  for (const int threads : {1, 4}) {
    CryptoEngine eng(*grp, threads);
    const G1 base = grp->g1_random(rng);
    for (const size_t n : {size_t{7}, size_t{8}}) {
      std::vector<Zr> exps{grp->zr_zero(), grp->zr_one()};
      while (exps.size() < n) exps.push_back(grp->zr_random(rng));
      for (const G1& b : {base, grp->g1_identity()}) {
        const EngineStats before = eng.stats();
        const std::vector<G1> got = eng.base_pow_batch(b, exps);
        const EngineStats d = eng.stats() - before;
        ASSERT_EQ(got.size(), n);
        for (size_t i = 0; i < n; ++i)
          EXPECT_EQ(got[i].to_bytes(), b.mul(exps[i]).to_bytes())
              << "threads=" << threads << " n=" << n << " i=" << i;
        const uint64_t tabled = (n == 8 && !b.is_identity()) ? 1 : 0;
        EXPECT_EQ(d.g1_exps, n);
        EXPECT_EQ(d.table_builds, tabled);
        EXPECT_EQ(d.table_hits, tabled * n);
        EXPECT_EQ(d.batches, 1u);
      }
    }
    EXPECT_EQ(eng.cached_bases(), 0u);
    EXPECT_TRUE(eng.base_pow_batch(base, {}).empty());
  }
}

// The three fixed-base batches walk their tables as 8-lane passes on an
// IFMA host, in chunks of eight across the pool: the bytes are those of
// the scalar multiply at 1 and 4 threads, and the counts are one
// g1_exp and one task per exponent, as before the walk.
TEST(EnginePaperCurve, TableWalkBatchesMatchAtOneAndFourThreads) {
  if (!math::detail::ifma_kernel_available()) GTEST_SKIP() << "no AVX-512 IFMA";
  const auto grp = Group::pbc_a512();
  crypto::Drbg rng(std::string_view("engine-table-walk"));
  const G1 base = grp->g1_random(rng);
  std::vector<Zr> exps{grp->zr_zero(), grp->zr_one()};
  while (exps.size() < 19) exps.push_back(grp->zr_random(rng));
  // multi_exp_g1: a hot base (a table from its 4th use), a second hot
  // base, unique bases on plain multiplies and an identity.
  const G1 hot = grp->g1_random(rng), warm = grp->g1_random(rng);
  std::vector<CryptoEngine::G1Term> terms;
  for (int i = 0; i < 13; ++i) terms.push_back({i % 3 == 2 ? warm : hot, grp->zr_random(rng)});
  for (int i = 0; i < 3; ++i) terms.push_back({grp->g1_random(rng), grp->zr_random(rng)});
  terms.push_back({grp->g1_identity(), grp->zr_random(rng)});
  terms.push_back({hot, grp->zr_zero()});

  std::vector<Bytes> want_base, want_g, want_multi;
  for (const Zr& e : exps) want_base.push_back(base.mul(e).to_bytes());
  for (const Zr& e : exps) want_g.push_back(grp->g().mul(e).to_bytes());
  for (const auto& t : terms) want_multi.push_back(t.base.mul(t.exp).to_bytes());
  const auto bytes_of = [](const std::vector<G1>& pts) {
    std::vector<Bytes> out;
    for (const G1& p : pts) out.push_back(p.to_bytes());
    return out;
  };
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    CryptoEngine eng(*grp, threads);
    EngineStats before = eng.stats();
    EXPECT_EQ(bytes_of(eng.base_pow_batch(base, exps)), want_base);
    EngineStats d = eng.stats() - before;
    EXPECT_EQ(d.g1_exps, exps.size());
    EXPECT_EQ(d.tasks, exps.size());
    EXPECT_EQ(d.table_builds, 1u);
    EXPECT_EQ(d.table_hits, exps.size());

    before = eng.stats();
    EXPECT_EQ(bytes_of(eng.g_pow_batch(exps)), want_g);
    d = eng.stats() - before;
    EXPECT_EQ(d.g1_exps, exps.size());
    EXPECT_EQ(d.tasks, exps.size());

    for (int round = 0; round < 2; ++round) {
      before = eng.stats();
      EXPECT_EQ(bytes_of(eng.multi_exp_g1(terms)), want_multi) << "round " << round;
      d = eng.stats() - before;
      EXPECT_EQ(d.g1_exps, terms.size());
      EXPECT_EQ(d.tasks, terms.size());
    }
  }
}

TEST_F(EngineTest, SerialEngineBypassesPool) {
  CryptoEngine eng(*grp, 1);
  EXPECT_EQ(eng.threads(), 1);
  std::vector<CryptoEngine::PairTerm> terms;
  for (int i = 0; i < 4; ++i)
    terms.push_back({grp->g1_random(rng), grp->g1_random(rng)});
  GT expected = grp->gt_one();
  for (const auto& t : terms) expected = expected * grp->pair(t.a, t.b);
  EXPECT_EQ(eng.pairing_product(terms).to_bytes(), expected.to_bytes());
}

TEST_F(EngineTest, ParallelForCoversEveryIndexExactlyOnce) {
  CryptoEngine eng(*grp, 4);
  constexpr size_t kN = 257;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  eng.parallel_for(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_F(EngineTest, ParallelForPropagatesExceptions) {
  CryptoEngine eng(*grp, 4);
  EXPECT_THROW(eng.parallel_for(64,
                                [&](size_t i) {
                                  if (i == 13) throw MathError("boom");
                                }),
               MathError);
  // The pool must survive a failed job.
  std::atomic<size_t> count{0};
  eng.parallel_for(16, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16u);
}

TEST_F(EngineTest, ParallelForAbandonsRemainingItemsAfterThrow) {
  // Documented contract: after the first exception the sweep abandons
  // unstarted items rather than draining them — a failed sweep is
  // neither all nor nothing. Failure-atomic callers (CloudServer's
  // revocation epoch) must stage copies and commit only on success.
  CryptoEngine eng(*grp, 2);
  constexpr size_t kN = 10000;
  std::atomic<size_t> ran{0};
  EXPECT_THROW(eng.parallel_for(kN,
                                [&](size_t) {
                                  ran.fetch_add(1);
                                  throw MathError("every item throws");
                                }),
               MathError);
  // Only items already claimed when the first throw hit can have run.
  EXPECT_GE(ran.load(), 1u);
  EXPECT_LT(ran.load(), kN);
  // And the pool is still usable afterwards.
  std::atomic<size_t> count{0};
  eng.parallel_for(32, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32u);
}

TEST_F(EngineTest, StatsCountOpsAndPhasesDiff) {
  CryptoEngine eng(*grp, 2);
  const EngineStats before = eng.stats();
  std::vector<CryptoEngine::PairTerm> terms;
  for (int i = 0; i < 3; ++i)
    terms.push_back({grp->g1_random(rng), grp->g1_random(rng)});
  (void)eng.pairing_product(terms);
  (void)eng.g_pow_batch({grp->zr_random(rng), grp->zr_random(rng)});
  const EngineStats delta = eng.stats() - before;
  EXPECT_EQ(delta.pairings, 3u);
  EXPECT_EQ(delta.g1_exps, 2u);
  EXPECT_EQ(delta.batches, 2u);
}

TEST_F(EngineTest, SetThreadsResizesAndStaysCorrect) {
  CryptoEngine eng(*grp, 1);
  std::vector<CryptoEngine::PairTerm> terms;
  for (int i = 0; i < 6; ++i)
    terms.push_back({grp->g1_random(rng), grp->g1_random(rng)});
  const Bytes serial = eng.pairing_product(terms).to_bytes();
  eng.set_threads(8);
  EXPECT_EQ(eng.threads(), 8);
  EXPECT_EQ(eng.pairing_product(terms).to_bytes(), serial);
  eng.set_threads(1);
  EXPECT_EQ(eng.pairing_product(terms).to_bytes(), serial);
}

TEST_F(EngineTest, ForGroupReturnsSameEnginePerGroup) {
  CryptoEngine& a = CryptoEngine::for_group(*grp);
  CryptoEngine& b = CryptoEngine::for_group(*grp);
  EXPECT_EQ(&a, &b);
}

// Snapshot coherency regression: stats() must never tear. Counters
// commit atomically per batch (seqlock), so under a concurrent batch
// workload every snapshot satisfies the exact per-batch arithmetic —
// a torn read (e.g. g1_exps updated but batches not yet) breaks it.
TEST_F(EngineTest, StatsSnapshotsNeverTearUnderConcurrentBatches) {
  CryptoEngine eng(*grp, 2);
  constexpr size_t kBatchSize = 3;
  std::vector<Zr> exps;
  for (size_t i = 0; i < kBatchSize; ++i) exps.push_back(grp->zr_random(rng));

  // The writer runs a fixed batch count and signals completion; the
  // reader hammers stats() until then, so the loop is guaranteed to
  // observe committed batches even when the threads barely overlap.
  constexpr uint64_t kBatches = 300;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 0; i < kBatches; ++i) (void)eng.g_pow_batch(exps);
    done.store(true, std::memory_order_release);
  });

  EngineStats prev;
  while (!done.load(std::memory_order_acquire)) {
    const EngineStats s = eng.stats();
    // Per-batch atomicity: every committed g_pow_batch adds exactly
    // kBatchSize g1_exps, kBatchSize tasks and 1 batch, all at once.
    ASSERT_EQ(s.g1_exps, kBatchSize * s.batches);
    ASSERT_EQ(s.tasks, s.g1_exps);
    // Monotonicity across snapshots.
    ASSERT_GE(s.batches, prev.batches);
    ASSERT_GE(s.wall_ns, prev.wall_ns);
    prev = s;
  }
  writer.join();

  const EngineStats end = eng.stats();
  EXPECT_EQ(end.batches, kBatches);
  EXPECT_EQ(end.g1_exps, kBatchSize * end.batches);
}

}  // namespace
}  // namespace maabe::engine
