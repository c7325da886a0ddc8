// Pairing-substrate microbenchmarks — the anchor for every timing claim
// in the table/figure reproductions, plus the Montgomery-vs-plain
// modular-multiplication ablation called out in DESIGN.md.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <thread>

#include "bench_common.h"
#include "bench_json.h"
#include "engine/engine.h"
#include "math/field_kernels.h"
#include "math/montgomery.h"

namespace maabe::bench {
namespace {

void BM_Pairing(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto p = grp->g1_random(rng);
  const auto q = grp->g1_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(grp->pair(p, q));
}

// The multi-pairing kernel's three cost centers, measured separately:
// pair() == miller + reduce; the kernel pays miller per term but reduce
// once per product, and precomputed line tables cut the miller cost for
// repeated first arguments.
void BM_MillerLoop(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto p = grp->g1_random(rng);
  const auto q = grp->g1_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(grp->miller(p, q));
}

void BM_MillerLoop_Precomp(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto p = grp->g1_random(rng);
  const auto q = grp->g1_random(rng);
  const auto pre = grp->pair_precompute(p);
  for (auto _ : state) benchmark::DoNotOptimize(grp->miller_with(*pre, q));
}

void BM_FinalExp(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto m = grp->miller(grp->g1_random(rng), grp->g1_random(rng));
  for (auto _ : state) benchmark::DoNotOptimize(grp->miller_reduce(m));
}

void BM_G1_Exp(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto p = grp->g1_random(rng);
  const auto k = grp->zr_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(p.mul(k));
}

void BM_G1_Exp_FixedBase(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto k = grp->zr_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(grp->g_pow(k));
}

void BM_GT_Exp_FixedBase(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto k = grp->zr_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(grp->egg_pow(k));
}

void BM_GT_Exp(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto e = grp->gt_generator();
  const auto k = grp->zr_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(e.pow(k));
}

void BM_GT_Mul(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = grp->gt_random(rng);
  const auto b = grp->gt_random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.mul(b));
}

void BM_HashToG1(benchmark::State& state) {
  auto grp = bench_group();
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grp->hash_to_g1(std::string("input" + std::to_string(i++))));
  }
}

void BM_HashToZr(benchmark::State& state) {
  auto grp = bench_group();
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grp->hash_to_zr(std::string("input" + std::to_string(i++))));
  }
}

// Ablation: Montgomery vs division-based modular multiplication at the
// base-field size, and the fixed-width kernel the pairing stack runs on
// (math::MontField through FpCtx) vs the variable-length Bignum MontCtx.
// Justifies the substrate design choices.
void BM_FieldMul_FixedWidth(benchmark::State& state) {
  auto grp = bench_group();
  const pairing::FpCtx& fq = grp->ctx().fq();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = fq.random(rng);
  const auto b = fq.random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(fq.mul(a, b));
}

void BM_FieldSqr_FixedWidth(benchmark::State& state) {
  auto grp = bench_group();
  const pairing::FpCtx& fq = grp->ctx().fq();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = fq.random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(fq.sqr(a));
}

void BM_FieldAdd_FixedWidth(benchmark::State& state) {
  auto grp = bench_group();
  const pairing::FpCtx& fq = grp->ctx().fq();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = fq.random(rng);
  const auto b = fq.random(rng);
  for (auto _ : state) benchmark::DoNotOptimize(fq.add(a, b));
}

void BM_FieldInverse_FixedWidth(benchmark::State& state) {
  auto grp = bench_group();
  const pairing::FpCtx& fq = grp->ctx().fq();
  crypto::Drbg rng(std::string_view("micro"));
  auto a = fq.random(rng);
  if (a.is_zero()) a = fq.one();
  for (auto _ : state) benchmark::DoNotOptimize(fq.inv(a));
}

void BM_FieldMul_Montgomery(benchmark::State& state) {
  auto grp = bench_group();
  const math::MontCtx mont(grp->params().q);
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = mont.to_mont(rng.below(grp->params().q));
  const auto b = mont.to_mont(rng.below(grp->params().q));
  for (auto _ : state) benchmark::DoNotOptimize(mont.mul(a, b));
}

void BM_FieldMul_PlainDivision(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = rng.below(grp->params().q);
  const auto b = rng.below(grp->params().q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::Bignum::mod_mul(a, b, grp->params().q));
  }
}

void BM_FieldInverse(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = rng.nonzero_below(grp->params().q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::Bignum::mod_inverse(a, grp->params().q));
  }
}

BENCHMARK(BM_Pairing)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_MillerLoop)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_MillerLoop_Precomp)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_FinalExp)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_G1_Exp)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_G1_Exp_FixedBase)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_GT_Exp)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_GT_Exp_FixedBase)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_GT_Mul)->Unit(benchmark::kMicrosecond)->MinTime(0.05);
BENCHMARK(BM_HashToG1)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_HashToZr)->Unit(benchmark::kMicrosecond)->MinTime(0.05);
BENCHMARK(BM_FieldMul_FixedWidth)->Unit(benchmark::kNanosecond)->MinTime(0.05);
BENCHMARK(BM_FieldSqr_FixedWidth)->Unit(benchmark::kNanosecond)->MinTime(0.05);
BENCHMARK(BM_FieldAdd_FixedWidth)->Unit(benchmark::kNanosecond)->MinTime(0.05);
BENCHMARK(BM_FieldInverse_FixedWidth)->Unit(benchmark::kMicrosecond)->MinTime(0.05);
BENCHMARK(BM_FieldMul_Montgomery)->Unit(benchmark::kNanosecond)->MinTime(0.05);
BENCHMARK(BM_FieldMul_PlainDivision)->Unit(benchmark::kNanosecond)->MinTime(0.05);
BENCHMARK(BM_FieldInverse)->Unit(benchmark::kMicrosecond)->MinTime(0.05);

// The engine's headline batch: a 16-term pairing product (decrypt's
// shape at l=8, N_A=... — the dominant cost in Fig. 3b), timed on the
// legacy serial path vs the thread pool. Emits BENCH_pairing_micro.json.
void engine_batch_report() {
  using Clock = std::chrono::steady_clock;
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro-batch"));

  constexpr size_t kTerms = 16;
  std::vector<engine::CryptoEngine::PairTerm> terms;
  for (size_t i = 0; i < kTerms; ++i)
    terms.push_back({grp->g1_random(rng), grp->g1_random(rng)});

  const int pool_threads = std::max(4, engine::CryptoEngine::default_threads());
  engine::CryptoEngine serial_eng(*grp, 1);
  engine::CryptoEngine pool_eng(*grp, pool_threads);

  const auto time_reps = [&](engine::CryptoEngine& eng, int reps) {
    (void)eng.pairing_product(terms);  // warm up (pool spin-up, caches)
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) benchmark::DoNotOptimize(eng.pairing_product(terms));
    const auto t1 = Clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
  };

  constexpr int kReps = 5;
  const double serial_ms = time_reps(serial_eng, kReps);
  const double pool_ms = time_reps(pool_eng, kReps);
  const double speedup = pool_ms > 0 ? serial_ms / pool_ms : 0.0;

  // The kernel's algorithmic headline, independent of thread count: the
  // legacy pair-then-multiply fold pays one final exponentiation per
  // term, the kernel pays one for the whole product.
  const auto fold_once = [&] {
    pairing::GT acc = grp->gt_one();
    for (const auto& t : terms) acc = acc * grp->pair(t.a, t.b);
    return acc;
  };
  const auto time_fold = [&](int reps) {
    (void)fold_once();
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) benchmark::DoNotOptimize(fold_once());
    const auto t1 = Clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
  };
  const double fold_ms = time_fold(kReps);
  const double kernel_ms = serial_ms;  // same work, pool bypassed
  const double kernel_speedup = kernel_ms > 0 ? fold_ms / kernel_ms : 0.0;

  // Term merging, same-process: a decrypt-shaped product (AND of 10
  // rows over 2 authorities: 10 terms on PK_UID and 10 on C' with
  // exponent n_A, 2 numerator terms on C' with exponent 1) through the
  // engine, which runs one Miller loop per (first argument, exponent)
  // class, against a per-term fold that runs all 22 loops on the same
  // line tables and reduces once. The engine's op counts are a declared
  // model; this ratio is the independent evidence that it merges.
  constexpr size_t kRows = 10;
  const pairing::G1 pk_uid = grp->g1_random(rng), c_prime = grp->g1_random(rng);
  const pairing::Zr n_a = grp->zr_from_u64(2);
  std::vector<engine::CryptoEngine::PairTerm> dec_terms;
  std::vector<pairing::Zr> dec_exps;
  for (size_t i = 0; i < kRows; ++i) {
    dec_terms.push_back({pk_uid, grp->g1_random(rng)});
    dec_terms.push_back({c_prime, grp->g1_random(rng)});
    dec_exps.insert(dec_exps.end(), {n_a, n_a});
  }
  for (int k = 0; k < 2; ++k) {
    dec_terms.push_back({c_prime, grp->g1_random(rng)});
    dec_exps.push_back(grp->zr_one());
  }
  const auto pk_table = grp->pair_precompute(pk_uid);
  const auto c_table = grp->pair_precompute(c_prime);
  const auto per_term_fold = [&] {
    pairing::MillerVal acc = grp->miller_one();
    for (size_t k = 0; k < dec_terms.size();) {
      pairing::MillerVal run = grp->miller_one();
      size_t j = k;
      for (; j < dec_terms.size() && dec_exps[j] == dec_exps[k]; ++j) {
        const auto& t = dec_terms[j];
        run = run * grp->miller_with(t.a == pk_uid ? *pk_table : *c_table, t.b);
      }
      acc = acc * run.pow(dec_exps[k]);
      k = j;
    }
    return grp->miller_reduce(acc);
  };
  engine::CryptoEngine merge_eng(*grp, 1);
  const auto merged = [&] { return merge_eng.pairing_power_product(dec_terms, dec_exps); };
  if (merged().to_bytes() != per_term_fold().to_bytes()) {
    std::fprintf(stderr, "pairing_micro: merged and per-term products disagree\n");
    std::exit(1);
  }
  for (int i = 0; i < 4; ++i) (void)merged();  // promote both line tables
  constexpr int kMergeReps = 7;
  const auto best_ms = [&](const auto& product) {
    double best = 0;
    for (int r = 0; r < kMergeReps; ++r) {
      const auto t0 = Clock::now();
      benchmark::DoNotOptimize(product());
      const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      if (r == 0 || ms < best) best = ms;
    }
    return best;
  };
  const engine::EngineStats merge_before = merge_eng.stats();
  const double merged_ms = best_ms(merged);
  const engine::EngineStats merge_delta = merge_eng.stats() - merge_before;
  const double per_term_ms = best_ms(per_term_fold);
  const double merge_speedup = merged_ms > 0 ? per_term_ms / merged_ms : 0.0;

  // The substrate's headline, also same-process: a chain of dependent
  // F_q multiplies on the fixed-width kernel (what the pairing stack
  // runs on) vs the same chain on the variable-length Bignum MontCtx.
  // Best of several reps each, so a noisy neighbour inflates neither.
  const pairing::FpCtx& fq = grp->ctx().fq();
  const math::MontCtx mont(grp->params().q);
  crypto::Drbg frng(std::string_view("micro-field"));
  const math::Bignum fa = frng.below(grp->params().q);
  const math::Bignum fb = frng.below(grp->params().q);
  constexpr int kFieldMuls = 20000;
  constexpr int kFieldReps = 7;
  const auto best_ns = [&](const auto& chain) {
    double best = 0;
    for (int r = 0; r < kFieldReps; ++r) {
      const auto t0 = Clock::now();
      chain();
      const double ns =
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / kFieldMuls;
      if (r == 0 || ns < best) best = ns;
    }
    return best;
  };
  math::FieldElem xf = fq.enc(fa);
  const math::FieldElem yf = fq.enc(fb);
  math::Bignum xm = mont.to_mont(fa);
  const math::Bignum ym = mont.to_mont(fb);
  const double fixed_ns = best_ns([&] {
    for (int i = 0; i < kFieldMuls; ++i) xf = fq.mul(xf, yf);
  });
  const double montctx_ns = best_ns([&] {
    for (int i = 0; i < kFieldMuls; ++i) xm = mont.mul(xm, ym);
  });
  if (math::Bignum(xf) != xm) {
    std::fprintf(stderr, "pairing_micro: fixed-width and MontCtx chains disagree\n");
    std::exit(1);
  }
  const double field_kernel_speedup = fixed_ns > 0 ? montctx_ns / fixed_ns : 0.0;

  // The paper field's kernel choice, whatever MAABE_BENCH_SMALL says: the
  // same chain mod pbc_a512's q on the portable N = 8 kernel vs the one
  // MontField dispatches to (the BMI2/ADX kernel when CPUID reports
  // both extensions; otherwise the portable one again, ratio ~1).
  const auto paper_grp = pairing::Group::pbc_a512();
  const pairing::FpCtx& pfq = paper_grp->ctx().fq();
  const math::FieldElem paper_q = pfq.modulus();
  const uint64_t paper_n0 = math::detail::mont_n0(paper_q.l[0]);
  const math::FieldElem pa = pfq.enc(frng.below(pfq.modulus()));
  const math::FieldElem pb = pfq.enc(frng.below(pfq.modulus()));
  // The two chains alternate rep by rep, so a burst of host load hits
  // both sides alike.
  math::FieldElem x_portable = pa, x_dispatched = pa;
  double portable8_ns = 0, dispatched8_ns = 0;
  for (int r = 0; r < kFieldReps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kFieldMuls; ++i)
      x_portable = math::detail::mont_mul8_portable(x_portable, pb, paper_q, paper_n0);
    const auto t1 = Clock::now();
    for (int i = 0; i < kFieldMuls; ++i) x_dispatched = pfq.mul(x_dispatched, pb);
    const auto t2 = Clock::now();
    const double p_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / kFieldMuls;
    const double d_ns = std::chrono::duration<double, std::nano>(t2 - t1).count() / kFieldMuls;
    if (r == 0 || p_ns < portable8_ns) portable8_ns = p_ns;
    if (r == 0 || d_ns < dispatched8_ns) dispatched8_ns = d_ns;
  }
  if (x_portable != x_dispatched) {
    std::fprintf(stderr, "pairing_micro: portable and dispatched 8-limb chains disagree\n");
    std::exit(1);
  }
  const bool adx = math::detail::adx_kernel_available();
  const double adx_kernel_speedup = dispatched8_ns > 0 ? portable8_ns / dispatched8_ns : 0.0;

  // The substrate ladder on the paper curve, whatever the bench curve:
  // each rung's per-call time, best of kFieldReps batches, on the kernel
  // MontField dispatched to. bench/fig_tables.py turns two of these
  // (two kernels, or two commits) into the EXPERIMENTS.md substrate
  // table. g1_decode is one compressed-point decode: a square-root
  // exponentiation by (q+1)/4.
  crypto::Drbg drng(std::string_view("micro-substrate"));
  const pairing::G1 g1a = paper_grp->g1_random(drng), g1b = paper_grp->g1_random(drng);
  const pairing::Zr zk = paper_grp->zr_random(drng);
  const pairing::GT gte = paper_grp->gt_generator();
  const Bytes enc = g1a.to_bytes();
  const auto pre = paper_grp->pair_precompute(g1a);
  const pairing::MillerVal mv = paper_grp->miller(g1a, g1b);
  math::FieldElem fe = pa;
  const auto best_us = [&](int calls, const auto& op) {
    double best = 0;
    for (int r = 0; r < kFieldReps; ++r) {
      const auto t0 = Clock::now();
      for (int i = 0; i < calls; ++i) op();
      const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count() / calls;
      if (r == 0 || us < best) best = us;
    }
    return best;
  };
  const double g1_decode_us =
      best_us(10, [&] { benchmark::DoNotOptimize(paper_grp->g1_from_bytes(enc)); });
  uint64_t hash_i = 0;
  Json substrate;
  substrate.put("group", "pbc_a512(512-bit q)")
      .put("kernel", adx ? "adx" : "portable")
      .put("fq_mul_ns", 1e3 * best_us(2000, [&] { fe = pfq.mul(fe, pb); }))
      .put("fq_sqr_ns", 1e3 * best_us(2000, [&] { fe = pfq.sqr(fe); }))
      .put("fq_inv_us", best_us(20, [&] { fe = pfq.inv(fe); }))
      .put("g1_decode_us", g1_decode_us)
      .put("pairing_us", best_us(6, [&] { benchmark::DoNotOptimize(paper_grp->pair(g1a, g1b)); }))
      .put("miller_us", best_us(6, [&] { benchmark::DoNotOptimize(paper_grp->miller(g1a, g1b)); }))
      .put("miller_precomp_us",
           best_us(5, [&] { benchmark::DoNotOptimize(paper_grp->miller_with(*pre, g1b)); }))
      .put("final_exp_us", best_us(8, [&] { benchmark::DoNotOptimize(paper_grp->miller_reduce(mv)); }))
      .put("g1_exp_us", best_us(6, [&] { benchmark::DoNotOptimize(g1a.mul(zk)); }))
      .put("g1_exp_fixed_us", best_us(5, [&] { benchmark::DoNotOptimize(paper_grp->g_pow(zk)); }))
      .put("gt_exp_us", best_us(5, [&] { benchmark::DoNotOptimize(gte.pow(zk)); }))
      .put("gt_exp_fixed_us", best_us(10, [&] { benchmark::DoNotOptimize(paper_grp->egg_pow(zk)); }))
      .put("hash_to_g1_us", best_us(4, [&] {
             benchmark::DoNotOptimize(paper_grp->hash_to_g1("input" + std::to_string(hash_i++)));
           }));
  benchmark::DoNotOptimize(fe);

  std::printf("\nF_q multiply (%d-mul chain, best of %d):\n", kFieldMuls, kFieldReps);
  std::printf("  fixed-width kernel  : %8.1f ns\n", fixed_ns);
  std::printf("  Bignum MontCtx      : %8.1f ns   speedup %.2fx\n", montctx_ns,
              field_kernel_speedup);

  std::printf("\npbc_a512 F_q multiply (%d-mul chain, best of %d):\n", kFieldMuls, kFieldReps);
  std::printf("  portable 8-limb     : %8.1f ns\n", portable8_ns);
  std::printf("  dispatched (%s)  : %8.1f ns   speedup %.2fx\n", adx ? "adx     " : "portable",
              dispatched8_ns, adx_kernel_speedup);
  std::printf("  G1 decode           : %8.1f us\n", g1_decode_us);

  std::printf("\n%zu-pairing product batch (%d reps):\n", kTerms, kReps);
  std::printf("  pair-then-multiply  : %8.3f ms   (%zu final exps)\n", fold_ms, kTerms);
  std::printf("  kernel (1 thread)   : %8.3f ms   (1 final exp)  speedup %.2fx\n",
              kernel_ms, kernel_speedup);
  std::printf("  kernel (%d threads) : %8.3f ms   pool-vs-serial %.2fx\n", pool_threads,
              pool_ms, speedup);
  std::printf("\n%zu-term decrypt-shaped product (best of %d):\n", dec_terms.size(),
              kMergeReps);
  std::printf("  per-term loops      : %8.3f ms   (%zu Miller loops)\n", per_term_ms,
              dec_terms.size());
  std::printf("  merged kernel       : %8.3f ms   (%.0f Miller loops)  speedup %.2fx\n",
              merged_ms,
              static_cast<double>(merge_delta.miller_loops) / kMergeReps, merge_speedup);
  if (std::thread::hardware_concurrency() <= 1)
    std::printf("  (host exposes 1 hardware thread; no parallel gain is possible)\n");

  Json root;
  root.put("bench", "pairing_micro")
      .put("group", bench_group_label())
      .put("batch", "pairing_product")
      .put("batch_terms", kTerms)
      .put("reps", kReps)
      .put("hardware_concurrency",
           static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .put("serial_threads", 1)
      .put("pool_threads", pool_threads)
      .put("serial_wall_ms", serial_ms)
      .put("pool_wall_ms", pool_ms)
      .put("speedup", speedup)
      .put("fold_wall_ms", fold_ms)
      .put("kernel_wall_ms", kernel_ms)
      .put("kernel_speedup", kernel_speedup)
      .put("field_mul_fixed_ns", fixed_ns)
      .put("field_mul_montctx_ns", montctx_ns)
      .put("field_kernel_speedup", field_kernel_speedup)
      .put("adx_kernel", adx ? 1 : 0)
      .put("field_mul_portable8_ns", portable8_ns)
      .put("field_mul_dispatched8_ns", dispatched8_ns)
      .put("adx_kernel_speedup", adx_kernel_speedup)
      .put("g1_decode_us", g1_decode_us)
      .put("substrate", substrate)
      .put("merge_terms", dec_terms.size())
      .put("merge_per_term_ms", per_term_ms)
      .put("merge_kernel_ms", merged_ms)
      .put("merge_speedup", merge_speedup)
      .put("merge_stats", stats_json(merge_delta))
      .put("serial_stats", stats_json(serial_eng.stats()))
      .put("pool_stats", stats_json(pool_eng.stats()));
  write_bench_json("pairing_micro", root);
}

}  // namespace
}  // namespace maabe::bench

int main(int argc, char** argv) {
  std::printf("Pairing substrate microbenchmarks\ngroup: %s\nengine threads: %d\n\n",
              maabe::bench::bench_group_label().c_str(),
              maabe::engine::CryptoEngine::default_threads());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  maabe::bench::engine_batch_report();
  return 0;
}
