// Pairing-substrate microbenchmarks — the anchor for every timing claim
// in the table/figure reproductions, plus the Montgomery-vs-plain
// modular-multiplication ablation called out in DESIGN.md.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "engine/engine.h"
#include "common/errors.h"
#include "crypto/kernels.h"
#include "math/field_kernels.h"
#include "support/bignum_ref.h"

namespace maabe::bench {
namespace {

using u128 = unsigned __int128;

/// Variable-length Montgomery multiplication on Bignum limbs (CIOS): the
/// reference side of the field_kernel_speedup ablation against the
/// fixed-width math::MontField.
class MontCtx {
 public:
  /// Modulus must be odd and >= 3. Throws MathError otherwise.
  explicit MontCtx(const math::Bignum& modulus);

  /// a must be < modulus.
  math::Bignum to_mont(const math::Bignum& a) const { return mul(a, r2_); }
  /// Montgomery product of two Montgomery-form values.
  math::Bignum mul(const math::Bignum& a, const math::Bignum& b) const;

 private:
  math::Bignum p_;
  math::Bignum r2_;  // R^2 mod p
  uint64_t n0_ = 0;  // -p^{-1} mod 2^64
  int n_ = 0;
};

MontCtx::MontCtx(const math::Bignum& modulus) : p_(modulus) {
  using math::Bignum;
  if (!modulus.is_odd() || modulus.bit_length() < 2)
    throw MathError("MontCtx: modulus must be odd and >= 3");
  n_ = modulus.limb_count();

  // n0_ = -p^{-1} mod 2^64 via Newton-Hensel lifting.
  const uint64_t p0 = modulus.limb(0);
  uint64_t x = p0;  // 3-bit correct start (x*p == 1 mod 8 for odd p)
  for (int i = 0; i < 6; ++i) x *= 2 - p0 * x;
  n0_ = ~x + 1;  // -x

  // R mod p and R^2 mod p via shifting.
  const Bignum r = Bignum::mod(Bignum::shl(Bignum::from_u64(1), 64 * n_), p_);
  r2_ = Bignum::mod(Bignum::mul(r, r), p_);
}

math::Bignum MontCtx::mul(const math::Bignum& a, const math::Bignum& b) const {
  using math::Bignum;
  // CIOS (coarsely integrated operand scanning).
  const int n = n_;
  uint64_t t[Bignum::kMaxLimbs + 2] = {0};
  for (int i = 0; i < n; ++i) {
    const uint64_t ai = a.limb(i);
    // t += ai * b
    u128 carry = 0;
    for (int j = 0; j < n; ++j) {
      const u128 s = u128(ai) * b.limb(j) + t[j] + static_cast<uint64_t>(carry);
      t[j] = static_cast<uint64_t>(s);
      carry = s >> 64;
    }
    u128 s = u128(t[n]) + static_cast<uint64_t>(carry);
    t[n] = static_cast<uint64_t>(s);
    t[n + 1] = static_cast<uint64_t>(s >> 64);

    // t = (t + m*p) / 2^64
    const uint64_t m = t[0] * n0_;
    s = u128(m) * p_.limb(0) + t[0];
    carry = s >> 64;
    for (int j = 1; j < n; ++j) {
      s = u128(m) * p_.limb(j) + t[j] + static_cast<uint64_t>(carry);
      t[j - 1] = static_cast<uint64_t>(s);
      carry = s >> 64;
    }
    s = u128(t[n]) + static_cast<uint64_t>(carry);
    t[n - 1] = static_cast<uint64_t>(s);
    t[n] = t[n + 1] + static_cast<uint64_t>(s >> 64);
    t[n + 1] = 0;
  }

  // t[0..n] holds the result, < 2p.
  Bignum out = Bignum::from_limbs_le(t, n + 1);
  if (Bignum::cmp(out, p_) >= 0) out = Bignum::sub(out, p_);
  return out;
}

/// The bit-serial binary extended gcd that MontField::inv ran before
/// the batched kernel, for 8 limbs: one modular halving per stripped
/// bit. The reference side of the inv_kernel_speedup ablation. Returns
/// x^-1 mod p for a reduced nonzero x and odd p, or false when
/// gcd(x, p) != 1. Invariants: x1*x == u and x2*x == v (mod p).
class LegacyGcdInverse {
 public:
  static bool invert(const math::FieldElem& x, const math::FieldElem& p, math::FieldElem* out) {
    Limbs u, v, x1 = {1}, x2 = {};
    for (int i = 0; i < kN; ++i) {
      u[i] = x.l[i];
      v[i] = p.l[i];
    }
    const uint64_t* pl = p.l.data();
    if (is_zero(u.data())) return false;
    while (!is_one(u.data()) && !is_one(v.data())) {
      strip(u.data(), x1.data(), pl);
      strip(v.data(), x2.data(), pl);
      if (greater_equal(u.data(), v.data())) {
        sub_in(u.data(), v.data());
        sub_mod(x1.data(), x2.data(), pl);
      } else {
        sub_in(v.data(), u.data());
        sub_mod(x2.data(), x1.data(), pl);
      }
      if (is_zero(u.data()) || is_zero(v.data())) return false;
    }
    const Limbs& r = is_one(u.data()) ? x1 : x2;
    *out = math::FieldElem();
    for (int i = 0; i < kN; ++i) out->l[i] = r[i];
    return true;
  }

 private:
  static constexpr int kN = 8;
  using Limbs = std::array<uint64_t, kN>;

  static bool is_zero(const uint64_t* x) {
    uint64_t acc = 0;
    for (int i = 0; i < kN; ++i) acc |= x[i];
    return acc == 0;
  }
  static bool is_one(const uint64_t* x) {
    uint64_t acc = x[0] ^ 1;
    for (int i = 1; i < kN; ++i) acc |= x[i];
    return acc == 0;
  }
  static bool greater_equal(const uint64_t* x, const uint64_t* y) {
    for (int i = kN - 1; i >= 0; --i)
      if (x[i] != y[i]) return x[i] > y[i];
    return true;
  }
  static uint64_t sub_in(uint64_t* x, const uint64_t* y) {
    uint64_t borrow = 0;
    for (int i = 0; i < kN; ++i) {
      const u128 s = u128(x[i]) - y[i] - borrow;
      x[i] = static_cast<uint64_t>(s);
      borrow = static_cast<uint64_t>(s >> 64) & 1;
    }
    return borrow;
  }
  static uint64_t add_masked(uint64_t* x, const uint64_t* y, uint64_t mask) {
    uint64_t carry = 0;
    for (int i = 0; i < kN; ++i) {
      const u128 s = u128(x[i]) + (y[i] & mask) + carry;
      x[i] = static_cast<uint64_t>(s);
      carry = static_cast<uint64_t>(s >> 64);
    }
    return carry;
  }
  static void sub_mod(uint64_t* x, const uint64_t* y, const uint64_t* p) {
    add_masked(x, p, 0 - sub_in(x, y));
  }
  /// Strips the trailing zeros of a nonzero w in shifts of at most 63
  /// bits, halving c mod p once per bit.
  static void strip(uint64_t* w, uint64_t* c, const uint64_t* p) {
    while ((w[0] & 1) == 0) {
      const int k = w[0] == 0 ? 63 : std::countr_zero(w[0]);
      for (int i = 0; i < kN - 1; ++i) w[i] = (w[i] >> k) | (w[i + 1] << (64 - k));
      w[kN - 1] >>= k;
      for (int b = 0; b < k; ++b) {
        const uint64_t carry = add_masked(c, p, 0 - (c[0] & 1));
        for (int i = 0; i < kN - 1; ++i) c[i] = (c[i] >> 1) | (c[i + 1] << 63);
        c[kN - 1] = (c[kN - 1] >> 1) | (carry << 63);
      }
    }
  }
};

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
// (math::MontField, which FpCtx is) vs the variable-length Bignum MontCtx
// reference above.
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
  const MontCtx mont(grp->params().q);
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
    benchmark::DoNotOptimize(math::reference::mod_mul(a, b, grp->params().q));
  }
}

void BM_FieldInverse(benchmark::State& state) {
  auto grp = bench_group();
  crypto::Drbg rng(std::string_view("micro"));
  const auto a = rng.nonzero_below(grp->params().q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::reference::mod_inverse(a, grp->params().q));
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

// ------------------------------------------------ symmetric kernels --

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

/// Per-call microseconds of the portable and the dispatched kernel on
/// one input, each side the best of three alternating passes of `reps`
/// calls on the calling thread's CPU clock.
struct KernelPair {
  double portable_us = 0;
  double dispatched_us = 0;
  double speedup() const { return dispatched_us > 0 ? portable_us / dispatched_us : 0.0; }
};

template <typename Portable, typename Dispatched>
KernelPair time_kernel_pair(int reps, const Portable& portable, const Dispatched& dispatched) {
  constexpr int kPasses = 3;
  const auto per_call_us = [&](const auto& call) {
    const double t0 = thread_cpu_us();
    for (int i = 0; i < reps; ++i) call();
    return (thread_cpu_us() - t0) / reps;
  };
  KernelPair best;
  for (int pass = 0; pass < kPasses; ++pass) {
    const double p = per_call_us(portable);
    const double d = per_call_us(dispatched);
    if (pass == 0 || p < best.portable_us) best.portable_us = p;
    if (pass == 0 || d < best.dispatched_us) best.dispatched_us = d;
  }
  return best;
}

/// SHA-256 compression and AES-256-CTR on a 4 KiB buffer: the portable
/// kernel against the one Sha256 / aes_ctr dispatch to (SHA-NI / AES-NI
/// when CPUID reports them; otherwise the portable one again, ratio ~1).
/// Exits 1 when the two sides disagree.
struct SymmetricKernels {
  KernelPair sha256, aes_ctr;
};

SymmetricKernels symmetric_kernel_report() {
  constexpr size_t kBytes = 4096;
  crypto::Drbg rng(std::string_view("micro-symmetric"));
  const Bytes buf = rng.bytes(kBytes);
  const Bytes key = rng.bytes(32), iv = rng.bytes(16);

  const auto sha_dispatched = crypto::detail::sha_ni_available()
                                  ? &crypto::detail::sha256_blocks_shani
                                  : &crypto::detail::sha256_blocks_portable;
  uint32_t h_portable[8] = {}, h_dispatched[8] = {};
  SymmetricKernels out;
  out.sha256 = time_kernel_pair(
      200,
      [&] { crypto::detail::sha256_blocks_portable(h_portable, buf.data(), kBytes / 64); },
      [&] { sha_dispatched(h_dispatched, buf.data(), kBytes / 64); });

  const crypto::Aes aes(key);
  const auto aes_dispatched = crypto::detail::aes_ni_available()
                                  ? &crypto::detail::aes_ctr_aesni
                                  : &crypto::detail::aes_ctr_portable;
  Bytes ct_portable, ct_dispatched;
  out.aes_ctr = time_kernel_pair(
      100, [&] { ct_portable = crypto::detail::aes_ctr_portable(aes, iv, buf); },
      [&] { ct_dispatched = aes_dispatched(aes, iv, buf); });

  // Both sides ran the same number of compressions from the same state.
  if (!std::equal(h_portable, h_portable + 8, h_dispatched) || ct_portable != ct_dispatched) {
    std::fprintf(stderr, "pairing_micro: portable and dispatched symmetric kernels disagree\n");
    std::exit(1);
  }
  return out;
}

/// Square roots by (q+1)/4 on the paper curve, eleven at a time (the
/// C' and ten C_i of a read-wide ciphertext): the scalar loop over
/// FpCtx::sqrt_candidate against the FpCtx::sqrt_candidates batch
/// (8-lane IFMA passes where CPUID reports them; otherwise the same
/// loop, ratio ~1). `scalar_us` is one scalar root and `pass_us` one
/// 8-lane pass (0 without the IFMA kernel): the figures behind
/// math::detail::kMinLanesPerPass. Exits 1 when any lane differs.
struct SqrtBatch {
  KernelPair loop_vs_batch;
  double scalar_us = 0;
  double pass_us = 0;
};

SqrtBatch sqrt_batch_report(const pairing::Group& grp) {
  constexpr size_t kRoots = 11;
  const pairing::FpCtx& fq = grp.ctx().fq();
  crypto::Drbg rng(std::string_view("micro-sqrt-batch"));
  std::vector<math::FieldElem> in;
  for (size_t k = 0; k < kRoots; ++k) in.push_back(grp.ctx().curve().rhs(fq.random(rng)));
  std::vector<math::FieldElem> scalar(kRoots), batch(kRoots);
  SqrtBatch out;
  out.loop_vs_batch = time_kernel_pair(
      5,
      [&] {
        for (size_t k = 0; k < kRoots; ++k) scalar[k] = fq.sqrt_candidate(in[k]);
      },
      [&] { fq.sqrt_candidates(in, batch); });
  if (scalar != batch) {
    std::fprintf(stderr, "pairing_micro: scalar and batched square roots disagree\n");
    std::exit(1);
  }
  out.scalar_us = out.loop_vs_batch.portable_us / kRoots;
  if (math::detail::ifma_kernel_available()) {
    const math::detail::LaneField lanes(fq.modulus());
    const math::Bignum exp =
        math::Bignum::shr(math::Bignum::add(fq.modulus(), math::Bignum::from_u64(1)), 2);
    std::vector<math::FieldElem> one(1);
    for (int pass = 0; pass < 3; ++pass) {
      constexpr int kReps = 5;
      const double t0 = thread_cpu_us();
      for (int i = 0; i < kReps; ++i)
        lanes.pow(std::span(in).first(1), exp, one);
      const double us = (thread_cpu_us() - t0) / kReps;
      if (pass == 0 || us < out.pass_us) out.pass_us = us;
    }
    if (one[0] != scalar[0]) {
      std::fprintf(stderr, "pairing_micro: IFMA pass and scalar square root disagree\n");
      std::exit(1);
    }
  }
  return out;
}

/// The revoke's same-schedule batches on the paper curve, eight items
/// each: e(UK1, C'_k) for eight C' against one line table (a node
/// stage's slots) as a loop of miller_with + miller_reduce vs one
/// Group::pair_batch, and K_x^{UK2} for eight bases and one scalar (a
/// key update) as a loop of G1::mul vs one Group::g1_pow_batch. Each
/// side the best of three alternating passes on the thread CPU clock;
/// without the IFMA kernel the batches are the same loops (ratio ~1).
/// `*_pass_us` is the batch side, one 8-lane pass (0 without the
/// kernel): against miller_precomp_us + final_exp_us and g1_exp_us, the
/// figures behind pairing::kMinPairLanesPerPass and
/// kMinG1PowLanesPerPass. Exits 1 when any item differs.
struct RevokeBatches {
  KernelPair pair, g1_pow;
  double pair_pass_us = 0;
  double g1_pow_pass_us = 0;
};

RevokeBatches revoke_batch_report(const pairing::Group& grp) {
  constexpr size_t kItems = 8;
  crypto::Drbg rng(std::string_view("micro-revoke-batch"));
  const pairing::G1 uk1 = grp.g1_random(rng);
  const pairing::Zr uk2 = grp.zr_nonzero_random(rng);
  const auto pre = grp.pair_precompute(uk1);
  std::vector<pairing::G1> points;
  for (size_t k = 0; k < kItems; ++k) points.push_back(grp.g1_random(rng));

  std::vector<pairing::GT> pairs_loop(kItems), pairs_batch;
  std::vector<pairing::G1> pows_loop(kItems), pows_batch;
  RevokeBatches out;
  out.pair = time_kernel_pair(
      2,
      [&] {
        for (size_t k = 0; k < kItems; ++k)
          pairs_loop[k] = grp.miller_reduce(grp.miller_with(*pre, points[k]));
      },
      [&] { pairs_batch = grp.pair_batch(*pre, points); });
  out.g1_pow = time_kernel_pair(
      2,
      [&] {
        for (size_t k = 0; k < kItems; ++k) pows_loop[k] = points[k].mul(uk2);
      },
      [&] { pows_batch = grp.g1_pow_batch(points, uk2); });
  for (size_t k = 0; k < kItems; ++k) {
    if (pairs_loop[k] != pairs_batch[k] ||
        pows_loop[k].to_bytes() != pows_batch[k].to_bytes()) {
      std::fprintf(stderr, "pairing_micro: scalar and batched revoke items disagree\n");
      std::exit(1);
    }
  }
  if (grp.ctx().fq().lanes() != nullptr) {
    out.pair_pass_us = out.pair.dispatched_us;
    out.g1_pow_pass_us = out.g1_pow.dispatched_us;
  }
  return out;
}

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

  // Wall time for the pool comparison; the calling thread's CPU time
  // for the single-threaded kernel/fold ratio below, whose both sides
  // run on this thread, so a pass the host deschedules does not read
  // slow.
  const auto wall_ms = [] {
    return std::chrono::duration<double, std::milli>(Clock::now().time_since_epoch()).count();
  };
  const auto thread_cpu_ms = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
  };
  const auto time_reps = [&](engine::CryptoEngine& eng, int reps, const auto& now) {
    (void)eng.pairing_product(terms);  // warm up (pool spin-up, caches)
    const double t0 = now();
    for (int i = 0; i < reps; ++i) benchmark::DoNotOptimize(eng.pairing_product(terms));
    return (now() - t0) / reps;
  };

  constexpr int kReps = 5;
  const double serial_ms = time_reps(serial_eng, kReps, wall_ms);
  const double pool_ms = time_reps(pool_eng, kReps, wall_ms);
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
    const double t0 = thread_cpu_ms();
    for (int i = 0; i < reps; ++i) benchmark::DoNotOptimize(fold_once());
    return (thread_cpu_ms() - t0) / reps;
  };
  // Best of three passes per side, alternating. Each kernel pass repeats
  // the serial timing above on a fresh single-thread engine (same warm-up,
  // same reps, so the same line-table promotion), so a burst of host load
  // during one pass does not set the ratio.
  constexpr int kKernelPasses = 3;
  double fold_ms = 0, kernel_ms = 0;
  for (int pass = 0; pass < kKernelPasses; ++pass) {
    engine::CryptoEngine pass_eng(*grp, 1);
    const double k_ms = time_reps(pass_eng, kReps, thread_cpu_ms);
    const double f_ms = time_fold(kReps);
    if (pass == 0 || k_ms < kernel_ms) kernel_ms = k_ms;
    if (pass == 0 || f_ms < fold_ms) fold_ms = f_ms;
  }
  const double kernel_speedup = kernel_ms > 0 ? fold_ms / kernel_ms : 0.0;

  // Term merging, same-process: a decrypt-shaped product (AND of 10
  // rows over 2 authorities: 10 terms on PK_UID and 10 on C' with
  // exponent n_A, 2 numerator terms on C' with exponent 1) through the
  // engine, which folds the small exponents into the second arguments
  // and runs one Miller loop per first argument, against a per-term
  // fold that runs all 22 loops on the same line tables and reduces
  // once. The engine's op counts are a declared model; this ratio is
  // the independent evidence that it merges.
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
  // The threshold shape through the same check: 4 rows with distinct
  // full-size w_i * n_A, which keep a (first argument, exponent) class
  // each, and 2 numerator terms on C' with exponent -1, which fold.
  std::vector<engine::CryptoEngine::PairTerm> th_terms;
  std::vector<pairing::Zr> th_exps;
  for (int i = 0; i < 4; ++i) {
    const pairing::Zr e = grp->zr_random(rng) * n_a;
    th_terms.push_back({pk_uid, grp->g1_random(rng)});
    th_terms.push_back({c_prime, grp->g1_random(rng)});
    th_exps.insert(th_exps.end(), {e, e});
  }
  for (int k = 0; k < 2; ++k) {
    th_terms.push_back({c_prime, grp->g1_random(rng)});
    th_exps.push_back(grp->zr_one().neg());
  }
  pairing::MillerVal th_fold = grp->miller_one();
  for (size_t k = 0; k < th_terms.size(); ++k) {
    const auto& t = th_terms[k];
    th_fold = th_fold *
              grp->miller_with(t.a == pk_uid ? *pk_table : *c_table, t.b).pow(th_exps[k]);
  }
  const engine::EngineStats th_before = merge_eng.stats();
  if (merge_eng.pairing_power_product(th_terms, th_exps).to_bytes() !=
      grp->miller_reduce(th_fold).to_bytes()) {
    std::fprintf(stderr, "pairing_micro: threshold-shaped product disagrees\n");
    std::exit(1);
  }
  const uint64_t th_loops = (merge_eng.stats() - th_before).miller_loops;
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
  const MontCtx mont(grp->params().q);
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
  math::FieldElem xf = fq.to_mont(fa);
  const math::FieldElem yf = fq.to_mont(fb);
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
  const math::FieldElem pa = pfq.to_mont(frng.below(pfq.modulus()));
  const math::FieldElem pb = pfq.to_mont(frng.below(pfq.modulus()));
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

  // The inversion kernel, also mod pbc_a512's q: a chain x <- x^-1 + 1
  // through MontField::inv (the batched binary gcd) vs the same chain
  // through the bit-serial gcd it replaced, lifted to Montgomery form
  // with the same R^3 product. Alternating reps, best of each.
  constexpr int kInvChain = 200;
  const math::FieldElem r3 = pfq.to_mont(pfq.to_mont(pfq.one()));
  math::FieldElem x_batched = pa, x_legacy = pa;
  double batched_inv_us = 0, legacy_inv_us = 0;
  for (int r = 0; r < kFieldReps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kInvChain; ++i) x_batched = pfq.add(pfq.inv(x_batched), pfq.one());
    const auto t1 = Clock::now();
    for (int i = 0; i < kInvChain; ++i) {
      math::FieldElem plain;
      if (!LegacyGcdInverse::invert(x_legacy, paper_q, &plain)) {
        std::fprintf(stderr, "pairing_micro: legacy gcd found no inverse\n");
        std::exit(1);
      }
      x_legacy = pfq.add(pfq.mul(plain, r3), pfq.one());
    }
    const auto t2 = Clock::now();
    const double b_us = std::chrono::duration<double, std::micro>(t1 - t0).count() / kInvChain;
    const double l_us = std::chrono::duration<double, std::micro>(t2 - t1).count() / kInvChain;
    if (r == 0 || b_us < batched_inv_us) batched_inv_us = b_us;
    if (r == 0 || l_us < legacy_inv_us) legacy_inv_us = l_us;
  }
  if (x_batched != x_legacy) {
    std::fprintf(stderr, "pairing_micro: batched and bit-serial inversion chains disagree\n");
    std::exit(1);
  }
  const double inv_kernel_speedup = batched_inv_us > 0 ? legacy_inv_us / batched_inv_us : 0.0;

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
  // Per point of one g1_from_bytes_batch over read-wide's eleven points.
  std::vector<Bytes> wide_encs;
  for (int k = 0; k < 11; ++k) wide_encs.push_back(paper_grp->g1_random(drng).to_bytes());
  const std::vector<ByteView> wide_views(wide_encs.begin(), wide_encs.end());
  const double g1_decode_batch_us =
      best_us(2, [&] { benchmark::DoNotOptimize(paper_grp->g1_from_bytes_batch(wide_views)); }) /
      static_cast<double>(wide_views.size());
  const SqrtBatch sqrt_batch = sqrt_batch_report(*paper_grp);
  const RevokeBatches revoke_batches = revoke_batch_report(*paper_grp);
  const bool ifma = math::detail::ifma_kernel_available();
  // Decrypt's LSSS solver on Z_r (3 limbs): the full attribute set of the
  // read-wide policy (AND of 10, n_A = 2) and of Fig. 3's right end
  // (n_A = 10, l = 50).
  const auto reconstruct_us = [&](int n_auth, int calls) {
    const lsss::LsssMatrix m = full_and_policy(n_auth, 5);
    const std::set<lsss::Attribute> have(m.row_attributes().begin(), m.row_attributes().end());
    return best_us(calls, [&] { benchmark::DoNotOptimize(m.reconstruction(*paper_grp, have)); });
  };
  const double lsss_wide_us = reconstruct_us(2, 20);
  const double lsss_fig3_us = reconstruct_us(10, 3);
  uint64_t hash_i = 0;
  Json substrate;
  substrate.put("group", "pbc_a512(512-bit q)")
      .put("kernel", adx ? "adx" : "portable")
      .put("fq_mul_ns", 1e3 * best_us(2000, [&] { fe = pfq.mul(fe, pb); }))
      .put("fq_sqr_ns", 1e3 * best_us(2000, [&] { fe = pfq.sqr(fe); }))
      .put("fq_inv_us", best_us(20, [&] { fe = pfq.inv(fe); }))
      .put("g1_decode_us", g1_decode_us)
      .put("g1_decode_batch_us", g1_decode_batch_us)
      .put("sqrt_scalar_us", sqrt_batch.scalar_us)
      .put("sqrt_pass_us", sqrt_batch.pass_us)
      .put("pair_pass_us", revoke_batches.pair_pass_us)
      .put("g1_pow_pass_us", revoke_batches.g1_pow_pass_us)
      .put("zr_inv_us", best_us(20, [&] { benchmark::DoNotOptimize(zk.inverse()); }))
      .put("lsss_reconstruct_wide_us", lsss_wide_us)
      .put("lsss_reconstruct_fig3_us", lsss_fig3_us)
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
  std::printf("  inverse, bit-serial : %8.2f us\n", legacy_inv_us);
  std::printf("  inverse, batched    : %8.2f us   speedup %.2fx\n", batched_inv_us,
              inv_kernel_speedup);
  std::printf("  G1 decode           : %8.1f us\n", g1_decode_us);
  std::printf("  G1 decode, batch 11 : %8.1f us per point\n", g1_decode_batch_us);
  std::printf("  11 roots, scalar    : %8.1f us\n", sqrt_batch.loop_vs_batch.portable_us);
  std::printf("  11 roots, %s  : %8.1f us   speedup %.2fx (8-lane pass %.1f us, root %.1f us)\n",
              ifma ? "ifma    " : "portable", sqrt_batch.loop_vs_batch.dispatched_us,
              sqrt_batch.loop_vs_batch.speedup(), sqrt_batch.pass_us, sqrt_batch.scalar_us);
  std::printf("  8 pairings, scalar  : %8.1f us\n", revoke_batches.pair.portable_us);
  std::printf("  8 pairings, %s: %8.1f us   speedup %.2fx\n", ifma ? "ifma    " : "portable",
              revoke_batches.pair.dispatched_us, revoke_batches.pair.speedup());
  std::printf("  8 G1 pows, scalar   : %8.1f us\n", revoke_batches.g1_pow.portable_us);
  std::printf("  8 G1 pows, %s : %8.1f us   speedup %.2fx\n", ifma ? "ifma    " : "portable",
              revoke_batches.g1_pow.dispatched_us, revoke_batches.g1_pow.speedup());
  std::printf("  LSSS solve, AND-10  : %8.1f us   (n_A=10, l=50: %.1f us)\n", lsss_wide_us,
              lsss_fig3_us);

  const SymmetricKernels sym = symmetric_kernel_report();
  std::printf("\n4 KiB symmetric kernels (best of 3 passes, thread CPU time):\n");
  std::printf("  SHA-256 portable    : %8.2f us\n", sym.sha256.portable_us);
  std::printf("  SHA-256 %s    : %8.2f us   speedup %.2fx\n",
              crypto::detail::sha_ni_available() ? "sha-ni  " : "portable",
              sym.sha256.dispatched_us, sym.sha256.speedup());
  std::printf("  AES-CTR portable    : %8.2f us\n", sym.aes_ctr.portable_us);
  std::printf("  AES-CTR %s    : %8.2f us   speedup %.2fx\n",
              crypto::detail::aes_ni_available() ? "aes-ni  " : "portable",
              sym.aes_ctr.dispatched_us, sym.aes_ctr.speedup());

  std::printf("\n%zu-pairing product batch (%d reps; fold and kernel best of %d passes,"
              " thread CPU time):\n",
              kTerms, kReps, kKernelPasses);
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
  std::printf("  threshold shape     : %zu terms -> %llu Miller loops (bytes match)\n",
              th_terms.size(), static_cast<unsigned long long>(th_loops));
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
      .put("fold_cpu_ms", fold_ms)
      .put("kernel_cpu_ms", kernel_ms)
      .put("kernel_speedup", kernel_speedup)
      .put("field_mul_fixed_ns", fixed_ns)
      .put("field_mul_montctx_ns", montctx_ns)
      .put("field_kernel_speedup", field_kernel_speedup)
      .put("adx_kernel", adx ? 1 : 0)
      .put("field_mul_portable8_ns", portable8_ns)
      .put("field_mul_dispatched8_ns", dispatched8_ns)
      .put("adx_kernel_speedup", adx_kernel_speedup)
      .put("field_inv_legacy_us", legacy_inv_us)
      .put("field_inv_batched_us", batched_inv_us)
      .put("inv_kernel_speedup", inv_kernel_speedup)
      .put("sha_ni_kernel", crypto::detail::sha_ni_available() ? 1 : 0)
      .put("sha256_4k_portable_us", sym.sha256.portable_us)
      .put("sha256_4k_dispatched_us", sym.sha256.dispatched_us)
      .put("sha256_kernel_speedup", sym.sha256.speedup())
      .put("aes_ni_kernel", crypto::detail::aes_ni_available() ? 1 : 0)
      .put("aes_ctr_4k_portable_us", sym.aes_ctr.portable_us)
      .put("aes_ctr_4k_dispatched_us", sym.aes_ctr.dispatched_us)
      .put("aes_ctr_kernel_speedup", sym.aes_ctr.speedup())
      .put("g1_decode_us", g1_decode_us)
      .put("ifma_kernel", ifma ? 1 : 0)
      .put("g1_decode_batch_us", g1_decode_batch_us)
      .put("sqrt_batch_scalar_us", sqrt_batch.loop_vs_batch.portable_us)
      .put("sqrt_batch_dispatched_us", sqrt_batch.loop_vs_batch.dispatched_us)
      .put("sqrt_batch_speedup", sqrt_batch.loop_vs_batch.speedup())
      .put("pair_batch_scalar_us", revoke_batches.pair.portable_us)
      .put("pair_batch_dispatched_us", revoke_batches.pair.dispatched_us)
      .put("pair_batch_speedup", revoke_batches.pair.speedup())
      .put("g1_pow_batch_scalar_us", revoke_batches.g1_pow.portable_us)
      .put("g1_pow_batch_dispatched_us", revoke_batches.g1_pow.dispatched_us)
      .put("g1_pow_batch_speedup", revoke_batches.g1_pow.speedup())
      .put("substrate", substrate)
      .put("merge_terms", dec_terms.size())
      .put("merge_per_term_ms", per_term_ms)
      .put("merge_kernel_ms", merged_ms)
      .put("merge_speedup", merge_speedup)
      .put("merge_stats", stats_json(merge_delta))
      .put("merge_threshold_terms", th_terms.size())
      .put("merge_threshold_loops", th_loops)
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
