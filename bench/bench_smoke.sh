#!/bin/sh
# Perf smoke for ctest (label: perf). Runs the guarded benches on the
# small test curve with tiny iteration counts and checks the headline
# numbers against the committed baselines in bench/baselines/.
#
# Which binary populates which guarded field is explicit below — every
# guard names the binary that must have emitted its JSON key on THIS
# run. bench_guard exits 2 when a key is absent, so a bench that stops
# emitting a guarded field fails the smoke loudly instead of the guard
# silently floor-checking a defaulted value.
#
# Binary -> guarded fields:
#   pairing_micro  -> BENCH_pairing_micro.json kernel_speedup,
#                     field_kernel_speedup, merge_speedup,
#                     inv_kernel_speedup,
#                     adx_kernel_speedup (only on ADX hosts),
#                     sha256_kernel_speedup (only on SHA-NI hosts),
#                     aes_ctr_kernel_speedup (only on AES-NI hosts),
#                     sqrt_batch_speedup, pair_batch_speedup,
#                     g1_pow_batch_speedup,
#                     g1_table_batch_speedup,
#                     subgroup_batch_speedup,
#                     g1_mixed_speedup (only on AVX-512 IFMA hosts),
#                     store_check_speedup,
#                     key_update_pack_speedup (only on AVX-512 IFMA hosts)
#       kernel_speedup: shared-final-exponentiation kernel vs the legacy
#       pair-then-multiply fold, each side the best of three alternating
#       passes on the calling thread's CPU clock (a cheaper final
#       exponentiation shrinks what sharing it saves: about 1.45-1.55 on
#       the small curve since the windowed one). merge_speedup: a
#       decrypt-shaped 22-term product (two repeated first arguments)
#       through the engine, which folds the small exponents and runs one
#       Miller loop per first argument, vs a per-term fold of all 22
#       loops on the same line tables with one reduction — about 7x on
#       the small curve; a kernel that stops merging reads about 1x. field_kernel_speedup: a chain of F_q
#       multiplies on the fixed-width kernel the pairing stack runs on
#       vs the variable-length Bignum MontCtx, a file-local reference
#       kept in bench/pairing_micro.cpp since the library dropped it
#       (about 3x on an x86-64 host; the floor leaves room for noise
#       and sanitizer builds).
#       adx_kernel_speedup: a chain of multiplies mod the paper curve's
#       512-bit q (whatever MAABE_BENCH_SMALL says) on the portable
#       8-limb kernel vs the one MontField dispatches to, the BMI2/ADX
#       kernel when the CPU has both extensions; floored only when
#       /proc/cpuinfo lists adx and bmi2 (elsewhere it reads ~1).
#       inv_kernel_speedup: a chain of inversions mod the paper curve's
#       512-bit q (whatever MAABE_BENCH_SMALL says) through MontField::inv,
#       the batched binary gcd, vs the same chain through the bit-serial
#       binary gcd it replaced, a file-local copy in
#       bench/pairing_micro.cpp (about 7x on an x86-64 host; a kernel
#       that falls back to one modular halving per bit reads about 1x).
#       The bench exits 1 when the two chains disagree.
#       sha256_kernel_speedup / aes_ctr_kernel_speedup: 64 SHA-256
#       compressions and a 4 KiB AES-256-CTR keystream on the portable
#       kernel vs the one Sha256 / aes_ctr dispatch to, each side the
#       best of three alternating passes on the calling thread's CPU
#       clock (about 10x and 20-80x with SHA-NI and AES-NI); floored
#       only when /proc/cpuinfo lists sha_ni / aes (elsewhere they read
#       ~1). The bench exits 1 when the two sides disagree.
#       sqrt_batch_speedup: eleven square roots by (q+1)/4 mod the paper
#       curve's q (a read-wide ciphertext's points) as a loop over
#       FpCtx::sqrt_candidate vs one FpCtx::sqrt_candidates batch, each
#       side the best of three alternating passes on the calling thread's
#       CPU clock (about 4x with two 8-lane IFMA passes); floored only
#       when /proc/cpuinfo lists avx512ifma (elsewhere it reads ~1). The
#       bench exits 1 when any lane differs.
#       pair_batch_speedup / g1_pow_batch_speedup: eight pairings against
#       one line table mod the paper curve's q (a server stage's slots
#       against UK1) as a loop of miller_with + miller_reduce vs one
#       Group::pair_batch, and eight G1 bases to one scalar (an owner's
#       attribute keys to UK2) as a loop of G1::mul vs one
#       Group::g1_mul_batch_jac with the scalar in every lane, each side
#       the best of three alternating passes on the calling thread's CPU
#       clock (about 6x with one 8-lane IFMA pass); floored only when
#       /proc/cpuinfo lists avx512ifma (elsewhere they read ~1). The
#       bench exits 1 when any item differs.
#       g1_table_batch_speedup: eight walks of one fixed-base window
#       table mod the paper curve's q (a chunk of the owner's UpdateInfo
#       pass) as a loop of G1FixedBase::pow_jac vs one
#       Group::g1_pow_with_batch_jac, each side the best of three
#       alternating passes on the calling thread's CPU clock (about 4x
#       with one 8-lane IFMA pass); floored only when /proc/cpuinfo lists
#       avx512ifma (elsewhere it reads ~1). The bench exits 1 when any
#       lane or table entry differs.
#       subgroup_batch_speedup: the order-r check of eight points mod the
#       paper curve's q (a received key's K and K_x) as a loop of
#       G1::in_subgroup vs one Group::g1_in_subgroup_batch, each side the
#       best of three alternating passes on the calling thread's CPU
#       clock (about 7x with one 8-lane IFMA pass by r - 1); floored only
#       when /proc/cpuinfo lists avx512ifma (elsewhere it reads ~1). The
#       bench exits 1 when any verdict differs.
#       g1_mixed_speedup: eight G1 bases raised to eight distinct
#       scalars mod the paper curve's q (an untabled chunk of a
#       multi_exp_g1, such as a new user's KeyGen) as a loop of scalar
#       mul_jac vs one Group::g1_mul_batch_jac, each side the best of
#       three alternating passes on the calling thread's CPU clock
#       (about 5.5-8x with one 8-lane IFMA pass, a 4-bit window per
#       lane); floored at 3 only when /proc/cpuinfo lists avx512ifma
#       (elsewhere it reads ~1). The bench exits 1 when any lane differs
#       from G1::mul, or a key update from K_x^{UK2} and in_subgroup.
#       store_check_speedup: a read-wide stored file on the paper curve
#       (C' and ten C_i) through cloud::deserialize_stored_file vs
#       cloud::check_stored_file, which a store runs on every write (a
#       Legendre symbol per point, no square root), each side the best
#       of three alternating passes on the calling thread's CPU clock
#       (about 3x with the decode's IFMA square roots, more without
#       them). The bench exits 1 when the two disagree on accepting the
#       file or a copy with one point moved off the curve or flipped.
#       key_update_pack_speedup: sixteen 2-attribute keys on the paper
#       curve under one update key (a membership revoke's users) applied
#       one at a time, a pass of three live lanes each, vs one
#       abe::apply_updates_to_secret_keys, five passes carrying every K_x
#       and one UK1 check, each side the best of three alternating passes
#       on the calling thread's CPU clock with the engine on one thread
#       (about 3x with IFMA lanes); floored at 2 only when /proc/cpuinfo
#       lists avx512ifma (elsewhere it reads ~1). The bench exits 1 when
#       a packed key differs from its one-at-a-time bytes.
#       All fifteen are same-process ratios: host speed cancels, guarded
#       by an absolute floor.
#       Also emitted, not guarded: the `substrate` object, the paper
#       curve's per-call ladder (fq_*, zr_inv_us, lsss_reconstruct_wide_us
#       for the AND of 10 over n_A = 2, lsss_reconstruct_fig3_us for
#       n_A = 10, l = 50, g1_decode_us, g1_decode_batch_us per point of
#       an 11-point batch, sqrt_scalar_us and sqrt_pass_us,
#       pair_pass_us and g1_pow_pass_us, g1_subgroup_check_us and
#       g1_subgroup_pass_us, g1_mixed_pass_us, keygen_cold_us and
#       key_update_us, fq_legendre_us, stored_file_decode_us and
#       stored_file_check_us, key_updates_alone_us and
#       key_updates_packed_us, the pairing and exponentiation rungs)
#       whatever MAABE_BENCH_SMALL says;
#       host-speed dependent, so it is read by bench/fig_tables.py, not
#       floored here.
#   revocation     -> BENCH_revocation.json epoch_transport,
#                     cluster_epoch_efficiency
#       epoch_transport is a wall time, guarded as a relative
#       regression against the committed baseline.
#       cluster_epoch_efficiency (single-node transported epoch wall /
#       3-node R=2 cluster epoch wall) is a same-process ratio, guarded
#       by an absolute floor; the bench omits the key entirely when
#       either wall was not measured.
#   workload       -> BENCH_workload.json download_p99_ms, achieved_qps,
#                     overload_rejected, overload_bounded,
#                     recovery_bytes_transferred, recovery_bounded,
#                     recovery_staged_open_zero, slo_download_p99_met
#       The steady mixed-Zipf curve against a 3-node cluster:
#       download tail latency guarded against the baseline (generous —
#       it is a wall time on a shared host), throughput floored at a
#       fraction of the baseline. The overload scenario must show
#       bounded queues: at least one typed kOverloaded rejection and a
#       max queue depth within the configured cap. The recovery
#       scenario (kill -> traffic -> rejoin) must converge through the
#       recovery protocol: some bytes moved, strictly less than a full
#       snapshot of the rejoined node (recovery_bounded folds the
#       <0.9x-snapshot ratio check), and zero epochs left staged-open.
#       The SLO plane scores the steady curve against generous rolling
#       objectives (download_p99_ms=250 et al.); a fault-free run must
#       stay inside every budget, so slo_download_p99_met is floored
#       at 1.
#
# Usage: bench_smoke.sh <pairing_micro> <revocation> <workload> \
#                       <bench_guard> <baseline_dir>
set -e
PAIRING_MICRO=${1:?pairing_micro binary}
REVOCATION=${2:?revocation binary}
WORKLOAD=${3:?workload binary}
GUARD=${4:?bench_guard binary}
BASELINES=${5:?baseline dir}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

export MAABE_BENCH_SMALL=1

# Cheap google-benchmark filters; the JSON reports each bench always
# emits (engine_batch_report / emit_phase_breakdown) are the real work.
# The workload bench has no google-benchmark harness: its scenario loop
# is the run.
"$PAIRING_MICRO" --benchmark_filter='^BM_FinalExp/'
"$REVOCATION" --benchmark_filter='^BM_KeyUpdate_User/2/'
"$WORKLOAD"

# pairing_micro guards
"$GUARD" floor BENCH_pairing_micro.json kernel_speedup 1.3
"$GUARD" floor BENCH_pairing_micro.json field_kernel_speedup 1.5
"$GUARD" floor BENCH_pairing_micro.json merge_speedup 2.5
"$GUARD" floor BENCH_pairing_micro.json inv_kernel_speedup 2.5
"$GUARD" floor BENCH_pairing_micro.json store_check_speedup 2
if grep -qw adx /proc/cpuinfo 2>/dev/null && grep -qw bmi2 /proc/cpuinfo; then
  "$GUARD" floor BENCH_pairing_micro.json adx_kernel_speedup 1.15
fi
if grep -qw sha_ni /proc/cpuinfo 2>/dev/null; then
  "$GUARD" floor BENCH_pairing_micro.json sha256_kernel_speedup 3
fi
if grep -qw aes /proc/cpuinfo 2>/dev/null; then
  "$GUARD" floor BENCH_pairing_micro.json aes_ctr_kernel_speedup 5
fi
if grep -qw avx512ifma /proc/cpuinfo 2>/dev/null; then
  "$GUARD" floor BENCH_pairing_micro.json sqrt_batch_speedup 2
  "$GUARD" floor BENCH_pairing_micro.json pair_batch_speedup 2
  "$GUARD" floor BENCH_pairing_micro.json g1_pow_batch_speedup 2
  "$GUARD" floor BENCH_pairing_micro.json g1_table_batch_speedup 2
  "$GUARD" floor BENCH_pairing_micro.json subgroup_batch_speedup 2
  "$GUARD" floor BENCH_pairing_micro.json g1_mixed_speedup 3
  "$GUARD" floor BENCH_pairing_micro.json key_update_pack_speedup 2
fi

# revocation guards
"$GUARD" regress BENCH_revocation.json "$BASELINES/BENCH_revocation.json" \
  epoch_transport 25
"$GUARD" floor BENCH_revocation.json cluster_epoch_efficiency 0.4

# workload guards
"$GUARD" regress BENCH_workload.json "$BASELINES/BENCH_workload.json" \
  download_p99_ms 150
"$GUARD" floor_ratio BENCH_workload.json "$BASELINES/BENCH_workload.json" \
  achieved_qps 0.3
"$GUARD" floor BENCH_workload.json overload_rejected 1
"$GUARD" floor BENCH_workload.json overload_bounded 1
"$GUARD" floor BENCH_workload.json recovery_bytes_transferred 1
"$GUARD" floor BENCH_workload.json recovery_bounded 1
"$GUARD" floor BENCH_workload.json recovery_staged_open_zero 1
"$GUARD" floor BENCH_workload.json slo_download_p99_met 1

echo "bench-smoke: OK"
