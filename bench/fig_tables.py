#!/usr/bin/env python3
"""Print EXPERIMENTS.md tables from bench output.

Fig. 3(b) / Fig. 4(b) decrypt tables (from a directory holding the JSON
the two benches wrote):

    MAABE_THREADS=1 build/bench/fig3_time_vs_authorities --benchmark_filter=nothing
    MAABE_THREADS=1 build/bench/fig4_time_vs_attributes --benchmark_filter=nothing
    python3 bench/fig_tables.py BENCH_fig3.json BENCH_fig4.json

Each row is one point of the bench's JSON: the decrypt wall time of ours
and of Lewko-Waters (one cold decrypt each), and for both the pairings
submitted and the Miller loops the engine actually ran for them.

Substrate table (BENCH_pairing_micro.json files from two builds or two
hosts, each written by `build/bench/pairing_micro
--benchmark_filter=nothing`):

    python3 bench/fig_tables.py substrate BASE.json[,BASE2.json...] NEW.json[,...]

Each row is one rung of the JSON's `substrate` object (paper curve,
best-of per-call times on the F_q kernel that build dispatched to), with
the base/new ratio; a rung one side's build did not emit reads "—". A
side given as several comma-separated runs keeps each rung's minimum
over them, so a burst of host load in one process does not set a cell;
run the two builds alternately.
"""
import json
import sys


def fmt_ms(ms):
    return f"{ms:.3g} ms"


def ops(p, side):
    o = p[f"{side}_decrypt_ops"]
    return f"{o['pairings']} / {o['miller_loops']}"


def table(path, key, label):
    with open(path) as f:
        doc = json.load(f)
    print(f"<!-- {path}: group {doc['group']}, engine threads {doc['engine_threads']} -->")
    print(f"| {label} | Dec ours | Dec Lewko | pairings / Miller loops, ours "
          "| pairings / Miller loops, Lewko |")
    print("|---|---|---|---|---|")
    for p in doc["points"]:
        print(f"| {p[key]} | {fmt_ms(p['ours_decrypt_ms'])} "
              f"| {fmt_ms(p['lewko_decrypt_ms'])} | {ops(p, 'ours')} | {ops(p, 'lewko')} |")
    print()


# (key, label, unit) in ladder order; values are stored in that unit.
SUBSTRATE_ROWS = [
    ("fq_mul_ns", "F_q mul", "ns"),
    ("fq_sqr_ns", "F_q square", "ns"),
    ("fq_inv_us", "F_q inverse (binary ext-gcd)", "us"),
    ("fq_legendre_us", "F_q Legendre symbol (binary gcd)", "us"),
    ("g1_decode_us", "G1 decode (square root by (q+1)/4)", "us"),
    ("g1_decode_batch_us", "G1 decode, per point of an 11-point batch", "us"),
    ("sqrt_scalar_us", "square root by (q+1)/4, scalar", "us"),
    ("sqrt_pass_us", "square roots by (q+1)/4, one 8-lane IFMA pass", "us"),
    ("pair_pass_us", "8 pairings on one line table, one 8-lane IFMA pass", "us"),
    ("g1_pow_pass_us", "8 G1 multiplies by one scalar, one 8-lane IFMA pass", "us"),
    ("g1_exp_table_us", "G1 table walk (fixed-base, Jacobian), scalar", "us"),
    ("g1_table_pass_us", "8 G1 table walks, one 8-lane IFMA pass", "us"),
    ("g1_table_build_scalar_ms", "G1 window table build, scalar rows", "ms"),
    ("g1_table_build_lanes_ms", "G1 window table build, 8-lane IFMA rows", "ms"),
    ("g1_subgroup_check_us", "G1 subgroup check (multiply by r), scalar", "us"),
    ("g1_subgroup_pass_us", "8 G1 subgroup checks (by r - 1), one 8-lane IFMA pass", "us"),
    ("g1_mixed_pass_us", "8 G1 multiplies by 8 distinct scalars, one 8-lane IFMA pass", "us"),
    ("keygen_cold_us", "KeyGen, 5 attributes, never-seen PK_UID (median)", "us"),
    ("key_update_us", "key update, 5 attributes, UK1 check included (median)", "us"),
    ("stored_file_decode_us", "read-wide stored file (11 points), decode", "us"),
    ("stored_file_check_us", "read-wide stored file (11 points), store check", "us"),
    ("key_updates_alone_us", "16 key updates, 2 attributes each, one at a time", "us"),
    ("key_updates_packed_us", "16 key updates, 2 attributes each, one packed batch", "us"),
    ("zr_inv_us", "Z_r inverse (160-bit r, 3 limbs)", "us"),
    ("lsss_reconstruct_wide_us", "LSSS solve, AND of 10 (n_A=2)", "us"),
    ("lsss_reconstruct_fig3_us", "LSSS solve, Fig. 3 right end (n_A=10, l=50)", "us"),
    ("miller_us", "Miller loop", "us"),
    ("miller_precomp_us", "Miller loop, precomputed line table", "us"),
    ("final_exp_us", "final exponentiation", "us"),
    ("pairing_us", "Tate pairing", "us"),
    ("g1_exp_us", "G1 exponentiation (generic Jacobian)", "us"),
    ("g1_exp_fixed_us", "G1 exponentiation (fixed-base table)", "us"),
    ("gt_exp_us", "GT exponentiation (generic)", "us"),
    ("gt_exp_fixed_us", "GT exponentiation (fixed-base table)", "us"),
    ("hash_to_g1_us", "hash-to-G1", "us"),
]


def fmt_time(v, unit):
    if unit == "us" and v >= 1000:
        return f"{v / 1000:.3g} ms"
    return f"{v:.3g} {'µs' if unit == 'us' else unit}"


def load_substrate(paths):
    """The `substrate` object of each run, merged by per-rung minimum."""
    runs = []
    for path in paths.split(","):
        with open(path) as f:
            runs.append(json.load(f)["substrate"])
    kernels = {r["kernel"] for r in runs}
    if len(kernels) != 1:
        sys.exit(f"{paths}: runs from different kernels {sorted(kernels)}")
    merged = dict(runs[0])
    for key, _, _ in SUBSTRATE_ROWS:
        if all(key in r for r in runs):
            merged[key] = min(r[key] for r in runs)
        else:
            merged.pop(key, None)  # a build from before the rung existed
    return merged, len(runs)


def substrate(base_paths, new_paths):
    (base, nb), (new, nn) = load_substrate(base_paths), load_substrate(new_paths)
    print(f"<!-- {base['group']}; base: kernel {base['kernel']}, min of {nb} runs; "
          f"new: kernel {new['kernel']}, min of {nn} runs -->")
    print(f"| Operation (512-bit type-A) | {base['kernel']} kernel | {new['kernel']} kernel "
          "| speedup |")
    print("|---|---|---|---|")
    for key, label, unit in SUBSTRATE_ROWS:
        b, n = base.get(key), new.get(key)
        cells = ["—" if v is None else fmt_time(v, unit) for v in (b, n)]
        ratio = "—" if b is None or n is None else f"{b / n:.2f}×"
        print(f"| {label} | {cells[0]} | {cells[1]} | {ratio} |")
    print()


def main(argv):
    if len(argv) == 4 and argv[1] == "substrate":
        substrate(argv[2], argv[3])
        return
    if len(argv) != 3:
        sys.exit(__doc__)
    table(argv[1], "authorities", "n_A")
    table(argv[2], "attrs_per_auth", "n_k")


if __name__ == "__main__":
    main(sys.argv)
