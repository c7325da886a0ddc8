#!/usr/bin/env python3
"""Print the EXPERIMENTS.md Fig. 3(b) / Fig. 4(b) decrypt tables from bench output.

Usage (from a directory holding the JSON the two benches wrote):

    MAABE_THREADS=1 build/bench/fig3_time_vs_authorities --benchmark_filter=nothing
    MAABE_THREADS=1 build/bench/fig4_time_vs_attributes --benchmark_filter=nothing
    python3 bench/fig_tables.py BENCH_fig3.json BENCH_fig4.json

Each row is one point of the bench's JSON: the decrypt wall time of ours
and of Lewko-Waters (one cold decrypt each), and for both the pairings
submitted and the Miller loops the engine actually ran for them.
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


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    table(argv[1], "authorities", "n_A")
    table(argv[2], "attrs_per_auth", "n_k")


if __name__ == "__main__":
    main(sys.argv)
