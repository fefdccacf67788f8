"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to watch).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

import halftimehash as hh
from halftimehash import analysis, hasher, oracle
from halftimehash.cli import fill_bytes, main
from halftimehash.nh import MultCounter
from halftimehash.params import VARIANTS

EXPECTED_VALUATIONS = {16: 2, 24: 2, 32: 3, 40: 3}


def _verdict(number: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail} [{elapsed:.2f}s of {budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_matrix_conditions():
    t0 = time.perf_counter()
    measured = {}
    for width, p in sorted(VARIANTS.items()):
        measured[width] = analysis.max_two_adic_valuation(p.matrix, p.output_words)
    ok = measured == EXPECTED_VALUATIONS
    _verdict(
        1,
        ok,
        f"all k-column subsets nonsingular; valuations {measured}",
        time.perf_counter() - t0,
        budget=1.0,
    )


def test_criterion_2_erasure_code_distance():
    t0 = time.perf_counter()
    results = {}
    ok = True
    for width, p in sorted(VARIANTS.items()):
        dist = analysis.verify_min_distance(p.code, trials=10**6)
        results[width] = dist
        ok &= dist >= p.output_words
    _verdict(
        2,
        ok,
        f"exhaustive width-4 + 1e6 full-width trials, distances {results}",
        time.perf_counter() - t0,
        budget=60.0,
    )


def test_criterion_3_nh_delta_universality_desk_scale():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xACC3)
    bound = 2**-4
    worst = 0.0
    for i in range(100):
        x = tuple(int(v) for v in rng.integers(0, 256, size=2))
        y = tuple(int(v) for v in rng.integers(0, 256, size=2))
        if x == y:
            y = (y[0] ^ 1,) + y[1:]
        dist = oracle.nh_delta_distribution(x, y, 4, salt=i + 1)
        worst = max(worst, oracle.worst_probability(dist))
    # all deltas at once on 10 probes: the full difference distribution may
    # not put more than bound * 2^8 mass on any value
    all_delta_worst = 0.0
    for i in range(10):
        x = tuple(int(v) for v in rng.integers(0, 256, size=2))
        y = (x[0] ^ int(rng.integers(1, 256)),) + x[1:]
        dist = oracle.nh_delta_distribution(x, y, 4, salt=1000 + i)
        all_delta_worst = max(all_delta_worst, oracle.worst_probability(dist))
    ok = worst <= bound and all_delta_worst <= bound
    _verdict(
        3,
        ok,
        f"width-4 m=1 exhaustive: worst {worst:.4f} (100 probes), "
        f"{all_delta_worst:.4f} (all deltas on 10) <= {bound}",
        time.perf_counter() - t0,
        budget=10.0,
    )


def test_criterion_4_generalized_ehc_desk_scale():
    t0 = time.perf_counter()
    details = []
    ok = True
    for entries in (((1, 0, 1), (0, 1, 1)), ((1, 1, 0), (1, 3, 2))):
        toy = oracle.toy_ehc_params(entries)
        worst = oracle.worst_probability(
            oracle.ehc_delta_distribution(
                toy, oracle.TOY_X, oracle.TOY_Y, 4, salt=oracle.TOY_SALT
            )
        )
        bound = 2.0 ** (toy.output_words * (toy.max_det_valuation - 4))
        ok &= worst <= bound
        details.append(f"p={toy.max_det_valuation}: {worst:.6f} <= {bound:.6f}")
    _verdict(
        4,
        ok,
        "width-4 EHC, k differing positions enumerated: " + "; ".join(details),
        time.perf_counter() - t0,
        budget=300.0,
    )


def test_criterion_5_entropy_formula_reproduction():
    t0 = time.perf_counter()
    p = hh.variant(24)
    eb = analysis.entropy_report(p, 2**60)
    mb = analysis.entropy_report(p, 2**20)
    ok = eb.epsilon_log2 > 83
    ok &= abs(mb.seed_bytes - 8400) <= 0.15 * 8400
    ok &= abs(eb.seed_bytes - 34000) <= 0.15 * 34000
    _verdict(
        5,
        ok,
        f"exabyte entropy {eb.epsilon_log2:.2f} > 83 bits; "
        f"seed bytes {mb.seed_bytes} ~ 8.4KB, {eb.seed_bytes} ~ 34KB (+-15%)",
        time.perf_counter() - t0,
        budget=1.0,
    )


def test_criterion_6_multiplication_accounting():
    t0 = time.perf_counter()
    p = hh.variant(24)
    n_bytes = 2**20
    data = fill_bytes(n_bytes)
    seed = hh.seed_for_input(b"\x00" * 32, p, n_bytes)
    counter = MultCounter()
    hh.hash_bytes(data, seed, p, engine="scalar", counter=counter)
    n_words = n_bytes // 8
    n_inst = n_words // p.instance_words
    base = (p.entropy_words + p.output_words) * p.block_words * n_inst
    k, b, f = p.output_words, p.block_words, p.fanout
    levels = hasher.seed_layout(p, n_bytes).levels
    # O(log N) slack: finalize NH, the sub-instance tail, and per-level
    # flooring in the tree node count
    slack = (
        k * ((f - 1) * b * (levels + 1) + 1)
        + k * p.instance_words
        + k * b * f * levels
    )
    diff = counter.total - base
    share = counter.by_stage["ehc"] / counter.total
    ok = abs(diff) <= slack and share >= 0.80
    _verdict(
        6,
        ok,
        f"1MB scalar: {counter.total} mults vs formula {base} "
        f"(diff {diff:+d}, slack {slack}); EHC share {share:.1%} >= 80%",
        time.perf_counter() - t0,
        budget=30.0,
    )


def test_criterion_7_collision_smoke():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xC0FFEE)
    n_inputs, n_bytes = 10**5, 2048
    collisions = {}
    for width, p in sorted(VARIANTS.items()):
        words = rng.integers(0, 1 << 64, size=(n_inputs, n_bytes // 8), dtype=np.uint64)
        master = rng.integers(0, 1 << 64, size=4, dtype=np.uint64).astype("<u8").tobytes()
        seed = hh.seed_for_input(master, p, n_bytes)
        layout = hasher.seed_layout(p, n_bytes)
        out = hasher._hash_words_np(words, n_bytes, seed.words_np, p, layout)
        collisions[width] = n_inputs - len(np.unique(out, axis=0))
    ok = all(c == 0 for c in collisions.values())
    _verdict(
        7,
        ok,
        f"1e5 distinct random 2KB inputs per variant, digest collisions {collisions}",
        time.perf_counter() - t0,
        budget=120.0,
    )


def test_criterion_8_determinism_and_path_equivalence(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xDE7E12)
    pairs_per_variant = 2500
    mismatches = 0
    for width, p in sorted(VARIANTS.items()):
        iw = p.instance_words * 8
        boundary = [0, 1, 63, 64, 65, iw - 8, iw - 1, iw, iw + 1, iw + 8,
                    2 * iw - 1, 2 * iw, 2 * iw + 1]
        lengths = boundary * 40
        lengths += [int(v) for v in rng.integers(0, 2 * iw, size=pairs_per_variant - len(lengths))]
        for n in lengths:
            data = rng.bytes(n)
            master = rng.bytes(32)
            seed = hh.seed_for_input(master, p, n)
            a = hh.hash_bytes(data, seed, p, engine="scalar")
            b = hh.hash_bytes(data, seed, p, engine="lanes")
            mismatches += a != b
    vec_path = tmp_path / "vectors.txt"
    emit_rc = main(["vectors", "--emit", str(vec_path)])
    check_rc = main(["vectors", "--check", str(vec_path)])
    capsys.readouterr()  # swallow the vector tool output
    ok = mismatches == 0 and emit_rc == 0 and check_rc == 0
    _verdict(
        8,
        ok,
        f"4x2500 (length, seed) pairs incl. instance/block boundaries: "
        f"{mismatches} scalar/lanes mismatches; vector file round-trip "
        f"rc=({emit_rc},{check_rc})",
        time.perf_counter() - t0,
        budget=120.0,
    )


def test_criterion_9_throughput_report_only(capsys):
    # report-only: the benchmark must emit well-formed rows; absolute
    # numbers are hardware-specific and never gate anything
    rc = main(["bench", "--sizes", "4K,64K", "--reps", "2"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    ok = (
        rc == 0
        and lines[0] == "size_bytes,variant,bytes_per_second,bytes_per_cycle"
        and len(lines) == 1 + 2 * 4
        and all(float(row.split(",")[2]) > 0 for row in lines[1:])
    )
    print(f"ACCEPTANCE 9 {'PASS' if ok else 'FAIL'}: bench emits per-size rows "
          f"(report-only, no throughput gate)")
    assert ok
