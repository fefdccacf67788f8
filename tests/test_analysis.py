import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halftimehash import analysis, expand_seed, hash_bytes, seed_words_needed, variant
from halftimehash.analysis import (
    CodeDistanceError,
    SingularSubsetError,
    det_bareiss,
    ehc_bound,
    entropy_report,
    max_two_adic_valuation,
    two_adic_valuation,
    verify_min_distance,
)
from halftimehash.hasher import seed_words_for_levels
from halftimehash.nh import MultCounter
from halftimehash.params import VARIANTS, ErasureCode, TransformMatrix, _cauchy_code

from halftimehash import ehc, gf16
import reference


def test_bareiss_matches_cofactor_oracle():
    rnd = random.Random(1)
    for _ in range(300):
        n = rnd.randint(1, 5)
        rows = [[rnd.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(rows) == reference.det_cofactor(rows)


def test_two_adic_valuation():
    assert two_adic_valuation(1) == 0
    assert two_adic_valuation(-12) == 2
    assert two_adic_valuation(1 << 40) == 40
    with pytest.raises(ValueError):
        two_adic_valuation(0)


def test_identity_matrix_valuation_zero():
    ident = TransformMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert max_two_adic_valuation(ident, 3) == 0


@pytest.mark.parametrize(
    "width,expected", [(16, 2), (24, 2), (32, 3), (40, 3)]
)
def test_published_matrix_valuations(width, expected):
    p = variant(width)
    assert max_two_adic_valuation(p.matrix, p.output_words) == expected


def test_three_by_nine_valuation_at_least_one():
    # with 9 columns over 7 nonzero mod-2 patterns, two columns must agree
    # mod 2, so some determinant is even
    p = variant(24)
    assert max_two_adic_valuation(p.matrix, 3) >= 1


def test_singular_subset_detected():
    # duplicate a column to force a singular pair
    corrupt = TransformMatrix(((1, 1, 2), (2, 2, 1)))
    with pytest.raises(SingularSubsetError):
        max_two_adic_valuation(corrupt, 2)


def test_gf16_tables_match_direct_multiply_and_field_axioms():
    def mul(a, b):
        return gf16.scale(a, b, 4)

    for a in range(16):
        for b in range(16):
            assert mul(a, b) == reference.gf16_mul_direct(a, b)
            for c in range(16):
                assert mul(a, mul(b, c)) == mul(mul(a, b), c)
                assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    for a in range(1, 16):
        assert mul(a, gf16.inv(a)) == 1


def test_gf16_lanewise_scale_matches_tables():
    rnd = random.Random(2)
    for _ in range(500):
        coeff = rnd.randrange(16)
        word = rnd.getrandbits(64)
        scaled = gf16.scale(coeff, word, 64)
        # check every one of the 16 interleaved elements
        for lane in range(16):
            elem = sum(((word >> (lane + 16 * c)) & 1) << c for c in range(4))
            got = sum(((scaled >> (lane + 16 * c)) & 1) << c for c in range(4))
            assert got == reference.gf16_mul_direct(coeff, elem)


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_shipped_codes_reach_declared_distance(width):
    p = variant(width)
    measured = verify_min_distance(p.code, trials=10**5)
    assert measured >= p.output_words
    # exact, not just at least: an enumeration that overshoots would pass above
    assert analysis._exhaustive_min_distance(p.code) == p.code.min_distance


def _lane_mismatches(code: ErasureCode, n: int = 4096) -> int:
    """How many of the 16 bit-sliced lanes of a width-64 ``ehc.encode``, on
    n random word vectors, differ from the width-4 encode of that lane.
    Lane j of a word holds bits j + 16c for c = 0..3."""
    rng = np.random.default_rng(0x1A4E5)
    words = rng.integers(0, 1 << 64, size=(code.arity_in, n), dtype=np.uint64)
    wide = np.array(ehc.encode(list(words), code, 64))

    def lane(x, j):
        return sum(((x >> np.uint64(j + 16 * c)) & np.uint64(1)) << np.uint64(c) for c in range(4))

    return sum(
        not np.array_equal(
            lane(wide, j), np.array(ehc.encode(list(lane(words, j)), code, 4))
        )
        for j in range(16)
    )


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_full_width_encode_is_sixteen_lane_encodes(width):
    # The claim that makes the 4-bit distance search exact at width 64.
    assert _lane_mismatches(variant(width).code) == 0


def test_lane_identity_catches_a_width_64_only_fault(monkeypatch):
    # An x-step of stride 1 instead of width >> 2 is the same map at width
    # 4, so the 4-bit search cannot see it; the lane identity must.
    # The distance checks encode one-word items, so ``lanes`` is always 1.
    def xtime_stride_one(value, width, lanes=1):
        top = value >> 3
        return ((value << 1) & ((1 << width) - 1)) ^ top ^ (top << 1)

    monkeypatch.setattr(gf16, "xtime", xtime_stride_one)
    code = variant(24).code
    assert analysis._exhaustive_min_distance(code) == 3
    assert _lane_mismatches(code) > 0


def test_distance_checks_encode_through_ehc(monkeypatch):
    # Zeroing the last parity drops the v24 code to distance 2, so a check
    # that really encodes through ehc.encode must reject it.
    real_encode = ehc.encode

    def encode_without_last_parity(items, code, width=64, item_words=1):
        out = real_encode(items, code, width, item_words)
        return out[:-1] + [out[-1] & 0]

    monkeypatch.setattr(ehc, "encode", encode_without_last_parity)
    with pytest.raises(CodeDistanceError):
        verify_min_distance(variant(24).code, trials=10**4)


def test_xor_parity_distance_two():
    code = ErasureCode(2, 2, ((1, 1),))
    assert verify_min_distance(code, trials=10**4) == 2


def test_repetition_code_distance_two():
    code = ErasureCode(1, 2, ((1,),))
    assert verify_min_distance(code, trials=10**4) == 2


def test_distance_search_goes_past_one_symbol_inputs():
    # Every one-symbol input weighs 1 + 2 parities, but the parity columns
    # of inputs 0 and 1 are equal, so (a, a, 0) weighs 2: only a search
    # over two-symbol inputs finds the distance.
    code = ErasureCode(3, 2, ((1, 1, 2), (1, 1, 3)))
    assert verify_min_distance(code, trials=0) == 2


def test_distance_deficient_code_rejected():
    # two equal coefficients make a weight-2 codeword invisible to one parity
    bad = ErasureCode(2, 3, ((1, 1),))
    with pytest.raises(CodeDistanceError):
        verify_min_distance(bad, trials=10**4)


def test_verify_min_distance_preconditions():
    wide = ErasureCode(8, 2, ((1,) * 8,))
    with pytest.raises(ValueError):
        verify_min_distance(wide)  # 8 inputs > the 7-input enumeration cap


def test_verify_min_distance_refuses_grids_past_memory():
    # Seven inputs pass the arity cap, but with 8 parities (distance 9) the
    # search would reach support size 7: 15^7 grid rows, about 19 GB.
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        verify_min_distance(_cauchy_code(7, 8))
    assert time.perf_counter() - t0 < 1.0


def test_entropy_report_pinned_formula_case():
    # k=3, p=2, h=4: eps * 2^96 = 2^6 + 4^3 + 1 = 129
    p = variant(24)
    r = entropy_report(p, 2**20)
    assert r.tree_height == 4
    assert math.isclose(r.epsilon_log2, 96 - math.log2(129), rel_tol=1e-12)


def test_reported_bound_never_exceeds_key_bits():
    # Every seed word derives from one 64-bit fold of the master, so no
    # bound below 2^-64 holds for every pair; the formula figure exceeds
    # it from v24 up and is reported beside the capped one.
    for width, p in sorted(VARIANTS.items()):
        for n in (1, 8 * p.instance_words, 2**20, 2**40, 2**60):
            r = entropy_report(p, n)
            assert r.key_bits == 64
            assert r.epsilon_log2_keyed == min(r.epsilon_log2, 64.0)
            header = analysis.report_csv_header().split(",")
            row = dict(zip(header, analysis.report_csv_row(r).split(",")))
            assert float(row["epsilon_log2_keyed"]) <= r.key_bits
    assert entropy_report(variant(40), 2**20).epsilon_log2 > 64


def test_entropy_report_exabyte_over_83_bits():
    p = variant(24)
    for n in (10**18, 2**60):
        r = entropy_report(p, n)
        assert r.epsilon_log2 > 83


def test_entropy_report_seed_sizes_match_quoted_figures():
    p = variant(24)
    mb = entropy_report(p, 2**20)
    assert abs(mb.seed_bytes - 8400) <= 0.15 * 8400
    eb = entropy_report(p, 2**60)
    assert abs(eb.seed_bytes - 34000) <= 0.15 * 34000


def test_entropy_report_floor_and_ceiling_exposed():
    p = variant(24)
    r = entropy_report(p, 2**20)
    assert (r.tree_height, r.tree_height_floor) == (4, 3)
    assert r.seed_words > seed_words_for_levels(p, r.tree_height_floor)


def test_entropy_report_small_input_h_zero():
    r = entropy_report(variant(16), 1)
    assert r.tree_height == 0
    assert r.seed_words == seed_words_for_levels(variant(16), 1)
    with pytest.raises(ValueError):
        entropy_report(variant(16), 0)


def test_entropy_report_monotone():
    p = variant(24)
    sizes = [1, 100, 10**4, 10**6, 10**9, 10**12, 10**15, 10**18]
    reports = [entropy_report(p, n) for n in sizes]
    for a, b in zip(reports, reports[1:]):
        assert b.seed_words >= a.seed_words
        assert b.epsilon_log2 <= a.epsilon_log2


@settings(max_examples=300, deadline=None)
@given(
    width=st.sampled_from(sorted(VARIANTS)),
    n_inst=st.one_of(
        st.just(0),
        st.builds(lambda j, d: max(1, 8**j + d), st.integers(0, 14), st.integers(-1, 1)),
    ),
    extra=st.integers(0, 2**20),
)
def test_entropy_report_seed_covers_hasher_demand(width, n_inst, extra):
    # At and around f^j instances, and with no full instance at all
    p = variant(width)
    m8 = 8 * p.instance_words
    n_bytes = max(1, n_inst * m8 + extra % m8)
    r = entropy_report(p, n_bytes)
    assert r.seed_bytes >= 8 * seed_words_needed(p, n_bytes)
    assert r.seed_bytes == 8 * r.seed_words
    if n_bytes <= 10 * m8:
        # a seed sized from the report hashes the input
        hash_bytes(bytes(n_bytes), expand_seed(b"\x00" * 32, r.seed_words), p)


def test_entropy_report_paper_seed_figure_kept():
    p = variant(24)
    # 8 instances: the stack keeps a second level, the ceiling height is 1
    r = entropy_report(p, 8 * 8 * p.instance_words)
    assert (r.tree_height, r.seed_words_paper, r.seed_words) == (1, 410, 623)
    mb = entropy_report(p, 2**20)
    assert mb.seed_words_paper == mb.seed_words


def test_multiplication_fields_consistent():
    p = variant(24)
    r = entropy_report(p, 2**20)
    n_inst = (2**20 // 8) // p.instance_words
    assert r.multiplications == (p.entropy_words + p.output_words) * p.block_words * n_inst
    assert r.multiplications_exact == r.multiplications + r.multiplications_log_term
    assert 0 < r.multiplications_log_term < 10_000


@pytest.mark.parametrize("width", sorted(VARIANTS))
@settings(max_examples=25, deadline=None)
@given(
    n_inst=st.one_of(
        st.none(),
        st.builds(lambda j, d: max(0, 8**j + d), st.integers(0, 2), st.integers(-1, 1)),
    ),
    length=st.integers(1, 64 * 1024),
)
def test_scalar_multiplication_count_equals_exact_formula(width, n_inst, length):
    # Random lengths up to 64 KiB, and lengths at f^j +- 1 instances
    # with a random tail
    p = variant(width)
    m8 = 8 * p.instance_words
    n_bytes = length if n_inst is None else max(1, n_inst * m8 + length % m8)
    counter = MultCounter()
    seed = expand_seed(b"\x00" * 32, seed_words_needed(p, n_bytes))
    hash_bytes(bytes(n_bytes), seed, p, engine="scalar", counter=counter)
    assert counter.total == entropy_report(p, n_bytes).multiplications_exact


def test_ehc_bound_values():
    assert ehc_bound(variant(24), 32) == 3 * (32 - 2) == 90
    assert ehc_bound(variant(24), 4) == 3 * (4 - 2) == 6
    toy = variant(16)
    assert ehc_bound(toy, 32) == 2 * 30
    # degenerate single-output, p=0 case gives the plain width bound
    from halftimehash.params import HashParams

    single = HashParams(TransformMatrix(((1,),)), ErasureCode(1, 1, ()), 1, 1, 2, 0)
    assert ehc_bound(single, 32) == 32


def test_csv_row_matches_header():
    r = entropy_report(variant(24), 4096)
    header = analysis.report_csv_header().split(",")
    row = analysis.report_csv_row(r).split(",")
    assert len(header) == len(row)
    assert header[0] == "output_bytes"
    table = analysis.report_table(r)
    for name in header:
        assert name in table
