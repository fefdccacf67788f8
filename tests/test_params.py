import dataclasses
import random

import numpy as np
import pytest

from halftimehash import analysis, variant
from halftimehash.params import (
    MASK64,
    SUPPORTED_COEFFICIENTS,
    VARIANTS,
    TransformMatrix,
    coefficient_multiply,
)

EXPECTED_SHAPES = {16: (2, 7), 24: (3, 9), 32: (4, 10), 40: (5, 9)}
EXPECTED_VALUATION = {16: 2, 24: 2, 32: 3, 40: 3}


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_variant_geometry(width):
    p = variant(width)
    assert p.output_bytes == width == 8 * p.output_words
    assert (p.matrix.rows, p.matrix.cols) == EXPECTED_SHAPES[width]
    assert p.instance_items == p.encoded_items + 1 - p.output_words
    assert p.code.arity_in == p.instance_items
    assert p.code.arity_out == p.encoded_items
    assert p.output_words in (2, 3, 4, 5)


def test_variant_24_tuple():
    p = variant(24)
    assert (
        p.item_blocks,
        p.instance_items,
        p.encoded_items,
        p.output_words,
        p.block_words,
        p.fanout,
        p.max_det_valuation,
    ) == (3, 7, 9, 3, 8, 8, 2)


def test_variant_16_and_40_shapes():
    p16 = variant(16)
    assert (p16.output_words, p16.encoded_items, p16.instance_items) == (2, 7, 6)
    p40 = variant(40)
    assert (p40.output_words, p40.encoded_items, p40.instance_items) == (5, 9, 5)
    assert p40.max_det_valuation == 3


def test_input_group_lengths():
    # d across the four variants, in output-width order
    assert [variant(w).instance_items for w in (16, 24, 32, 40)] == [6, 7, 7, 5]


@pytest.mark.parametrize(
    "change", [{"fanout": 1}, {"fanout": 0}, {"item_blocks": 0}, {"block_words": 0}]
)
def test_degenerate_geometry_rejected(change):
    # fanout 1 never shrinks a tree level, and zero sizes divide by zero
    with pytest.raises(ValueError):
        dataclasses.replace(variant(24), **change)


def test_unsupported_width():
    with pytest.raises(ValueError):
        variant(17)
    with pytest.raises(ValueError):
        variant(0)


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_stored_valuation_matches_analysis(width):
    p = variant(width)
    measured = analysis.max_two_adic_valuation(p.matrix, p.output_words)
    assert measured == p.max_det_valuation == EXPECTED_VALUATION[width]


def test_matrix_entries_have_shift_add_forms():
    for p in VARIANTS.values():
        for row in p.matrix.entries:
            assert set(row) <= SUPPORTED_COEFFICIENTS


def test_coefficient_multiply_examples():
    assert coefficient_multiply(0, 12345) == 0
    assert coefficient_multiply(1, 12345) == 12345
    assert coefficient_multiply(9, 7) == 63  # (7 << 3) + 7


def test_coefficient_multiply_matches_generic_scalar():
    rnd = random.Random(1)
    for coeff in sorted(SUPPORTED_COEFFICIENTS):
        for _ in range(500):
            x = rnd.getrandbits(64)
            assert coefficient_multiply(coeff, x) == (coeff * x) & MASK64


def test_coefficient_multiply_matches_generic_bulk():
    # 10^6 random words across all supported coefficients
    rng = np.random.default_rng(2)
    per = 10**6 // len(SUPPORTED_COEFFICIENTS) + 1
    for coeff in sorted(SUPPORTED_COEFFICIENTS):
        xs = rng.integers(0, 1 << 64, size=per, dtype=np.uint64)
        fast = coefficient_multiply(coeff, xs)
        generic = xs * np.uint64(coeff)
        assert np.array_equal(fast, generic)


def test_coefficient_multiply_reduced_width():
    rnd = random.Random(3)
    for coeff in sorted(SUPPORTED_COEFFICIENTS):
        for width in (8, 16):
            for _ in range(200):
                x = rnd.getrandbits(width)
                expect = (coeff * x) % (1 << width)
                assert coefficient_multiply(coeff, x, width) == expect


def test_coefficient_without_form_rejected():
    with pytest.raises(ValueError):
        coefficient_multiply(6, 1)


def test_matrix_validation_rejects_ragged_and_unknown():
    with pytest.raises(ValueError):
        TransformMatrix(((1, 2), (1,)))
    with pytest.raises(ValueError):
        TransformMatrix(((1, 6),))


def test_xor_parity_code_shape():
    code = variant(16).code
    assert code.parity_rows == ((1,) * 6,)
    assert code.min_distance == 2


def test_cauchy_codes_declare_k():
    for width in (24, 32, 40):
        p = variant(width)
        assert p.code.min_distance == p.output_words
        assert len(p.code.parity_rows) == p.output_words - 1
