import dataclasses

import pytest

from halftimehash import analysis, variant
from halftimehash.params import VARIANTS, ErasureCode, TransformMatrix, horner_schedule

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


@pytest.mark.parametrize(
    "change",
    [
        {"fanout": 8.0},
        {"item_blocks": 1.5},
        {"block_words": 8.0},
        {"max_det_valuation": 2.0},
        {"fanout": "8"},
    ],
)
def test_non_int_geometry_rejected(change):
    # A float fanout used to construct, and then made the seed budget a
    # float and hash_bytes fail on a slice index.
    with pytest.raises(ValueError, match="must be ints"):
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


def test_matrix_validation_rejects_ragged_and_unknown():
    with pytest.raises(ValueError):
        TransformMatrix(((1, 2), (1,)))
    with pytest.raises(ValueError):
        TransformMatrix(((1, 16),))


@pytest.mark.parametrize("entry", [2.0, 0.5, -1, "2", None])
def test_matrix_rejects_non_int_and_negative_entries(entry):
    # A float entry used to construct and then fail inside the combine;
    # a negative one would read as all ones under the Horner bit schedule.
    with pytest.raises(ValueError):
        TransformMatrix(((1, entry),))


@pytest.mark.parametrize("entry", [2.0, 1.0, -1, 16])
def test_code_rejects_non_int_and_out_of_range_coefficients(entry):
    with pytest.raises(ValueError):
        ErasureCode(2, 2, ((1, entry),))


def test_matrix_accepts_every_coefficient_below_16():
    assert TransformMatrix((tuple(range(16)),)).cols == 16


def test_horner_schedule_picks_terms_per_bit_from_the_top():
    # 9 = 0b1001, 7 = 0b0111: bit 3 picks term 0, bits 2 and 1 term 1,
    # bit 0 both; an all-zero row has no steps.
    assert horner_schedule((9, 7)) == ((0,), (1,), (1,), (0, 1))
    assert horner_schedule((0, 1, 1)) == ((1, 2),)
    assert horner_schedule((0, 0)) == ()
    assert horner_schedule((0, 0)) is horner_schedule((0, 0))  # cached


def test_xor_parity_code_shape():
    code = variant(16).code
    assert code.parity_rows == ((1,) * 6,)
    assert code.min_distance == 2


def test_cauchy_codes_declare_k():
    for width in (24, 32, 40):
        p = variant(width)
        assert p.code.min_distance == p.output_words
        assert len(p.code.parity_rows) == p.output_words - 1
