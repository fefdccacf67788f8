import random
from collections import Counter

import pytest

from halftimehash.nh import MultCounter, nh_blockwise, nh_full, nh_tree_node
from halftimehash.params import MASK64

import reference


def test_nh_full_zero_input_reduces_to_seed_product():
    assert nh_full([0], [11 | 13 << 8], half_bits=8) == (11 * 13) % 256
    assert nh_full([0], [3 | 5 << 32], half_bits=32) == 15


def test_nh_full_zero_seed():
    assert nh_full([7 | 9 << 8], [0], half_bits=8) == 63


def test_nh_full_pinned_4bit_value():
    # d=(3,5,2,7), s=(1,2,3,4): (3+1)(5+2) + (2+3)(7+4) = 28 + 55 = 83
    assert nh_full([0x53, 0x72], [0x21, 0x43], half_bits=4) == 83
    assert reference.nh_direct([3, 5, 2, 7], [1, 2, 3, 4], 4) == 83


@pytest.mark.parametrize("half_bits", [4, 8, 16, 32])
def test_nh_full_matches_direct_formula(half_bits):
    rnd = random.Random(half_bits)
    for _ in range(2000):
        n = rnd.randint(1, 6)
        data = [rnd.getrandbits(2 * half_bits) for _ in range(n)]
        seed = [rnd.getrandbits(2 * half_bits) for _ in range(n)]
        assert nh_full(data, seed, half_bits) == reference.nh_direct(
            reference.halves(data, half_bits), reference.halves(seed, half_bits), half_bits
        )


def test_nh_full_wraps_both_halves():
    # every half is (2^32 - 1) + (2^32 - 1) = 2^32 - 2 mod 2^32; a carry out
    # of the low half must not reach the high half
    assert nh_full([MASK64] * 4, [MASK64] * 4) == 4 * (2**32 - 2) ** 2 % 2**64


def test_nh_full_rejects_short_seed():
    with pytest.raises(ValueError):
        nh_full([1, 2], [0])


def test_inner_additions_wrap_at_half_width():
    # near 2^half - 1 the inner sum must wrap before multiplying
    # (255+1) mod 256 = 0, so the product is 0 regardless of the other half
    assert nh_full([255 | 255 << 8], [1 | 2 << 8], 8) == 0
    # the same halves at 16-bit width give 256*257
    assert nh_full([255 | 255 << 16], [1 | 2 << 16], 16) == (256 * 257) % (1 << 32)


def test_nh_tree_node_residual_pair():
    # the last word is added unhashed; the hashed prefix contributes its
    # seed product, so a zero seed isolates x + 2^half * y
    assert nh_tree_node([0, 5 | 9 << 8], [0], half_bits=8) == 5 + 256 * 9
    assert nh_tree_node([0, 5 | 9 << 8], [4 | 4 << 8], half_bits=8) == 4 * 4 + 5 + 256 * 9
    assert nh_tree_node([3 | 4 << 8, 0], [0], half_bits=8) == 12


@pytest.mark.parametrize("half_bits", [4, 8, 16, 32])
def test_nh_tree_node_matches_direct_formula(half_bits):
    rnd = random.Random(20 + half_bits)
    for _ in range(2000):
        n = rnd.randint(2, 6)
        data = [rnd.getrandbits(2 * half_bits) for _ in range(n)]
        seed = [rnd.getrandbits(2 * half_bits) for _ in range(n)]
        assert nh_tree_node(data, seed, half_bits) == reference.nh_tree_node_direct(
            reference.halves(data, half_bits), reference.halves(seed, half_bits), half_bits
        )


def test_nh_tree_node_needs_two_pairs():
    with pytest.raises(ValueError):
        nh_tree_node([1], [])


def test_blockwise_zero_blocks_stay_zero():
    blocks = [(0, 0, 0)] * 4
    out = nh_blockwise(blocks, [9, 8, 7], fanout=4, half_bits=8)
    assert out == (0, 0, 0)


def test_blockwise_single_lane_reduces_to_tree_node():
    rnd = random.Random(5)
    for _ in range(10**5):
        f = rnd.choice([2, 3, 4])
        words = [rnd.getrandbits(16) for _ in range(f)]
        seeds = [rnd.getrandbits(16) for _ in range(f - 1)]
        blocks = [(wd,) for wd in words]
        lane = nh_blockwise(blocks, seeds, f, half_bits=8)[0]
        assert lane == nh_tree_node(words, seeds, 8)


def test_blockwise_equals_scalar_per_lane():
    rnd = random.Random(6)
    for _ in range(200):
        f, b = 8, 8
        blocks = [tuple(rnd.getrandbits(64) for _ in range(b)) for _ in range(f)]
        seeds = [rnd.getrandbits(64) for _ in range(f - 1)]
        out = nh_blockwise(blocks, seeds, f)
        for j in range(b):
            assert out[j] == nh_tree_node([blk[j] for blk in blocks], seeds, 32)


def test_blockwise_wrong_block_count():
    with pytest.raises(ValueError):
        nh_blockwise([(1,), (2,)], [0, 0], fanout=3)


def test_blockwise_rejects_ragged_blocks():
    with pytest.raises(ValueError):
        nh_blockwise([(1, 2), (3,)], [0], fanout=2)


def test_exhaustive_delta_universality_width4_single_pair():
    # one-word NH at 4-bit halves: over all 2^8 seed words, no difference
    # value occurs more than 2^8 * 2^-4 = 16 times, for any x != y
    rnd = random.Random(7)
    for _ in range(25):
        x = rnd.randrange(256)
        y = rnd.randrange(256)
        if x == y:
            y ^= 5
        counts = Counter()
        for seed in range(256):
            d = (nh_full([x], [seed], 4) - nh_full([y], [seed], 4)) % 256
            counts[d] += 1
        assert max(counts.values()) <= 16


def test_counter_tallies_products():
    c = MultCounter()
    nh_full([1, 2], [0, 0], 8, counter=c, stage="a")
    nh_tree_node([1, 2, 3], [0] * 2, 8, counter=c, stage="a")
    assert c.by_stage == {"a": 2 + 2}
    assert c.total == 4
