import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halftimehash.nh import MultCounter, nh_blockwise
from halftimehash.tree import (
    level_count,
    node_executions,
    tree_finalize,
    tree_height,
    tree_reduce,
)

import reference


def _random_blocks(rnd, n, b, width=16):
    return [tuple(rnd.getrandbits(width) for _ in range(b)) for _ in range(n)]


def test_single_block_passes_through():
    levels = tree_reduce([], [(7, 8)], [], fanout=8)
    assert levels == [[(7, 8)]]


def test_full_node_at_fanout():
    rnd = random.Random(1)
    f, b = 8, 4
    blocks = _random_blocks(rnd, f, b, 64)
    seeds = [rnd.getrandbits(64) for _ in range(f - 1)]
    levels = tree_reduce([], blocks, seeds, f)
    assert levels[0] == []
    assert levels[1] == [nh_blockwise(blocks, seeds, f)]


def test_empty_stream_leaves_no_levels():
    assert tree_reduce([], [], [], fanout=8) == []
    assert tree_reduce([], iter([]), [0] * 7, fanout=8) == []


def test_generator_of_blocks_is_reduced():
    rnd = random.Random(8)
    blocks = _random_blocks(rnd, 9, 2, 16)
    seeds = [rnd.getrandbits(16) for _ in range(3)]
    want = tree_reduce([], blocks, seeds, 2, half_bits=8)
    assert tree_reduce([], iter(blocks), seeds, 2, half_bits=8) == want


def test_missing_level_seed_raises():
    blocks = [(1,)] * 4
    with pytest.raises(ValueError, match="no seed words for tree level 2"):
        tree_reduce([], blocks, [5], fanout=2, half_bits=8)


def test_binary_n5_slot_pattern():
    rnd = random.Random(2)
    blocks = _random_blocks(rnd, 5, 2, 16)
    seeds = [rnd.getrandbits(16) for _ in range(3)]
    levels = tree_reduce([], blocks, seeds, 2, half_bits=8)
    # 5 = 101b: slots at levels 0 and 2, level 1 empty
    assert [len(lvl) for lvl in levels] == [1, 0, 1]


def _direct_node(children, keys, half_bits):
    """An NH tree node from the reference formula, lane by lane on each
    word's split halves."""
    key_halves = reference.halves(keys, half_bits)
    return tuple(
        reference.nh_tree_node_direct(reference.halves(lane, half_bits), key_halves, half_bits)
        for lane in zip(*children)
    )


@pytest.mark.parametrize("n", range(1, 41))
def test_binary_stack_matches_recursive_oracle(n):
    rnd = random.Random(100 + n)
    blocks = _random_blocks(rnd, n, 2, 16)
    seeds = [rnd.getrandbits(16) for _ in range(8)]
    levels = tree_reduce([], blocks, seeds, 2, half_bits=8)
    assert levels == reference.fary_stack(blocks, seeds, _direct_node, 8, 2)
    assert len(levels) == level_count(n, 2)


def _block_counts(f):
    """0..3f blocks, and one either side of f, f^2 and f^3."""
    near_powers = {f**j + e for j in range(4) for e in (-1, 0, 1)}
    return sorted(set(range(3 * f + 1)) | near_powers)


@pytest.mark.parametrize("f", [2, 3, 4, 8])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tree_reduce_matches_fary_oracle(f, data):
    # Whole stacks, values included, against an f-ary tree written from
    # the definition with an independently computed node.
    n = data.draw(st.sampled_from(_block_counts(f)), label="n")
    b = data.draw(st.integers(1, 3), label="lanes")
    rnd = random.Random(data.draw(st.integers(0, 2**32), label="rng"))
    blocks = _random_blocks(rnd, n, b, 16)
    seeds = [rnd.getrandbits(16) for _ in range((f - 1) * max(level_count(n, f) - 1, 0))]
    levels = tree_reduce([], blocks, seeds, f, half_bits=8)
    assert levels == reference.fary_stack(blocks, seeds, _direct_node, 8, f)


@pytest.mark.parametrize("f", [2, 3, 8])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pushed_chunks_build_the_one_shot_stack(f, data):
    # However the blocks are split into pushes, the stack and the tree's
    # multiplication count are those of one push of all of them.
    n = data.draw(st.integers(0, f**3 + 1), label="n")
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=8), label="cuts"))
    rnd = random.Random(data.draw(st.integers(0, 2**32), label="rng"))
    blocks = _random_blocks(rnd, n, 1, 16)
    seeds = [rnd.getrandbits(16) for _ in range(3 * (f - 1))]
    whole, pushed = MultCounter(), MultCounter()
    want = tree_reduce([], blocks, seeds, f, half_bits=8, counter=whole)
    stack = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        assert tree_reduce(stack, blocks[lo:hi], seeds, f, half_bits=8, counter=pushed) is stack
    assert stack == want == reference.fary_stack(blocks, seeds, _direct_node, 8, f)
    assert pushed.by_stage.get("tree") == whole.by_stage.get("tree")


def test_fary_leftovers_match_digits():
    rnd = random.Random(3)
    for n in (1, 7, 8, 9, 63, 64, 65, 100, 511, 73):
        blocks = _random_blocks(rnd, n, 1, 16)
        seeds = [rnd.getrandbits(16) for _ in range(21)]
        levels = tree_reduce([], blocks, seeds, 8, half_bits=8)
        digits = []
        m = n
        while True:
            digits.append(m % 8)
            m //= 8
            if m == 0:
                break
        assert [len(lvl) for lvl in levels] == digits


def test_node_execution_count():
    rnd = random.Random(4)
    for n, f in ((64, 8), (512, 8), (100, 8), (31, 2), (80, 4)):
        blocks = _random_blocks(rnd, n, 1, 16)
        seeds = [rnd.getrandbits(16) for _ in range(4 * (f - 1))]
        c = MultCounter()
        tree_reduce([], blocks, seeds, f, half_bits=8, counter=c)
        per_node = f - 1  # products per lane per node, 1 lane here
        assert c.total == node_executions(n, f) * per_node
        expected = 0
        span = f
        while span <= n:
            expected += n // span
            span *= f
        assert node_executions(n, f) == expected
    # power of f: (N-1)/(f-1) nodes
    assert node_executions(512, 8) == 511 // 7
    assert node_executions(0, 8) == 0
    with pytest.raises(ValueError):
        node_executions(-1, 8)


def test_seeds_depend_on_level_only():
    rnd = random.Random(5)
    blocks = _random_blocks(rnd, 64, 2, 16)
    seeds = [rnd.getrandbits(16) for _ in range(6)]
    base = tree_reduce([], blocks, seeds, 2, half_bits=8)
    # altering seed words for levels beyond the ones used changes nothing
    padded = seeds[:] + [123, 456]
    assert tree_reduce([], blocks, padded, 2, half_bits=8) == base
    # altering the level-0 seed changes the reduction
    bumped = [seeds[0] ^ 1] + seeds[1:]
    assert tree_reduce([], blocks, bumped, 2, half_bits=8) != base


def test_tree_height_examples():
    assert tree_height(1, 8) == 0
    assert tree_height(780, 8) == 4
    assert tree_height(512, 8) == 3
    assert tree_height(513, 8) == 4
    assert tree_height(8, 8) == 1
    assert tree_height(0, 8) == 0
    with pytest.raises(ValueError):
        tree_height(-1, 8)


def test_level_count_examples():
    assert level_count(0, 8) == 0
    assert level_count(1, 8) == 1
    assert level_count(7, 8) == 1
    assert level_count(8, 8) == 2
    assert level_count(512, 8) == 4
    assert level_count(780, 8) == 4
    with pytest.raises(ValueError):
        level_count(-1, 8)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), f=st.integers(2, 9))
def test_tree_height_and_level_count_match_definitions(data, f):
    n = data.draw(st.integers(0, f**5 + 1))
    # ceiling log_f n: the smallest h with f^h >= n
    assert tree_height(n, f) == min(h for h in range(7) if f**h >= n)
    # the base-f digit count: the smallest L with n < f^L
    assert level_count(n, f) == min(d for d in range(8) if n < f**d)


def test_finalize_zero_everything_is_zero():
    levels = [[(0, 0)], []]
    assert tree_finalize(levels, 0, [0] * 32, fanout=2, block_words=2) == 0


def test_finalize_layout_padding_distinguishes_bot_patterns():
    # same present value, different level: nonzero output difference rate
    rnd = random.Random(6)
    block = (rnd.getrandbits(64), rnd.getrandbits(64))
    level_a = [[block], [], []]
    level_b = [[], [block], []]
    words = 3 * 1 * 2 + 1
    differ = 0
    trials = 10**4
    for _ in range(trials):
        seeds = [rnd.getrandbits(64) for _ in range(words)]
        fa = tree_finalize(level_a, 99, seeds, 2, 2)
        fb = tree_finalize(level_b, 99, seeds, 2, 2)
        differ += fa != fb
    assert differ / trials >= 0.99


def test_finalize_mixes_length_tag():
    rnd = random.Random(7)
    block = (rnd.getrandbits(64),)
    levels = [[block]]
    differ = 0
    trials = 2000
    for _ in range(trials):
        seeds = [rnd.getrandbits(64) for _ in range(8)]
        differ += tree_finalize(levels, 1000, seeds, 2, 1) != tree_finalize(
            levels, 1001, seeds, 2, 1
        )
    assert differ / trials >= 0.99


def test_finalize_needs_enough_seed():
    with pytest.raises(ValueError):
        tree_finalize([[(1, 2)]], 5, [0], fanout=2, block_words=2)
