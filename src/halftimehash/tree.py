"""Carter-Wegman tree hashing over blocks with NH nodes.

``tree_reduce`` streams N blocks through the stack construction: every
time ``fanout`` blocks accumulate at a level they are merged by one
``nh_blockwise`` node into the next level, so after the stream ends level
``i`` holds exactly ``digit_i(N base fanout)`` leftover roots, each the
hash of ``fanout**i`` consecutive input blocks.  ``tree_finalize`` then
folds the leftovers and the input length into a single word with one NH
application.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .nh import MultCounter, nh_blockwise, nh_full

Block = tuple[int, ...]
LevelStack = list[list[Block]]


def tree_height(n_blocks: int, fanout: int) -> int:
    """Ceiling log_fanout: the tree height used by the analysis formulas."""
    if n_blocks < 1:
        raise ValueError("tree_height needs at least one block")
    h = 0
    span = 1
    while span < n_blocks:
        span *= fanout
        h += 1
    return h


def level_count(n_blocks: int, fanout: int) -> int:
    """Number of leftover levels the stack construction produces."""
    if n_blocks < 1:
        raise ValueError("level_count needs at least one block")
    levels = 1
    while n_blocks >= fanout:
        n_blocks //= fanout
        levels += 1
    return levels


def node_executions(n_blocks: int, fanout: int) -> int:
    """How many nh_blockwise merges reducing ``n_blocks`` performs."""
    total = 0
    n = n_blocks // fanout
    while n:
        total += n
        n //= fanout
    return total


def _level_seed(level_seeds: Sequence[int], level: int, fanout: int) -> Sequence[int]:
    lo = level * (fanout - 1)
    hi = lo + (fanout - 1)
    if hi > len(level_seeds):
        raise ValueError(f"no seed words for tree level {level + 1}")
    return level_seeds[lo:hi]


def tree_reduce(
    blocks: Iterable[Block],
    level_seeds: Sequence[int],
    fanout: int,
    half_bits: int = 32,
    counter: MultCounter | None = None,
) -> LevelStack:
    """Reduce a stream of blocks to per-level leftovers.

    Seeds are consumed per level only: the merge producing a level-(i+1)
    block uses words ``level_seeds[i*(f-1), (i+1)*(f-1))`` no matter where
    in the stream it happens.
    """
    levels: LevelStack = []
    seen = 0
    for block in blocks:
        seen += 1
        carry = tuple(block)
        lvl = 0
        while True:
            if lvl == len(levels):
                levels.append([])
            levels[lvl].append(carry)
            if len(levels[lvl]) < fanout:
                break
            carry = nh_blockwise(
                levels[lvl],
                _level_seed(level_seeds, lvl, fanout),
                fanout,
                half_bits,
                counter,
                "tree",
            )
            levels[lvl] = []
            lvl += 1
    if seen == 0:
        raise ValueError("tree_reduce needs at least one block")
    return levels


def tree_finalize(
    levels: LevelStack,
    n_tag: int,
    seed_words: Sequence[int],
    fanout: int,
    block_words: int,
    half_bits: int = 32,
    counter: MultCounter | None = None,
) -> int:
    """NH the leftover stack and the length tag down to one word.

    Every level occupies ``fanout - 1`` block positions; absent leftovers
    are zero blocks, so the layout is a function of the block count alone.
    The length tag enters as the final word.
    """
    full_mask = (1 << (2 * half_bits)) - 1
    words: list[int] = []
    zero_block = (0,) * block_words
    for leftovers in levels:
        for t in range(fanout - 1):
            block = leftovers[t] if t < len(leftovers) else zero_block
            words.extend(block)
    words.append(n_tag & full_mask)
    if len(seed_words) < len(words):
        raise ValueError("finalize seed region shorter than the slot layout")
    return nh_full(words, seed_words, half_bits, counter, "finalize")
