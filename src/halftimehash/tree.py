"""Carter-Wegman tree hashing over blocks with NH nodes.

A tree is a stack of leftover blocks per level, onto which ``tree_reduce``
pushes blocks as they arrive.  Per level, the leftovers go in front of the
arriving blocks, the last ``len % fanout`` stay, and every group of
``fanout`` before them merges with one ``nh_blockwise`` node into the next
level, which is added when a merge first reaches it.  Groups are
consecutive from the first block, so however N blocks are split into
pushes, level ``i`` keeps exactly ``digit_i(N base fanout)`` leftover
roots, each the hash of ``fanout**i`` consecutive input blocks, and zero
blocks leave zero levels.  ``tree_finalize`` then folds the leftovers and
the input length into a single word with one NH application.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .nh import MultCounter, nh_blockwise, nh_full

Block = tuple[int, ...]
LevelStack = list[list[Block]]


def tree_height(n_blocks: int, fanout: int) -> int:
    """Ceiling log_fanout, 0 for no blocks: the analysis formulas' height."""
    if n_blocks < 0:
        raise ValueError("tree_height needs a nonnegative block count")
    # f^h >= n exactly when n - 1 has at most h base-f digits.
    return level_count(max(n_blocks - 1, 0), fanout)


def level_count(n_blocks: int, fanout: int) -> int:
    """Number of leftover levels ``tree_reduce`` produces: the base-fanout
    digits of ``n_blocks``, so 0 for zero blocks."""
    if n_blocks < 0:
        raise ValueError("level_count needs a nonnegative block count")
    levels = 0
    while n_blocks:
        n_blocks //= fanout
        levels += 1
    return levels


def node_executions(n_blocks: int, fanout: int) -> int:
    """How many nh_blockwise merges reducing ``n_blocks`` performs."""
    if n_blocks < 0:
        raise ValueError("node_executions needs a nonnegative block count")
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
    levels: LevelStack,
    blocks: Iterable[Block],
    level_seeds: Sequence[int],
    fanout: int,
    half_bits: int = 32,
    counter: MultCounter | None = None,
) -> LevelStack:
    """Push ``blocks`` onto the leftover stack ``levels``, which then holds
    fewer than ``fanout`` blocks per level, and return it; a one-shot
    reduce pushes onto ``[]``.

    Seeds are consumed per level only: the merges producing level-(i+1)
    blocks use words ``level_seeds[i*(f-1), (i+1)*(f-1))``, read only if
    level i merges.
    """
    blocks = list(blocks)
    level = 0
    while blocks:
        if level == len(levels):
            levels.append([])
        blocks = levels[level] + blocks
        cut = len(blocks) - len(blocks) % fanout
        levels[level] = blocks[cut:]
        if not cut:
            break
        seed = _level_seed(level_seeds, level, fanout)
        blocks = [
            nh_blockwise(blocks[i : i + fanout], seed, fanout, half_bits, counter, "tree")
            for i in range(0, cut, fanout)
        ]
        level += 1
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
