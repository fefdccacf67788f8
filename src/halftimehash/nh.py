"""The NH multiply-accumulate family, parametric in half-word width.

Production hashing uses 32-bit halves (64-bit outputs); the verification
suite instantiates the same functions at 4- or 8-bit halves where seed
spaces are small enough to enumerate.

Conventions: the functions take words of ``2 * half_bits`` bits, as the
numpy kernels in :mod:`halftimehash.hasher` do; a word's halves are its low
and high ``half_bits`` bits.  Inner ``data + seed`` additions wrap at half
width; products and the outer sum wrap at full width.
"""

from __future__ import annotations

from typing import Sequence


class MultCounter:
    """Tallies half-word multiplications per pipeline stage (scalar path)."""

    def __init__(self):
        self.by_stage: dict[str, int] = {}

    def add(self, stage: str, n: int) -> None:
        self.by_stage[stage] = self.by_stage.get(stage, 0) + n

    @property
    def total(self) -> int:
        return sum(self.by_stage.values())

    def __repr__(self):
        return f"MultCounter({self.by_stage!r})"


def nh_full(
    data: Sequence[int],
    seed: Sequence[int],
    half_bits: int = 32,
    counter: MultCounter | None = None,
    stage: str = "nh",
) -> int:
    """Sum of (d_lo + s_lo) * (d_hi + s_hi) over the input words.

    ``data`` and ``seed`` are words of ``2 * half_bits`` bits; a word's
    halves are its low and high ``half_bits`` bits.  Each word costs one
    half-word multiplication.
    """
    if len(seed) < len(data):
        raise ValueError("seed shorter than input")
    half_mask = (1 << half_bits) - 1
    acc = 0
    for d, s in zip(data, seed):
        acc += ((d + s) & half_mask) * (((d >> half_bits) + (s >> half_bits)) & half_mask)
    if counter is not None:
        counter.add(stage, len(data))
    return acc & ((1 << 2 * half_bits) - 1)


def nh_tree_node(
    data: Sequence[int],
    seed: Sequence[int],
    half_bits: int = 32,
    counter: MultCounter | None = None,
    stage: str = "nh",
) -> int:
    """NH variant for tree nodes: ``nh_full`` over all but the last word,
    which is added, not hashed.

    Words and halves are as in :func:`nh_full`.
    """
    if len(data) < 2:
        raise ValueError("nh_tree_node needs at least two words")
    acc = nh_full(data[:-1], seed, half_bits, counter, stage)
    return (acc + data[-1]) & ((1 << 2 * half_bits) - 1)


def nh_blockwise(
    blocks: Sequence[Sequence[int]],
    seed_words: Sequence[int],
    fanout: int,
    half_bits: int = 32,
    counter: MultCounter | None = None,
    stage: str = "tree",
) -> tuple[int, ...]:
    """Apply nh_tree_node independently to every lane of ``fanout`` blocks.

    The seed (``fanout - 1`` words) is shared across lanes.
    """
    if len(blocks) != fanout:
        raise ValueError(f"expected {fanout} blocks, got {len(blocks)}")
    if len(seed_words) < fanout - 1:
        raise ValueError("need fanout - 1 seed words")
    return tuple(
        nh_tree_node(lane, seed_words, half_bits, counter, stage)
        for lane in zip(*blocks, strict=True)
    )
