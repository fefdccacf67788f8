"""The NH multiply-accumulate family, parametric in half-word width.

Production hashing uses 32-bit halves (64-bit outputs); the verification
suite instantiates the same functions at 4- or 8-bit halves where seed
spaces are small enough to enumerate.

Conventions: a full word of ``2 * half_bits`` splits little-endian into
halves (low half first).  Inner ``data + seed`` additions wrap at half
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


def split_word(word: int, half_bits: int) -> tuple[int, int]:
    half_mask = (1 << half_bits) - 1
    return word & half_mask, (word >> half_bits) & half_mask


def words_to_halves(words: Sequence[int], half_bits: int) -> list[int]:
    halves = []
    for word in words:
        lo, hi = split_word(word, half_bits)
        halves.append(lo)
        halves.append(hi)
    return halves


def nh_full(
    data: Sequence[int],
    seed: Sequence[int],
    half_bits: int = 32,
    counter: MultCounter | None = None,
    stage: str = "nh",
) -> int:
    """Sum of (d[2i]+s[2i]) * (d[2i+1]+s[2i+1]) over all input pairs."""
    if len(data) % 2:
        raise ValueError("nh_full input must have an even number of half-words")
    if len(seed) < len(data):
        raise ValueError("seed shorter than input")
    half_mask = (1 << half_bits) - 1
    full_mask = (1 << (2 * half_bits)) - 1
    acc = 0
    for i in range(0, len(data), 2):
        acc += ((data[i] + seed[i]) & half_mask) * ((data[i + 1] + seed[i + 1]) & half_mask)
    if counter is not None:
        counter.add(stage, len(data) // 2)
    return acc & full_mask


def nh_tree_node(
    data: Sequence[int],
    seed: Sequence[int],
    half_bits: int = 32,
    counter: MultCounter | None = None,
    stage: str = "nh",
) -> int:
    """NH variant for tree nodes: ``nh_full`` over all but the final input
    pair, which is added, not hashed."""
    if len(data) % 2 or len(data) < 4:
        raise ValueError("nh_tree_node needs an even number of half-words, at least four")
    last = len(data) - 2
    acc = nh_full(data[:last], seed[:last], half_bits, counter, stage)
    return (acc + data[last] + (data[last + 1] << half_bits)) & ((1 << 2 * half_bits) - 1)


def nh_blockwise(
    blocks: Sequence[Sequence[int]],
    seed_words: Sequence[int],
    fanout: int,
    half_bits: int = 32,
    counter: MultCounter | None = None,
    stage: str = "tree",
) -> tuple[int, ...]:
    """Apply nh_tree_node independently to every lane of ``fanout`` blocks.

    The seed (``fanout - 1`` full words, viewed as half-word pairs) is
    shared across lanes.
    """
    if len(blocks) != fanout:
        raise ValueError(f"expected {fanout} blocks, got {len(blocks)}")
    if len(seed_words) < fanout - 1:
        raise ValueError("need fanout - 1 seed words")
    lanes = len(blocks[0])
    if any(len(blk) != lanes for blk in blocks):
        raise ValueError("ragged blocks")
    seed_halves = words_to_halves(seed_words[: fanout - 1], half_bits)
    out = []
    for j in range(lanes):
        lane_halves = words_to_halves([blk[j] for blk in blocks], half_bits)
        out.append(nh_tree_node(lane_halves, seed_halves, half_bits, counter, stage))
    return tuple(out)
