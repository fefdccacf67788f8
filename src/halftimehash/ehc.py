"""The Encode-Hash-Combine leaf stage.

One instance reads ``instance_items`` items of ``item_blocks`` blocks,
erasure-encodes them to ``encoded_items`` items, hashes every encoded item
down to a single block with NH, and combines the hashed blocks into
``output_words`` blocks through the fixed small-coefficient matrix.

Items are plain nested tuples (item -> block -> lane word); the batched
array pipeline lives in :mod:`halftimehash.hasher`.
"""

from __future__ import annotations

from typing import Sequence

from . import gf16
from .nh import MultCounter, nh_full
from .params import ErasureCode, HashParams, TransformMatrix, horner_schedule

Item = Sequence[Sequence[int]]


def encode(items: Sequence[Item], code: ErasureCode, width: int = 64) -> list[Item]:
    """Erasure-encode ``arity_in`` items into ``arity_out`` items.

    Systematic: the inputs pass through verbatim, followed by the parity
    items.  Each parity runs its row's ``horner_schedule``: per coefficient
    bit, one GF(16) x-step of every parity word, then XOR in the picked
    items, as ``hasher._encode_np`` does.  The arithmetic is lane-wise per
    word, so the same routine runs at reduced widths for verification.
    """
    if len(items) != code.arity_in:
        raise ValueError(f"expected {code.arity_in} items, got {len(items)}")
    out: list[Item] = [tuple(tuple(block) for block in item) for item in items]
    for row in code.parity_rows:
        parity = [[0] * len(block) for block in items[0]]
        for picked in horner_schedule(tuple(row)):
            for t, dst in enumerate(parity):
                for u in range(len(dst)):
                    dst[u] = gf16.xtime(dst[u], width)
                    for i in picked:
                        dst[u] ^= items[i][t][u]
        out.append(tuple(tuple(block) for block in parity))
    return out


def hash_encoded(
    encoded: Sequence[Item],
    entropy: Sequence[int],
    half_bits: int = 32,
    counter: MultCounter | None = None,
) -> list[tuple[int, ...]]:
    """NH each encoded item down to one block.

    Item ``i`` is keyed by entropy words ``[i*w, (i+1)*w)``; lane ``j``
    hashes the item's ``w`` lane-``j`` words.
    """
    w = len(encoded[0])
    out = []
    for i, item in enumerate(encoded):
        keys = entropy[i * w : (i + 1) * w]
        lanes = zip(*item, strict=True)
        out.append(tuple(nh_full(lane, keys, half_bits, counter, "ehc") for lane in lanes))
    return out


def combine(
    hashed: Sequence[Sequence[int]],
    matrix: TransformMatrix,
    half_bits: int = 32,
) -> list[tuple[int, ...]]:
    """Apply the combine matrix lane-wise: k output blocks from e inputs.

    Each row runs its ``horner_schedule``: per coefficient bit, double the
    lanes, then add the picked blocks.  The matrix multiplies by shifts and
    adds only, so no multiplication is counted.
    """
    if len(hashed) != matrix.cols:
        raise ValueError(f"expected {matrix.cols} hashed blocks, got {len(hashed)}")
    mask = (1 << 2 * half_bits) - 1
    out = []
    for row in matrix.entries:
        acc = [0] * len(hashed[0])
        for picked in horner_schedule(tuple(row)):
            acc = [a << 1 for a in acc]
            for i in picked:
                acc = [a + x for a, x in zip(acc, hashed[i])]
        out.append(tuple([a & mask for a in acc]))
    return out


def compress_instance(
    items: Sequence[Item],
    entropy: Sequence[int],
    params: HashParams,
    half_bits: int = 32,
    counter: MultCounter | None = None,
) -> list[tuple[int, ...]]:
    """Full leaf stage: encode, hash, combine.

    Needs ``encoded_items * item_blocks`` entropy words and performs exactly
    that many half-word multiplications per lane.
    """
    if len(entropy) < params.entropy_words:
        raise ValueError("entropy region shorter than encoded_items * item_blocks")
    encoded = encode(items, params.code, 2 * half_bits)
    hashed = hash_encoded(encoded, entropy, half_bits, counter)
    return combine(hashed, params.matrix, half_bits)
