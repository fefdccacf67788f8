"""The Encode-Hash-Combine leaf stage.

One instance reads ``instance_items`` items of ``item_blocks`` blocks,
erasure-encodes them to ``encoded_items`` items, hashes every encoded item
down to a single block with NH, and combines the hashed blocks into
``output_words`` blocks through the fixed small-coefficient matrix.

Items are plain nested tuples (item -> block -> lane word); the batched
array pipeline lives in :mod:`halftimehash.hasher`.  The encoder and the
combine work on whole items: each packs an item's words, or a hashed
block's lanes, into one Python int, so a Horner step is one x-step or
doubling and one XOR or add per picked item, whatever the item's size.
"""

from __future__ import annotations

from typing import Sequence

from . import gf16
from .nh import MultCounter, nh_full
from .params import ErasureCode, HashParams, TransformMatrix, horner_schedule

Item = Sequence[Sequence[int]]


def _pack(item: Item, width: int):
    """An item's words as one integer, the ``l``-th word of the item in
    block-major order at bits ``[l * width, (l + 1) * width)``.  A one-word
    item packs to its word's value, so a numpy column of one-word items
    packs to an equal array."""
    packed = 0
    for block in reversed(item):
        for word in reversed(block):
            packed = packed << width | word
    return packed


def _unpack(packed, width: int, blocks: int, lanes: int) -> Item:
    """Inverse of :func:`_pack` for an item of ``blocks`` blocks of
    ``lanes`` words."""
    if blocks == lanes == 1:
        return ((packed,),)
    mask = (1 << width) - 1
    out = []
    for _ in range(blocks):
        block = []
        for _ in range(lanes):
            block.append(packed & mask)
            packed >>= width
        out.append(tuple(block))
    return tuple(out)


def encode(items: Sequence[Item], code: ErasureCode, width: int = 64) -> list[Item]:
    """Erasure-encode ``arity_in`` items into ``arity_out`` items.

    Systematic: the inputs pass through verbatim, followed by the parity
    items.  Each item's words are packed into one integer, so each parity
    runs its row's ``horner_schedule`` on whole items: per coefficient bit,
    one GF(16) x-step of every lane of the parity, then one XOR per picked
    item, as ``hasher._encode_np`` does on arrays.  The arithmetic is
    lane-wise per word, so the same routine runs at reduced widths for
    verification, and on numpy columns of one-word items.
    """
    if len(items) != code.arity_in:
        raise ValueError(f"expected {code.arity_in} items, got {len(items)}")
    out: list[Item] = [tuple(map(tuple, item)) for item in items]
    blocks, lanes = len(out[0]), len(out[0][0])
    item_words = sum(map(len, out[0]))
    packed = [_pack(item, width) for item in out]
    for row in code.parity_rows:
        parity = 0
        for picked in horner_schedule(row):
            parity = gf16.xtime(parity, width, item_words)
            for i in picked:
                parity ^= packed[i]
        out.append(_unpack(parity, width, blocks, lanes))
    return out


def hash_encoded(
    encoded: Sequence[Item],
    entropy: Sequence[int],
    half_bits: int = 32,
    counter: MultCounter | None = None,
) -> list[tuple[int, ...]]:
    """NH each encoded item down to one block.

    Item ``i`` is keyed by entropy words ``[i*w, (i+1)*w)``; lane ``j``
    hashes the item's ``w`` lane-``j`` words.  Each word costs one half-word
    multiplication, counted once per item.
    """
    w = len(encoded[0])
    out = []
    for i, item in enumerate(encoded):
        keys = entropy[i * w : (i + 1) * w]
        lanes = zip(*item, strict=True)
        out.append(tuple([nh_full(lane, keys, half_bits) for lane in lanes]))
        if counter is not None:
            counter.add("ehc", sum(map(len, item)))
    return out


def combine(
    hashed: Sequence[Sequence[int]],
    matrix: TransformMatrix,
    half_bits: int = 32,
) -> list[tuple[int, ...]]:
    """Apply the combine matrix lane-wise: k output blocks from e inputs.

    Each row runs its ``horner_schedule``: per coefficient bit, double the
    lanes, then add the picked blocks.  The blocks are packed into one
    integer each, lane by lane, with enough guard bits between lanes that
    a row's sum never carries into the next lane, so every doubling and
    every add steps all lanes at once.  The matrix multiplies by shifts and
    adds only, so no multiplication is counted.
    """
    if len(hashed) != matrix.cols:
        raise ValueError(f"expected {matrix.cols} hashed blocks, got {len(hashed)}")
    width, lanes = 2 * half_bits, len(hashed[0])
    # A lane's row sum stays below sum(row) << width.
    stride = width + max(map(sum, matrix.entries)).bit_length()
    packed = [_pack((block,), stride) for block in hashed]
    mask = _pack(([(1 << width) - 1 for _ in range(lanes)],), stride)
    out = []
    for row in matrix.entries:
        acc = 0
        for picked in horner_schedule(row):
            acc <<= 1
            for i in picked:
                acc += packed[i]
        out.append(_unpack(acc & mask, stride, 1, lanes)[0])
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
