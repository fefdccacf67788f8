"""The Encode-Hash-Combine leaf stage.

One instance reads ``instance_items`` items of ``item_blocks`` blocks,
erasure-encodes them to ``encoded_items`` items, hashes every encoded item
down to a single block with NH, and combines the hashed blocks into
``output_words`` blocks through the fixed small-coefficient matrix.

An item is one int, the little-endian integer of its ``w * b`` words: word
``l`` (block ``l // b``, lane ``l % b``) at bits ``[l * width, (l + 1) *
width)``, which at full width is ``int.from_bytes(item_bytes, "little")``.
So a Horner step of the encoder is one x-step and one XOR per picked item,
whatever the item's size; the combine packs a hashed block's lanes the
same way.  The batched array pipeline lives in :mod:`halftimehash.hasher`.
"""

from __future__ import annotations

from typing import Sequence

from . import gf16
from .nh import MultCounter, nh_full
from .params import ErasureCode, HashParams, TransformMatrix, horner_schedule


def _pack(words: Sequence[int], stride: int) -> int:
    """``words`` side by side in one int, the ``l``-th at bits
    ``[l * stride, (l + 1) * stride)``."""
    packed = 0
    for word in reversed(words):
        packed = packed << stride | word
    return packed


def _split(packed: int, stride: int, count: int, width: int) -> list[int]:
    """The low ``width`` bits of each of the ``count`` words packed
    ``stride`` bits apart, as :func:`_pack` packs them."""
    mask = (1 << width) - 1
    out = []
    for _ in range(count):
        out.append(packed & mask)
        packed >>= stride
    return out


def encode(items: Sequence, code: ErasureCode, width: int = 64, item_words: int = 1) -> list:
    """Erasure-encode ``arity_in`` items of ``item_words`` words into
    ``arity_out`` items.

    Systematic: the inputs pass through verbatim, followed by the parity
    items.  Each parity runs its row's ``horner_schedule`` on whole items:
    per coefficient bit, one GF(16) x-step of every word of the parity,
    then one XOR per picked item, as ``hasher._encode_np`` does on arrays.
    The arithmetic is lane-wise per word, so the same routine runs at
    reduced widths for verification, and on numpy columns of one-word
    items.
    """
    if len(items) != code.arity_in:
        raise ValueError(f"expected {code.arity_in} items, got {len(items)}")
    out = list(items)
    for row in code.parity_rows:
        parity = 0
        for picked in horner_schedule(row):
            parity = gf16.xtime(parity, width, item_words)
            for i in picked:
                parity ^= items[i]
        out.append(parity)
    return out


def hash_encoded(
    encoded: Sequence[int],
    entropy: Sequence[int],
    item_blocks: int,
    block_words: int,
    half_bits: int = 32,
    counter: MultCounter | None = None,
) -> list[tuple[int, ...]]:
    """NH each encoded item of ``item_blocks`` blocks down to one block.

    Item ``i`` is keyed by entropy words ``[i*w, (i+1)*w)``; lane ``j``
    hashes the item's ``w`` lane-``j`` words, every ``b``-th word from word
    ``j``.  Each word costs one half-word multiplication, counted once per
    item.
    """
    w, b, width = item_blocks, block_words, 2 * half_bits
    out = []
    for i, item in enumerate(encoded):
        keys = entropy[i * w : (i + 1) * w]
        words = _split(item, width, w * b, width)
        out.append(tuple([nh_full(words[j::b], keys, half_bits) for j in range(b)]))
        if counter is not None:
            counter.add("ehc", len(words))
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
    packed = [_pack(block, stride) for block in hashed]
    out = []
    for row in matrix.entries:
        acc = 0
        for picked in horner_schedule(row):
            acc <<= 1
            for i in picked:
                acc += packed[i]
        out.append(tuple(_split(acc, stride, lanes, width)))
    return out


def compress_instance(
    items: Sequence[int],
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
    w, b = params.item_blocks, params.block_words
    encoded = encode(items, params.code, 2 * half_bits, w * b)
    hashed = hash_encoded(encoded, entropy, w, b, half_bits, counter)
    return combine(hashed, params.matrix, half_bits)
