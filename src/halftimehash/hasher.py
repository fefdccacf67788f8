"""Top-level driver: seed expansion, leaf compression over full instances,
k parallel trees, Toeplitz-keyed NH over the unread tail, and digest
assembly.

Two engines produce bit-identical digests: a pure-Python scalar path (the
instrumentable reference) and a numpy lane path that vectorizes across
block lanes and across batched inputs.  The lane path reads the input's
whole 64-bit words in place, without copying them, and runs the leaf stage
on cache-sized runs of instances, so for long inputs the memory it needs
beyond the input stays below the input's own size.  Both accept any
C-contiguous bytes-like input.  A digest is
a function of (input bytes, master seed, variant) only; seed buffers may be
expanded for any sufficient capacity without changing results.

Parameter sets and seed buffers are immutable, so one (params, seed) pair
can be shared across threads; every hash call owns its transient state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ehc as ehc_mod
from . import tree as tree_mod
from .nh import MultCounter, nh_full, words_to_halves
from .params import MASK64, HashParams, coefficient_multiply
from . import gf16

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

_HALF = 0xFFFFFFFF


class SeedSizeError(ValueError):
    """Seed buffer capacity below what this input length requires."""


def splitmix_mix(z: int) -> int:
    """The splitmix64 output finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & MASK64
    return z ^ (z >> 31)


def _master_fold(master: bytes) -> int:
    if len(master) != 32:
        raise ValueError("master seed must be exactly 32 bytes")
    a, b, c, d = struct.unpack("<4Q", master)
    return a ^ b ^ c ^ d


def _stream_word(fold: int, index: int) -> int:
    # Counter form of "state += GOLDEN_GAMMA; output mix(state)": the state
    # after i+1 steps is fold + (i+1)*gamma, so any word is random access.
    return splitmix_mix((fold + (index + 1) * GOLDEN_GAMMA) & MASK64)


def _stream_words_np(fold, start: int, count: int) -> np.ndarray:
    """Vectorized splitmix stream; ``fold`` may be an int or an (B, 1) array."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = (np.asarray(fold, dtype=np.uint64) + idx * np.uint64(GOLDEN_GAMMA))
    z = (z ^ (z >> 30)) * np.uint64(_MIX_1)
    z = (z ^ (z >> 27)) * np.uint64(_MIX_2)
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SeedBuffer:
    """Deterministic expansion of a 32-byte master seed into 64-bit words."""

    master: bytes
    capacity: int
    fold: int

    @classmethod
    def from_master(cls, master: bytes, capacity: int) -> "SeedBuffer":
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        return cls(bytes(master), capacity, _master_fold(master))

    def word(self, index: int) -> int:
        if not 0 <= index < self.capacity:
            raise IndexError("seed word index out of range")
        return _stream_word(self.fold, index)

    def words(self, start: int, count: int) -> list[int]:
        if start < 0 or start + count > self.capacity:
            raise IndexError("seed word range out of range")
        return [_stream_word(self.fold, i) for i in range(start, start + count)]

    def words_np(self, start: int, count: int) -> np.ndarray:
        if start < 0 or start + count > self.capacity:
            raise IndexError("seed word range out of range")
        return _stream_words_np(self.fold, start, count)


def expand_seed(master: bytes, needed: int) -> SeedBuffer:
    """Expand a 32-byte master into ``needed`` deterministic 64-bit words."""
    return SeedBuffer.from_master(master, needed)


@dataclass(frozen=True)
class SeedLayout:
    """Region partition of the expanded words for one input length.

    Sizes follow the budget ``e*w + (f-1)*h*k + b*f*h*k + b*d*w + k - 1``
    with ``h`` the leftover-level count for this input (minimum 1), so the
    finalize NH is always fully keyed.
    """

    levels: int
    ehc_start: int
    ehc_words: int
    tree_start: int
    tree_words_per_tree: int
    finalize_start: int
    finalize_words_per_tree: int
    remainder_start: int
    remainder_words: int
    total_words: int


def instance_count(params: HashParams, n_bytes: int) -> int:
    return ((n_bytes + 7) // 8) // params.instance_words


def seed_layout(params: HashParams, n_bytes: int) -> SeedLayout:
    """The seed regions ``hash_bytes`` reads for an ``n_bytes`` input."""
    n_inst = instance_count(params, n_bytes)
    levels = tree_mod.level_count(n_inst, params.fanout) if n_inst else 1
    return seed_layout_for_levels(params, levels)


def seed_layout_for_levels(params: HashParams, levels: int) -> SeedLayout:
    """The seed regions of an input whose trees leave ``levels`` levels."""
    k, b, f = params.output_words, params.block_words, params.fanout
    ehc_words = params.entropy_words
    tree_per = (f - 1) * levels
    fin_per = b * f * levels
    rem = params.instance_words + k - 1
    ehc_start = 0
    tree_start = ehc_words
    fin_start = tree_start + tree_per * k
    rem_start = fin_start + fin_per * k
    return SeedLayout(
        levels=levels,
        ehc_start=ehc_start,
        ehc_words=ehc_words,
        tree_start=tree_start,
        tree_words_per_tree=tree_per,
        finalize_start=fin_start,
        finalize_words_per_tree=fin_per,
        remainder_start=rem_start,
        remainder_words=rem,
        total_words=rem_start + rem,
    )


def seed_words_needed(params: HashParams, n_bytes: int) -> int:
    """Seed words a buffer must hold to hash ``n_bytes`` of input."""
    return seed_layout(params, n_bytes).total_words


def seed_for_input(master: bytes, params: HashParams, n_bytes: int) -> SeedBuffer:
    return expand_seed(master, seed_words_needed(params, n_bytes))


@dataclass(frozen=True)
class Digest:
    """k little-endian 64-bit words; ``output_bytes = 8 * k``."""

    words: tuple[int, ...]

    @property
    def bytes(self) -> bytes:
        return b"".join(w.to_bytes(8, "little") for w in self.words)

    def hex(self) -> str:
        return self.bytes.hex()


def _byte_view(data) -> memoryview:
    """``data`` as a flat unsigned-byte view, without copying.

    Accepts any C-contiguous object with the buffer protocol: bytes,
    bytearray, memoryview, mmap, numpy arrays.
    """
    try:
        view = memoryview(data)
    except TypeError:
        raise TypeError(
            f"hash input must be a bytes-like object, not {type(data).__name__}"
        ) from None
    if not view.c_contiguous:
        raise TypeError("hash input buffer must be C-contiguous")
    return view.cast("B")


def words_from_bytes(data) -> list[int]:
    """Little-endian 64-bit words, zero-padding the final partial word."""
    view = _byte_view(data)
    return [int.from_bytes(view[i : i + 8], "little") for i in range(0, len(view), 8)]


def hash_remainder(
    tail: Sequence[int],
    remainder_words: Sequence[int],
    k: int,
    half_bits: int = 32,
    counter: MultCounter | None = None,
) -> tuple[int, ...]:
    """NH the sub-instance tail k times with Toeplitz-shifted key windows.

    Component ``i`` uses words ``remainder_words[i, len(tail) + i)``; the k
    windows overlap in all but k - 1 words.
    """
    n = len(tail)
    if len(remainder_words) < n + k - 1:
        raise ValueError("remainder key region too short")
    tail_halves = words_to_halves(tail, half_bits)
    out = []
    for i in range(k):
        seed_halves = words_to_halves(remainder_words[i : i + n], half_bits)
        out.append(nh_full(tail_halves, seed_halves, half_bits, counter, "remainder"))
    return tuple(out)


def _check_capacity(seed: SeedBuffer, layout: SeedLayout) -> None:
    if seed.capacity < layout.total_words:
        raise SeedSizeError(
            f"seed buffer holds {seed.capacity} words but this input needs "
            f"{layout.total_words}; expand with seed_words_needed()"
        )


def _hash_scalar(
    data: memoryview, seed: SeedBuffer, params: HashParams, counter: MultCounter | None
) -> Digest:
    layout = seed_layout(params, len(data))
    _check_capacity(seed, layout)
    words = words_from_bytes(data)
    k, b, f, w, d = (
        params.output_words,
        params.block_words,
        params.fanout,
        params.item_blocks,
        params.instance_items,
    )
    m = params.instance_words
    n_inst = len(words) // m

    entropy = seed.words(layout.ehc_start, layout.ehc_words)
    tree_blocks: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    for t in range(n_inst):
        base = t * m
        items = [
            tuple(
                tuple(words[base + (i * w + u) * b : base + (i * w + u) * b + b])
                for u in range(w)
            )
            for i in range(d)
        ]
        combined = ehc_mod.compress_instance(items, entropy, params, 32, counter)
        for r in range(k):
            tree_blocks[r].append(combined[r])

    out_words = []
    for r in range(k):
        if n_inst:
            level_seeds = seed.words(
                layout.tree_start + r * layout.tree_words_per_tree,
                layout.tree_words_per_tree,
            )
            levels = tree_mod.tree_reduce(tree_blocks[r], level_seeds, f, 32, counter)
        else:
            levels = []
        fin_seed = seed.words(
            layout.finalize_start + r * layout.finalize_words_per_tree,
            layout.finalize_words_per_tree,
        )
        out_words.append(
            tree_mod.tree_finalize(levels, len(data), fin_seed, f, b, 32, counter)
        )

    tail = words[n_inst * m :]
    rem_words = seed.words(layout.remainder_start, layout.remainder_words)
    rem = hash_remainder(tail, rem_words, k, 32, counter)
    return Digest(tuple((out_words[r] + rem[r]) & MASK64 for r in range(k)))


# --- numpy lane path -----------------------------------------------------
#
# All kernels broadcast over a leading batch axis on both the data and the
# seed arrays, so one code path serves single inputs, many inputs under one
# seed, and one input under many seeds.

#: Input words, counted across the batch axis, per run of the leaf stage
#: (512 KiB), so a run's encoded, hashed and combined arrays stay in cache.
#: Hashing 16 MiB on a 2-core Xeon with 2 MiB of L2 per core, 2**16-word
#: runs were 1.6-2.4x faster than 2**13-word runs and 1.0-1.4x faster than
#: 2**18-word runs.
_RUN_WORDS = 2**16


def _nh_halves(words: np.ndarray, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two NH factors ``(d_lo + s_lo) mod 2^32`` and ``(d_hi + s_hi) mod
    2^32`` of every word, shaped like ``words``.  Worked in place, so a call
    allocates the two results and the two seed masks, nothing more."""
    half = np.uint64(_HALF)
    lo = words & half
    lo += seeds & half
    lo &= half
    hi = words >> np.uint64(32)
    hi += seeds >> np.uint64(32)
    hi &= half
    return lo, hi


def _nh_words_np(words: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """nh_full over trailing word axes; halves are the 32-bit word halves."""
    lo, hi = _nh_halves(words, seeds)
    if lo.strides[-1] == lo.itemsize:
        lo *= hi
        return lo.sum(axis=-1, dtype=np.uint64)
    # Over a short strided axis (the leaf's w axis) sum() is several times
    # slower than einsum, which costs more per call on contiguous rows.
    return np.einsum("...i,...i->...", lo, hi)


def _nh_node_np(blocks: np.ndarray, seed_words: np.ndarray) -> np.ndarray:
    """nh_tree_node over axis -2 (the fanout axis) of ``blocks``.

    ``seed_words`` is (f-1,) or batched (B, f-1); it is reshaped so the seed
    broadcasts over any node axes between the batch and the fanout axis.
    """
    body = blocks[..., :-1, :]
    lead = seed_words.shape[:-1]
    shape = lead + (1,) * (body.ndim - len(lead) - 2) + (seed_words.shape[-1], 1)
    lo, hi = _nh_halves(body, seed_words.reshape(shape))
    return np.einsum("...ij,...ij->...j", lo, hi) + blocks[..., -1, :]


def _encode_np(inst: np.ndarray, params: HashParams) -> np.ndarray:
    """inst: (..., n, d, w, b) -> (..., e, n, w, b) systematic encoding.

    The output is item-major, so every item and parity the encoder touches
    is one contiguous array.  Each item's multiples ``x^c * v`` are
    computed once, up to the highest power any parity row uses for that
    item, and XORed into every parity whose coefficient has bit ``c`` set;
    a coefficient of 1 is a plain XOR.  Equal to XORing
    ``gf16.scale(coeff, v)`` over each row.
    """
    d = params.instance_items
    shape = inst.shape[:-4] + (params.encoded_items, inst.shape[-4]) + inst.shape[-2:]
    enc = np.empty(shape, dtype=np.uint64)
    enc[..., :d, :, :, :] = np.moveaxis(inst, -3, -4)
    parity = enc[..., d:, :, :, :]
    parity[...] = 0
    for i in range(d):
        coeffs = [row[i] for row in params.code.parity_rows]
        power = enc[..., i, :, :, :]
        for bit in range(max(coeffs).bit_length()):
            if bit:
                power = gf16.xtime(power, 64, MASK64)
            for j, coeff in enumerate(coeffs):
                if coeff >> bit & 1:
                    parity[..., j, :, :, :] ^= power
    return enc


def _combine_np(hashed: np.ndarray, params: HashParams) -> np.ndarray:
    """hashed: (..., e, b) -> (..., k, b) via the combine matrix."""
    shape = hashed.shape[:-2] + (params.output_words, hashed.shape[-1])
    out = np.empty(shape, dtype=np.uint64)
    for r, row in enumerate(params.matrix.entries):
        # A contiguous accumulator, stored once, is about twice as fast as
        # summing into the strided row of ``out``.
        acc = np.zeros(shape[:-2] + shape[-1:], dtype=np.uint64)
        for c, coeff in enumerate(row):
            if coeff:
                acc += coefficient_multiply(coeff, hashed[..., c, :], 64)
        out[..., r, :] = acc
    return out


def _word_range(words: np.ndarray, last: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Words ``[lo, hi)`` of ``words`` continued by ``last``; only a range
    that reaches into ``last`` is copied."""
    if hi <= words.shape[1]:
        return words[:, lo:hi]
    return np.concatenate([words[:, lo:], last], axis=1)


def _hash_words_np(
    words: np.ndarray,
    n_bytes: int,
    seed_region,
    params: HashParams,
    last: np.ndarray | None = None,
) -> np.ndarray:
    """Hash a (B, n_words) batch; ``seed_region(start, count)`` returns seed
    word arrays broadcastable against the batch.  Returns (B, k) words.

    ``last`` (B, 0 or 1) holds the zero-padded final partial word when
    ``words`` holds only the whole words of the input.

    The leaf stage takes the instances in runs of about ``_RUN_WORDS``
    words across the batch, and encodes, hashes and combines each run
    while it is in cache.
    """
    layout = seed_layout(params, n_bytes)
    k, b, f, w, d = (
        params.output_words,
        params.block_words,
        params.fanout,
        params.item_blocks,
        params.instance_items,
    )
    m = params.instance_words
    batch = words.shape[0]
    if last is None:
        last = np.empty((batch, 0), dtype=np.uint64)
    n_words = words.shape[1] + last.shape[1]
    n_inst = n_words // m

    fin_in_words = layout.levels * (f - 1) * b + 1 if n_inst else 1
    tag = np.full((batch, 1), n_bytes & MASK64, dtype=np.uint64)

    out = np.zeros((batch, k), dtype=np.uint64)
    if n_inst:
        ent = seed_region(layout.ehc_start, layout.ehc_words)
        # Key word (item, block), repeated over the b lanes: it then has the
        # memory layout of an encoded item, and the NH's inner loops run
        # over whole items rather than single blocks.
        ent = ent.reshape(ent.shape[:-1] + (params.encoded_items, 1, w, 1))
        ent_h = np.repeat(ent, b, axis=-1).swapaxes(-2, -1)
        run = max(1, _RUN_WORDS // (batch * m))
        combined = np.empty((batch, n_inst, k, b), dtype=np.uint64)
        for t in range(0, n_inst, run):
            u = min(t + run, n_inst)
            inst = _word_range(words, last, t * m, u * m).reshape(batch, u - t, d, w, b)
            hashed = _nh_words_np(_encode_np(inst, params).swapaxes(-2, -1), ent_h)
            combined[:, t:u] = _combine_np(hashed.swapaxes(-3, -2), params)

        for r in range(k):
            level_seeds = seed_region(
                layout.tree_start + r * layout.tree_words_per_tree,
                layout.tree_words_per_tree,
            )
            # One pass per level: consecutive groups of f merge into the
            # next level, the trailing n % f blocks stay as leftovers.
            # Matches the scalar stack construction value for value.
            leftover_levels: list[np.ndarray] = []
            cur = combined[:, :, r, :]
            lvl = 0
            while True:
                cut = cur.shape[1] - cur.shape[1] % f
                leftover_levels.append(cur[:, cut:, :])
                if cut == 0:
                    break
                groups = cur[:, :cut, :].reshape(batch, cut // f, f, b)
                cur = _nh_node_np(
                    groups, level_seeds[..., lvl * (f - 1) : (lvl + 1) * (f - 1)]
                )
                lvl += 1
            parts = []
            for leftovers in leftover_levels:
                c = leftovers.shape[1]
                if c < f - 1:
                    pad = np.zeros((batch, f - 1 - c, b), dtype=np.uint64)
                    leftovers = np.concatenate([leftovers, pad], axis=1)
                parts.append(leftovers.reshape(batch, (f - 1) * b))
            flat = np.concatenate(parts + [tag], axis=1)
            fin_seed = seed_region(
                layout.finalize_start + r * layout.finalize_words_per_tree,
                fin_in_words,
            )
            out[:, r] = _nh_words_np(flat, fin_seed)
    else:
        for r in range(k):
            fin_seed = seed_region(
                layout.finalize_start + r * layout.finalize_words_per_tree, 1
            )
            out[:, r] = _nh_words_np(tag, fin_seed)

    n_tail = n_words - n_inst * m
    if n_tail:
        tail = _word_range(words, last, n_inst * m, n_words)
        rem = seed_region(layout.remainder_start, layout.remainder_words)
        for r in range(k):
            out[:, r] += _nh_words_np(tail, rem[..., r : r + n_tail])
    return out


def _words_np_from_bytes(data: memoryview) -> np.ndarray:
    """The whole little-endian 64-bit words of ``data``, as a view of it."""
    whole = data[: len(data) - len(data) % 8]
    return np.frombuffer(whole, dtype="<u8").astype(np.uint64, copy=False)


def _last_word_np(data: memoryview) -> np.ndarray:
    """The final partial word of ``data``, zero-padded, as a (1, 0 or 1) array."""
    rest = len(data) % 8
    word = [int.from_bytes(data[len(data) - rest :], "little")] if rest else []
    return np.array([word], dtype=np.uint64)


def _hash_lanes(data: memoryview, seed: SeedBuffer, params: HashParams) -> Digest:
    layout = seed_layout(params, len(data))
    _check_capacity(seed, layout)
    words = _words_np_from_bytes(data)[None, :]
    out = _hash_words_np(words, len(data), seed.words_np, params, _last_word_np(data))
    return Digest(tuple(out[0].tolist()))


def hash_bytes(
    data: bytes | bytearray | memoryview,
    seed: SeedBuffer,
    params: HashParams,
    engine: str = "lanes",
    counter: MultCounter | None = None,
) -> Digest:
    """One-shot hash of ``data`` under an expanded seed.

    ``data`` is any C-contiguous bytes-like object (bytes, bytearray,
    memoryview, mmap, numpy arrays), read in place; anything else raises
    ``TypeError``.  ``engine="lanes"`` is the vectorized default;
    ``engine="scalar"`` is the pure-Python reference path and the only one
    that accepts a counter.  The two produce bit-identical digests.
    """
    view = _byte_view(data)
    if engine == "lanes":
        if counter is not None:
            raise ValueError("multiplication counting requires engine='scalar'")
        return _hash_lanes(view, seed, params)
    if engine == "scalar":
        return _hash_scalar(view, seed, params, counter)
    raise ValueError(f"unknown engine {engine!r}")


def digest(
    data: bytes | bytearray | memoryview,
    master: bytes = b"\x00" * 32,
    output_bytes: int = 24,
) -> Digest:
    """Convenience one-shot: expand a seed sized for this input and hash."""
    from .params import variant

    params = variant(output_bytes)
    view = _byte_view(data)
    return hash_bytes(view, seed_for_input(master, params, len(view)), params)
