"""Top-level driver: seed expansion, leaf compression over full instances,
k parallel trees, Toeplitz-keyed NH over the unread tail, and digest
assembly.

Two engines produce bit-identical digests: a pure-Python scalar path (the
instrumentable reference) and a numpy lane path that vectorizes across
block lanes and across batched inputs.  The lane path reads the input's
whole 64-bit words in place, without copying them.  One loop takes the
instances in cache-sized runs: each run is loaded, encoded, hashed by the
leaf NH inside the encoded array and combined, and its k blocks per
instance merge up the tree levels, before the next run is read.  A run's
parity rows, and then its combine rows, step together on one
level-synchronous ``horner_plan``; the scalar path runs each row on its
own ``horner_schedule``.  The leaf NH and the tree nodes share one NH
kernel over a block's lanes.  Between runs each tree level keeps fewer
than f blocks, so the memory needed beyond the input is bounded by the run
size, however long the input.  The scalar path pushes each instance's k
blocks into the trees as soon as the instance is compressed, so it too
keeps fewer than f blocks per level, and reads the tail's words as it
reads the items.  The finalize and the tail then share one NH pass: tree
r's row holds its finalize words and the tail words, keyed with its
finalize key and window r of the Toeplitz tail key, so the k digest words
come from one NH.  Both engines accept any C-contiguous bytes-like input.
A digest is a function of (input bytes, master seed, variant) only; seed
buffers may be expanded for any sufficient capacity without changing
results.  ``expand_seed`` computes all the words once and keeps them, ``8 *
capacity`` bytes, in one read-only array that every hash call slices.

Parameter sets and seed buffers are immutable, so one (params, seed) pair
can be shared across threads; every hash call owns its transient state.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import ehc as ehc_mod
from . import tree as tree_mod
from .nh import MultCounter, nh_full
from .params import MASK64, HashParams, horner_plan
from . import gf16, params as params_mod

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
#: Bits of key behind every seed word: ``_master_fold`` XORs the master into one word.
KEY_BITS = 64

# numpy scalars made once: each call would otherwise convert them again.
_HALF, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_LE_WORD = np.dtype("<u8")


class SeedSizeError(ValueError):
    """Seed buffer capacity below what this input length requires."""


def _master_fold(master: bytes) -> int:
    if len(master) != 32:
        raise ValueError("master seed must be exactly 32 bytes")
    a, b, c, d = struct.unpack("<4Q", master)
    return a ^ b ^ c ^ d


def _stream_words_np(fold, start: int, count: int) -> np.ndarray:
    """Words ``[start, start + count)`` of the splitmix64 stream seeded by
    ``fold``, an int or a (B, 1) array.  The state after i+1 steps of
    "state += GOLDEN_GAMMA" is fold + (i+1)*gamma: any word is random access."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = (np.asarray(fold, dtype=np.uint64) + idx * np.uint64(GOLDEN_GAMMA))
    z = (z ^ (z >> 30)) * np.uint64(_MIX_1)
    z = (z ^ (z >> 27)) * np.uint64(_MIX_2)
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SeedBuffer:
    """A 32-byte master seed expanded into ``capacity`` 64-bit words.  Only
    ``(master, capacity)`` is given; construction computes the words from
    them, once, into one read-only uint64 array."""

    master: bytes
    capacity: int
    _words: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        capacity = operator.index(self.capacity)
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        words = _stream_words_np(_master_fold(self.master), 0, capacity)
        words.flags.writeable = False
        object.__setattr__(self, "master", bytes(self.master))
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "_words", words)

    def words_np(self, start: int, count: int) -> np.ndarray:
        """A read-only view of the stored words ``[start, start + count)``."""
        if start < 0 or count < 0 or start + count > self.capacity:
            raise IndexError("seed word range out of range")
        return self._words[start : start + count]


def expand_seed(master: bytes, needed: int) -> SeedBuffer:
    """Expand a 32-byte master into ``needed`` deterministic 64-bit words."""
    return SeedBuffer(master, needed)


class SeedLayout(NamedTuple):
    """How ``hash_bytes`` reads an input of one length, and the seed
    regions that key each part.

    ``instances`` whole instances go through the leaf stage, and the
    ``tail_words`` words after them through the Toeplitz NH.  The k trees
    over the instances leave ``levels`` levels, 0 without instances; each
    tree's finalize NH reads ``finalize_words`` words, f - 1 block slots per
    level and the length tag.  Region sizes follow the budget
    ``e*w + (f-1)*h*k + b*f*h*k + b*d*w + k - 1`` with ``h = max(levels,
    1)``, so the finalize NH is always fully keyed.
    """

    instances: int
    tail_words: int
    levels: int
    finalize_words: int
    ehc_start: int
    ehc_words: int
    tree_start: int
    tree_words_per_tree: int
    finalize_start: int
    finalize_words_per_tree: int
    remainder_start: int
    remainder_words: int
    total_words: int


def seed_layout(params: HashParams, n_bytes: int) -> SeedLayout:
    """How ``hash_bytes`` reads an ``n_bytes`` input, and its seed regions."""
    if n_bytes < 0:
        raise ValueError(f"input length must be nonnegative, got n_bytes={n_bytes}")
    k, e, m = params.output_words, params.entropy_words, params.instance_words
    b, f = params.block_words, params.fanout
    n_words = (n_bytes + 7) // 8
    instances = n_words // m
    levels = tree_mod.level_count(instances, f)
    h = max(levels, 1)
    fin_start = e + (f - 1) * h * k
    rem_start = fin_start + b * f * h * k
    return SeedLayout(
        instances=instances,
        tail_words=n_words - instances * m,
        levels=levels,
        finalize_words=(f - 1) * b * levels + 1,
        ehc_start=0,
        ehc_words=e,
        tree_start=e,
        tree_words_per_tree=(f - 1) * h,
        finalize_start=fin_start,
        finalize_words_per_tree=b * f * h,
        remainder_start=rem_start,
        remainder_words=m + k - 1,
        total_words=rem_start + m + k - 1,
    )


def seed_words_for_levels(params: HashParams, levels: int) -> int:
    """The seed budget of ``SeedLayout`` with ``h = max(levels, 1)``: that
    of an input of f^(h - 1) instances, whose k trees leave h levels."""
    n_bytes = 8 * params.instance_words * params.fanout ** (max(levels, 1) - 1)
    return seed_layout(params, n_bytes).total_words


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
    # cast() refuses a shape with a zero in it; any empty buffer hashes as b"".
    return view.cast("B") if view.nbytes else memoryview(b"")


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
    return tuple(
        nh_full(tail, remainder_words[i : i + n], half_bits, counter, "remainder")
        for i in range(k)
    )


def _hash_scalar(
    data: memoryview,
    seed: SeedBuffer,
    params: HashParams,
    layout: SeedLayout,
    counter: MultCounter | None,
) -> Digest:
    k, b, f = params.output_words, params.block_words, params.fanout
    n_inst, step = layout.instances, 8 * params.instance_words
    size = 8 * params.item_blocks * b

    tree_per, fin_per = layout.tree_words_per_tree, layout.finalize_words_per_tree
    tree_seeds = [seed.words_np(layout.tree_start + r * tree_per, tree_per).tolist() for r in range(k)]
    entropy = seed.words_np(layout.ehc_start, layout.ehc_words).tolist()
    stacks: list[tree_mod.LevelStack] = [[] for _ in range(k)]
    for start in range(0, n_inst * step, step):
        # Each instance's items are read when it is reached and its k blocks
        # go into the trees at once, so each tree level keeps fewer than f
        # blocks; a short final item reads as zero-padded.
        items = [int.from_bytes(data[i : i + size], "little") for i in range(start, start + step, size)]
        combined = ehc_mod.compress_instance(items, entropy, params, 32, counter)
        for stack, block, level_seeds in zip(stacks, combined, tree_seeds):
            tree_mod.tree_reduce(stack, [block], level_seeds, f, 32, counter)

    out_words = []
    for r, levels in enumerate(stacks):
        fin_seed = seed.words_np(layout.finalize_start + r * fin_per, fin_per).tolist()
        out_words.append(tree_mod.tree_finalize(levels, len(data), fin_seed, f, b, 32, counter))

    # The tail's words are read like the items, the final one zero-padded.
    tail = [int.from_bytes(data[i : i + 8], "little") for i in range(n_inst * step, len(data), 8)]
    rem_words = seed.words_np(layout.remainder_start, layout.remainder_words).tolist()
    rem = hash_remainder(tail, rem_words, k, 32, counter)
    return Digest(tuple((out_words[r] + rem[r]) & MASK64 for r in range(k)))


# --- numpy lane path -----------------------------------------------------
#
# All kernels broadcast over a leading batch axis on both the data and the
# seed arrays, so one code path serves single inputs, many inputs under one
# seed, and one input under many seeds.  Each numpy operation is a full
# pass over its arrays, so the kernels are written to make few of them.

#: Input words, counted across the batch axis, per run of the leaf stage
#: (512 KiB), so a run's encoded, hashed and combined arrays stay in cache.
#: Hashing 16 MiB on a 2-core Xeon with 2 MiB of L2 per core (medians of
#: 8-10 interleaved runs per size), 2**16-word runs were 1.4-1.6x faster
#: than 2**14-word runs and 1.0-1.25x faster than 2**15-word runs;
#: 2**17 words ran at 0.99-1.12x and 2**18 at 0.89-0.99x of 2**16, for
#: twice and four times the working set.
_RUN_WORDS = 2**16


def _nh_keyed_np(keyed: np.ndarray) -> np.ndarray:
    """nh_full over the last axis of words whose key is already added into
    their 32-bit halves, each half wrapping on its own.  Consumes ``keyed``:
    its high halves are shifted down in place.
    """
    lo = keyed & _HALF
    keyed >>= _32
    # matmul of (1, n) by (n, 1) sums the products without storing them,
    # and carries the least fixed overhead of numpy's reductions.
    return np.matmul(lo[..., None, :], keyed[..., :, None])[..., 0, 0]


def _nh_lanes_np(keyed: np.ndarray) -> np.ndarray:
    """nh_full over axis -2 of keyed words, as ``_nh_keyed_np`` takes them,
    the lanes on the last axis: (..., n, b) -> (..., b).  Consumes
    ``keyed``; its low halves are the one new array of its size."""
    lo = keyed & _HALF
    keyed >>= _32
    # One einsum multiplies and sums without storing the products, and
    # on a short axis that is not the last it is also the faster sum.
    return np.einsum("...ij,...ij->...j", lo, keyed)


def _leaf_nh_np(enc: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """nh_full over axis -2 of ``enc``, the words of each lane on the last
    axis: (..., w, b) -> (..., b).

    Consumes ``enc``: the keys are added into it in place.  ``keys``
    broadcasts against ``enc``; both need a contiguous last axis, of the
    same length.
    """
    halves = enc.view(np.uint32)
    np.add(halves, keys.view(np.uint32), out=halves)
    return _nh_lanes_np(enc)


def _nh_node_np(blocks: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """nh_tree_node over axis -2 (the fanout axis) of ``blocks``, which it
    leaves untouched: the keys are added into a new array.

    ``keys`` holds the f-1 seed words, each repeated over the lanes, and
    broadcasts against ``blocks[..., :-1, :]``.
    """
    keyed = np.add(blocks[..., :-1, :].view(np.uint32), keys.view(np.uint32))
    out = _nh_lanes_np(keyed.view(np.uint64))
    out += blocks[..., -1, :]
    return out


def _run_plan(levels: tuple, block: np.ndarray, rows: list, terms: list, times_x, add) -> None:
    """Write row r's ``sum(c * t)`` over ``terms`` into ``rows[r]``, for
    every row of a ``horner_plan``; ``rows`` are views that together make
    ``block``.

    Per level, from the top: one ``times_x`` of the whole block, then each
    row adds that level's terms.  A row's first terms overwrite it, so the
    block needs no zeroing before; a row with no terms is zeroed at the end.
    """
    unset = set(range(len(rows)))
    for depth, level in enumerate(levels):
        if depth:
            times_x(block)
        for r, picked in enumerate(level):
            if not picked:
                continue
            acc = rows[r]
            if r in unset:
                unset.remove(r)
                if len(picked) == 1:
                    np.copyto(acc, terms[picked[0]])
                    continue
                add(terms[picked[0]], terms[picked[1]], acc)
                picked = picked[2:]
            for i in picked:
                add(acc, terms[i], acc)
    for r in unset:
        rows[r].fill(0)


def _double(acc: np.ndarray) -> None:
    acc <<= np.uint64(1)


def _encode_np(inst: np.ndarray, params: HashParams) -> np.ndarray:
    """inst: (..., n, d, w, b) -> (..., e, n, w, b) systematic encoding.

    The output is item-major, so every item and parity is one contiguous
    array.  The parities are GF(16) Horner sums of the items, run together
    on the rows' ``horner_plan``: at most three multiplications by x of
    the whole parity block, and none for XOR parity.  Equal to XORing
    ``gf16.scale(coeff, v)`` over each row.
    """
    d, rows = params.instance_items, params.code.parity_rows
    shape = inst.shape[:-4] + (d + len(rows), inst.shape[-4]) + inst.shape[-2:]
    enc = np.empty(shape, dtype=np.uint64)
    # Item axis first: its slices are the items, in any batch shape.
    items = enc.swapaxes(0, -4)
    np.copyto(items[:d], inst.swapaxes(-3, -4).swapaxes(0, -4))
    block, items = items[d:], list(items)
    _run_plan(horner_plan(rows), block, items[d:], items[:d], gf16.xtime_inplace, np.bitwise_xor)
    return enc


def _combine_np(hashed: np.ndarray, params: HashParams) -> np.ndarray:
    """hashed: (..., e, n, b) -> (..., k, n, b) via the combine matrix.

    The rows are Horner sums mod 2^64, run together on the rows'
    ``horner_plan``: one shift of all rows per coefficient bit, plus adds,
    and no multiplier.  Equal to ``sum(c * hashed[c])`` over each row, and
    to ``ehc.combine``.
    """
    entries = params.matrix.entries
    out = np.empty(hashed.shape[:-3] + (len(entries),) + hashed.shape[-2:], dtype=np.uint64)
    rows, cols = list(out.swapaxes(0, -3)), list(hashed.swapaxes(0, -3))
    _run_plan(horner_plan(entries), out, rows, cols, _double, np.add)
    return out


def _word_range(words: np.ndarray, last, lo: int, hi: int) -> np.ndarray:
    """Words ``[lo, hi)`` of ``words`` continued by the partial word
    ``last``; only a range that reaches into ``last`` is copied."""
    if hi <= words.shape[1]:
        return words[:, lo:hi]
    return np.concatenate([words[:, lo:], np.full((len(words), 1), last, np.uint64)], axis=1)


def _hash_instances(
    words: np.ndarray, last, seed_region, params: HashParams, layout: SeedLayout
) -> list:
    """Take the batch's whole instances through the leaf stage and the k
    trees; returns each tree level's (B, k, <f, b) unmerged blocks.

    The instances go through the leaf stage in runs of about
    ``_RUN_WORDS`` words across the batch.  Each run is encoded, hashed
    and combined while it is in cache, and its k trees are then reduced
    together.  Between runs every tree level keeps its fewer than f
    unmerged blocks, the leftovers of ``tree.tree_reduce``, so the memory
    beyond the input is bounded by the run size.  The keys and the last
    run are locals here, so they are freed before the final NH.
    """
    k, b, f = params.output_words, params.block_words, params.fanout
    w, d, m = params.item_blocks, params.instance_items, params.instance_words
    batch = words.shape[0]
    n_inst, levels = layout.instances, layout.levels
    pending = [np.empty((batch, k, 0, b), dtype=np.uint64)] * levels
    # Key word (item, block), repeated over the b lanes: it then has the
    # memory layout of an encoded item, and the NH adds whole items.
    ent = seed_region(layout.ehc_start, layout.ehc_words)
    ent = np.repeat(ent.reshape(-1, params.encoded_items, 1, w, 1), b, axis=-1)
    node_keys = []
    if levels > 1:
        tree = seed_region(layout.tree_start, k * layout.tree_words_per_tree)
        tree = tree.reshape(-1, k, 1, levels, f - 1, 1)
        node_keys = [np.repeat(tree[..., i, :, :], b, axis=-1) for i in range(levels - 1)]
    run = max(1, _RUN_WORDS // (batch * m))
    for t in range(0, n_inst, run):
        u = min(t + run, n_inst)
        inst = _word_range(words, last, t * m, u * m).reshape(batch, u - t, d, w, b)
        blocks = _combine_np(_leaf_nh_np(_encode_np(inst, params), ent), params)
        # Consecutive groups of f merge into the next level; the rest waits
        # for the next run.  The top level never fills.
        for i in range(levels):
            if pending[i].shape[2]:
                blocks = np.concatenate([pending[i], blocks], axis=2)
            cut = blocks.shape[2] - blocks.shape[2] % f
            pending[i] = blocks[:, :, cut:]
            if not cut:
                break
            groups = blocks[:, :, :cut].reshape(batch, k, cut // f, f, b)
            blocks = _nh_node_np(groups, node_keys[i])
    return pending


def _hash_words_np(
    words: np.ndarray, n_bytes: int, seed_region, params: HashParams, layout: SeedLayout, last=None
) -> np.ndarray:
    """Hash a (B, n_words) batch of ``n_bytes`` inputs under ``layout =
    seed_layout(params, n_bytes)``; ``seed_region(start, count)`` returns
    seed word arrays broadcastable against the batch.  Returns (B, k) words.

    ``last``, an int or a (B, 1) array, is the zero-padded final partial
    word when ``words`` holds only the whole words of the input.

    After ``_hash_instances``, the finalize and the tail share one NH pass.
    Tree r's row holds its finalize words (f - 1 block slots per level,
    zero where a block is absent, then the length tag) and after them the
    tail words.  The row is keyed with tree r's finalize key and then with
    window r of the Toeplitz tail key, so one NH over the k rows gives the
    digest words: the finalize NH plus the tail NH of each tree.
    """
    k, b = params.output_words, params.block_words
    batch = words.shape[0]
    n_inst, n_fin, n_tail = layout.instances, layout.finalize_words, layout.tail_words
    pending = _hash_instances(words, last, seed_region, params, layout) if n_inst else ()

    row = np.zeros((batch, k, n_fin + n_tail), dtype=np.uint64)
    step = (params.fanout - 1) * b
    for i, blocks in enumerate(pending):
        row[:, :, i * step : i * step + blocks.shape[2] * b] = blocks.reshape(batch, k, -1)
    # The leftovers can be views of a whole combined run: free them before
    # the NH allocates its second array of the row's size.
    pending = blocks = None
    row[:, :, n_fin - 1] = n_bytes & MASK64
    # The tail's whole words, then the partial word.  When the last
    # instance reads the partial word, the tail starts past ``words``.
    start = n_inst * params.instance_words
    whole = max(words.shape[1] - start, 0)
    row[:, :, n_fin : n_fin + whole] = words[:, None, start:]
    if whole < n_tail:
        row[:, :, -1] = last

    # Keys go on the 32-bit views, so that each half wraps on its own.
    halves = row.view(np.uint32)
    per = layout.finalize_words_per_tree
    fin_seed = seed_region(layout.finalize_start, k * per).reshape(-1, k, per)[..., :n_fin]
    fin = halves[..., : 2 * n_fin]
    np.add(fin, fin_seed.view(np.uint32), out=fin)
    # As (1 or B, words) each window has a tail's shape: one flat add loop.
    rem = seed_region(layout.remainder_start, layout.remainder_words)
    rem = rem.reshape(-1, layout.remainder_words).view(np.uint32)
    for r, tail in enumerate(halves[:, :, 2 * n_fin :].swapaxes(0, 1)):
        np.add(tail, rem[:, 2 * r : 2 * (r + n_tail)], out=tail)
    return _nh_keyed_np(row)


def _words_np_from_bytes(data: memoryview) -> np.ndarray:
    """The whole little-endian 64-bit words of ``data``, as a view of it.
    Every kernel copies them into native arrays before it reads halves."""
    return np.frombuffer(data, dtype=_LE_WORD, count=len(data) // 8)


def _hash_lanes(
    data: memoryview, seed: SeedBuffer, params: HashParams, layout: SeedLayout
) -> Digest:
    words, rest = _words_np_from_bytes(data)[None, :], len(data) % 8
    last = int.from_bytes(data[len(data) - rest :], "little") if rest else None
    out = _hash_words_np(words, len(data), seed.words_np, params, layout, last)
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
    ``TypeError``, as do a ``seed`` that is not a ``SeedBuffer`` and
    ``params`` that are not ``HashParams``.  ``engine="lanes"`` is the
    vectorized default; ``engine="scalar"`` is the pure-Python reference
    path and the only one that accepts a counter.  The two produce
    bit-identical digests.
    """
    view = _byte_view(data)
    if not isinstance(seed, SeedBuffer):
        raise TypeError(
            f"seed must be a SeedBuffer from seed_for_input(), not {type(seed).__name__}"
        )
    if not isinstance(params, HashParams):
        raise TypeError(
            f"params must be HashParams from variant(), not {type(params).__name__}"
        )
    layout = seed_layout(params, len(view))
    if seed.capacity < layout.total_words:
        raise SeedSizeError(
            f"seed buffer holds {seed.capacity} words but this input needs "
            f"{layout.total_words}; expand with seed_words_needed()"
        )
    if engine == "lanes":
        if counter is not None:
            raise ValueError("multiplication counting requires engine='scalar'")
        return _hash_lanes(view, seed, params, layout)
    if engine == "scalar":
        return _hash_scalar(view, seed, params, layout, counter)
    raise ValueError(f"unknown engine {engine!r}")


def digest(
    data: bytes | bytearray | memoryview,
    master: bytes = b"\x00" * 32,
    output_bytes: int = 24,
) -> Digest:
    """Convenience one-shot: expand a seed sized for this input and hash."""
    params = params_mod.variant(output_bytes)
    view = _byte_view(data)
    layout = seed_layout(params, len(view))
    return _hash_lanes(view, expand_seed(master, layout.total_words), params, layout)
