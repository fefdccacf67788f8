"""Verification properties and the scaled-down delta-universality probes.

``verify_properties`` owns the property list; ``halftimehash verify`` only
prints what it yields.

The production bounds live at 32-bit half-words where seed spaces are far
beyond enumeration, so the probes run the *same* pipeline functions at 4-
or 8-bit half-words, where the relevant seed spaces are exhaustible.
``nh_delta_distribution`` and ``ehc_delta_distribution`` return the
``Counter`` of the NH and the leaf-stage (``ehc.compress_instance``) output
differences over the enumerated seeds; its total is the seed count.  The
conditioning trick from the leaf-stage proof is reused computationally, by
one enumerator, ``_enumerate``, that both share: only the seeds at the
differing positions are enumerated, the rest are pinned to salt-derived
constants, which is sound because the bound holds uniformly over them, and
seed spaces above 2^32 are refused.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import analysis
from . import ehc as ehc_mod
from .hasher import _stream_words_np
from .nh import nh_full
from .params import MASK64, VARIANTS, ErasureCode, HashParams, TransformMatrix

_EXHAUSTIVE_LIMIT = 1 << 32


def _fixed_seeds(salt: int, count: int, half_bits: int) -> list[int]:
    """``count`` seed constants of ``half_bits`` bits; any int salt works mod 2^64."""
    words = _stream_words_np(salt & MASK64, 0, count)
    return (words & np.uint64((1 << half_bits) - 1)).tolist()


def _enumerate(seed: list[int], positions: list[int], bits: int, diff) -> Counter:
    """Distribution of ``diff(seed)`` over every value of the ``bits``-bit
    seed entries at ``positions``; the other entries keep their pinned
    values.  ``seed`` is updated in place.  The enumerated seed space may
    not exceed 2^32."""
    space = 1 << (bits * len(positions))
    if space > _EXHAUSTIVE_LIMIT:
        raise ValueError("seed space too large for exhaustive enumeration")
    mask = (1 << bits) - 1
    dist: Counter = Counter()
    for raw in range(space):
        for pos in positions:
            seed[pos] = raw & mask
            raw >>= bits
        dist[diff(seed)] += 1
    return dist


def worst_probability(dist: Counter) -> float:
    """The largest delta-probability in a difference distribution."""
    return max(dist.values()) / dist.total()


def nh_delta_distribution(x, y, half_bits: int, salt: int = 0) -> Counter:
    """Distribution of nh_full(x) - nh_full(y) over one enumerated seed word.

    ``x`` and ``y`` are half-word sequences; they pack into words, low half
    first.  The enumerated seed word sits at the first differing input
    word, and its low half takes the low bits of the enumeration counter;
    every other seed half-word is pinned to a salt-derived constant.
    """
    h = half_bits
    if len(x) != len(y) or len(x) % 2:
        raise ValueError("probe inputs must be equal even-length half-word sequences")

    def words(halves):
        return [lo | hi << h for lo, hi in zip(halves[0::2], halves[1::2])]

    x_words, y_words = words(x), words(y)
    target = next((i for i, (a, b) in enumerate(zip(x_words, y_words)) if a != b), None)
    if target is None:
        raise ValueError("inputs are identical; no differing pair to enumerate")
    full_mask = (1 << (2 * h)) - 1
    return _enumerate(
        words(_fixed_seeds(salt, len(x), h)),
        [target],
        2 * h,
        lambda seed: (nh_full(x_words, seed, h) - nh_full(y_words, seed, h)) & full_mask,
    )


def ehc_delta_distribution(
    params: HashParams, x, y, half_bits: int, salt: int = 0
) -> Counter:
    """Distribution of the ``ehc.compress_instance`` output difference
    vector over the seeds of the differing encoded positions (all other
    entropy pinned).  ``x`` and ``y`` are the instance's items as ints (see
    :mod:`halftimehash.ehc`), one word each."""
    h, k = half_bits, params.output_words
    full_bits = 2 * h
    full_mask = (1 << full_bits) - 1

    if params.item_blocks != 1 or params.block_words != 1:
        raise ValueError("exhaustive ehc probes use single-lane single-block items")
    ex = ehc_mod.encode(x, params.code, full_bits)
    ey = ehc_mod.encode(y, params.code, full_bits)
    differing = [i for i in range(params.encoded_items) if ex[i] != ey[i]]
    if len(differing) < k:
        raise ValueError("encodings differ in fewer than k positions")

    def diff(entropy):
        cx = ehc_mod.compress_instance(x, entropy, params, h)
        cy = ehc_mod.compress_instance(y, entropy, params, h)
        return tuple((cx[r][0] - cy[r][0]) & full_mask for r in range(k))

    entropy = _fixed_seeds(salt, params.entropy_words, full_bits)
    return _enumerate(entropy, differing[:k], full_bits, diff)


#: The toy leaf stage's fixed width-4 probe: its two instances and salt.
TOY_X, TOY_Y, TOY_SALT = (3, 5), (3, 9), 7


def toy_ehc_params(matrix_entries=((1, 0, 1), (0, 1, 1))) -> HashParams:
    """Single-lane k=2 leaf-stage geometry small enough to enumerate."""
    matrix = TransformMatrix(matrix_entries)
    measured_p = analysis.max_two_adic_valuation(matrix, 2)
    code = ErasureCode(2, min_distance=2, parity_rows=((1, 1),))
    return HashParams(matrix, code, 1, 1, 2, measured_p)


def verify_properties(quick: bool):
    """Yield (name, ok, detail) for every checked property.

    ``quick`` runs 10^4 code-distance trials instead of 10^6 and 10 NH
    probes instead of 100, and skips the leaf-stage probe.
    """
    for width, params in sorted(VARIANTS.items()):
        try:
            p = analysis.max_two_adic_valuation(params.matrix, params.output_words)
            ok = p == params.max_det_valuation
            detail = f"measured 2^{p}, stored 2^{params.max_det_valuation}"
        except analysis.SingularSubsetError as exc:
            ok, detail = False, str(exc)
        yield f"matrix-valuation-{width}", ok, detail

    trials = 10**4 if quick else 10**6
    for width, params in sorted(VARIANTS.items()):
        try:
            dist = analysis.verify_min_distance(params.code, trials=trials)
            ok = dist >= params.output_words
            detail = f"measured distance {dist}, need >= {params.output_words}"
        except analysis.CodeDistanceError as exc:
            ok, detail = False, str(exc)
        yield f"code-distance-{width}", ok, detail

    rng = np.random.default_rng(0xA11CE)
    probes = 10 if quick else 100
    bound = 2.0**-4
    worst = 0.0
    for _ in range(probes):
        x = tuple(int(v) for v in rng.integers(0, 16, size=4))
        y = tuple(int(v) for v in rng.integers(0, 16, size=4))
        if x == y:
            y = (y[0] ^ 1,) + y[1:]
        salt = int(rng.integers(1 << 32))
        worst = max(worst, worst_probability(nh_delta_distribution(x, y, 4, salt=salt)))
    yield "nh-delta-universality-w4", worst <= bound, f"max {worst:.6f} vs bound {bound:.6f}"

    if not quick:
        toy = toy_ehc_params()
        worst = worst_probability(ehc_delta_distribution(toy, TOY_X, TOY_Y, 4, salt=TOY_SALT))
        b = 2.0 ** -analysis.ehc_bound(toy, 4)
        yield "ehc-delta-universality-w4", worst <= b, f"max {worst:.6f} vs bound {b:.6f}"
