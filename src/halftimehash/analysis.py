"""Computational verification of the algebraic preconditions and the
entropy / seed-size / multiplication-count formulas.

Nothing here is needed on the hashing hot path; this module exists so that
every mathematical property the hash family relies on is machine-checked:
exact 2-adic valuations of the combine matrices, exhaustive minimum-distance
measurement of the erasure codes at reduced symbol width, the closed
forms for collision probability and multiplication count, and the seed
budget as the hasher lays it out.  ``report_items`` is the one rendering
of an ``EntropyReport`` that ``halftimehash analyze`` prints.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from . import ehc, tree
from .hasher import KEY_BITS, seed_layout, seed_words_for_levels
from .params import ErasureCode, HashParams, TransformMatrix


class SingularSubsetError(ValueError):
    """Some k-column subset of the combine matrix has determinant zero."""


class CodeDistanceError(ValueError):
    """A code's measured minimum distance fell below its declaration."""


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def two_adic_valuation(n: int) -> int:
    if n == 0:
        raise ValueError("0 has unbounded 2-adic valuation")
    return (abs(n) & -abs(n)).bit_length() - 1


def max_two_adic_valuation(matrix: TransformMatrix, k: int) -> int:
    """Largest power of two dividing any k-column determinant (exponent).

    Raises :class:`SingularSubsetError` if any subset is singular, i.e. the
    matrix fails the any-k-columns-independent requirement.
    """
    if matrix.rows != k:
        raise ValueError("k must equal the matrix row count")
    best = 0
    for cols in combinations(range(matrix.cols), k):
        det = det_bareiss(matrix.column_subset(cols))
        if det == 0:
            raise SingularSubsetError(f"columns {cols} are linearly dependent")
        best = max(best, two_adic_valuation(det))
    return best


#: Most rows of one support size's symbol grid in the exhaustive distance
#: search; the shipped codes need at most 15^4, at v40.
_GRID_ROW_LIMIT = 15**5


def _exhaustive_min_distance(code: ErasureCode) -> int:
    """Exact minimum codeword weight over 4-bit symbols, one GF(16)
    element each.

    Enumerates inputs by support size s; a codeword with s nonzero input
    symbols already has weight >= s in the systematic positions, so the
    search stops once s reaches the best weight found.  This covers every
    nonzero input difference (the code is linear).
    """
    d = code.arity_in
    # Any one-symbol input weighs at most 1 + parities, so no support size
    # past min(d, parities) is searched; refuse a code whose widest grid
    # would not fit in memory before building any (15^6 rows take ~1 GB).
    widest = min(d, len(code.parity_rows))
    if 15**widest > _GRID_ROW_LIMIT:
        raise ValueError(
            f"support size {widest} needs 15^{widest} grid rows, over the 15^5 limit"
        )
    nonzero = np.arange(1, 16, dtype=np.uint64)
    best = d + len(code.parity_rows) + 1
    s = 1
    while s <= d and s < best:
        grids = np.meshgrid(*([nonzero] * s), indexing="ij")
        vals = np.stack([g.ravel() for g in grids], axis=1)  # (combos, s)
        for support in combinations(range(d), s):
            # Off-support positions are the int 0, which ehc.encode's
            # in-place XOR accepts beside numpy columns.
            symbols = [0] * d
            for idx, pos in enumerate(support):
                symbols[pos] = vals[:, idx]
            weights = np.full(len(vals), s, dtype=np.int64)
            for parity in ehc.encode(symbols, code, 4)[d:]:
                weights += parity != 0
            best = min(best, int(weights.min()))
        s += 1
    return best


def _random_trial_min_distance(code: ErasureCode, trials: int) -> int:
    """Minimum observed symbol distance between random full-width pairs."""
    rng = np.random.default_rng(0x5EED)
    d = code.arity_in
    best = code.arity_out + 1
    remaining = trials
    while remaining > 0:
        n = min(remaining, 1 << 18)
        remaining -= n
        x = rng.integers(0, 1 << 64, size=(n, d), dtype=np.uint64)
        y = rng.integers(0, 1 << 64, size=(n, d), dtype=np.uint64)
        same = np.all(x == y, axis=1)
        if same.any():
            y[same, 0] ^= np.uint64(1)
        ex = ehc.encode([x[:, i] for i in range(d)], code, 64)
        ey = ehc.encode([y[:, i] for i in range(d)], code, 64)
        dist = np.zeros(n, dtype=np.int64)
        for a, b in zip(ex, ey):
            dist += a != b
        best = min(best, int(dist.min()))
    return best


def verify_min_distance(code: ErasureCode, trials: int = 10**6) -> int:
    """Measure the code's minimum distance and gate it against the declaration.

    Exhaustive over 4-bit symbols, one GF(16) element each, plus ``trials``
    random full-width pairs as a cross-check.  The exhaustive measurement
    is exact at full width because the construction applies the same
    GF(16) maps to independent 4-bit lanes, 16 to a 64-bit word, so a
    full-width word is a direct sum of 4-bit copies; the tests check that
    lane identity on ``ehc.encode`` itself.  Both measurements encode
    through :func:`halftimehash.ehc.encode`.  Raises
    :class:`CodeDistanceError` if the measured distance is below
    ``code.min_distance``, and ``ValueError`` for a code too wide to
    enumerate.
    """
    if code.arity_in > 7:
        raise ValueError("too many inputs for exhaustive 4-bit enumeration")
    measured = _exhaustive_min_distance(code)
    if trials:
        measured = min(measured, _random_trial_min_distance(code, trials))
    if measured < code.min_distance:
        raise CodeDistanceError(
            f"measured distance {measured} below declared {code.min_distance}"
        )
    return measured


@dataclass(frozen=True)
class EntropyReport:
    """Entropy, seed-budget, and multiplication accounting for one length.

    ``tree_height`` is the ceiling reading used by the shipped reports;
    the floor reading is carried alongside for comparison.  ``seed_words``
    and ``seed_bytes`` are what hashing this length demands
    (:func:`halftimehash.hasher.seed_layout`).  ``seed_words_paper`` is
    the paper's budget at the ceiling height, with at least the one level
    the finalize always keys; it falls short of the demand where the stack
    keeps one level more, as at exact powers of the fanout.  The
    ``multiplications`` field is the closed-form leading term; the exact
    structural count appears in ``multiplications_exact`` with the
    logarithmic remainder in ``multiplications_log_term``.  Every seed
    word derives from a ``key_bits``-bit key, so no bound below
    2^-key_bits holds for every pair of inputs: ``epsilon_log2_keyed``
    caps the formula's figure there.
    """

    output_bytes: int
    n_bytes: int
    tree_height: int
    tree_height_floor: int
    epsilon_log2: float
    key_bits: int
    epsilon_log2_keyed: float
    seed_words: int
    seed_bytes: int
    seed_words_paper: int
    multiplications: int
    multiplications_exact: int
    multiplications_log_term: int


def entropy_report(params: HashParams, n_bytes: int) -> EntropyReport:
    """Evaluate the collision-probability, seed and cost formulas at a length."""
    if n_bytes < 1:
        raise ValueError(f"input length must be positive, got {n_bytes}")
    k, b, f = params.output_words, params.block_words, params.fanout
    p = params.max_det_valuation
    layout = seed_layout(params, n_bytes)
    n_inst = layout.instances
    h = tree.tree_height(n_inst, f)
    h_floor = max(layout.levels - 1, 0)

    epsilon_scale = (1 << (k * p)) + h**k + 1
    epsilon_log2 = 32.0 * k - math.log2(epsilon_scale)

    leading = (params.entropy_words + k) * b * n_inst
    ehc_mults = params.entropy_words * b * n_inst
    tree_mults = k * (f - 1) * b * tree.node_executions(n_inst, f)
    exact = ehc_mults + tree_mults + k * layout.finalize_words + k * layout.tail_words

    return EntropyReport(
        output_bytes=params.output_bytes,
        n_bytes=n_bytes,
        tree_height=h,
        tree_height_floor=h_floor,
        epsilon_log2=epsilon_log2,
        key_bits=KEY_BITS,
        epsilon_log2_keyed=float(min(epsilon_log2, KEY_BITS)),
        seed_words=layout.total_words,
        seed_bytes=8 * layout.total_words,
        seed_words_paper=seed_words_for_levels(params, max(h, 1)),
        multiplications=leading,
        multiplications_exact=exact,
        multiplications_log_term=exact - leading,
    )


def ehc_bound(params: HashParams, width: int = 32) -> int:
    """Output-entropy bits guaranteed by the leaf stage at a half-word width.

    The leaf compression is 2^(k*(p - width))-almost-delta-universal, so the
    bound is ``k * (width - p)`` bits.
    """
    return params.output_words * (width - params.max_det_valuation)


def report_items(report: EntropyReport) -> list[tuple[str, str]]:
    """``(name, text)`` for every field in declaration order but
    ``multiplications_exact``; floats show two places."""
    values = asdict(report)
    del values["multiplications_exact"]
    return [(name, f"{v:.2f}" if isinstance(v, float) else str(v)) for name, v in values.items()]
