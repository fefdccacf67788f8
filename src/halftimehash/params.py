"""Published variant parameterizations: combine matrices, erasure codes,
the block/lane geometry shared by all four output widths,
``horner_schedule``, which every encoder and combine runs on, and
``horner_plan``, which steps all rows of a matrix on it together.

Everything here is immutable after import and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import gf16

MASK64 = (1 << 64) - 1


@cache
def horner_schedule(row: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Horner form of ``sum(c * t)`` over ``row``: one entry per coefficient
    bit, from the top bit down, holding the indices of the terms whose
    coefficient has that bit.  From zero, each entry multiplies the sum by
    x (a doubling, or a GF(16) x-step) and then adds its terms."""
    top = max(row, default=0).bit_length()
    return tuple(
        tuple(i for i, c in enumerate(row) if c >> bit & 1) for bit in reversed(range(top))
    )


@cache
def horner_plan(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All ``rows`` on one level-synchronous Horner schedule: entry ``h``
    holds, for each row, the terms it adds at level ``h``.  Each row's
    ``horner_schedule`` is left-padded with empty levels to the tallest
    row's height, so one x-step of the whole output block per level serves
    every row."""
    schedules = [horner_schedule(row) for row in rows]
    height = max(map(len, schedules), default=0)
    return tuple(zip(*[((),) * (height - len(schedule)) + schedule for schedule in schedules]))


@dataclass(frozen=True)
class TransformMatrix:
    """The combine matrix: ``rows`` output blocks from ``cols`` hashed blocks.
    Its rows are stored as tuples, the key of the ``horner_plan`` cache."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        widths = {len(row) for row in self.entries}
        if len(widths) != 1:
            raise ValueError("ragged matrix")
        # horner_schedule would read a negative entry's bits as all ones
        if not all(isinstance(v, int) and 0 <= v < 16 for row in self.entries for v in row):
            raise ValueError("matrix entries must be ints in 0..15")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def column_subset(self, cols: tuple[int, ...]) -> list[list[int]]:
        return [[row[c] for c in cols] for row in self.entries]


@dataclass(frozen=True)
class ErasureCode:
    """Systematic symbol-level encoder with a declared minimum distance.

    The first ``arity_in`` output symbols are the inputs verbatim; each row
    of ``parity_rows`` adds a parity symbol, the XOR of the inputs scaled
    lane-wise by its GF(16) coefficients, so ``arity_out`` is ``arity_in +
    len(parity_rows)``.  A row of all ones is plain XOR parity.

    ``min_distance`` is a declaration, not a proof: codes are accepted only
    after :func:`halftimehash.analysis.verify_min_distance` confirms it.
    """

    arity_in: int
    min_distance: int
    parity_rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "parity_rows", tuple(map(tuple, self.parity_rows)))
        for row in self.parity_rows:
            if len(row) != self.arity_in:
                raise ValueError("parity row width must equal arity_in")
            if not all(isinstance(c, int) and 0 <= c < 16 for c in row):
                raise ValueError("parity coefficients must be GF(16) elements")

    @property
    def arity_out(self) -> int:
        return self.arity_in + len(self.parity_rows)


def _xor_parity_code(arity_in: int) -> ErasureCode:
    return ErasureCode(arity_in, min_distance=2, parity_rows=((1,) * arity_in,))


def _cauchy_code(arity_in: int, parities: int) -> ErasureCode:
    # Cauchy parity block over GF(16): entry (j, i) = 1 / (u_j + v_i) with
    # u_j = j and v_i = parities + i, all distinct, so every square
    # submatrix is nonsingular and the systematic code is MDS with
    # minimum distance parities + 1.
    rows = tuple(
        tuple(gf16.inv(j ^ (parities + i)) for i in range(arity_in))
        for j in range(parities)
    )
    return ErasureCode(arity_in, min_distance=parities + 1, parity_rows=rows)


@dataclass(frozen=True)
class HashParams:
    """One output-width variant, validated.

    The combine matrix fixes ``output_words`` (its k rows, the digest length
    in 64-bit words) and ``encoded_items`` (its e columns); a leaf
    compression consumes ``instance_items = e + 1 - k`` symbols, the code's
    ``arity_in``.  The other inputs are ``item_blocks`` blocks per symbol,
    ``block_words`` 64-bit lanes per block, ``fanout`` blocks per tree node,
    and ``max_det_valuation`` the exponent of the largest power of two
    dividing any k-column determinant of the combine matrix.
    """

    matrix: TransformMatrix
    code: ErasureCode
    item_blocks: int
    block_words: int
    fanout: int
    max_det_valuation: int

    def __post_init__(self):
        geometry = (self.item_blocks, self.block_words, self.fanout, self.max_det_valuation)
        if not all(isinstance(v, int) for v in geometry):
            raise ValueError("item_blocks, block_words, fanout and max_det_valuation must be ints")
        if self.item_blocks < 1 or self.block_words < 1:
            raise ValueError("item_blocks and block_words must be at least 1")
        if self.fanout < 2:
            raise ValueError("fanout must be at least 2")
        k, e = self.output_words, self.encoded_items
        if (self.code.arity_in, self.code.arity_out) != (e + 1 - k, e):
            raise ValueError("erasure code arity mismatch")
        if self.code.min_distance < k:
            raise ValueError("erasure code distance below output_words")

    @property
    def output_words(self) -> int:
        return self.matrix.rows

    @property
    def output_bytes(self) -> int:
        return 8 * self.output_words

    @property
    def encoded_items(self) -> int:
        return self.matrix.cols

    @property
    def instance_items(self) -> int:
        return self.code.arity_in

    @property
    def instance_blocks(self) -> int:
        return self.instance_items * self.item_blocks

    @property
    def instance_words(self) -> int:
        return self.instance_blocks * self.block_words

    @property
    def entropy_words(self) -> int:
        """64-bit seed words consumed by one leaf compression."""
        return self.encoded_items * self.item_blocks


_MATRIX_16 = TransformMatrix((
    (1, 0, 1, 1, 2, 1, 4),
    (0, 1, 1, 2, 1, 4, 1),
))

_MATRIX_24 = TransformMatrix((
    (0, 0, 1, 4, 1, 1, 2, 2, 1),
    (1, 1, 0, 0, 1, 4, 1, 2, 2),
    (1, 4, 1, 1, 0, 0, 2, 1, 2),
))

_MATRIX_32 = TransformMatrix((
    (0, 0, 0, 1, 1, 4, 2, 4, 1, 1),
    (0, 1, 2, 0, 0, 1, 1, 2, 4, 1),
    (2, 0, 1, 0, 4, 0, 1, 1, 1, 1),
    (1, 1, 0, 1, 0, 0, 4, 1, 2, 8),
))

_MATRIX_40 = TransformMatrix((
    (1, 0, 0, 0, 0, 1, 1, 2, 4),
    (0, 1, 0, 0, 0, 1, 2, 1, 7),
    (0, 0, 1, 0, 0, 1, 3, 8, 5),
    (0, 0, 0, 1, 0, 1, 4, 9, 8),
    (0, 0, 0, 0, 1, 1, 5, 3, 9),
))

# Variant geometry.  Only the matrix shape is forced by the digest width;
# block_words=8 and fanout=8 are uniform lane geometry, and item_blocks is
# 2 for the 16-byte variant and 3 otherwise.  The analysis module treats
# all three as free inputs, so changing them never invalidates the
# verification suite.
#
#   bytes  k  e   d  w  b  f  p
#   16     2  7   6  2  8  8  2
#   24     3  9   7  3  8  8  2
#   32     4  10  7  3  8  8  3
#   40     5  9   5  3  8  8  3
VARIANTS: dict[int, HashParams] = {
    16: HashParams(_MATRIX_16, _xor_parity_code(6), 2, 8, 8, 2),
    24: HashParams(_MATRIX_24, _cauchy_code(7, 2), 3, 8, 8, 2),
    32: HashParams(_MATRIX_32, _cauchy_code(7, 3), 3, 8, 8, 3),
    40: HashParams(_MATRIX_40, _cauchy_code(5, 4), 3, 8, 8, 3),
}


def variant(output_bytes: int) -> HashParams:
    """Return the validated parameter set for a 16/24/32/40-byte digest."""
    try:
        return VARIANTS[output_bytes]
    except KeyError:
        raise ValueError(
            f"unsupported output width {output_bytes!r}; choose one of 16, 24, 32, 40"
        ) from None
