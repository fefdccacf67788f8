"""Published variant parameterizations: combine matrices, erasure codes,
and the block/lane geometry shared by all four output widths.

Everything here is immutable after import and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf16

MASK64 = (1 << 64) - 1

#: Coefficient -> shift/add recipe.  Every combine-matrix entry is
#: multipliable with at most two shifts and one addition or subtraction.
_SHIFT_ADD = {
    0: lambda x, m: x & 0,
    1: lambda x, m: x,
    2: lambda x, m: (x << 1) & m,
    3: lambda x, m: ((x << 1) + x) & m,
    4: lambda x, m: (x << 2) & m,
    5: lambda x, m: ((x << 2) + x) & m,
    7: lambda x, m: ((x << 3) - x) & m,
    8: lambda x, m: (x << 3) & m,
    9: lambda x, m: ((x << 3) + x) & m,
}

SUPPORTED_COEFFICIENTS = frozenset(_SHIFT_ADD)


def coefficient_multiply(coeff: int, x, width: int = 64):
    """Multiply ``x`` by a small matrix coefficient, mod ``2**width``.

    Uses the shift/add decomposition; bit-identical to generic modular
    multiplication for every supported coefficient.  Works on plain ints
    and numpy uint64 arrays alike.
    """
    try:
        op = _SHIFT_ADD[coeff]
    except KeyError:
        raise ValueError(f"coefficient {coeff} has no shift/add form") from None
    return op(x, (1 << width) - 1 if width < 64 else MASK64)


@dataclass(frozen=True)
class TransformMatrix:
    """The combine matrix: ``rows`` output blocks from ``cols`` hashed blocks."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) != 1:
            raise ValueError("ragged matrix")
        bad = {v for row in self.entries for v in row} - SUPPORTED_COEFFICIENTS
        if bad:
            raise ValueError(f"entries without a shift/add form: {sorted(bad)}")

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

    The first ``arity_in`` output symbols are the inputs verbatim; each of
    the ``arity_out - arity_in`` parity symbols is an XOR of the inputs
    scaled lane-wise by fixed GF(16) coefficients (``parity_rows``).  The
    ``all coefficients == 1`` case degenerates to plain XOR parity.

    ``min_distance`` is a declaration, not a proof: codes are accepted only
    after :func:`halftimehash.analysis.verify_min_distance` confirms it.
    """

    arity_in: int
    arity_out: int
    min_distance: int
    kind: str  # "xor-parity" | "repo-defined-linear"
    parity_rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.parity_rows) != self.arity_out - self.arity_in:
            raise ValueError("parity row count must equal arity_out - arity_in")
        for row in self.parity_rows:
            if len(row) != self.arity_in:
                raise ValueError("parity row width must equal arity_in")
            if not all(0 <= c < 16 for c in row):
                raise ValueError("parity coefficients must be GF(16) elements")


def _xor_parity_code(arity_in: int) -> ErasureCode:
    return ErasureCode(
        arity_in=arity_in,
        arity_out=arity_in + 1,
        min_distance=2,
        kind="xor-parity",
        parity_rows=((1,) * arity_in,),
    )


def _cauchy_code(arity_in: int, parities: int) -> ErasureCode:
    # Cauchy parity block over GF(16): entry (j, i) = 1 / (u_j + v_i) with
    # u_j = j and v_i = parities + i, all distinct, so every square
    # submatrix is nonsingular and the systematic code is MDS with
    # minimum distance parities + 1.
    rows = tuple(
        tuple(gf16.inv(j ^ (parities + i)) for i in range(arity_in))
        for j in range(parities)
    )
    return ErasureCode(
        arity_in=arity_in,
        arity_out=arity_in + parities,
        min_distance=parities + 1,
        kind="repo-defined-linear",
        parity_rows=rows,
    )


@dataclass(frozen=True)
class HashParams:
    """One output-width variant, fully populated and validated.

    Counts: ``item_blocks`` blocks per erasure-code symbol,
    ``instance_items`` symbols consumed per leaf compression,
    ``encoded_items`` symbols after encoding, ``output_words`` combined
    output blocks (also the code's minimum distance and the digest length
    in 64-bit words), ``block_words`` 64-bit lanes per block, ``fanout``
    blocks consumed per tree node, and ``max_det_valuation`` the largest
    power of two dividing any ``output_words``-column determinant of the
    combine matrix (stored as the exponent).
    """

    output_bytes: int
    output_words: int
    encoded_items: int
    instance_items: int
    item_blocks: int
    block_words: int
    fanout: int
    max_det_valuation: int
    matrix: TransformMatrix
    code: ErasureCode

    def __post_init__(self):
        k, e, d = self.output_words, self.encoded_items, self.instance_items
        if self.output_bytes != 8 * k:
            raise ValueError("output_bytes must be 8 * output_words")
        if d != e + 1 - k:
            raise ValueError("instance_items must equal encoded_items + 1 - output_words")
        if (self.matrix.rows, self.matrix.cols) != (k, e):
            raise ValueError("combine matrix shape mismatch")
        if (self.code.arity_in, self.code.arity_out) != (d, e):
            raise ValueError("erasure code arity mismatch")
        if self.code.min_distance < k:
            raise ValueError("erasure code distance below output_words")

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
    16: HashParams(16, 2, 7, 6, 2, 8, 8, 2, _MATRIX_16, _xor_parity_code(6)),
    24: HashParams(24, 3, 9, 7, 3, 8, 8, 2, _MATRIX_24, _cauchy_code(7, 2)),
    32: HashParams(32, 4, 10, 7, 3, 8, 8, 3, _MATRIX_32, _cauchy_code(7, 3)),
    40: HashParams(40, 5, 9, 5, 3, 8, 8, 3, _MATRIX_40, _cauchy_code(5, 4)),
}


def variant(output_bytes: int) -> HashParams:
    """Return the validated parameter set for a 16/24/32/40-byte digest."""
    try:
        return VARIANTS[output_bytes]
    except KeyError:
        raise ValueError(
            f"unsupported output width {output_bytes!r}; choose one of 16, 24, 32, 40"
        ) from None
