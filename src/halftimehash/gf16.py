"""GF(16) arithmetic applied lane-wise across machine words.

A word of ``width`` bits is treated as ``width // 4`` independent field
elements: element ``j`` stores its coefficient for x^c at bit
``j + c * (width // 4)``.  Reduction is by x^4 + x + 1.  Every map is a
fixed sequence of shifts and XORs, so the identical code path serves 4-bit
verification symbols and full 64-bit words (where one word behaves as 16
parallel GF(16) elements).

Functions accept plain integers or numpy uint64 arrays; the width mask
follows from ``width``.  ``xtime`` also steps several words side by side in
one integer, as a scalar encoder item holds them.
"""

from __future__ import annotations

from functools import cache


@cache
def _lane_masks(width: int, lanes: int) -> tuple[int, int]:
    """``xtime``'s masks for ``lanes`` words of ``width`` bits packed side by
    side, word ``l`` at bits ``[l * width, (l + 1) * width)``: the low
    quarter of every word, and every word's bits above it."""
    stride = width >> 2
    low = (1 << stride) - 1
    high = ((1 << width) - 1) ^ low
    low_all = high_all = 0
    for _ in range(lanes):
        low_all = low_all << width | low
        high_all = high_all << width | high
    return low_all, high_all


def xtime(value, width: int, lanes: int = 1):
    """Multiply every lane by x, reducing by x^4 + x + 1.

    ``value`` holds ``lanes`` words of ``width`` bits side by side (see
    :func:`_lane_masks`), so one call steps a whole packed item."""
    stride = width >> 2
    low, high = _lane_masks(width, lanes)
    top = (value >> 3 * stride) & low
    return ((value << stride) & high) ^ top ^ (top << stride)


def xtime_inplace(value):
    """``xtime`` on an unsigned numpy array, in place, at the array's own
    word width.  The left shift drops exactly the bits ``xtime``'s mask
    clears, so there is no mask pass.  Returns ``value``."""
    stride = value.dtype.itemsize * 2
    top = value >> (3 * stride)
    value <<= stride
    value ^= top
    top <<= stride
    value ^= top
    return value


def scale(coeff: int, value, width: int):
    """Multiply every lane by the constant field element ``coeff`` (0..15).

    The definition the encoders are tested against; they run the same
    product as a Horner sum on ``params.horner_schedule``."""
    acc = value & 0  # zero of the same type (int or ndarray)
    term = value
    for bit in range(4):
        if coeff >> bit & 1:
            acc = acc ^ term
        term = xtime(term, width)
    return acc


#: Multiplicative inverses of the 4-bit symbols; 0 has none.
INV = [0] + [next(b for b in range(1, 16) if scale(a, b, 4) == 1) for a in range(1, 16)]


def inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(16)")
    return INV[a]
