"""GF(16) arithmetic applied lane-wise across machine words.

A word of ``width`` bits is treated as ``width // 4`` independent field
elements: element ``j`` stores its coefficient for x^c at bit
``j + c * (width // 4)``.  Reduction is by x^4 + x + 1.  Every map is a
fixed sequence of shifts and XORs, so the identical code path serves 4-bit
verification symbols and full 64-bit words (where one word behaves as 16
parallel GF(16) elements).

Functions accept plain integers or numpy uint64 arrays; the width mask
follows from ``width``.
"""

from __future__ import annotations


def xtime(value, width: int):
    """Multiply every lane by x, reducing by x^4 + x + 1."""
    stride = width >> 2
    top = value >> (3 * stride)
    return ((value << stride) & ((1 << width) - 1)) ^ top ^ (top << stride)


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
