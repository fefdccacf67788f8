"""Independent reference implementations used as test oracles.

Everything here is written directly from the defining formulas, favoring
obviousness over speed, and deliberately shares no code with the package.
"""

from __future__ import annotations


def halves(words, half_bits):
    """The half-word sequence of ``words``, low half first."""
    mask = (1 << half_bits) - 1
    return [v for word in words for v in (word & mask, word >> half_bits & mask)]


def nh_direct(data, seed, half_bits):
    """Sum of (d2i + s2i)(d2i+1 + s2i+1): inner adds mod 2^half, rest mod 2^full."""
    half = 1 << half_bits
    full = 1 << (2 * half_bits)
    total = 0
    for i in range(0, len(data), 2):
        a = (data[i] + seed[i]) % half
        b = (data[i + 1] + seed[i + 1]) % half
        total = (total + a * b) % full
    return total


def nh_tree_node_direct(data, seed, half_bits):
    """Tree-node variant: last pair contributes d[2m] + 2^half * d[2m+1]."""
    half = 1 << half_bits
    full = 1 << (2 * half_bits)
    m = len(data) // 2 - 1
    total = nh_direct(data[: 2 * m], seed[: 2 * m], half_bits)
    return (total + data[2 * m] + half * data[2 * m + 1]) % full


def combine_direct(hashed, matrix_rows, width):
    """Naive big-integer matrix multiply, reduced mod 2^width at the end."""
    full = 1 << width
    lanes = len(hashed[0])
    out = []
    for row in matrix_rows:
        lane_vals = []
        for j in range(lanes):
            total = sum(coeff * block[j] for coeff, block in zip(row, hashed))
            lane_vals.append(total % full)
        out.append(tuple(lane_vals))
    return out


def det_cofactor(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for c in range(n):
        if rows[0][c] == 0:
            continue
        minor = [row[:c] + row[c + 1 :] for row in rows[1:]]
        total += (-1) ** c * rows[0][c] * det_cofactor(minor)
    return total


def carter_wegman_tree(blocks, level_seeds, level, node, half_bits, fanout):
    """Eq.-1-style full fanout-ary tree over exactly fanout**level blocks;
    the nodes at height j are keyed by seed words [(j-1)(f-1), j(f-1))."""
    if level == 0:
        return blocks[0]
    span = fanout ** (level - 1)
    children = [
        carter_wegman_tree(
            blocks[j * span : (j + 1) * span], level_seeds, level - 1, node, half_bits, fanout
        )
        for j in range(fanout)
    ]
    keys = level_seeds[(level - 1) * (fanout - 1) : level * (fanout - 1)]
    return node(children, keys, half_bits)


def fary_stack(blocks, level_seeds, node, half_bits, fanout):
    """Front-aligned base-fanout decomposition: level i holds digit i of
    len(blocks) full-subtree hashes of fanout**i blocks each, the subtrees
    laid out from the most significant digit down.  No blocks, no levels."""
    n = len(blocks)
    digits = []
    while n:
        digits.append(n % fanout)
        n //= fanout
    levels = [[] for _ in digits]
    pos = 0
    for level in range(len(digits) - 1, -1, -1):
        span = fanout**level
        for _ in range(digits[level]):
            levels[level].append(
                carter_wegman_tree(
                    blocks[pos : pos + span], level_seeds, level, node, half_bits, fanout
                )
            )
            pos += span
    return levels


def splitmix_stream(fold, count):
    """state += golden gamma; emit the standard splitmix finalizer of state."""
    mask = (1 << 64) - 1
    state = fold
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def gf16_mul_direct(a, b):
    """Carry-less 4-bit multiply reduced by x^4 + x + 1."""
    prod = 0
    for i in range(4):
        if a >> i & 1:
            prod ^= b << i
    for bit in range(7, 3, -1):
        if prod >> bit & 1:
            prod ^= (0b10011) << (bit - 4)
    return prod
