import ast
import inspect
import textwrap

import pytest

from halftimehash import ehc, gf16, hasher, params

# The paper's encode multiplies by GF(16) constants with shifts and XORs,
# and its combine by matrix constants with shifts and adds only; these
# functions run them.
ENCODE_AND_COMBINE_FUNCTIONS = [
    ehc.encode,
    ehc._pack,
    ehc._split,
    hasher._encode_np,
    gf16._lane_masks,
    gf16.xtime,
    gf16.xtime_inplace,
    ehc.combine,
    hasher._combine_np,
    hasher._run_plan,
    hasher._double,
    params.horner_schedule,
    params.horner_plan,
]

MULTIPLYING_CALLS = {"multiply", "einsum", "dot", "matmul", "prod"}


def _is_literal(node: ast.AST) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _multiplications(source: str) -> list[str]:
    """Every ``*`` or ``*=`` between two non-literal operands, and every
    call of a numpy multiplying routine, in ``source``."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
            operands = (node.target, node.value)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in MULTIPLYING_CALLS:
                found.append(ast.unparse(node))
            continue
        else:
            continue
        if not any(map(_is_literal, operands)):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("fn", ENCODE_AND_COMBINE_FUNCTIONS, ids=lambda fn: fn.__qualname__)
def test_encode_and_combine_have_no_multiplier(fn):
    assert _multiplications(inspect.getsource(fn)) == []


def test_guard_flags_a_plain_coefficient_multiply():
    # The guard has to catch the combine written as a multiply: each of
    # these lines alone would make test_encode_and_combine_have_no_multiplier fail.
    for line in [
        "out[..., r, :, :] += hashed[..., c, :, :] * np.uint64(coeff)",
        "acc *= coeff",
        "np.multiply(acc, coeff, out=acc)",
        "out = np.einsum('ij,j...->i...', matrix, hashed)",
        "acc = hashed.dot(row)",
    ]:
        assert _multiplications(line), line
    assert _multiplications("mask = (1 << 2 * half_bits) - 1") == []
    assert _multiplications("acc = [0] * lanes") == []
