import ast
from pathlib import Path

import reference


def test_reference_imports_nothing_from_the_package():
    # The oracles are only independent if they share no code with what
    # they check.
    tree = ast.parse(Path(reference.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module)
    assert not [m for m in imported if m.split(".")[0] == "halftimehash"]
