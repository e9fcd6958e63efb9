"""Source-wide rules: the package is exact, and no check hides in an assert.

Every module under src/homnambu is parsed, not imported, so a rule breach
fails here whether or not a test reaches the line.  No float literal, no
float(...) call and no math import keep every verdict exact; no assert
statement keeps every check alive under python -O.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "homnambu"
MODULES = sorted(SRC.glob("*.py"))


def breaches(tree) -> list:
    """(line, what) for every forbidden node in tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append((node.lineno, "assert statement"))
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            out.append((node.lineno, f"float literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            out.append((node.lineno, "float(...) call"))
        elif isinstance(node, ast.Import) and any(
                alias.name == "math" for alias in node.names):
            out.append((node.lineno, "import math"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out.append((node.lineno, "from math import"))
    return out


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cohomology.py", "linalg.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_float_no_math_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert breaches(tree) == [], path.name


def test_rules_catch_each_breach():
    code = ("import math\nfrom math import sqrt\nx = 1.5\ny = float(2)\n"
            "assert x\n")
    assert sorted(breaches(ast.parse(code))) == [
        (1, "import math"), (2, "from math import"), (3, "float literal 1.5"),
        (4, "float(...) call"), (5, "assert statement")]
