"""Ratchets on assert statements and tolerance literals in the package.

python -O strips assert statements, so a check written as one vanishes from
optimized runs.  Each module may hold at most the count listed here; the
limits only go down as the remaining asserts become explicit raises.

Tolerances written inline as float literals in (0, 1e-5] are counted the
same way: the certificate thresholds live in the `tolerance` table, and the
other modules keep only the local guards of their constructors.

The n x n Gram and angle matrices are formed only where a dense analysis
needs every entry at once.  The row-block routes read the upper triangle from
`_triangle_blocks` (the degree-set pass, `verify_mub` and `export angles`) or
full rows from `_angle_rows` (the class labels and the idempotent fill of
`schemes`) instead.
"""

import ast
from pathlib import Path

import linekit

ASSERT_LIMITS = {"jacobi": 0, "linesets": 0, "mubs": 0, "sics": 0}
#: (module, function) allowed to call .gram() or .angle_matrix(); angle_matrix
#: is the accessor itself, defined from gram
GRAM_CALLERS = {("linesets", "angle_matrix"), ("linesets", "phase_align_for_doubling"),
                ("schemes", "seidel_analysis")}
TOLERANCE_LIMITS = {"groupcodes": 3, "linesets": 3, "mubs": 4, "schemes": 0, "sics": 5,
                    "tolerance": 3}


def _module_trees():
    for path in sorted(Path(linekit.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _is_tolerance(node):
    return isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value <= 1e-5


def test_assert_count_within_limits():
    over = {}
    for stem, tree in _module_trees():
        count = sum(isinstance(node, ast.Assert) for node in ast.walk(tree))
        if count > ASSERT_LIMITS.get(stem, 0):
            over[stem] = count
    assert not over, f"modules over their assert limit: {over}"


def test_tolerance_literal_count_within_limits():
    over = {}
    for stem, tree in _module_trees():
        count = sum(map(_is_tolerance, ast.walk(tree)))
        if count > TOLERANCE_LIMITS.get(stem, 0):
            over[stem] = count
    assert not over, f"modules over their tolerance-literal limit: {over}"


def _gram_calls(tree):
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr in ("gram", "angle_matrix") for node in ast.walk(tree))


def test_only_the_dense_analyses_form_the_gram_matrix():
    stray = {}
    for stem, tree in _module_trees():
        allowed = sum(_gram_calls(node) for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and (stem, node.name) in GRAM_CALLERS)
        if _gram_calls(tree) > allowed:
            stray[stem] = _gram_calls(tree) - allowed
    assert not stray, f"calls of .gram() or .angle_matrix() outside {sorted(GRAM_CALLERS)}: {stray}"
