"""A ratchet on assert statements in the package.

python -O strips assert statements, so a check written as one vanishes from
optimized runs.  Each module may hold at most the count listed here; the
limits only go down as the remaining asserts become explicit raises.
"""

import ast
from pathlib import Path

import linekit

ASSERT_LIMITS = {"jacobi": 0, "linesets": 0, "mubs": 0, "sics": 0}


def test_assert_count_within_limits():
    over = {}
    for path in sorted(Path(linekit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        count = sum(isinstance(node, ast.Assert) for node in ast.walk(tree))
        if count > ASSERT_LIMITS.get(path.stem, 0):
            over[path.stem] = count
    assert not over, f"modules over their assert limit: {over}"
