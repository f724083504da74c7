"""The line counts of `scripts/code_lines.py` on a synthetic module."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import math


class A:
    """Class docstring."""

    def f(self, x):
        """One line."""
        s = """a string that
        is not a docstring"""
        return math.prod(
            [x, len(s)]  # a trailing comment
        )
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, class, def, the two lines of s, the three of the return
    assert code_lines.count(SOURCE) == (17, 8)


def test_every_module_and_the_total(capsys):
    assert code_lines.main([]) == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "raw", "code"]
    assert [r[0] for r in rows] == sorted(p.name for p in code_lines.SRC.glob("*.py"))
    sums = [sum(int(r[k]) for r in rows) for k in (1, 2)]
    assert total == ["total", *map(str, sums)] and 0 < sums[1] < sums[0]
