#!/usr/bin/env python3
"""Raw and code line counts of the dyadicmax modules.

    python3 scripts/code_lines.py [SRC_DIR]

Prints, for each module of SRC_DIR (by default src/dyadicmax of this
checkout), its raw line count and its code line count, then the totals.
A code line is a physical line that holds part of a token other than a
comment, a newline or an indent, and that is not part of a docstring
(the string statement that opens a module, class or function body).
Blank lines and comment lines are thus not code lines, and a statement
that spans several lines counts each of them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dyadicmax"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    total_raw = total_code = 0
    print(f"{'module':<16}{'raw':>6}{'code':>6}")
    for path in sorted(src.glob("*.py")):
        raw, code = count(path.read_text())
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{path.name:<16}{raw:>6}{code:>6}")
    print(f"{'total':<16}{total_raw:>6}{total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
