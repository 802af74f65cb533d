"""Line counts of ``src/uavloop``: total lines and code lines per module.

Run it as a script (pytest does not collect this file)::

    python tests/lines.py

A code line holds a token other than a comment and is not part of a
docstring, the leading string of a module, class or function body.  So
blank lines, comment lines and docstring lines are not code lines.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "uavloop"
_NOT_CODE = frozenset((
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
))
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path) -> tuple[int, int]:
    """(total lines, code lines) of the Python file at path."""
    text = path.read_text(encoding="utf-8")
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main() -> None:
    rows = [(path.name, *counts(path)) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<14}{'lines':>7}{'code':>7}")
    for name, total, code in rows:
        print(f"{name:<14}{total:>7,}{code:>7,}")


if __name__ == "__main__":
    main()
