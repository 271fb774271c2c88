"""Count the code lines of a Python package, per module and in total.

A code line is a line that holds part of a token other than a comment,
and that is not part of a docstring (the leading string of a module,
class or function body, as the AST gives it).  Blank lines, comment
lines and docstrings are not counted; a line inside a multi-line string
that is not a docstring is.

usage: python tools/code_lines.py [PACKAGE_DIR]   (default: src/divatlas)
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).parent.parent / "src" / "divatlas"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<24}{count:>6}")
    print(f"{'total':<24}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
