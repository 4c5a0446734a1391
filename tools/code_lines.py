"""Count the code lines of each Python module under a directory.

A line counts when it holds a token other than a comment and is not part of
a docstring, the first string statement of a module, class or function.
Blank lines, comment lines and docstrings therefore do not count; a line of
a multi-line expression or string literal does. The tool prints one line per
module, sorted by path, and the total::

    python tools/code_lines.py                 # src/lwlattice
    python tools/code_lines.py path/to/package
"""

import ast
import sys
import tokenize
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parents[1] / "src" / "lwlattice"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers of the docstrings of the module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines of one module."""
    source = path.read_text()
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    root = Path(argv[0]) if argv else DEFAULT_ROOT
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
