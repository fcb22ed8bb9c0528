"""Count the code lines of the Python modules in a directory.

A code line is a line that holds a token other than a comment or a
docstring: blank lines, comment lines and the docstrings of modules,
classes and functions do not count, and a statement that spans several
lines counts each of them.  Every line of a multi-line string other than a
docstring counts.

    python tests/code_lines.py src/koszul_lab

prints one line per module, `<code lines> <module>`, in name order, then
the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> set:
    """The (line, column) at which each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text `source`."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(directory: str) -> None:
    total = 0
    for path in sorted(Path(directory).glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path.stem}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
