"""The lines of the library that no tier-1 test runs, with the standard
library alone.

    python tests/line_coverage.py [pytest arguments, by default the tests directory]

runs pytest in this process with a trace function (`sys.settrace`, and
`threading.settrace` for new threads) that records the lines run in the
files under src/koszul_lab, and nothing else.  It then prints, per module
in name order, the executable lines that no test ran, as ranges, and the
totals.  The executable lines of a module are those its code objects map
instructions to (`code.co_lines()`, through every nested function and
class), less the lines of module, class and function docstrings.  A
traced run takes several times as long as an untraced one.

The exit status is pytest's when pytest could not run the tests at all
(interrupted, internal or usage error), and 0 otherwise: failing tests
still give a report, and they are the tier-1 run's to report.
"""

import ast
import os
import sys
import threading
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "koszul_lab"


def _docstring_lines(tree: ast.AST) -> set:
    """The lines of each module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def executable_lines(source: str, filename: str) -> set:
    """The lines of the Python source text that carry an instruction of its
    code or of any code nested in it, docstrings left out."""
    lines = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines - _docstring_lines(ast.parse(source))


class LineTracer:
    """Records, per file under root, the lines that run between start()
    and stop(); frames of other files are not traced line by line.
    stop() puts back the trace function that start() found."""

    def __init__(self, root: Path):
        self.root = str(Path(root).resolve()) + os.sep
        self.ran: dict = {}
        self._previous = None

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.root):
            return None
        lines = self.ran.setdefault(filename, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    def start(self):
        self._previous = sys.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(self._previous)
        threading.settrace(self._previous)


def _ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs, "3-5, 9"."""
    runs = []
    for n in sorted(lines):
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(paths, ran: dict) -> str:
    """Per module of paths, the executable lines that are not in
    ran[str(path)], then the totals."""
    out = []
    missed_total = total = 0
    for path in sorted(paths):
        executable = executable_lines(path.read_text(encoding="utf-8"), str(path))
        missed = executable - ran.get(str(path), set())
        missed_total += len(missed)
        total += len(executable)
        out.append(f"{path.stem}: {len(missed)} of {len(executable)} lines never ran")
        if missed:
            out.append(f"    {_ranges(missed)}")
    out.append(f"total: {missed_total} of {total} executable lines never ran")
    return "\n".join(out)


def main(args) -> int:
    import pytest
    sys.path.insert(0, str(SRC.parent))
    tracer = LineTracer(SRC)
    tracer.start()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(args or [str(Path(__file__).resolve().parent)])])
    finally:
        tracer.stop()
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return status
    print(report(SRC.glob("*.py"), tracer.ran))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
