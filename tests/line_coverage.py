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

Every unrun line must be pinned in PINS, by its module and its stripped
source text (line numbers move with every edit), with the reason no test
runs it.  The unrun lines that no pin names are printed after the report,
and so is each pin that names no unrun line.  The exit status is pytest's
when pytest could not run the tests at all (interrupted, internal or usage
error); 1 when a line or a pin is printed there, as a run of only some of
the tests usually gives; and 0 otherwise: failing tests still give a
report, and they are the tier-1 run's to report.
"""

import ast
import os
import sys
import threading
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "koszul_lab"

# (module, stripped source text, reason) of each line no test runs
PINS = [
    ("arith", 'raise ParseError("expression nested too deeply", parser.pos) from None',
     "the RecursionError backstop of parse_poly: the nesting bound stops the parser first"),
    ("koszul", 'failures = ("products form an A-sequence but the factors do not",)',
     "the forbidden quadrant of factor_sequence_check: the factor lemma is a theorem"),
    ("koszul", 'raise RuntimeError("generated cube failed validation: " + "; ".join(check.failures))',
     "random_koszul's cube is valid by construction"),
    ("koszul", 'raise RuntimeError("generated cube failed the Koszul check")',
     "random_koszul's cube is Koszul by construction"),
    ("cli", 'raise TypeError(f"cannot serialize {type(obj).__name__}")',
     "the commands print only values _jsonable knows"),
    ("cli", "main()",
     "runs only under python -m koszul_lab.cli, in a child process that the tracer does not follow"),
]


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


def _unrun(path: Path, ran: dict) -> tuple:
    """(executable lines, those not in ran[str(path)], source lines) of path."""
    source = path.read_text(encoding="utf-8")
    executable = executable_lines(source, str(path))
    return executable, executable - ran.get(str(path), set()), source.splitlines()


def report(paths, ran: dict) -> str:
    """Per module of paths, the executable lines that are not in
    ran[str(path)], then the totals."""
    out = []
    missed_total = total = 0
    for path in sorted(paths):
        executable, missed, _ = _unrun(path, ran)
        missed_total += len(missed)
        total += len(executable)
        out.append(f"{path.stem}: {len(missed)} of {len(executable)} lines never ran")
        if missed:
            out.append(f"    {_ranges(missed)}")
    out.append(f"total: {missed_total} of {total} executable lines never ran")
    return "\n".join(out)


def unpinned(paths, ran: dict, pins) -> tuple:
    """("module:line: text" of each unrun line of paths that no pin names,
    the pins that name no unrun line)."""
    names = {(module, text) for module, text, _ in pins}
    loose, named = [], set()
    for path in sorted(paths):
        _, missed, lines = _unrun(path, ran)
        for n in sorted(missed):
            name = (path.stem, lines[n - 1].strip())
            if name in names:
                named.add(name)
            else:
                loose.append(f"{name[0]}:{n}: {name[1]}")
    return loose, [pin for pin in pins if pin[:2] not in named]


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
    loose, stale = unpinned(SRC.glob("*.py"), tracer.ran, PINS)
    for line in loose:
        print(f"unrun and not pinned: {line}")
    for module, text, _ in stale:
        print(f"pinned but not unrun: {module}: {text}")
    return 1 if loose or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
