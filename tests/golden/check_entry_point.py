"""Run the installed `koszul-lab` entry point on every golden case.

The cases are CROSS_ORDER_CASES + FIXED_ORDER_CASES of tests/test_cli.py,
which pytest runs in-process through click's test runner.  This script runs
each one as its own `koszul-lab` process and compares the exit code and the
bytes of standard output with tests/golden/expected/<name>.out.  Run it from
anywhere after `pip install -e .[test]`:

    python tests/golden/check_entry_point.py

It prints one line per case and exits 1 if any case differs.  The file name
does not start with test_, so pytest does not collect it.
"""

import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent))

from test_cli import CROSS_ORDER_CASES, FIXED_ORDER_CASES


def main() -> int:
    failed = 0
    for name, args, infile, want_code in CROSS_ORDER_CASES + FIXED_ORDER_CASES:
        proc = subprocess.run(["koszul-lab", *args, "--input", str(GOLDEN / "inputs" / infile)],
                              capture_output=True)
        problems = []
        if proc.returncode != want_code:
            problems.append(f"exit {proc.returncode}, expected {want_code}")
        if proc.stdout != (GOLDEN / "expected" / f"{name}.out").read_bytes():
            problems.append("output differs from the golden file")
        failed += bool(problems)
        print(f"{name}: {'; '.join(problems) or 'ok'}")
        if proc.stderr:
            print(proc.stderr.decode(errors="replace"), end="", file=sys.stderr)
    print(f"{failed} of {len(CROSS_ORDER_CASES + FIXED_ORDER_CASES)} cases differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
