"""The package names that code outside the library reads."""

import ast
from pathlib import Path

import koszul_lab

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_benchmark_worker_names_exist():
    # The worker reads every name off `koszul_lab as K`; a missing one would
    # only show as every benchmark operation failing.
    tree = ast.parse(WORKER.read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "K"}
    assert {"Cube", "ModCube", "is_admissible", "koszul_resolve"} <= names
    assert [n for n in sorted(names) if not hasattr(koszul_lab, n)] == []
    assert koszul_lab.ModCube is koszul_lab.Cube
