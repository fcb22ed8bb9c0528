"""The package names that code outside the library reads."""

import ast
import importlib
from pathlib import Path

import code_lines
import koszul_lab

SRC = Path(koszul_lab.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKER = PERFBENCH / "worker.py"
TRACER = PERFBENCH / "tracer.py"
TESTS = Path(__file__).resolve().parent


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


def test_tracer_private_names_exist():
    # The tracer wraps these private helpers by name; a missing one would
    # only show as a crashed traced run.
    tree = ast.parse(TRACER.read_text())
    private = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "PRIVATE" for t in node.targets))
    assert "_graph_coordinates" in private["modcalc"]
    missing = [f"{layer}.{name}" for layer, names in sorted(private.items()) for name in names
               if not hasattr(importlib.import_module(f"koszul_lab.{layer}"), name)]
    assert missing == []


def test_no_unused_imports():
    # No lint tool is installed, so this is the check: every name a library
    # or test module imports is read in that module or listed in its
    # __all__.  A package __init__ imports to re-export, so it is exempt.
    unused = []
    for path in sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                    for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        unused += [f"{path.parent.name}/{path.name}: {name}" for name in sorted(imported - read - exported)]
    assert unused == []


ENGINE_PRIVATE = {"_nf_vp", "_by_position", "_compute_gb", "_graph_module", "_kernel_and_image",
                  "_buchberger", "_vp_from_column", "_column_from_vp", "_Element", "_GB_CACHE",
                  "_cached", "_Key"}
ARITH_PRIVATE = {"_product_sums", "_numerators", "_coefficients", "_denominator", "_add_scaled",
                 "_Terms", "_integer_rows", "_minor_sums", "_unit_class"}


def test_encodings_stay_with_their_owners():
    # Flattened vectors, basis elements, the graph module and the cache are
    # the Groebner engine's; the coefficient sums, the packed term layout and
    # the integer expansion of minors are arith's, shared with the engine
    # only.  Every other library module asks in sparse columns and Poly, so
    # the engine's own work runs in one module.
    owners = {"groebner": ({"groebner"}, ENGINE_PRIVATE),
              "arith": ({"arith", "groebner"}, ARITH_PRIVATE)}
    leaks = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            source = node.module.rsplit(".", 1)[-1]
            if source in owners and path.stem not in owners[source][0]:
                leaks += [f"{path.name}: {source}.{a.name}" for a in node.names
                          if a.name in owners[source][1]]
    assert leaks == []


CODE_LINE_SAMPLE = '''"""Module docstring,

on three lines."""

import os  # a trailing comment keeps the line
# a comment line


class A:
    """Class docstring."""

    def f(self, a,
          b):
        """Function
        docstring."""
        s = """a string
        that is not a docstring"""
        return os.path.join(
            a,
            b,
        )
'''


def test_code_line_counter_rules():
    # a code line holds a token other than a comment or a docstring: here
    # the import, the class line, both lines of the def, both of the string
    # that is no docstring and all four of the call
    assert code_lines.code_lines(CODE_LINE_SAMPLE) == 10


def test_sources_parse_as_python_3_10():
    # 3.10 is the requires-python floor; this catches newer syntax where no
    # 3.10 interpreter is at hand
    for path in sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
