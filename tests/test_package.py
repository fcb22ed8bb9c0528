"""The package names that code outside the library reads."""

import ast
import importlib
from pathlib import Path

import code_lines
import koszul_lab
import line_coverage

SRC = Path(koszul_lab.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKER = PERFBENCH / "worker.py"
TRACER = PERFBENCH / "tracer.py"
TESTS = Path(__file__).resolve().parent


def _worker_names() -> set:
    """The names the benchmark worker reads off `koszul_lab as K`."""
    return {node.attr for node in ast.walk(ast.parse(WORKER.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "K"}


def test_benchmark_worker_names_exist():
    # The worker reads every name off `koszul_lab as K`; a missing one would
    # only show as every benchmark operation failing.
    names = _worker_names()
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


# user API with tests of its own that no command, library path or benchmark
# operation calls
API_WITHOUT_A_CALLER = {"syzygies", "ideal_intersection", "directional_homology",
                        "nondegenerate_part"}


def _exported() -> set:
    """The names koszul_lab/__init__.py re-exports."""
    return {a.asname or a.name for node in ast.parse((SRC / "__init__.py").read_text()).body
            if isinstance(node, ast.ImportFrom) for a in node.names}


def test_exported_functions_have_a_caller():
    # every name the package re-exports is read somewhere in the library
    # outside its own definition (the CLI counts) or by the benchmark worker
    # as K.<name>, so a public function nothing calls shows up here
    exported = _exported()
    read = set()

    def visit(node, enclosing):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.update({node.id} - enclosing)
        elif isinstance(node, ast.Attribute):
            read.update({node.attr} - enclosing)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text()), frozenset())
    assert API_WITHOUT_A_CALLER <= exported
    assert sorted(exported - read - _worker_names()) == sorted(API_WITHOUT_A_CALLER)


# methods and properties of exported classes, user API with tests of its
# own, that no command, library path or benchmark operation reads
MEMBERS_WITHOUT_A_CALLER = {"RingSpec.gens", "Poly.leading", "Poly.total_degree",
                            "IdealBasis.nf", "FreeMap.apply", "FreeMap.block_diag"}

# the arithmetic operators and the method each one calls: an operator
# written anywhere reads its method, so an alias such as `@` for compose is
# a member like any other; the other dunder protocol methods are left out
OPERATOR_METHODS = {ast.Add: "__add__", ast.Sub: "__sub__", ast.Mult: "__mul__",
                    ast.MatMult: "__matmul__", ast.Pow: "__pow__", ast.USub: "__neg__"}


def _member_reads(tree, read, enclosing=frozenset()):
    """Add to read the attribute names and operator methods that tree reads
    outside the definitions named in enclosing, and outside each def in tree
    for its own name.  An attribute assigned to is not read."""
    if isinstance(tree, ast.Attribute) and not isinstance(tree.ctx, ast.Store):
        read.update({tree.attr} - enclosing)
    elif (isinstance(tree, (ast.BinOp, ast.UnaryOp, ast.AugAssign))
          and type(tree.op) in OPERATOR_METHODS):
        read.update({OPERATOR_METHODS[type(tree.op)]} - enclosing)
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = enclosing | {tree.name}
    for child in ast.iter_child_nodes(tree):
        _member_reads(child, read, enclosing)
    return read


def _class_members(cls: ast.ClassDef) -> set:
    """The public methods, properties, `__slots__` entries and dataclass
    fields of cls, and its operator methods."""
    names = {f.name for f in cls.body if isinstance(f, ast.FunctionDef)
             and (not f.name.startswith("_") or f.name in OPERATOR_METHODS.values())}
    for node in cls.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)):
            names |= {n for n in ast.literal_eval(node.value) if not n.startswith("_")}
        elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and not node.target.id.startswith("_")):
            names.add(node.target.id)
    return names


def _members_without_a_caller() -> list:
    """Class.member for each public method, property, slot or dataclass
    field, or operator method, of a class the package re-exports that no
    library module reads outside the member's own definition and the
    benchmark worker does not read.  Members are matched by name, as the
    function guard matches exported names."""
    exported = _exported()
    read = _member_reads(ast.parse(WORKER.read_text()), set())
    members = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        _member_reads(tree, read)
        members |= {(cls.name, name) for cls in tree.body
                    if isinstance(cls, ast.ClassDef) and cls.name in exported
                    for name in _class_members(cls)}
    return sorted(f"{cls}.{name}" for cls, name in members if name not in read)


def test_public_members_have_a_caller():
    # the member twin of test_exported_functions_have_a_caller: a method,
    # property, slot, dataclass field or operator of an exported class that
    # nothing reads shows up here
    assert _members_without_a_caller() == sorted(MEMBERS_WITHOUT_A_CALLER)


def test_member_guard_counts_slots_and_fields():
    # public slots and dataclass fields are members, and assigning one is
    # not reading it
    tree = ast.parse("class A:\n    __slots__ = ('u', '_v')\n"
                     "    def __init__(self):\n        self.u = 1\n"
                     "class B:\n    w: int\n    _z: int = 0\n")
    assert [_class_members(cls) for cls in tree.body] == [{"u"}, {"w"}]
    assert _member_reads(tree, set()) == set()
    assert _member_reads(ast.parse("a.u + a.w"), set()) == {"u", "w", "__add__"}


def _dotted(node):
    """`a.b.c` for an attribute chain on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _unused_imports(source: str) -> list:
    """The names a module imports and neither reads nor lists in __all__.
    `import a.b` counts as read only when the chain a.b is read, and
    `import a.b as name` when name is."""
    tree = ast.parse(source)
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for a in node.names}
    read = {_dotted(node) for node in ast.walk(tree)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_no_unused_imports():
    # No lint tool is installed, so this is the check: every name a library
    # or test module imports is read in that module or listed in its
    # __all__.  A package __init__ imports to re-export, so it is exempt.
    unused = []
    for path in sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py")):
        if path.name != "__init__.py":
            unused += [f"{path.parent.name}/{path.name}: {name}"
                       for name in _unused_imports(path.read_text())]
    assert unused == []


def test_unused_import_guard_reads_dotted_chains():
    # tests import koszul_lab.<module> to patch it: reading another module
    # of the package does not make the import used
    assert _unused_imports("import koszul_lab.cube\nimport koszul_lab.resolve\n"
                           "koszul_lab.cube.x\n") == ["koszul_lab.resolve"]
    assert _unused_imports("import koszul_lab.resolve\nkoszul_lab.resolve.x\n") == []
    assert _unused_imports("import koszul_lab.resolve as r\nr.x\n") == []
    assert _unused_imports("import ast\nfrom json import dumps\n__all__ = ['dumps']\n") == ["ast"]


# the injectivity test `_preimage_in` is asked in sparse columns; what it
# reads, the Schreyer generators and an indexed basis, is flattened
ENGINE_PRIVATE = {"_nf_vp", "_by_position", "_compute_gb", "_graph_module", "_kernel_and_image",
                  "_buchberger", "_vp_from_column", "_column_from_vp", "_Element", "_cached",
                  "_schreyer", "_reduce", "_unit_normal", "_cofactors",
                  "_vp_canonical", "_field_vp", "_monic_column", "_cleared", "_indexed", "_basis"}
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


def _callers(predicate) -> set:
    """(module, function) of every call in the library that predicate
    accepts, the function being the innermost def around it."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, ast.Call) and predicate(node.func):
            found.add((module, function))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_typical_sums_and_complexes_have_one_builder():
    # every sum of typical cubes is assembled by koszul._typical_sum, the
    # only caller of FreeMap.diagonal; a Complex is built only where a
    # complex leaves the library or comes from a document, since its
    # constructor re-checks d ∘ d = 0, and the face scans hand their total
    # complexes to the engine as sparse columns
    diagonal = _callers(lambda f: isinstance(f, ast.Attribute) and f.attr == "diagonal")
    assert diagonal == {("koszul", "_typical_sum")}
    complexes = _callers(lambda f: isinstance(f, ast.Name) and f.id == "Complex")
    assert complexes == {("cube", "total_complex"), ("cli", "_complex_from_doc")}
    # a resolution stores no covering cube: the construction builds each
    # from its multiplicities for the lifts, and the checker builds it again
    covers = _callers(lambda f: isinstance(f, ast.Name) and f.id == "_typical_sum_cube")
    assert covers == {("resolve", "koszul_resolve"), ("resolve", "check_resolution")}


def test_only_the_engine_makes_a_basis_unchecked():
    # a basis made by groebner._basis skips _column's ring and position
    # checks, so only the engine hands it columns: those it has just made
    # (module quotients, intersections, reduced kernels) or already checked
    # (the sum of two submodules)
    unchecked = _callers(lambda f: isinstance(f, ast.Name) and f.id == "_basis")
    assert unchecked == {("groebner", "module_quotient"), ("groebner", "ideal_intersection"),
                         ("groebner", "_reduced_kernel"), ("groebner", "plus")}


def test_no_true_division_in_the_library():
    # an int divided by an int is a float, so no coefficient may meet `/`:
    # the one inverse over Q is made by Fraction (arith._Field.inv)
    divisions = [f"{path.name}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert divisions == []


def test_a_resolution_stores_only_its_choices():
    # the moduli g_s = f_s^{m_s} and the covering cubes are derived from
    # these fields, so no stored copy can disagree with them
    from dataclasses import fields
    from koszul_lab.resolve import ResolutionOutput, ResolutionStage
    assert [f.name for f in fields(ResolutionStage)] == ["epi", "multiplicities"]
    assert [f.name for f in fields(ResolutionOutput)] == ["exponents", "stages", "connecting"]


def test_cube_morphisms_have_one_test():
    # whether vertex maps form a morphism of module cubes is asked by
    # cube._morphism_failures alone, for verify() and check_resolution; a
    # cube's own boundaries by validate_cube.  The construction in resolve
    # lifts through _factor_through only and checks nothing on the way
    preserves = _callers(lambda f: isinstance(f, ast.Name) and f.id == "_preserves_relations")
    assert preserves == {("cube", "validate_cube"), ("cube", "_morphism_failures")}
    morphism = _callers(lambda f: isinstance(f, ast.Name) and f.id == "_morphism_failures")
    assert morphism == {("resolve", "verify"), ("resolve", "check_resolution")}
    checks = _callers(lambda f: isinstance(f, ast.Name) and f.id == "_kills")
    assert {c for c in checks if c[0] == "resolve"} == set()


def test_support_has_one_test():
    # support on V(f) is one Rabinowitsch run, the only user of a ring with
    # a fresh variable; a module quotient is formed only as the ideal
    # quotient (I : f), never for support (the annihilator, formed from the
    # quotients (rel : e_i), is a test reference only), and Fitting ideals
    # only for the Buchsbaum-Eisenbud criterion, not for the Koszul support
    # flags
    extended = _callers(lambda f: isinstance(f, ast.Attribute) and f.attr == "extended")
    assert extended == {("groebner", "radical_membership")}
    quotients = _callers(lambda f: isinstance(f, ast.Name) and f.id == "module_quotient")
    assert quotients == {("groebner", "ideal_quotient")}
    fitting = _callers(lambda f: isinstance(f, ast.Name) and f.id == "fitting_ideal")
    assert {c for c in fitting if c[0] == "koszul"} == {("koszul", "be_acyclicity")}


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


LINE_SAMPLE = '''"""Module docstring,

on two lines."""

import os


class A:
    """Class docstring."""

    def f(self, a,
          b):
        """Function
        docstring."""
        if a:
            return os.path.join(
                a,
                b,
            )
        return None


def g(flag):
    while flag:
        flag = False
    return A().f("", "b")
'''


def test_line_report_rules(tmp_path):
    # executable lines carry an instruction: no docstring, no continuation
    # line of the def, no closing bracket; g runs everything but the branch
    # of f it does not take, and the report lists that branch alone
    sample = tmp_path / "sample.py"
    sample.write_text(LINE_SAMPLE)
    assert line_coverage.executable_lines(LINE_SAMPLE, str(sample)) == {
        5, 8, 11, 15, 16, 17, 18, 20, 23, 24, 25, 26}
    tracer = line_coverage.LineTracer(tmp_path)
    code = compile(LINE_SAMPLE, str(sample), "exec")
    namespace = {}
    tracer.start()
    try:
        exec(code, namespace)
        namespace["g"](True)
    finally:
        tracer.stop()
    assert line_coverage.report([sample], tracer.ran).splitlines() == [
        "sample: 3 of 12 lines never ran", "    16-18",
        "total: 3 of 12 executable lines never ran"]
    assert line_coverage.report([sample], {}).splitlines()[1] == "    5, 8, 11, 15-18, 20, 23-26"
    # the gate: an unrun line no pin names fails it, a pinned one does not,
    # and a pin that names no unrun line fails it too
    pins = [("sample", "return os.path.join(", ""), ("sample", "a,", "")]
    assert line_coverage.unpinned([sample], tracer.ran, pins) == (["sample:18: b,"], [])
    pins.append(("sample", "b,", ""))
    assert line_coverage.unpinned([sample], tracer.ran, pins) == ([], [])
    pins.append(("sample", "return None", ""))
    assert line_coverage.unpinned([sample], tracer.ran, pins) == ([], [pins[-1]])


def test_sources_parse_as_python_3_10():
    # 3.10 is the requires-python floor; this catches newer syntax where no
    # 3.10 interpreter is at hand
    for path in sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
