"""Command-line surface: one job per invocation, JSON documents in, reports out.

Every command reads a JSON input document (--input), runs one check or
construction, and prints a versioned report envelope.  Exit codes: 0 the
check passed (or the computation succeeded), 1 the mathematical verdict is
false, 2 the input is malformed or violates a precondition, 3 a resource
cap was exceeded, 4 an internal re-verification failed.  Reports are
deterministic given (input, options, seed) — keys sorted, no timestamps,
seeds and caps echoed in a reproducibility header.  See the README for the
document formats.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import click

from .arith import Poly, RingMismatchError, RingSpec, parse_poly
from .cube import (
    ADMISSIBILITY_STRATEGIES,
    Cube,
    Report,
    is_admissible,
    iterated_h0,
    label_subsets,
    subset_key,
    total_complex,
    validate_cube,
)
from .groebner import IdealBasis, SubmoduleBasis, grade
from .koszul import (
    be_acyclicity,
    determinant,
    factor_sequence_check,
    generators_presentation,
    is_A_sequence,
    is_koszul_cube,
    is_reduced_koszul,
    is_regular_sequence,
    random_koszul,
    typical_cube,
    verify_weight_decomposition,
)
from .modcalc import (
    CapExceededError,
    Complex,
    FPModule,
    FreeMap,
    fitting_ideal,
    homology,
    is_zero_module,
    zero_spherical,
)
from .resolve import ResolutionInput, koszul_resolve

SCHEMA = "koszul-lab/report/v1"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return "infinity" if math.isinf(obj) else obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Poly):
        return str(obj)
    if isinstance(obj, Report):
        return {"ok": obj.ok, "failures": list(obj.failures), "info": _jsonable(obj.info)}
    if isinstance(obj, IdealBasis):
        return [str(g) for g in obj.reduced_gb]
    if isinstance(obj, SubmoduleBasis):
        return [[str(p) for p in v] for v in obj.generators]
    if isinstance(obj, FPModule):
        return {"rank": obj.rank, "relations": _jsonable(obj.relations)}
    if isinstance(obj, FreeMap):
        return [[str(p) for p in row] for row in obj.entries]
    if isinstance(obj, frozenset):
        return subset_key(obj)
    if isinstance(obj, dict):
        return {(subset_key(k) if isinstance(k, frozenset) else str(k)): _jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(envelope: dict, fmt: str):
    if fmt == "json":
        click.echo(json.dumps(envelope, indent=2, sort_keys=True))
        return
    lines = [f"command: {envelope['command']}"]
    opts = envelope["options"]
    lines.append("options: " + ", ".join(f"{k}={opts[k]}" for k in sorted(opts)))
    if "error" in envelope:
        lines.append(f"error[{envelope['error']['type']}]: {envelope['error']['message']}")
    else:
        lines.append("verdict: " + ("pass" if envelope["verdict"] else "fail"))
        details = envelope.get("details", {})
        for k in sorted(details):
            lines.append(f"{k}: {json.dumps(details[k], sort_keys=True)}")
    click.echo("\n".join(lines))


def _run(command: str, options: dict, fmt: str, worker):
    envelope = {"schema": SCHEMA, "command": command, "options": options}
    try:
        verdict, details = worker()
    except CapExceededError as e:
        envelope["error"] = {"type": "cap", "message": str(e)}
        _emit(envelope, fmt)
        sys.exit(3)
    except RuntimeError as e:
        # a failed internal re-verification: a defect of the program, not a verdict
        envelope["error"] = {"type": "internal", "message": str(e)}
        _emit(envelope, fmt)
        sys.exit(4)
    except (OSError, json.JSONDecodeError, RingMismatchError, ValueError) as e:
        envelope["error"] = {"type": "input", "message": str(e)}
        _emit(envelope, fmt)
        sys.exit(2)
    envelope["verdict"] = bool(verdict)
    envelope["details"] = _jsonable(details)
    _emit(envelope, fmt)
    sys.exit(0 if verdict else 1)


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

def _load_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON: {e.msg} at line {e.lineno} column {e.colno}")
    if not isinstance(doc, dict):
        raise ValueError("input document must be a JSON object")
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"missing '{key}' in the input document")
    return doc[key]


def _ring_from_doc(doc: dict, order_flag) -> RingSpec:
    spec = _require(doc, "ring")
    if not isinstance(spec, dict):
        raise ValueError("'ring' must be an object")
    field_spec = spec.get("field", "Q")
    if field_spec == "Q":
        field = "Q"
    elif isinstance(field_spec, dict) and set(field_spec) == {"Fp"}:
        field = field_spec["Fp"]
        if not isinstance(field, int) or isinstance(field, bool):
            raise ValueError(f"'ring.field.Fp' must be an integer prime, got {field!r}")
    else:
        raise ValueError(f"unsupported field spec {field_spec!r} (use \"Q\" or {{\"Fp\": p}})")
    variables = spec.get("vars")
    if not isinstance(variables, list) or not variables:
        raise ValueError("'ring.vars' must be a nonempty list")
    order = order_flag or _string_from_doc(spec.get("order", "grevlex"), "ring.order")
    names = tuple(_string_from_doc(v, f"ring.vars[{i}]") for i, v in enumerate(variables))
    return RingSpec(field, names, order)


def _string_from_doc(value, where: str) -> str:
    """Polynomials, variable names and labels are JSON strings; `where` is
    the JSON path that names a value of any other type in the error."""
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {json.dumps(value)}")
    return value


def _labels_from_doc(value, where: str) -> tuple:
    """A list of labels at JSON path `where`; each label is a JSON string."""
    if not isinstance(value, list):
        raise ValueError(f"'{where}' must be a list of labels")
    return tuple(_string_from_doc(v, f"{where}[{i}]") for i, v in enumerate(value))


def _poly_from_doc(value, ring: RingSpec, where: str) -> Poly:
    return parse_poly(_string_from_doc(value, where), ring)


def _matrix_from_doc(rows, ring, target_rank, source_rank, where: str) -> FreeMap:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ValueError(f"matrix '{where}' must be a list of rows")
    parsed = [[_poly_from_doc(s, ring, f"{where}[{i}][{j}]") for j, s in enumerate(r)]
              for i, r in enumerate(rows)]
    return FreeMap(ring, parsed, target_rank=target_rank, source_rank=source_rank)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"'{where}' must be an object")
    return value


def _rank_from_doc(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{where} must be a non-negative integer, got {value!r}")
    return value


def _cube_from_doc(doc: dict, ring: RingSpec) -> Cube:
    cd = _object(_require(doc, "cube"), "cube")
    labels = _labels_from_doc(cd.get("S"), "cube.S")
    vd = _object(_require(cd, "vertices"), "cube.vertices")
    subs = label_subsets(labels)
    ranks = {}
    for T in subs:
        key = subset_key(T)
        if key not in vd:
            raise ValueError(f"missing vertex rank for subset '{key}'")
        ranks[T] = _rank_from_doc(vd[key], f"vertex rank for subset '{key}'")
    extra = set(vd) - {subset_key(T) for T in subs}
    if extra:
        raise ValueError(f"unknown vertex keys {sorted(extra)}")
    bd = _object(_require(cd, "boundaries"), "cube.boundaries")
    return Cube(ring, labels, ranks,
                _boundaries_from_doc(bd, ring, subs, ranks.get, "cube.boundaries"))


def _boundaries_from_doc(bd: dict, ring: RingSpec, subs: list, rank, where: str) -> dict:
    """Boundary matrices keyed "<subset key>|<direction>" in the object at
    JSON path `where`; rank(T) is the ambient rank of the vertex at T."""
    boundary = {}
    for T in subs:
        for k in sorted(T):
            key = f"{subset_key(T)}|{k}"
            if key not in bd:
                raise ValueError(f"missing boundary matrix '{key}'")
            boundary[(T, k)] = _matrix_from_doc(bd[key], ring, rank(T - {k}), rank(T),
                                                f"{where}[{json.dumps(key)}]")
    extra = set(bd) - {f"{subset_key(T)}|{k}" for T in subs for k in T}
    if extra:
        raise ValueError(f"unknown boundary keys {sorted(extra)}")
    return boundary


def _sequence_from_doc(doc: dict, ring: RingSpec, key: str = "sequence"):
    seq = _require(doc, key)
    if not isinstance(seq, list):
        raise ValueError(f"'{key}' must be a list of polynomial strings")
    return [_poly_from_doc(s, ring, f"{key}[{i}]") for i, s in enumerate(seq)]


def _complex_from_doc(doc: dict, ring: RingSpec) -> Complex:
    cd = _object(_require(doc, "complex"), "complex")
    ranks = cd.get("ranks")
    if not isinstance(ranks, list) or not ranks:
        raise ValueError("'complex.ranks' must be a nonempty list")
    ranks = [_rank_from_doc(r, "a 'complex.ranks' entry") for r in ranks]
    diffs_doc = cd.get("differentials", [])
    if not isinstance(diffs_doc, list):
        raise ValueError("'complex.differentials' must be a list")
    if len(diffs_doc) != len(ranks) - 1:
        raise ValueError(f"expected {len(ranks) - 1} differentials, got {len(diffs_doc)}")
    diffs = [_matrix_from_doc(rows, ring, ranks[k], ranks[k + 1],
                              f"complex.differentials[{k}]")
             for k, rows in enumerate(diffs_doc)]
    return Complex(ring, ranks, diffs)


def _modcube_from_doc(d, ring: RingSpec, where: str) -> Cube:
    """The module cube in the object `d` at JSON path `where`."""
    d = _object(d, where)
    labels = _labels_from_doc(d.get("S", []), f"{where}.S")
    vd = _object(_require(d, "vertices"), "vertices")
    subs = label_subsets(labels)
    verts = {}
    for T in subs:
        key = subset_key(T)
        if key not in vd:
            raise ValueError(f"missing vertex for subset '{key}'")
        entry = vd[key]
        if not isinstance(entry, dict) or "rank" not in entry:
            raise ValueError(f"vertex '{key}' must be an object with 'rank' (and 'relations')")
        rank = _rank_from_doc(entry["rank"], f"rank of vertex '{key}'")
        rows = entry.get("relations", [])
        if not isinstance(rows, list) or any(not isinstance(row, list) for row in rows):
            raise ValueError(f"relations of vertex '{key}' must be a list of rows")
        gens = []
        for i, row in enumerate(rows):
            path = f"{where}.vertices[{json.dumps(key)}].relations[{i}]"
            vec = tuple(_poly_from_doc(s, ring, f"{path}[{j}]") for j, s in enumerate(row))
            if len(vec) != rank:
                raise ValueError(f"relation length mismatch at vertex '{key}'")
            gens.append(vec)
        verts[T] = FPModule(ring, rank, SubmoduleBasis(ring, rank, gens))
    bd = _object(d.get("boundaries", {}), "boundaries")
    return Cube(ring, labels, verts, _boundaries_from_doc(bd, ring, subs, lambda T: verts[T].rank,
                                                          f"{where}.boundaries"))


# ---------------------------------------------------------------------------
# output documents (round-trip with the parsers above)
# ---------------------------------------------------------------------------

def _cube_doc(x: Cube) -> dict:
    return {
        "S": list(x.labels),
        "vertices": {subset_key(T): x.vertex_rank[T] for T in x.subsets()},
        "boundaries": {f"{subset_key(T)}|{k}": [[str(p) for p in row] for row in x.d(T, k).entries]
                       for T in x.subsets() for k in sorted(T)},
    }


def _complex_doc(c: Complex) -> dict:
    return {
        "ranks": list(c.ranks),
        "differentials": [[[str(p) for p in row] for row in d.entries]
                          for d in c.differentials],
    }


# ---------------------------------------------------------------------------
# command plumbing
# ---------------------------------------------------------------------------

def _common_options(f):
    f = click.option("--input", "input_path", required=True,
                     type=click.Path(exists=False, dir_okay=False),
                     help="Path to the JSON input document.")(f)
    f = click.option("--order", type=click.Choice(["grevlex", "lex", "grlex"]), default=None,
                     help="Override the document's monomial order.")(f)
    f = click.option("--seed", type=click.IntRange(0, 2 ** 64 - 1), default=0,
                     show_default=True, help="Seed for randomized commands.")(f)
    f = click.option("--max-power", type=click.IntRange(1, None), default=64,
                     show_default=True, help="Cap for exponent searches.")(f)
    f = click.option("--perm-cap", type=click.IntRange(1, None), default=6,
                     show_default=True, help="Cap for permutation enumeration.")(f)
    f = click.option("--json", "fmt", flag_value="json", default=True,
                     help="Emit the JSON report envelope (default).")(f)
    f = click.option("--text", "fmt", flag_value="text", help="Emit a plain-text report.")(f)
    return f


def _options_header(seed: int, max_power: int, perm_cap: int) -> dict:
    return {"seed": seed, "max_power": max_power, "perm_cap": perm_cap}


@click.group()
def main():
    """Checks and constructions for cubes of modules over polynomial rings."""


@main.command("validate")
@_common_options
def cmd_validate(input_path, order, seed, max_power, perm_cap, fmt):
    """Check the commuting-square law on a cube document."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        x = _cube_from_doc(doc, ring)
        rep = validate_cube(x)
        return rep.ok, {"failures": list(rep.failures)}
    _run("validate", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("tot")
@_common_options
def cmd_tot(input_path, order, seed, max_power, perm_cap, fmt):
    """Emit the total complex of a cube document."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        x = _cube_from_doc(doc, ring)
        c = total_complex(x)
        return True, {"complex": _complex_doc(c)}
    _run("tot", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("homology")
@_common_options
def cmd_homology(input_path, order, seed, max_power, perm_cap, fmt):
    """Homology presentations of the total complex in every degree."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        x = _cube_from_doc(doc, ring)
        c = total_complex(x)
        modules = {}
        for k in range(c.length + 1):
            M = homology(c, k)
            modules[str(k)] = {"rank": M.rank,
                               "relations": _jsonable(M.relations),
                               "is_zero": is_zero_module(M)}
        return True, {"modules": modules, "zero_spherical": zero_spherical(c)}
    _run("homology", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("h0")
@_common_options
@click.option("--directions", default="", help="Comma-joined labels to iterate over "
              "(default: all).")
def cmd_h0(input_path, order, seed, max_power, perm_cap, fmt, directions):
    """Iterated directional H_0 over the chosen directions."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        x = _cube_from_doc(doc, ring)
        T = [s for s in directions.split(",") if s] if directions else list(x.labels)
        mc = iterated_h0(x, T)
        verts = {subset_key(W): {"rank": mc.vertex(W).rank,
                                 "relations": _jsonable(mc.vertex(W).relations)}
                 for W in mc.subsets()}
        return True, {"directions": sorted(T), "vertices": verts}
    _run("h0", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("admissible")
@_common_options
@click.option("--strategy", type=click.Choice(ADMISSIBILITY_STRATEGIES),
              default="definition", show_default=True)
def cmd_admissible(input_path, order, seed, max_power, perm_cap, fmt, strategy):
    """Admissibility of a cube under the chosen strategy."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        x = _cube_from_doc(doc, ring)
        rep = is_admissible(x, strategy=strategy)
        return rep.ok, {"strategy": strategy, "failures": list(rep.failures)}
    _run("admissible", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("koszul-check")
@_common_options
def cmd_koszul_check(input_path, order, seed, max_power, perm_cap, fmt):
    """Is the cube Koszul with respect to the document's sequence?"""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        x = _cube_from_doc(doc, ring)
        fs = _sequence_from_doc(doc, ring)
        v = is_koszul_cube(x, fs)
        return v.is_koszul, {"diagnostics": v.diagnostics, "pd_note": v.pd_note}
    _run("koszul-check", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("reduced-check")
@_common_options
def cmd_reduced_check(input_path, order, seed, max_power, perm_cap, fmt):
    """Is the Koszul cube reduced (f_k kills each k-cokernel on the nose)?"""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        x = _cube_from_doc(doc, ring)
        fs = _sequence_from_doc(doc, ring)
        return is_reduced_koszul(x, fs), {}
    _run("reduced-check", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("typical")
@_common_options
def cmd_typical(input_path, order, seed, max_power, perm_cap, fmt):
    """Emit the typical cube of the document's sequence."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        fs = _sequence_from_doc(doc, ring)
        labels = doc.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise ValueError("'labels' must be a list of strings")
        x = typical_cube(fs, labels=labels, ring=ring)
        return True, {"cube": _cube_doc(x)}
    _run("typical", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("det")
@_common_options
def cmd_det(input_path, order, seed, max_power, perm_cap, fmt):
    """Per-direction determinants and their unit-coherence verdict."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        x = _cube_from_doc(doc, ring)
        dets, rep = determinant(x)
        return rep.ok, {"determinants": {k: str(v) for k, v in dets.items()},
                        "failures": list(rep.failures)}
    _run("det", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("fitting")
@_common_options
@click.option("--size", type=click.IntRange(1, None), required=True,
              help="Minor size t for the Fitting ideal I_t.")
def cmd_fitting(input_path, order, seed, max_power, perm_cap, fmt, size):
    """Fitting ideal of the document's matrix."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        rows = _require(doc, "matrix")
        if not isinstance(rows, list) or not rows or any(not isinstance(r, list) for r in rows):
            raise ValueError("'matrix' must be a nonempty list of rows")
        m = _matrix_from_doc(rows, ring, len(rows), len(rows[0]), "matrix")
        ideal = fitting_ideal(m, size)
        return True, {"size": size, "generators": _jsonable(ideal)}
    _run("fitting", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("grade")
@_common_options
def cmd_grade(input_path, order, seed, max_power, perm_cap, fmt):
    """Grade of the ideal generated by the document's 'ideal' polynomials."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        gens = _sequence_from_doc(doc, ring, key="ideal")
        g = grade(IdealBasis(ring, gens))
        return True, {"grade": _jsonable(g)}
    _run("grade", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("be-check")
@_common_options
def cmd_be_check(input_path, order, seed, max_power, perm_cap, fmt):
    """Buchsbaum–Eisenbud acyclicity of the document's complex."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        c = _complex_from_doc(doc, ring)
        rep = be_acyclicity(c)
        return rep.ok, {"failures": list(rep.failures),
                        "r": _jsonable(rep.info.get("r", {})),
                        "grades": _jsonable(rep.info.get("grades", {})),
                        "fitting": _jsonable(rep.info.get("fitting", {}))}
    _run("be-check", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("regseq")
@_common_options
def cmd_regseq(input_path, order, seed, max_power, perm_cap, fmt):
    """Is the document's sequence regular (in the given order)?"""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        fs = _sequence_from_doc(doc, ring)
        rep = is_regular_sequence(fs)
        return rep.regular, {
            "failing_index": rep.failing_index,
            "witness": None if rep.witness is None else str(rep.witness),
        }
    _run("regseq", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("aseq")
@_common_options
def cmd_aseq(input_path, order, seed, max_power, perm_cap, fmt):
    """Is the document's sequence regular under every permutation?"""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        fs = _sequence_from_doc(doc, ring)
        rep = is_A_sequence(fs, perm_cap=perm_cap)
        return bool(rep.a_sequence), {
            "regular": rep.regular,
            "failing_permutation": None if rep.failing_permutation is None
            else [str(f) for f in rep.failing_permutation],
            "failing_index": rep.failing_index,
            "witness": None if rep.witness is None else str(rep.witness),
        }
    _run("aseq", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("factor-lemma")
@_common_options
def cmd_factor_lemma(input_path, order, seed, max_power, perm_cap, fmt):
    """Factor-lemma cross-check on 'sequence' (f) and 'cofactors' (g)."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        fs = _sequence_from_doc(doc, ring)
        gs = _sequence_from_doc(doc, ring, key="cofactors")
        rep = factor_sequence_check(fs, gs, perm_cap=perm_cap)
        return rep.ok, {"failures": list(rep.failures), **_jsonable(rep.info)}
    _run("factor-lemma", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("weight-decomp")
@_common_options
def cmd_weight_decomp(input_path, order, seed, max_power, perm_cap, fmt):
    """Sphericity data of the weight decomposition of a Koszul cube."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        x = _cube_from_doc(doc, ring)
        fs = _sequence_from_doc(doc, ring)
        rep = verify_weight_decomposition(x, fs)
        return rep.ok, {"failures": list(rep.failures),
                        "pairs_checked": rep.info.get("pairs_checked")}
    _run("weight-decomp", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("generators")
@_common_options
def cmd_generators(input_path, order, seed, max_power, perm_cap, fmt):
    """H_0(Tot) presented by arrival boundaries, with the determinant certificate."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        x = _cube_from_doc(doc, ring)
        M, cert = generators_presentation(x, perm_cap=perm_cap)
        return bool(cert.a_sequence), {
            "rank": M.rank,
            "relations": _jsonable(M.relations),
            "det_sequence": [str(f) for f in cert.sequence],
            "det_a_sequence": bool(cert.a_sequence),
        }
    _run("generators", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("resolve")
@_common_options
def cmd_resolve(input_path, order, seed, max_power, perm_cap, fmt):
    """Resolve the document's targets by sums of typical cubes."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        rd = _object(_require(doc, "resolution"), "resolution")
        U = _labels_from_doc(rd.get("U", []), "resolution.U")
        V = _labels_from_doc(rd.get("V", []), "resolution.V")
        fs_doc = _object(_require(rd, "fs"), "resolution.fs")
        fs = {s: _poly_from_doc(p, ring, f"resolution.fs[{json.dumps(s)}]")
              for s, p in fs_doc.items()}
        targets_doc = _require(rd, "targets")
        if not isinstance(targets_doc, list):
            raise ValueError("'resolution.targets' must be a list")
        targets = [_modcube_from_doc(d, ring, f"resolution.targets[{i}]")
                   for i, d in enumerate(targets_doc)]

        def keyed_maps(d, src, tgt, where):
            out = {}
            for key, rows in _object(d, where).items():
                T = frozenset(s for s in key.split(",") if s)
                out[T] = _matrix_from_doc(rows, ring, tgt.vertex(T).rank,
                                          src.vertex(T).rank, f"{where}[{json.dumps(key)}]")
            return out

        connecting_doc = rd.get("connecting", [])
        if not isinstance(connecting_doc, list) or len(connecting_doc) != len(targets) - 1:
            raise ValueError("'resolution.connecting' must be a list of one map per "
                             "consecutive pair of targets")
        connecting = [keyed_maps(w, targets[i], targets[i + 1], f"resolution.connecting[{i}]")
                      for i, w in enumerate(connecting_doc)]
        inp = ResolutionInput(fs, U, V, targets, connecting)
        out = koszul_resolve(inp, cap=max_power)
        stages = []
        for stage in out.stages:
            stages.append({
                "multiplicities": {subset_key(T): n
                                   for T, n in sorted(stage.multiplicities.items(),
                                                      key=lambda kv: subset_key(kv[0]))},
                "epi": {subset_key(T): _jsonable(m) for T, m in stage.epi.items()},
            })
        # koszul_resolve has verified the resolution and raises when it fails
        return True, {
            "exponents": dict(sorted(out.exponents.items())),
            "g": {s: str(p) for s, p in sorted(out.g.items())},
            "stages": stages,
            "connecting": [{subset_key(T): _jsonable(m) for T, m in t.items()}
                           for t in out.connecting],
            "failures": [],
        }
    _run("resolve", _options_header(seed, max_power, perm_cap), fmt, work)


@main.command("random-koszul")
@_common_options
@click.option("--summands", type=click.IntRange(1, 4), default=2, show_default=True)
@click.option("--steps", type=click.IntRange(0, 12), default=2, show_default=True)
def cmd_random_koszul(input_path, order, seed, max_power, perm_cap, fmt, summands, steps):
    """Emit a seeded random Koszul cube over the document's sequence."""
    def work():
        doc = _load_doc(input_path)
        ring = _ring_from_doc(doc, order)
        fs = _sequence_from_doc(doc, ring)
        x = random_koszul(fs, summands, steps, seed)
        return True, {"cube": _cube_doc(x)}
    _run("random-koszul", _options_header(seed, max_power, perm_cap), fmt, work)


if __name__ == "__main__":
    main()
