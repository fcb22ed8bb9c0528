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

import click

from .arith import ParseError, Poly, RingSpec, _variable_names, parse_poly
from .cube import (
    ADMISSIBILITY_STRATEGIES,
    Cube,
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
    if isinstance(obj, Poly):
        return str(obj)
    if isinstance(obj, IdealBasis):
        return [str(g) for g in obj.reduced_gb]
    if isinstance(obj, SubmoduleBasis):
        return [[str(p) for p in v] for v in obj.generators]
    if isinstance(obj, FPModule):
        return {"rank": obj.rank, "relations": _jsonable(obj.relations)}
    if isinstance(obj, FreeMap):
        return [[str(p) for p in row] for row in obj.entries]
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


# the error type and exit code of each failure a command reports, first
# match first: a cap is a RuntimeError, and any other RuntimeError is a
# failed internal re-verification, a defect of the program, not a verdict;
# malformed JSON and a ring mismatch are ValueErrors
_ERRORS = {CapExceededError: ("cap", 3), RuntimeError: ("internal", 4),
           OSError: ("input", 2), ValueError: ("input", 2)}


def _run(command: str, options: dict, fmt: str, worker):
    """Run worker, which returns (verdict, details), and print its envelope.
    Serializing the details is inside the handler: printing a coefficient,
    or the reduced basis of an IdealBasis, can raise too."""
    envelope = {"schema": SCHEMA, "command": command, "options": options}
    try:
        verdict, details = worker()
        envelope.update(verdict=bool(verdict), details=_jsonable(details))
        code = 0 if verdict else 1
    except tuple(_ERRORS) as e:
        kind, code = next(v for cls, v in _ERRORS.items() if isinstance(e, cls))
        envelope["error"] = {"type": kind, "message": str(e)}
    _emit(envelope, fmt)
    sys.exit(code)


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
    except RecursionError:
        raise ValueError("malformed JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("input document must be a JSON object")
    # the keys any command reads: documents are shared between commands
    return _closed_keys(doc, ("ring", "cube", "sequence", "cofactors", "labels", "matrix",
                              "ideal", "complex", "resolution"), "")


def _require(doc: dict, key: str, where: str = ""):
    """doc[key], where `where` is the JSON path of doc ("" for the document)."""
    if key not in doc:
        raise ValueError(f"missing '{where + '.' if where else ''}{key}' in the input document")
    return doc[key]


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"'{where}' must be an object")
    return value


def _closed_keys(obj, allowed: tuple, where: str) -> dict:
    """obj, the object at JSON path `where`, once no key of it is outside
    `allowed`: a misspelt key must not silently fall back to a default."""
    extra = sorted(set(_object(obj, where)) - set(allowed))
    if extra:
        place = f"'{where}'" if where else "the input document"
        raise ValueError(f"unknown keys {extra} in {place}; allowed keys: {list(allowed)}")
    return obj


def _ring_from_doc(doc: dict, order_flag) -> RingSpec:
    spec = _closed_keys(_require(doc, "ring"), ("field", "vars", "order"), "ring")
    field_spec = spec.get("field", "Q")
    if field_spec == "Q":
        field = "Q"
    elif isinstance(field_spec, dict) and set(field_spec) == {"Fp"}:
        field = field_spec["Fp"]
        if not isinstance(field, int) or isinstance(field, bool):
            raise ValueError(f"'ring.field.Fp' must be an integer prime, got {field!r}")
    else:
        raise ValueError(f"unsupported field spec {field_spec!r} (use \"Q\" or {{\"Fp\": p}})")
    order = order_flag or _string_from_doc(spec.get("order", "grevlex"), "ring.order")
    names = _labels_from_doc(spec.get("vars"), "ring.vars")
    try:
        _variable_names(names)
    except ValueError as e:
        raise ValueError(f"'ring.vars': {e}") from None
    ring = RingSpec(field, names, order)
    # output prints each variable by its name, so the polynomial grammar
    # must read each name back as that variable: "x^2" next to "x" would
    # read back as x·x
    for i, name in enumerate(names):
        try:
            ok = parse_poly(name, ring) == ring.var(name)
        except (ParseError, CapExceededError):
            ok = False
        if not ok:
            raise ValueError(f"'ring.vars[{i}]' {json.dumps(name)} does not parse as a variable")
    return ring


def _string_from_doc(value, where: str) -> str:
    """Polynomials, variable names and labels are JSON strings; `where` is
    the JSON path that names a value of any other type in the error."""
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {json.dumps(value)}")
    return value


def _labels_from_doc(value, where: str) -> tuple:
    """The list of strings (labels, variable names or polynomials) at JSON
    path `where`."""
    if not isinstance(value, list):
        raise ValueError(f"'{where}' must be a list of strings")
    return tuple(_string_from_doc(v, f"{where}[{i}]") for i, v in enumerate(value))


def _cube_labels_from_doc(value, where: str) -> tuple:
    """The cube labels at JSON path `where`, a list of strings with no
    label repeated: a repeat is refused before anything is keyed by it."""
    labels = _labels_from_doc(value, where)
    for i, lab in enumerate(labels):
        if lab in labels[:i]:
            raise ValueError(f"'{where}' repeats the label {json.dumps(lab)}")
    return labels


def _poly_from_doc(value, ring: RingSpec, where: str) -> Poly:
    return parse_poly(_string_from_doc(value, where), ring)


def _rows_from_doc(rows, ring: RingSpec, width: int, where: str, count=None) -> list:
    """The rows at JSON path `where`, each a list of `width` polynomial
    strings, parsed; there must be `count` of them unless count is None."""
    if not isinstance(rows, list):
        raise ValueError(f"{where} must be a list of rows")
    if count is not None and len(rows) != count:
        raise ValueError(f"{where} has {len(rows)} rows, expected {count}")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"{where}[{i}] must be a list of polynomial strings")
        if len(row) != width:
            raise ValueError(f"{where}[{i}] has length {len(row)}, expected {width}")
    return [[_poly_from_doc(s, ring, f"{where}[{i}][{j}]") for j, s in enumerate(row)]
            for i, row in enumerate(rows)]


def _matrix_from_doc(rows, ring: RingSpec, target_rank: int, source_rank: int,
                     where: str) -> FreeMap:
    return FreeMap(ring, _rows_from_doc(rows, ring, source_rank, where, target_rank),
                   target_rank=target_rank, source_rank=source_rank)


def _keyed_from_doc(obj, keys: dict, where: str) -> dict:
    """{index: (obj[key], the JSON path of obj[key])} for each index -> key of
    `keys`, once the keys of obj, the object at JSON path `where`, are
    exactly those named there: subset keys, or "<subset key>|<direction>"."""
    allowed = set(keys.values())
    for key in _object(obj, where):
        if key not in allowed:
            raise ValueError(f"unknown key {where}[{json.dumps(key)}]; "
                             f"allowed keys: {list(keys.values())}")
    out = {}
    for index, key in keys.items():
        path = f"{where}[{json.dumps(key)}]"
        if key not in obj:
            raise ValueError(f"{path} is missing")
        out[index] = obj[key], path
    return out


def _rank_from_doc(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{where} must be a non-negative integer, got {value!r}")
    return value


def _cube_from_doc(d, ring: RingSpec, where: str) -> Cube:
    """The cube in the object `d` at JSON path `where`.  A vertex is a rank r,
    the free module A^r, or {"rank": r, "relations": rows}; "S" and
    "boundaries" default to [] and {}."""
    d = _closed_keys(d, ("S", "vertices", "boundaries"), where)
    labels = _cube_labels_from_doc(d.get("S", []), f"{where}.S")
    subs = label_subsets(labels)
    vd = _keyed_from_doc(_require(d, "vertices", where), {T: subset_key(T) for T in subs},
                         f"{where}.vertices")
    verts = {T: _vertex_from_doc(v, ring, path) for T, (v, path) in vd.items()}
    bd = _keyed_from_doc(d.get("boundaries", {}),
                         {(T, k): f"{subset_key(T)}|{k}" for T in subs for k in sorted(T)},
                         f"{where}.boundaries")
    return Cube(ring, labels, verts,
                {(T, k): _matrix_from_doc(rows, ring, verts[T - {k}].rank, verts[T].rank, path)
                 for (T, k), (rows, path) in bd.items()})


def _vertex_from_doc(v, ring: RingSpec, where: str) -> FPModule:
    if not isinstance(v, dict):
        return FPModule.free(ring, _rank_from_doc(v, where))
    if "rank" not in _closed_keys(v, ("rank", "relations"), where):
        raise ValueError(f"{where} must be a rank or an object with 'rank' (and 'relations')")
    rank = _rank_from_doc(v["rank"], f"{where}.rank")
    gens = _rows_from_doc(v.get("relations", []), ring, rank, f"{where}.relations")
    return FPModule(ring, rank, SubmoduleBasis(ring, rank, gens))


def _sequence_from_doc(doc: dict, ring: RingSpec, key: str = "sequence"):
    return [parse_poly(s, ring) for s in _labels_from_doc(_require(doc, key), key)]


def _complex_from_doc(doc: dict, ring: RingSpec) -> Complex:
    cd = _closed_keys(_require(doc, "complex"), ("ranks", "differentials"), "complex")
    ranks = cd.get("ranks")
    if not isinstance(ranks, list) or not ranks:
        raise ValueError("'complex.ranks' must be a nonempty list")
    ranks = [_rank_from_doc(r, f"complex.ranks[{i}]") for i, r in enumerate(ranks)]
    diffs_doc = cd.get("differentials", [])
    if not isinstance(diffs_doc, list):
        raise ValueError("'complex.differentials' must be a list")
    if len(diffs_doc) != len(ranks) - 1:
        raise ValueError(f"expected {len(ranks) - 1} differentials, got {len(diffs_doc)}")
    diffs = [_matrix_from_doc(rows, ring, ranks[k], ranks[k + 1],
                              f"complex.differentials[{k}]")
             for k, rows in enumerate(diffs_doc)]
    return Complex(ring, ranks, diffs)


# ---------------------------------------------------------------------------
# output documents (round-trip with the parsers above; _jsonable prints each
# FreeMap as its rows)
# ---------------------------------------------------------------------------

def _cube_doc(x: Cube) -> dict:
    return {
        "S": x.labels,
        "vertices": x.vertex_rank,
        "boundaries": {f"{subset_key(T)}|{k}": x.d(T, k) for T in x.subsets() for k in sorted(T)},
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


@click.group()
def main():
    """Checks and constructions for cubes of modules over polynomial rings."""


def _command(name: str, *extra_options):
    """Register body(doc, ring, opts) -> (verdict, details) as the command
    `name`, with the common options and then `extra_options`, click option
    decorators in the order --help lists them.  opts maps the parameter name
    of every option but --input, --order and the output format to its value."""
    def register(body):
        def command(input_path, order, fmt, **opts):
            def work():
                doc = _load_doc(input_path)
                return body(doc, _ring_from_doc(doc, order), opts)
            header = {key: opts[key] for key in ("seed", "max_power", "perm_cap")}
            _run(name, header, fmt, work)
        command.__doc__ = body.__doc__
        for option in reversed(extra_options):
            command = option(command)
        return main.command(name)(_common_options(command))
    return register


@_command("validate")
def cmd_validate(doc, ring, opts):
    """Check the commuting-square law on a cube document."""
    rep = validate_cube(_cube_from_doc(_require(doc, "cube"), ring, "cube"))
    return rep.ok, {"failures": list(rep.failures)}


@_command("tot")
def cmd_tot(doc, ring, opts):
    """Emit the total complex of a cube document."""
    c = total_complex(_cube_from_doc(_require(doc, "cube"), ring, "cube"))
    return True, {"complex": {"ranks": c.ranks, "differentials": c.differentials}}


@_command("homology")
def cmd_homology(doc, ring, opts):
    """Homology presentations of the total complex in every degree."""
    c = total_complex(_cube_from_doc(_require(doc, "cube"), ring, "cube"))
    modules = {}
    for k in range(c.length + 1):
        M = homology(c, k)
        modules[str(k)] = {**_jsonable(M), "is_zero": is_zero_module(M)}
    return True, {"modules": modules, "zero_spherical": zero_spherical(c)}


@_command("h0", click.option("--directions", default="", help="Comma-joined labels to iterate "
                             "over (default: all)."))
def cmd_h0(doc, ring, opts):
    """Iterated directional H_0 over the chosen directions."""
    x = _cube_from_doc(_require(doc, "cube"), ring, "cube")
    directions = opts["directions"]
    T = directions.split(",") if directions else list(x.labels)
    if "" in T:
        raise ValueError(f"--directions {directions!r} has an empty label")
    if len(set(T)) < len(T):
        raise ValueError(f"--directions {directions!r} repeats a label")
    return True, {"directions": sorted(T), "vertices": dict(iterated_h0(x, T).vertices)}


@_command("admissible", click.option("--strategy", type=click.Choice(ADMISSIBILITY_STRATEGIES),
                                     default="definition", show_default=True))
def cmd_admissible(doc, ring, opts):
    """Admissibility of a cube under the chosen strategy."""
    x = _cube_from_doc(_require(doc, "cube"), ring, "cube")
    rep = is_admissible(x, strategy=opts["strategy"])
    return rep.ok, {"strategy": opts["strategy"], "failures": list(rep.failures)}


@_command("koszul-check")
def cmd_koszul_check(doc, ring, opts):
    """Is the cube Koszul with respect to the document's sequence?"""
    x = _cube_from_doc(_require(doc, "cube"), ring, "cube")
    v = is_koszul_cube(x, _sequence_from_doc(doc, ring))
    return v.is_koszul, {"diagnostics": v.diagnostics, "pd_note": v.pd_note}


@_command("reduced-check")
def cmd_reduced_check(doc, ring, opts):
    """Is the Koszul cube reduced (f_k kills each k-cokernel on the nose)?"""
    x = _cube_from_doc(_require(doc, "cube"), ring, "cube")
    return is_reduced_koszul(x, _sequence_from_doc(doc, ring)), {}


@_command("typical")
def cmd_typical(doc, ring, opts):
    """Emit the typical cube of the document's sequence."""
    fs = _sequence_from_doc(doc, ring)
    labels = doc.get("labels")
    if labels is not None:
        labels = _cube_labels_from_doc(labels, "labels")
    return True, {"cube": _cube_doc(typical_cube(fs, labels=labels, ring=ring))}


@_command("det")
def cmd_det(doc, ring, opts):
    """Per-direction determinants and their unit-coherence verdict."""
    dets, rep = determinant(_cube_from_doc(_require(doc, "cube"), ring, "cube"))
    return rep.ok, {"determinants": dets, "failures": list(rep.failures)}


@_command("fitting", click.option("--size", type=click.IntRange(1, None), required=True,
                                  help="Minor size t for the Fitting ideal I_t."))
def cmd_fitting(doc, ring, opts):
    """Fitting ideal of the document's matrix."""
    rows = _require(doc, "matrix")
    if not isinstance(rows, list) or not rows or not isinstance(rows[0], list):
        raise ValueError("'matrix' must be a nonempty list of rows")
    m = _matrix_from_doc(rows, ring, len(rows), len(rows[0]), "matrix")
    return True, {"size": opts["size"], "generators": fitting_ideal(m, opts["size"])}


@_command("grade")
def cmd_grade(doc, ring, opts):
    """Grade of the ideal generated by the document's 'ideal' polynomials."""
    gens = _sequence_from_doc(doc, ring, key="ideal")
    return True, {"grade": grade(IdealBasis(ring, gens))}


@_command("be-check")
def cmd_be_check(doc, ring, opts):
    """Buchsbaum–Eisenbud acyclicity of the document's complex."""
    rep = be_acyclicity(_complex_from_doc(doc, ring))
    return rep.ok, {"failures": list(rep.failures),
                    "r": rep.info.get("r", {}),
                    "grades": rep.info.get("grades", {}),
                    "fitting": rep.info.get("fitting", {})}


@_command("regseq")
def cmd_regseq(doc, ring, opts):
    """Is the document's sequence regular (in the given order)?"""
    rep = is_regular_sequence(_sequence_from_doc(doc, ring))
    return rep.regular, {"failing_index": rep.failing_index, "witness": rep.witness}


@_command("aseq")
def cmd_aseq(doc, ring, opts):
    """Is the document's sequence regular under every permutation?"""
    rep = is_A_sequence(_sequence_from_doc(doc, ring), perm_cap=opts["perm_cap"])
    return bool(rep.a_sequence), {
        "regular": rep.regular,
        "failing_permutation": rep.failing_permutation,
        "failing_index": rep.failing_index,
        "witness": rep.witness,
    }


@_command("factor-lemma")
def cmd_factor_lemma(doc, ring, opts):
    """Factor-lemma cross-check on 'sequence' (f) and 'cofactors' (g)."""
    fs = _sequence_from_doc(doc, ring)
    gs = _sequence_from_doc(doc, ring, key="cofactors")
    rep = factor_sequence_check(fs, gs, perm_cap=opts["perm_cap"])
    return rep.ok, {"failures": list(rep.failures), **rep.info}


@_command("weight-decomp")
def cmd_weight_decomp(doc, ring, opts):
    """Sphericity data of the weight decomposition of a Koszul cube."""
    x = _cube_from_doc(_require(doc, "cube"), ring, "cube")
    rep = verify_weight_decomposition(x, _sequence_from_doc(doc, ring))
    return rep.ok, {"failures": list(rep.failures),
                    "pairs_checked": rep.info.get("pairs_checked")}


@_command("generators")
def cmd_generators(doc, ring, opts):
    """H_0(Tot) presented by arrival boundaries, with the determinant certificate."""
    x = _cube_from_doc(_require(doc, "cube"), ring, "cube")
    M, cert = generators_presentation(x, perm_cap=opts["perm_cap"])
    return bool(cert.a_sequence), {
        "rank": M.rank,
        "relations": M.relations,
        "det_sequence": cert.sequence,
        "det_a_sequence": bool(cert.a_sequence),
    }


@_command("resolve")
def cmd_resolve(doc, ring, opts):
    """Resolve the document's targets by sums of typical cubes."""
    rd = _closed_keys(_require(doc, "resolution"), ("U", "V", "fs", "targets", "connecting"),
                      "resolution")
    U = _cube_labels_from_doc(rd.get("U", []), "resolution.U")
    V = _cube_labels_from_doc(rd.get("V", []), "resolution.V")
    fs_doc = _closed_keys(_require(rd, "fs", "resolution"), U + V, "resolution.fs")
    fs = {s: _poly_from_doc(p, ring, f"resolution.fs[{json.dumps(s)}]")
          for s, p in fs_doc.items()}
    targets_doc = _require(rd, "targets", "resolution")
    if not isinstance(targets_doc, list):
        raise ValueError("'resolution.targets' must be a list")
    targets = [_cube_from_doc(d, ring, f"resolution.targets[{i}]")
               for i, d in enumerate(targets_doc)]
    connecting_doc = rd.get("connecting", [])
    if not isinstance(connecting_doc, list) or len(connecting_doc) != len(targets) - 1:
        raise ValueError("'resolution.connecting' must be a list of one map per "
                         "consecutive pair of targets")
    connecting = []
    for i, (w, src, tgt) in enumerate(zip(connecting_doc, targets, targets[1:])):
        wd = _keyed_from_doc(w, {T: subset_key(T) for T in label_subsets(tgt.labels)},
                             f"resolution.connecting[{i}]")
        connecting.append({T: _matrix_from_doc(rows, ring, tgt.vertex(T).rank,
                                               src.vertex(T).rank, path)
                           for T, (rows, path) in wd.items()})
    inp = ResolutionInput(fs, U, V, targets, connecting)
    out = koszul_resolve(inp, cap=opts["max_power"], perm_cap=opts["perm_cap"])
    # koszul_resolve has verified the resolution and raises when it fails
    return True, {
        "exponents": out.exponents,
        "g": {s: inp.fs[s] ** m for s, m in out.exponents.items()},
        "stages": [{"multiplicities": stage.multiplicities, "epi": stage.epi}
                   for stage in out.stages],
        "connecting": out.connecting,
        "failures": [],
    }


@_command("random-koszul",
          click.option("--summands", type=click.IntRange(1, 4), default=2, show_default=True),
          click.option("--steps", type=click.IntRange(0, 12), default=2, show_default=True))
def cmd_random_koszul(doc, ring, opts):
    """Emit a seeded random Koszul cube over the document's sequence."""
    fs = _sequence_from_doc(doc, ring)
    x = random_koszul(fs, opts["summands"], opts["steps"], opts["seed"])
    return True, {"cube": _cube_doc(x)}


if __name__ == "__main__":
    main()
