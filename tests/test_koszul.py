"""Koszul cubes, sequence conditions, determinants, acyclicity, generators."""

import random
from collections import Counter
from math import factorial

import pytest

import _gen
import _reference
from _reference import annihilator, sequence_reports
import koszul_lab.cube as cube
import koszul_lab.groebner as groebner
import koszul_lab.koszul as koszul
import koszul_lab.modcalc as modcalc
from koszul_lab.arith import RingSpec, is_unit, parse_poly
from koszul_lab.cube import (
    ADMISSIBILITY_STRATEGIES,
    Cube,
    _h0_over,
    degenerate_directions,
    is_admissible,
    label_subsets,
    nondegenerate_part,
    restrict,
    subset_key,
    total_complex,
    validate_cube,
)
from koszul_lab.groebner import (
    IdealBasis,
    SubmoduleBasis,
    grade,
    ideal_quotient,
    radical_membership,
)
from koszul_lab.koszul import (
    be_acyclicity,
    det_is_a_sequence,
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
from koszul_lab.modcalc import (
    CapExceededError,
    Complex,
    FreeMap,
    cokernel,
    determinant_of_square,
    is_injective,
    is_zero_module,
    zero_spherical,
)
from koszul_lab.resolve import ResolutionInput, check_resolution, koszul_resolve

Q2 = RingSpec("Q", ("x", "y"))
Q3 = RingSpec("Q", ("x", "y", "z"))
F101 = RingSpec(101, ("x", "y"))
X, Y = Q2.gens()

E = frozenset()
S1 = frozenset({"1"})
S2 = frozenset({"2"})
S12 = frozenset({"1", "2"})


def P(s, ring=Q2):
    return parse_poly(s, ring)


def rank1_square(a, b, c, d, ring=Q2):
    """d^1 = a at {1}, b at {1,2}; d^2 = c at {2}, d at {1,2} (needs a*d = c*b)."""
    return Cube(ring, ("1", "2"), {E: 1, S1: 1, S2: 1, S12: 1},
                {(S1, "1"): FreeMap(ring, [[P(a, ring)]]),
                 (S2, "2"): FreeMap(ring, [[P(c, ring)]]),
                 (S12, "1"): FreeMap(ring, [[P(b, ring)]]),
                 (S12, "2"): FreeMap(ring, [[P(d, ring)]])})


# --------------------------------------------------------------------------
# regular / A-sequences
# --------------------------------------------------------------------------

def test_regular_sequence_basic():
    assert is_regular_sequence([X, Y]).regular
    rep = is_regular_sequence([X, X])
    assert not rep.regular and rep.failing_index == 2 and str(rep.witness) == "1"
    unit = is_regular_sequence([Q2.const(2)])
    assert not unit.regular and unit.failing_index == 1 and unit.witness is None
    assert is_regular_sequence([]).regular


def test_regular_but_not_a_sequence():
    # the classic discriminating example: x, y(1-x), z(1-x)
    x, y, z = Q3.gens()
    fs = [x, y * (Q3.one() - x), z * (Q3.one() - x)]
    assert is_regular_sequence(fs).regular
    rep = is_A_sequence(fs)
    assert rep.regular and rep.a_sequence is False
    assert rep.failing_index == 2
    assert str(rep.witness) == "y"
    # re-verify the witness against the failing permutation
    perm = rep.failing_permutation
    prefix = IdealBasis(Q3, list(perm[:rep.failing_index - 1]))
    assert prefix.contains(rep.witness * perm[rep.failing_index - 1])
    assert not prefix.contains(rep.witness)


def test_powers_still_a_sequence():
    assert is_A_sequence([X ** 2, Y ** 3]).a_sequence


def test_a_sequence_perm_cap():
    x, y, z = Q3.gens()
    with pytest.raises(CapExceededError):
        is_A_sequence([x, y, z], perm_cap=2)


def test_a_sequence_decides_each_question_once(monkeypatch):
    # only a failing step forms an ideal quotient, for its witness, so an
    # A-sequence forms none, where checking every order afresh by quotients
    # costs 4 + 4! * 4 = 100
    calls = []
    real = koszul.ideal_quotient

    def counted(I, f):
        calls.append(f)
        return real(I, f)

    monkeypatch.setattr(koszul, "ideal_quotient", counted)
    for ring in (RingSpec("Q", ("x", "y", "z", "w")), RingSpec(101, ("x", "y", "z", "w"))):
        for text in (("x", "y", "z", "w"), ("x^2", "y^2+x*z", "z^3", "w")):
            calls.clear()
            assert is_A_sequence([parse_poly(t, ring) for t in text]).a_sequence
            assert calls == []


# (field or (field, order), sequence, is_regular_sequence fields,
# is_A_sequence fields), each report as (regular, a_sequence,
# failing_permutation, failing_index, witness); pinned from the checks that
# tried every order afresh, and the last three from the checks that decided
# each step by a Schreyer preimage
SEQUENCE_REPORTS = [
    ("Q", ("x", "y*(1-x)", "z*(1-x)"),
     (True, None, None, None, None),
     (True, False, ("-x*y + y", "-x*z + z", "x"), 2, "y")),
    ("Q", ("y*(1-x)", "z*(1-x)", "x"),
     (False, None, None, 2, "y"),
     (False, False, ("-x*y + y", "-x*z + z", "x"), 2, "y")),
    ("Q", ("w", "x", "y*(1-x)", "z*(1-x)"),
     (True, None, None, None, None),
     (True, False, ("w", "-x*y + y", "-x*z + z", "x"), 3, "y")),
    ("Q", ("x", "2", "y"),
     (False, None, None, 2, None),
     (False, False, ("x", "2", "y"), 2, None)),
    ("Q", ("x", "0", "y"),
     (False, None, None, 2, "1"),
     (False, False, ("x", "0", "y"), 2, "1")),
    ("Q", ("0", "x"),
     (False, None, None, 1, "1"),
     (False, False, ("0", "x"), 1, "1")),
    ("Q", ("x", "y", "x"),
     (False, None, None, 3, "1"),
     (False, False, ("x", "y", "x"), 3, "1")),
    ("Q", ("x*y", "x*z", "y*z"),
     (False, None, None, 2, "y"),
     (False, False, ("x*y", "x*z", "y*z"), 2, "y")),
    ("Q", ("x^2", "y^2+x*z", "z^3", "w"),
     (True, None, None, None, None),
     (True, True, None, None, None)),
    (101, ("x", "y*(1-x)", "z*(1-x)"),
     (True, None, None, None, None),
     (True, False, ("100*x*y + y", "100*x*z + z", "x"), 2, "y")),
    (101, ("w", "x", "y*(1-x)", "z*(1-x)"),
     (True, None, None, None, None),
     (True, False, ("w", "100*x*y + y", "100*x*z + z", "x"), 3, "y")),
    (101, ("x", "2", "y"),
     (False, None, None, 2, None),
     (False, False, ("x", "2", "y"), 2, None)),
    (101, ("x", "y", "x"),
     (False, None, None, 3, "1"),
     (False, False, ("x", "y", "x"), 3, "1")),
    # the first two entries generate the unit ideal
    ("Q", ("x", "x-1", "y"),
     (True, None, None, None, None),
     (True, True, None, None, None)),
    (101, ("x-1", "x*y", "x*z"),
     (True, None, None, None, None),
     (True, False, ("x*y", "x*z", "x + 100"), 2, "y")),
    (("Q", "lex"), ("x*y", "x*z+y^2", "z"),
     (False, None, None, 3, "x^2"),
     (False, False, ("x*y", "x*z + y^2", "z"), 3, "x^2")),
]


def _report_fields(rep):
    perm = rep.failing_permutation
    return (rep.regular, rep.a_sequence, None if perm is None else tuple(map(str, perm)),
            rep.failing_index, None if rep.witness is None else str(rep.witness))


@pytest.mark.parametrize("field,text,regular,a_seq", SEQUENCE_REPORTS)
def test_sequence_reports_pinned(field, text, regular, a_seq):
    field, order = field if isinstance(field, tuple) else (field, "grevlex")
    ring = RingSpec(field, ("x", "y", "z", "w"), order)
    fs = [parse_poly(t, ring) for t in text]
    assert _report_fields(is_regular_sequence(fs)) == regular
    assert _report_fields(is_A_sequence(fs)) == a_seq


def _random_entry(rng, ring, earlier):
    """A zero, constant or repeated entry now and then, one that makes the
    unit ideal with an earlier entry, else a sum of one to three terms of
    degree 0..3 in x, y, z, not all constant."""
    draw = rng.random()
    if draw < 0.05:
        return ring.zero()
    if draw < 0.1:
        return ring.const(rng.choice((1, 2, 3)))
    if earlier and draw < 0.2:
        return rng.choice(earlier)
    if earlier and draw < 0.27:
        return rng.choice(earlier) - ring.one()
    out = ring.zero()
    while out.is_zero() or is_unit(out):
        for _ in range(rng.choice((1, 2, 3))):
            term = ring.const(rng.choice((1, -1, 2, 3)))
            for _ in range(rng.randint(0, 3)):
                term = term * ring.var(rng.choice("xyz"))
            out = out + term
    return out


SEQUENCES_PER_RING = 60


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("field", ["Q", 7, 101])
def test_sequence_reports_match_the_quotient_reference(field, order):
    # every field of both reports against the definition, (I : f) = I asked
    # afresh at every step of every order; the corpus holds A-sequences,
    # sequences regular in one order only, and failures at a unit entry
    ring = RingSpec(field, ("x", "y", "z", "w"), order)
    rng = random.Random(_gen.SEED0 + 110_000 + 10 * ["Q", 7, 101].index(field)
                        + ["grevlex", "lex"].index(order))
    kinds = Counter()
    for _ in range(SEQUENCES_PER_RING):
        fs = []
        for _ in range(rng.choice((1, 2, 3, 3, 4, 4, 4))):
            fs.append(_random_entry(rng, ring, fs))
        regular, a_seq = sequence_reports(fs)
        assert _report_fields(is_regular_sequence(fs)) == _report_fields(regular), fs
        assert _report_fields(is_A_sequence(fs)) == _report_fields(a_seq), fs
        kinds[(a_seq.regular, a_seq.a_sequence, a_seq.witness is None)] += 1
    assert kinds[(True, True, True)] and kinds[(True, False, False)] and kinds[(False, False, True)]


def test_a_sequence_runs_no_schreyer_preimage(monkeypatch):
    # a passing step is decided by the height of one subset ideal: a
    # 4-entry A-sequence asks for at most 2^4 - 1 reduced bases and no
    # graph-module run, and a failing check runs the graph module only for
    # the quotient behind its one witness
    heads = []
    real = groebner._buchberger

    def counted(inputs, ring, rank, head=None):
        heads.append(head)
        return real(inputs, ring, rank, head)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    ring = RingSpec("Q", ("x", "y", "z", "w"))
    groebner._cached.cache_clear()
    assert is_A_sequence([parse_poly(t, ring) for t in ("x^2", "y^2+x*z", "z^3", "w")]).a_sequence
    assert heads and heads.count(None) == len(heads) <= 15
    groebner._cached.cache_clear()
    heads.clear()
    rep = is_A_sequence([parse_poly(t, ring) for t in ("x", "y*(1-x)", "z*(1-x)")])
    assert (rep.a_sequence, rep.failing_index, str(rep.witness)) == (False, 2, "y")
    quotient_heads = len(heads) - heads.count(None)
    groebner._cached.cache_clear()
    heads.clear()
    perm = rep.failing_permutation
    ideal_quotient(IdealBasis(ring, list(perm[:1])), perm[1])
    assert quotient_heads == len(heads) - heads.count(None) == 1


@pytest.mark.parametrize("field", ["Q", 101])
def test_triangular_cubics_are_an_a_sequence(field):
    # the cubes of a triangular change of coordinates
    ring = RingSpec(field, ("x", "y", "z", "w"))
    fs = [parse_poly(t, ring) for t in ("x^3", "(y+x^2)^3", "(z+2*x*y)^3", "(w+z+y^2)^3")]
    rep = is_A_sequence(fs)
    assert rep.regular and rep.a_sequence


def test_five_triangular_squares_are_an_a_sequence():
    # 5! orders over 2^5 - 1 subset ideals
    ring = RingSpec("Q", ("a", "b", "c", "d", "e"))
    fs = [parse_poly(t, ring) for t in ("a^2", "(b+a^2)^2", "(c+2*a*b)^2", "(d+c+b^2)^2",
                                        "(e+d)^2")]
    rep = is_A_sequence(fs)
    assert rep.regular and rep.a_sequence


@pytest.mark.parametrize("field", ["Q", 101])
def test_factor_sequence_check_pinned(field):
    ring = RingSpec(field, ("x", "y", "z", "w"))
    cases = [  # fs, gs, (hypothesis, conclusion, applicable)
        (("x", "y"), ("y", "x"), (False, True, False)),
        (("x", "y", "z"), ("x", "y^2", "z"), (True, True, True)),
        (("x", "x*y"), ("y", "1"), (False, False, False)),
        (("x", "y*(1-x)", "z*(1-x)"), ("1", "1", "1"), (False, False, False)),
    ]
    for fs, gs, expected in cases:
        rep = factor_sequence_check([parse_poly(t, ring) for t in fs],
                                    [parse_poly(t, ring) for t in gs])
        assert rep.ok and rep.failures == ()
        assert (rep.info["hypothesis_a_sequence"], rep.info["conclusion_a_sequence"],
                rep.info["applicable"]) == expected


def test_factor_sequence_check():
    rep = factor_sequence_check([X ** 2, Y ** 3], [X, Y])
    assert rep.ok
    assert rep.info["applicable"] and rep.info["conclusion_a_sequence"]
    # hypothesis fails -> vacuously fine, still ok
    rep2 = factor_sequence_check([X, X], [Y, Y])
    assert rep2.ok and not rep2.info["applicable"]
    with pytest.raises(ValueError):
        factor_sequence_check([X], [X, Y])
    with pytest.raises(ValueError):
        factor_sequence_check([Q2.one()], [X])


# --------------------------------------------------------------------------
# typical cubes and the Koszul condition
# --------------------------------------------------------------------------

def test_typical_cube_shape():
    t = typical_cube([X, Y])
    assert t.labels == ("1", "2")
    assert all(t.vertex_rank[T] == 1 for T in t.subsets())
    assert t.d(S12, "1") == FreeMap(Q2, [[X]])
    assert t.d(S2, "2") == FreeMap(Q2, [[Y]])
    named = typical_cube([X], labels=["a"])
    assert named.labels == ("a",)
    empty = typical_cube([], ring=Q2)
    assert empty.labels == () and empty.vertex_rank[E] == 1
    with pytest.raises(ValueError):
        typical_cube([])


def test_typical_is_koszul_and_reduced():
    t = typical_cube([X, Y])
    v = is_koszul_cube(t, [X, Y])
    assert v.is_koszul
    assert set(v.diagnostics) == {"1|1", "1,2|1", "2|2", "1,2|2"}
    assert all(d["injective"] and d["support"] for d in v.diagnostics.values())
    assert "pd" in v.pd_note
    assert is_reduced_koszul(t, [X, Y])


def test_koszul_rejects_wrong_support():
    # boundaries multiply by y in direction 1, but direction 1 claims f = x
    t = typical_cube([Y, Y])
    v = is_koszul_cube(t, [X, Y])
    assert not v.is_koszul
    assert not v.diagnostics["1|1"]["support"]
    assert v.diagnostics["1|1"]["injective"]


def test_koszul_rejects_noninjective():
    z = Cube(Q2, ("1",), {E: 1, S1: 1}, {(S1, "1"): FreeMap.zero(Q2, 1, 1)})
    v = is_koszul_cube(z, [X])
    assert not v.is_koszul and not v.diagnostics["1|1"]["injective"]


def _reference_diagnostics(x, fs):
    """Both boundary flags from a kernel computation and the radical test
    against the full annihilator of the cokernel."""
    seq = dict(zip(x.labels, fs))
    return {f"{subset_key(T)}|{k}": {
                "injective": is_injective(x.d(T, k)),
                "support": radical_membership(seq[k], annihilator(cokernel(x.d(T, k))))}
            for T in x.subsets() for k in sorted(T)}


def _one_direction(ring, rank0, rank1, rows):
    return Cube(ring, ("1",), {E: rank0, S1: rank1},
                {(S1, "1"): FreeMap(ring, rows, target_rank=rank0, source_rank=rank1)})


def test_koszul_diagnostics_match_annihilator_reference():
    cases = []
    q3 = RingSpec("Q", ("x", "y", "z"))
    qx, qy, qz = q3.gens()
    q_seqs = ([qx], [qx, qy], [qx + qy, qz], [qx, qy + qz, qz])
    suites = [_gen.koszul_suite(100)]
    suites.append([(random_koszul(q_seqs[i % 4], 1 + i % (4 - len(q_seqs[i % 4])), i % 5,
                                  seed=_gen.SEED0 + i), q_seqs[i % 4]) for i in range(24)])
    for suite in suites:
        for c, fs in suite:
            cases.append((c, fs))
            if len(fs) > 1:
                cases.append((c, fs[::-1]))   # wrong support
            cases.append((_gen.zero_direction(c, c.labels[-1]), fs))
    for ring in (q3, _gen.R3):
        x, y, z = ring.gens()
        zero = ring.zero()
        for f in (x, y, zero, ring.one()):
            cases += [
                (_one_direction(ring, 1, 0, [[]]), [f]),                   # 1x0
                (_one_direction(ring, 0, 1, []), [f]),                     # 0x1
                (_one_direction(ring, 2, 1, [[x], [y]]), [f]),             # 2x1
                (_one_direction(ring, 2, 1, [[zero], [zero]]), [f]),
                (_one_direction(ring, 1, 2, [[x, y * z]]), [f]),           # 1x2
                (_one_direction(ring, 2, 3, [[x, y, zero], [zero, x, z]]), [f]),
            ]
    boundaries = 0
    for c, fs in cases:
        reference = _reference_diagnostics(c, fs)
        assert is_koszul_cube(c, fs).diagnostics == reference
        boundaries += len(reference)
    assert boundaries > 600


def test_koszul_power_boundary_not_reduced():
    t = typical_cube([X ** 2])
    assert is_koszul_cube(t, [X]).is_koszul   # supported on V(x), injective
    assert not is_reduced_koszul(t, [X])      # but x itself does not kill coker
    assert is_reduced_koszul(t, [X ** 2])
    with pytest.raises(ValueError):
        is_reduced_koszul(typical_cube([Y, Y]), [X, Y])  # not Koszul at all


def test_sequence_by_mapping():
    t = typical_cube([X, Y], labels=["a", "b"])
    assert is_koszul_cube(t, {"a": X, "b": Y}).is_koszul
    with pytest.raises(ValueError, match="^sequence labels do not match the cube's labels$"):
        is_koszul_cube(t, {"a": X, "c": Y})
    with pytest.raises(ValueError, match="^sequence length 1 does not match 2 cube directions$"):
        is_koszul_cube(t, [X])


def test_koszul_nondegenerate_part():
    # direction 1 is an isomorphism: still Koszul (coker = 0), but degenerate
    c = rank1_square("1", "1", "y", "y")
    assert is_koszul_cube(c, [X, Y]).is_koszul
    nd = nondegenerate_part(c)
    assert nd.labels == ("2",)
    assert nd.d(S2, "2") == FreeMap(Q2, [[Y]])


def _same_cube(a, b):
    return (a.labels == b.labels and a.vertex_rank == b.vertex_rank
            and a.boundary == b.boundary)


def _top_degenerate(x):
    """The directions k whose top boundary d^k_S is invertible."""
    S = frozenset(x.labels)
    top = {k: x.d(S, k) for k in x.labels}
    return {k for k, m in top.items()
            if m.source_rank == m.target_rank and is_unit(determinant_of_square(m))}


def test_koszul_nondegenerate_part_matches_full_test_on_padded_cubes():
    # on a Koszul cube an invertible top boundary d^k_S forces every boundary
    # parallel to it to be invertible, so the top boundaries decide
    # degeneracy.  An identity direction added to a Koszul cube keeps it
    # Koszul (the new cokernels are 0) and is the one degenerate direction:
    # the top-boundary rule must find exactly it, as the test of every
    # parallel boundary does
    cases = _gen.koszul_suite(100) + _gen.nonlinear_koszul_suite()
    for x, fs in cases:
        padded = _gen.pad_identity(x, "9")
        assert is_koszul_cube(padded, list(fs) + [fs[0].ring.gens()[0]]).is_koszul
        assert _top_degenerate(x) == degenerate_directions(x) == frozenset()
        assert _top_degenerate(padded) == degenerate_directions(padded) == {"9"}
        assert _same_cube(nondegenerate_part(padded), x)


# --------------------------------------------------------------------------
# determinants
# --------------------------------------------------------------------------

def test_determinant_typical():
    dets, rep = determinant(typical_cube([X, Y]))
    assert rep.ok
    assert dets == {"1": X, "2": Y}


def test_determinant_incoherent():
    # commuting (x*xy^2 = y^2*x^2) but det ratio x^2/x is not a unit
    c = rank1_square("x", "x^2", "y^2", "x*y^2")
    dets, rep = determinant(c)
    assert not rep.ok
    with pytest.raises(ValueError):
        det_is_a_sequence(c)


def test_det_is_a_sequence():
    assert det_is_a_sequence(typical_cube([X, Y])) is True
    with pytest.raises(ValueError):
        det_is_a_sequence(rank1_square("1", "1", "y", "y"))  # degenerate direction


def test_determinant_rank_mismatch():
    c = Cube(Q2, ("1",), {E: 2, S1: 1},
             {(S1, "1"): FreeMap(Q2, [[X], [Y]])})
    dets, rep = determinant(c)
    assert not rep.ok


@pytest.mark.parametrize("c, failure", [
    (Cube(Q2, ("1",), {E: 1, S1: 1}, {(S1, "1"): FreeMap(Q2, [[Q2.zero()]])}), "det d^1 at {1} is zero"),
    (rank1_square("x", "x", "0", "0"), "det d^2 at {1,2} is zero"),
])
def test_zero_top_determinant_is_one_failure(c, failure):
    # a zero top determinant is reported once, as zero, and no ratio is
    # taken against it; the top is never tested against itself
    assert determinant(c)[1].failures == (failure,)
    for check in (det_is_a_sequence, generators_presentation):
        with pytest.raises(ValueError) as err:
            check(c)
        assert str(err.value) == "determinant incoherence: " + failure


# (a, b, c, d) of rank1_square: parallel determinants that differ by the
# units 2, 1/3 and −1, by y, and a zero top determinant, and a zero
# determinant below a nonzero top; the first three are coherent
UNIT_RATIO_SQUARES = (("2*x", "x", "2*y", "y"), ("1/3*x", "x", "1/3*y", "y"),
                      ("-x", "x", "-y", "y"), ("x*y", "x", "y^2", "y"),
                      ("x", "x", "0", "0"), ("0", "x", "0", "y"))


def _determinant_cases():
    """Koszul cubes over Q and GF(101), whose parallel determinants differ
    by the units of their base changes, and the UNIT_RATIO_SQUARES over
    both fields."""
    cases = [x for x, _ in _gen.koszul_suite() + _gen.nonlinear_koszul_suite()
             + _gen.four_direction_koszul_suite()]
    return cases + [rank1_square(*sq, ring) for ring in (Q2, F101) for sq in UNIT_RATIO_SQUARES]


def _assert_determinants_match_reference(cases):
    for x in cases:
        assert determinant(x) == _reference.determinant(x), x


def test_determinant_matches_the_exact_division_reference():
    # coherence compares monic forms: det d^k_T is a unit multiple of a
    # nonzero top determinant exactly when their monic forms are equal, as
    # an exact division with a unit quotient decides
    cases = _determinant_cases()
    assert [determinant(x)[1].ok for x in cases[-12:]] == ([True] * 3 + [False] * 3) * 2
    _assert_determinants_match_reference(cases)


def test_determinant_gate_can_fail(monkeypatch):
    # a reference that finds no ratio makes every coherent cube incoherent:
    # the gate must trip
    monkeypatch.setattr(_reference, "exact_division", lambda numer, denom: None)
    with pytest.raises(AssertionError):
        _assert_determinants_match_reference(_determinant_cases())


# --------------------------------------------------------------------------
# Buchsbaum–Eisenbud
# --------------------------------------------------------------------------

def test_be_acyclicity_on_koszul_complex():
    rep = be_acyclicity(total_complex(typical_cube([X, Y])))
    assert rep.ok
    assert rep.info["r"] == {1: 1, 2: 1}
    assert rep.info["grades"][1] >= 1 and rep.info["grades"][2] >= 2


def test_be_acyclicity_rejects_corrupted():
    c = total_complex(typical_cube([X, Y]))
    zeroed = Complex(Q2, c.ranks,
                     (FreeMap.zero(Q2, c.ranks[0], c.ranks[1]), c.differential(2)))
    rep = be_acyclicity(zeroed)
    assert not rep.ok
    assert not zero_spherical(zeroed)


def test_be_acyclicity_edge_ranks():
    with pytest.raises(ValueError):
        be_acyclicity(Complex(Q2, (1, 2), (FreeMap(Q2, [[X, Y]]),)))
    d2 = FreeMap.zero(Q2, 1, 2)
    d1 = FreeMap(Q2, [[X], [Y]])
    with pytest.raises(ValueError):
        be_acyclicity(Complex(Q2, (2, 1, 2), (d1, d2)))


def test_be_matches_sphericity_simple():
    good = Complex(Q2, (1, 1), (FreeMap(Q2, [[X]]),))
    assert be_acyclicity(good).ok == zero_spherical(good)
    bad = Complex(Q2, (1, 1), (FreeMap.zero(Q2, 1, 1),))
    assert be_acyclicity(bad).ok == zero_spherical(bad)


# --------------------------------------------------------------------------
# weight decomposition / generators
# --------------------------------------------------------------------------

def test_weight_decomposition_typical():
    rep = verify_weight_decomposition(typical_cube([X, Y]), [X, Y])
    assert rep.ok
    assert rep.info["pairs_checked"] == 9  # 3^2 disjoint (T, U) pairs
    with pytest.raises(ValueError, match="^weight decomposition requires a verified Koszul cube$"):
        verify_weight_decomposition(typical_cube([Y, Y]), [X, Y])


def test_weight_decomposition_support_is_implied_by_koszul():
    # reference for the support test verify_weight_decomposition no longer
    # runs: each f_t (t in T) is in the radical of the annihilator of the
    # iterated-H_0 piece at U, presented by the T-arrival columns
    suites = _gen.koszul_suite(100) + _gen.nonlinear_koszul_suite() + _gen.four_direction_koszul_suite()
    flags = 0
    for x, fs in suites:
        seq = dict(zip(x.labels, fs))
        for T in x.subsets()[1:]:
            pieces = _h0_over(x, T)
            for U in label_subsets(pieces.labels):
                ann = annihilator(pieces.vertices[U])
                for t in sorted(T):
                    assert radical_membership(seq[t], ann), (x.labels, T, U, t)
                    flags += 1
        rep = verify_weight_decomposition(x, fs)
        assert rep.ok and rep.info["pairs_checked"] == 3 ** len(x.labels)
    assert flags > 2000


def test_weight_decomposition_one_direction_faces_are_implied_by_koszul():
    # reference for the |T| = 1 faces verify_weight_decomposition no longer
    # computes: Tot of x|_{t}^U is the boundary d^t_{U∪t}, injective on a
    # Koszul cube, so it is 0-spherical
    suites = _gen.koszul_suite(100) + _gen.nonlinear_koszul_suite() + _gen.four_direction_koszul_suite()
    faces = 0
    for x, fs in suites:
        for t in x.labels:
            for U in label_subsets(lab for lab in x.labels if lab != t):
                assert zero_spherical(total_complex(restrict(x, {t}, U))), (x.labels, t, U)
                faces += 1
    assert faces > 1000


def test_weight_decomposition_validates_once(monkeypatch):
    # the Koszul check validates the cube; its faces are not validated
    # again
    x, fs = next((x, fs) for x, fs in _gen.koszul_suite(10) if len(x.labels) == 3)
    validations = []
    real_validate = cube.validate_cube

    def counted(c):
        validations.append(c.labels)
        return real_validate(c)

    monkeypatch.setattr(cube, "validate_cube", counted)
    assert verify_weight_decomposition(x, fs).info["pairs_checked"] == 27
    assert validations == [x.labels]


def test_weight_decomposition_names_a_face_that_is_not_spherical(monkeypatch):
    # the scan is made to find H_1 on the one face x|_{1,3}^{2}: the Report
    # fails, names that face, and still counts every pair
    x, fs = next((x, fs) for x, fs in _gen.koszul_suite(10) if len(x.labels) == 3)
    chosen = (frozenset({"1", "3"}), frozenset({"2"}))
    faces = []
    real_restrict, real_scan = koszul.restrict, koszul._nonexact_degree

    def recorded(c, T, U):
        faces.append((frozenset(T), frozenset(U)))
        return real_restrict(c, T, U)

    monkeypatch.setattr(koszul, "restrict", recorded)
    monkeypatch.setattr(koszul, "_nonexact_degree",
                        lambda maps, ranks, ring: 1 if faces[-1] == chosen else real_scan(maps, ranks, ring))
    rep = verify_weight_decomposition(x, fs)
    assert not rep.ok
    assert rep.failures == ("Tot of the restriction to {1,3} over {2} is not 0-spherical",)
    assert rep.info["pairs_checked"] == 27
    assert chosen in faces


def test_generators_presentation():
    M, cert = generators_presentation(typical_cube([X, Y]))
    assert M.rank == 1
    assert M.relations == SubmoduleBasis(Q2, 1, [(X,), (Y,)])
    assert cert.a_sequence
    with pytest.raises(ValueError):
        generators_presentation(rank1_square("1", "1", "y", "y"))


@pytest.mark.parametrize("check", [det_is_a_sequence, generators_presentation])
def test_determinant_preconditions_raise_one_error(check):
    # degeneracy is decided first, then coherence, with the same wording
    # in both checks
    with pytest.raises(ValueError, match=r"^degenerate directions \['1'\]: their determinants "
                                         r"are units, take the nondegenerate part first$"):
        check(rank1_square("1", "1", "y", "y"))
    with pytest.raises(ValueError, match=r"^determinant incoherence: det d\^"):
        check(rank1_square("x", "x^2", "y^2", "x*y^2"))


def _count_expansions(monkeypatch):
    """The list to which every later `arith._minors` expansion made by
    modcalc appends its matrix."""
    calls = []
    real = modcalc._minors

    def counted(ring, cols, *args):
        calls.append(cols)
        return real(ring, cols, *args)

    monkeypatch.setattr(modcalc, "_minors", counted)
    return calls


@pytest.mark.parametrize("check", [det_is_a_sequence, generators_presentation])
def test_determinant_preconditions_take_one_determinant_per_boundary(monkeypatch, check):
    # the degeneracy test and the coherence test read the determinant each
    # boundary keeps: 12 boundaries, 12 expansions (there were 15, one per
    # direction twice)
    calls = _count_expansions(monkeypatch)
    x = typical_cube([P("x", Q3), P("y^2", Q3), P("z", Q3)])
    check(x)
    assert len(x.boundary) == 12
    assert len(calls) == 12


def test_a_cube_takes_each_determinant_once_across_checks(monkeypatch):
    # a boundary keeps its determinant, so every check run on one cube
    # shares it: 12 boundaries, 12 expansions (63 when each check kept its
    # own table)
    calls = _count_expansions(monkeypatch)
    fs = [P("x", Q3), P("y^2", Q3), P("z", Q3)]
    x = typical_cube(fs)
    assert det_is_a_sequence(x)
    generators_presentation(x)
    assert is_koszul_cube(x, fs).is_koszul
    assert nondegenerate_part(x).labels == x.labels
    assert determinant(x)[1].ok
    assert degenerate_directions(x) == frozenset()
    assert len(x.boundary) == 12
    assert len(calls) == 12


def _vector_multiset(vectors):
    return Counter(tuple(map(str, v)) for v in vectors)


def test_generators_relations_are_tot_degree_one_columns():
    # the arrival-boundary relations of H_0 are the columns of d_1 of Tot x
    # (each with sign +1), as vectors counted with multiplicity
    checked = 0
    for x, _ in _gen.koszul_suite(100) + _gen.nonlinear_koszul_suite() + _gen.four_direction_koszul_suite():
        if degenerate_directions(x):
            continue
        H, _ = generators_presentation(x)
        d1 = total_complex(x).differential(1)
        assert _vector_multiset(H.relations.generators) == _vector_multiset(zip(*d1.entries))
        checked += 1
    assert checked >= 100


def test_h0_of_koszul_cube_is_perfect():
    # Tot x resolves H_0 with length |S| (Koszul implies admissible implies
    # 0-spherical) and H_0 lives on V(f_S) with grade (f_S) = |S|; as
    # grade Ann M <= pd M, H_0 is perfect: grade Ann H_0 = |S|
    # (Bruns–Herzog, Cohen–Macaulay Rings, §1.4)
    checked = 0
    suites = _gen.koszul_suite(100) + _gen.nonlinear_koszul_suite() + _gen.four_direction_koszul_suite()
    for x, _ in suites:
        if degenerate_directions(x):
            continue
        H, _ = generators_presentation(x)
        if is_zero_module(H):
            continue
        assert grade(annihilator(H)) == len(x.labels), x.labels
        checked += 1
    assert checked >= 100


def test_four_direction_koszul_cubes_are_admissible():
    # Koszul implies admissible, and the determinants of a Koszul cube form
    # an A-sequence: both theorems as oracles at |S| = 4, ranks 1-4, Q and GF(101)
    suite = _gen.four_direction_koszul_suite()
    assert len(suite) == 12
    assert {max(x.vertex_rank.values()) for x, _ in suite} == {1, 2, 3, 4}
    for i, (x, _) in enumerate(suite):
        assert len(x.labels) == 4
        for s in ADMISSIBILITY_STRATEGIES:
            assert is_admissible(x, strategy=s).ok, (i, s)
        assert det_is_a_sequence(x), (i, "determinants not an A-sequence")


def test_four_direction_admissibility_negative_and_padded():
    # a zeroed direction kills injectivity, so no strategy may accept; an
    # identity direction added to a 3-direction Koszul cube gives an
    # admissible cube (Tot is a cone of an identity), so every strategy must
    zeroed = [_gen.zero_direction(x, x.labels[i % 4])
              for i, (x, _) in enumerate(_gen.four_direction_koszul_suite())]
    three = [x for x, _ in _gen.koszul_suite(100) + _gen.nonlinear_koszul_suite(per_sequence=2)
             if len(x.labels) == 3]
    padded = [_gen.pad_identity(x, "9") for x in three]
    assert {x.ring.field.char for x in zeroed} == {x.ring.field.char for x in padded} == {0, 101}
    for s in ADMISSIBILITY_STRATEGIES:
        for i, x in enumerate(zeroed):
            assert not is_admissible(x, strategy=s).ok, (i, s)
        for i, x in enumerate(padded):
            assert is_admissible(x, strategy=s).ok, (i, s)


def test_nonlinear_four_direction_koszul_cubes_pass_every_oracle():
    # x^2, y^2+xz, z^3, w at ranks 1-2, Q and GF(101): Koszul implies
    # admissible under all three strategies; the determinants form an
    # A-sequence; H_0 is perfect, grade Ann H_0 = |S|; and koszul_resolve
    # with U = ∅, V = S passes check_resolution.  A zeroed direction must
    # fail all three strategies.
    suite = _gen.nonlinear_four_direction_koszul_suite()
    assert len(suite) == 4
    assert {x.ring.field.char for x, _ in suite} == {0, 101}
    assert {max(x.vertex_rank.values()) for x, _ in suite} == {1, 2}
    for i, (x, fs) in enumerate(suite):
        assert len(x.labels) == 4
        for s in ADMISSIBILITY_STRATEGIES:
            assert is_admissible(x, strategy=s).ok, (i, s)
        assert det_is_a_sequence(x), (i, "determinants not an A-sequence")
        H, _ = generators_presentation(x)
        assert not is_zero_module(H)
        assert grade(annihilator(H)) == 4, i
        inp = ResolutionInput(dict(zip(x.labels, fs)), [], x.labels, [x])
        assert check_resolution(koszul_resolve(inp), inp).ok, i
        zeroed = _gen.zero_direction(x, x.labels[i % 4])
        for s in ADMISSIBILITY_STRATEGIES:
            assert not is_admissible(zeroed, strategy=s).ok, (i, s, "zeroed")


def test_five_direction_koszul_cubes_are_admissible_and_zeroed_ones_are_not():
    # the two theorem oracles at |S| = 5, rank <= 2, Q and GF(101): Koszul
    # implies admissible under all three strategies, and the determinants
    # form an A-sequence; a zeroed direction must fail all three strategies
    suite = _gen.five_direction_koszul_suite()
    assert len(suite) == 8
    assert {x.ring.field.char for x, _ in suite} == {0, 101}
    assert {max(x.vertex_rank.values()) for x, _ in suite} == {1, 2}
    for i, (x, _) in enumerate(suite):
        assert len(x.labels) == 5
        for s in ADMISSIBILITY_STRATEGIES:
            assert is_admissible(x, strategy=s).ok, (i, s)
        assert det_is_a_sequence(x), (i, "determinants not an A-sequence")
        zeroed = _gen.zero_direction(x, x.labels[i % 5])
        for s in ADMISSIBILITY_STRATEGIES:
            assert not is_admissible(zeroed, strategy=s).ok, (i, s, "zeroed")


def test_five_direction_h0_is_perfect():
    # the perfection oracle of test_h0_of_koszul_cube_is_perfect at |S| = 5:
    # grade Ann H_0 = |S| on every cube of the suite
    for i, (x, _) in enumerate(_gen.five_direction_koszul_suite()):
        H, _ = generators_presentation(x)
        assert not is_zero_module(H), i
        assert grade(annihilator(H)) == 5, i


def test_five_direction_identity_padding_is_admissible():
    # an identity direction added to a 4-direction Koszul cube, over Q and
    # GF(101): Tot is a cone of an identity, so every strategy must accept,
    # and the added direction is the only degenerate one
    suite = _gen.four_direction_koszul_suite()
    padded = [_gen.pad_identity(suite[i][0], "9") for i in (1, 7)]
    assert {x.ring.field.char for x in padded} == {0, 101}
    for i, x in enumerate(padded):
        assert len(x.labels) == 5
        assert degenerate_directions(x) == {"9"}, i
        for s in ADMISSIBILITY_STRATEGIES:
            assert is_admissible(x, strategy=s).ok, (i, s)


def test_five_direction_resolve_round_trips():
    # koszul_resolve with U = ∅, V = S at |V| = 5 passes check_resolution:
    # both rank-1 cubes of the suite and one rank-2 cube over GF(101)
    suite = _gen.five_direction_koszul_suite()
    cubes = [suite[i] for i in (0, 4, 5)]
    assert [(x.ring.field.char, max(x.vertex_rank.values())) for x, _ in cubes] == \
        [(0, 1), (101, 1), (101, 2)]
    for i, (x, fs) in enumerate(cubes):
        inp = ResolutionInput(dict(zip(x.labels, fs)), [], x.labels, [x])
        rep = check_resolution(koszul_resolve(inp), inp)
        assert rep.ok, (i, rep.failures)


def _deep_failure_row(n, field):
    """x_1, ..., x_{n-1}, x_1 + ... + x_{n-1} over field[x_1..x_n]: any n - 1
    of its entries are a regular sequence, and the last is zero modulo them."""
    ring = RingSpec(field, tuple(f"x{i}" for i in range(1, n + 1)))
    xs = ring.gens()[:n - 1]
    return ring, list(xs) + [sum(xs, ring.zero())]


@pytest.mark.parametrize("field", ["Q", 101])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_admissibility_fails_at_depth_n_minus_one(n, field):
    # Typ of a sequence that is no A-sequence, whose first failure lies
    # n - 1 levels of H_0 deep: every strategy must agree with is_A_sequence,
    # and the definition must find the failure on each of the n! paths
    _, row = _deep_failure_row(n, field)
    want = is_A_sequence(row).a_sequence
    assert want is False
    x = typical_cube(row)
    for s in ADMISSIBILITY_STRATEGIES:
        assert is_admissible(x, strategy=s).ok is want, s
    failures = is_admissible(x, strategy="definition").failures
    assert len(failures) == factorial(n)
    assert all(f.count("H0^") == n - 1 for f in failures)


@pytest.mark.parametrize("field", ["Q", 101])
def test_deep_failure_survives_sums_and_base_change(field):
    # the bad row summed with an A-sequence row and its square, conjugated
    # by elementary matrices as random_koszul does: the good summands fail
    # nowhere and a base change is an isomorphism, so every strategy must
    # list exactly the bad row's failures
    ring, bad = _deep_failure_row(4, field)
    good = list(ring.gens())
    labels = ("1", "2", "3", "4")
    x = koszul._typical_sum(ring, labels, [bad, good, [g * g for g in good]], ())
    rng = random.Random(_gen.SEED0)
    P, Pinv = {}, {}
    for T in x.subsets():
        factors = [(*rng.sample(range(3), 2), ring.const(rng.randint(1, 5))) for _ in range(3)]
        P[T] = koszul._elementary_product(ring, 3, factors)
        Pinv[T] = koszul._elementary_product(ring, 3, [(i, j, -c) for i, j, c in reversed(factors)])
    y = Cube(ring, labels, x.vertices, {(T, k): P[T - {k}].compose(d).compose(Pinv[T])
                                        for (T, k), d in x.boundary.items()})
    assert validate_cube(y).ok
    assert any(len(d.cols[0]) > 1 for d in y.boundary.values())
    for s in ADMISSIBILITY_STRATEGIES:
        want = is_admissible(typical_cube(bad, labels), strategy=s)
        assert not want.ok
        assert is_admissible(y, strategy=s).failures == want.failures, s


def _failing_pairs(failures, prefix=""):
    """The (set of H_0 directions, failing direction) of each failure
    "prefixH0^a·H0^b·boundary d^t_{T} is not injective"; the face steps
    "front^k" that the inductive strategy puts in the path are skipped."""
    pairs = set()
    for f in failures:
        *path, boundary = f[len(prefix):].split("·")
        pairs.add((frozenset(h[len("H0^"):] for h in path if h.startswith("H0^")),
                   boundary[len("boundary d^"):].split("_", 1)[0]))
    return pairs


def _zero_divisor_pairs(labels, row):
    """The (P, t), t ∉ P, for which f_t is a zero divisor on A/(f_P), that
    is (f_P : f_t) ≠ (f_P), by ideal quotients."""
    ring = row[0].ring
    f = dict(zip(labels, row))
    out = set()
    for P in label_subsets(labels):
        I = IdealBasis(ring, [f[k] for k in labels if k in P])
        out |= {(P, t) for t in labels if t not in P and ideal_quotient(I, f[t]) != I}
    return out


def test_base_changed_sums_of_bad_rows_fail_where_quotients_say():
    # typical sums of a row that is no A-sequence and the variables,
    # base-changed at every vertex, at |S| = 3, 4 and 5 over Q and GF(101):
    # every strategy agrees with is_A_sequence and lists exactly the bad
    # row's failures, and with (f_S) proper the definition fails at exactly
    # the (H_0 directions P, direction t) for which f_t is a zero divisor on
    # A/(f_P)
    suite = _gen.not_a_sequence_suite()
    assert len(suite) == 12
    for family, x, bad in suite:
        case = (family, x.ring.field.char, len(x.labels))
        assert validate_cube(x).ok, case
        assert any(len(d.cols[0]) > 1 for d in x.boundary.values()), case
        assert not IdealBasis(x.ring, bad).contains_one(), case
        want = is_A_sequence(bad).a_sequence
        assert want is False, case
        reports = {s: is_admissible(x, strategy=s) for s in ADMISSIBILITY_STRATEGIES}
        assert {s: r.ok for s, r in reports.items()} == dict.fromkeys(reports, want), case
        for s, r in reports.items():
            assert r.failures == is_admissible(typical_cube(bad, x.labels), strategy=s).failures, \
                (case, s)
        pairs = _failing_pairs(reports["definition"].failures)
        assert pairs == _zero_divisor_pairs(x.labels, bad), case
        # the first failure is n - 1 levels deep, or at every depth from 1
        n = len(x.labels)
        depths = {n - 1} if family == "deep" else set(range(1, n - 1))
        assert {len(P) for P, _ in pairs} == depths, case


def test_resolve_refuses_bad_rows_where_quotients_say():
    # the same cubes as targets over the variables, an A-sequence: verify()
    # runs the inductive strategy, so resolve refuses each cube, and every
    # boundary it names as not injective lies at an (H_0 directions P,
    # direction t) with f_t a zero divisor on A/(f_P), the first one n - 1
    # H_0 levels deep for "deep" and 1 for "image"
    for family, x, bad in _gen.not_a_sequence_suite():
        case = (family, x.ring.field.char, len(x.labels))
        inp = ResolutionInput(dict(zip(x.labels, x.ring.gens())), [], x.labels, [x])
        injective = [f for f in inp.verify().failures if f.endswith("is not injective")]
        assert injective, case
        assert _failing_pairs(injective, "target 0: ") <= _zero_divisor_pairs(x.labels, bad), case
        depth = len(x.labels) - 1 if family == "deep" else 1
        assert injective[0].count("H0^") == depth, case
        with pytest.raises(ValueError, match="is not injective"):
            koszul_resolve(inp)


# --------------------------------------------------------------------------
# random generation
# --------------------------------------------------------------------------

def test_random_koszul_deterministic():
    fs = list(F101.gens())
    a = random_koszul(fs, 2, 3, seed=11)
    b = random_koszul(fs, 2, 3, seed=11)
    assert a.labels == b.labels and a.vertex_rank == b.vertex_rank
    for T in a.subsets():
        for k in sorted(T):
            assert a.d(T, k) == b.d(T, k)


def test_random_koszul_seed_changes_output():
    fs = list(F101.gens())
    outs = {
        tuple(str(p) for T in c.subsets() for k in sorted(T) for row in c.d(T, k).entries
              for p in row)
        for c in (random_koszul(fs, 2, 4, seed=s) for s in range(6))
    }
    assert len(outs) > 1


def test_random_koszul_is_koszul_and_bounded():
    fs = list(F101.gens())
    for seed in range(4):
        c = random_koszul(fs, 3, 5, seed=seed)
        assert validate_cube(c).ok
        assert is_koszul_cube(c, fs).is_koszul
        assert all(c.vertex_rank[T] == 3 for T in c.subsets())
        for T in c.subsets():
            for k in sorted(T):
                for row in c.d(T, k).entries:
                    for p in row:
                        assert p.total_degree() <= 2


def test_random_koszul_trivial_cases():
    fs = [F101.var("x")]
    c = random_koszul(fs, 1, 0, seed=0)
    t = typical_cube(fs)
    assert c.vertex_rank == t.vertex_rank
    assert c.d(S1, "1") == t.d(S1, "1")


def test_random_koszul_input_caps():
    x, y = F101.gens()
    with pytest.raises(ValueError):
        random_koszul([x, x], 2, 2, seed=0)            # not an A-sequence
    with pytest.raises(ValueError):
        random_koszul([x], 5, 2, seed=0)               # too many summands
    with pytest.raises(ValueError):
        random_koszul([x], 2, 13, seed=0)              # too many steps
    with pytest.raises(ValueError, match="^need a nonempty sequence$"):
        random_koszul([], 2, 2, seed=0)
    r7 = RingSpec(101, ("a", "b", "c", "d", "e", "f", "g"))
    with pytest.raises(ValueError, match="at most 6 directions"):
        random_koszul(list(r7.gens()), 1, 0, seed=0)   # too many directions
    assert len(random_koszul(list(r7.gens())[:6], 1, 0, seed=0).labels) == 6
