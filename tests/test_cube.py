"""Cubes: validation, faces, total complex signs, directional homology,
admissibility strategies."""

import pytest

import _gen
import _reference
from koszul_lab.arith import RingSpec, parse_poly
from koszul_lab.cube import (
    ADMISSIBILITY_STRATEGIES,
    Cube,
    ModCube,
    Report,
    _h0_modcube,
    _mod_injective,
    degenerate_directions,
    directional_homology,
    is_admissible,
    iterated_h0,
    nondegenerate_part,
    restrict,
    subset_key,
    total_complex,
    validate_cube,
)
from koszul_lab.groebner import SubmoduleBasis, syzygies
from koszul_lab.koszul import typical_cube
from koszul_lab.modcalc import (
    FPModule,
    FreeMap,
    cokernel,
    homology,
    is_zero_module,
    zero_spherical,
)

Q2 = RingSpec("Q", ("x", "y"))
Q3 = RingSpec("Q", ("x", "y", "z"))
X, Y = Q2.gens()
MOD_X = cokernel(FreeMap(Q2, [[X]]))  # A/(x)

E = frozenset()
S1 = frozenset({"1"})
S2 = frozenset({"2"})
S12 = frozenset({"1", "2"})


def P(s, ring=Q2):
    return parse_poly(s, ring)


def square(d1_entry, d2_entry, ring=Q2):
    """Rank-1 square cube with constant direction matrices."""
    a = parse_poly(d1_entry, ring)
    b = parse_poly(d2_entry, ring)
    return Cube(ring, ("1", "2"), {E: 1, S1: 1, S2: 1, S12: 1},
                {(S1, "1"): FreeMap(ring, [[a]]),
                 (S2, "2"): FreeMap(ring, [[b]]),
                 (S12, "1"): FreeMap(ring, [[a]]),
                 (S12, "2"): FreeMap(ring, [[b]])})


BOTH_X = square("x", "x")  # injective everywhere but H_1(Tot) = A/(x) != 0


def test_subset_key():
    assert subset_key(E) == ""
    assert subset_key(frozenset({"2", "1"})) == "1,2"
    assert subset_key(frozenset({"10", "2"})) == "10,2"  # string sort, documented


def test_validate_catches_noncommuting_square():
    bad = Cube(Q2, ("1", "2"), {E: 1, S1: 1, S2: 1, S12: 1},
               {(S1, "1"): FreeMap(Q2, [[X]]),
                (S2, "2"): FreeMap(Q2, [[Y]]),
                (S12, "1"): FreeMap(Q2, [[X]]),
                (S12, "2"): FreeMap(Q2, [[X]])})
    rep = validate_cube(bad)
    assert not rep.ok
    assert any("1,2" in f for f in rep.failures)
    with pytest.raises(ValueError):
        total_complex(bad)


def _square_mod_x(e_vertex):
    """Square whose two paths to the empty vertex are 1 and 1 + x."""
    one = FreeMap(Q2, [[P("1")]])
    return ModCube(Q2, ("1", "2"), {E: e_vertex, S1: 1, S2: 1, S12: 1},
                   {(S1, "1"): one, (S2, "2"): one, (S12, "1"): one,
                    (S12, "2"): FreeMap(Q2, [[P("1 + x")]])})


def test_validate_square_commuting_modulo_relations():
    assert validate_cube(_square_mod_x(MOD_X)).ok
    assert validate_cube(_square_mod_x(1)).failures == (
        "square at {1,2} in directions 1,2 does not commute",)


def test_validate_catches_boundary_not_preserving_relations():
    one = FreeMap(Q2, [[P("1")]])
    z = ModCube(Q2, ("1",), {E: 1, S1: MOD_X}, {(S1, "1"): one})
    assert validate_cube(z).failures == ("boundary d^1_{1} does not preserve relations",)
    ok = ModCube(Q2, ("1",), {E: MOD_X, S1: MOD_X},
                 {(S1, "1"): one})
    assert validate_cube(ok).ok


def test_free_only_operations_reject_relations():
    x = _square_mod_x(MOD_X)
    with pytest.raises(ValueError, match="relations"):
        total_complex(x)
    with pytest.raises(ValueError, match="relations"):
        is_admissible(x, strategy="spherical_faces")
    # definition and inductive test injectivity modulo relations:
    # d^1_{1} = 1 : A -> A/(x) kills x
    assert [is_admissible(x, strategy=s).ok for s in ("definition", "inductive")] == [False, False]


def test_module_cube_admissibility():
    from _gen import koszul_suite, perturbed_suite
    # H_0^k of a Koszul cube is an admissible module cube, and H_0 over the
    # remaining directions of it is H_0(Tot) of the free cube
    for x, _ in koszul_suite(30):
        for k in x.labels:
            h = _h0_modcube(x, k)
            assert is_admissible(h, "definition").ok and is_admissible(h, "inductive").ok
            rest = [lab for lab in x.labels if lab != k]
            assert (iterated_h0(h, rest).vertices[E].relations
                    == iterated_h0(x, x.labels).vertices[E].relations)
    # on H_0^k of non-admissible cubes the two strategies agree, both ways
    verdicts = set()
    for x in perturbed_suite(20):
        for k in x.labels:
            h = _h0_modcube(x, k)
            verdicts.add((is_admissible(h, "definition").ok, is_admissible(h, "inductive").ok))
    assert verdicts == {(True, True), (False, False)}


def _mod_injective_reference(m, src, tgt):
    """The test `_mod_injective` ran on the reduced syzygy basis of
    [m | rel_tgt]: every first block must lie in rel_src."""
    rels = tgt.relations.generators
    rows = [list(r) + [g[i] for g in rels] for i, r in enumerate(m.entries)]
    return all(src.relations.contains_vector(g[:m.source_rank])
               for g in syzygies(rows, m.ring, source_rank=m.source_rank + len(rels)))


def test_mod_injective_matches_syzygy_reference():
    from _gen import koszul_suite, perturbed_suite
    verdicts = set()
    for x in [x for x, _ in koszul_suite(30)] + perturbed_suite(20):
        for k in x.labels:
            h = _h0_modcube(x, k)
            for T in h.subsets():
                for l in sorted(T):
                    args = (h.d(T, l), h.vertex(T), h.vertex(T - {l}))
                    ours = _mod_injective(*args)
                    assert ours == _mod_injective_reference(*args), (x, k, T, l)
                    verdicts.add(ours)
    assert verdicts == {True, False}


def test_zero_spherical_matches_homology_on_tot():
    # admissibility no longer presents H_k to test it for zero; homology
    # stays an independent check of zero_spherical on the faces it visits
    from _gen import koszul_suite, perturbed_suite
    verdicts = set()
    for x in [x for x, _ in koszul_suite(100)] + perturbed_suite(50):
        S = frozenset(x.labels)
        for U in x.subsets():
            if not U:
                continue
            for V in restrict(x, S - U, E).subsets():
                c = total_complex(restrict(x, U, V))
                want = all(is_zero_module(homology(c, k)) for k in range(1, c.length + 1))
                assert zero_spherical(c) == want, (x, U, V)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_int_ranks_are_free_modules():
    for x in (typical_cube([X, Y]), BOTH_X, _square_mod_x(1)):
        free = Cube(Q2, x.labels, {T: FPModule.free(Q2, r) for T, r in x.vertex_rank.items()},
                    x.boundary)
        assert free.vertices == x.vertices
        assert validate_cube(free) == validate_cube(x)
        if validate_cube(x).ok:
            a, b = total_complex(free), total_complex(x)
            assert a.ranks == b.ranks and a.differentials == b.differentials


def test_labels_must_serialize():
    for bad in ("", "a,b", "a|b", 1):
        with pytest.raises(ValueError):
            Cube(Q2, (bad,), {E: 1, frozenset({bad}): 1},
                 {(frozenset({bad}), bad): FreeMap(Q2, [[X]])})


def test_vertices_must_lie_over_the_cube_ring():
    # a vertex over another ring would pass validation and then give wrong
    # verdicts: over Q[x, y] this cube reads "not admissible", and over
    # Q[x, y, z] under lex the check ends in a cap error
    d = FreeMap(Q3, [[P(e, Q3) for e in row] for row in (("x", "y"), ("y", "z"), ("z", "x"))])

    def cube(ring):
        return Cube(Q3, ("1",), {E: FPModule.free(ring, 3), S1: FPModule.free(ring, 2)},
                    {(S1, "1"): d})

    assert is_admissible(cube(Q3)).ok
    for ring in (Q2, RingSpec("Q", ("x", "y", "z"), "lex")):
        with pytest.raises(ValueError, match="vertex ring mismatch"):
            cube(ring)


def test_random_maps_against_another_vertex_ring_are_refused():
    # 40 random 3x2 boundaries over Q[x, y, z] with vertices over Q[x, y]
    import random
    rng = random.Random(17)
    monomials = ["0", "1", "x", "y", "z", "x*y", "y*z", "x^2", "z^2"]
    for _ in range(40):
        d = FreeMap(Q3, [[P(rng.choice(monomials), Q3) for _ in range(2)] for _ in range(3)])
        with pytest.raises(ValueError, match="vertex ring mismatch"):
            Cube(Q3, ("1",), {E: FPModule.free(Q2, 3), S1: FPModule.free(Q2, 2)},
                 {(S1, "1"): d})


def test_validate_catches_shape_mismatch():
    with pytest.raises(ValueError):
        Cube(Q2, ("1",), {E: 1, S1: 2},
             {(S1, "1"): FreeMap(Q2, [[X]])})  # 1x1 matrix for a rank-2 source


def test_missing_boundary_rejected():
    with pytest.raises(ValueError):
        Cube(Q2, ("1",), {E: 1, S1: 1}, {})


@pytest.mark.parametrize("labels, vertices, boundary, message", [
    (("1", "1"), {E: 1, S1: 1}, {(S1, "1"): FreeMap(Q2, [[X]])}, "cube labels must be distinct"),
    (("1",), {E: -1, S1: 1}, {(S1, "1"): FreeMap(Q2, [[X]])}, "vertex rank must be non-negative"),
    (("1",), {E: 1}, {}, "vertices must cover exactly the subsets of the labels"),
    (("1",), {E: 1, S1: 1}, {(S1, "1"): FreeMap(Q3, [[P("z", Q3)]])}, "boundary ring mismatch"),
])
def test_constructor_refusals(labels, vertices, boundary, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Cube(Q2, labels, vertices, boundary)


def test_total_complex_signs_frozen():
    # Typ(x, y): d1 = (x y), d2 = (y, -x)^t in lexicographic summand order
    c = total_complex(typical_cube([X, Y]))
    assert c.ranks == (1, 2, 1)
    assert c.differential(1) == FreeMap(Q2, [[X, Y]])
    assert c.differential(2) == FreeMap(Q2, [[Y], [-X]])


def test_total_complex_three_directions():
    x, y, z = Q3.gens()
    c = total_complex(typical_cube([x, y, z]))
    assert c.ranks == (1, 3, 3, 1)
    assert c.differential(1) == FreeMap(Q3, [[x, y, z]])
    # d^2 = 0 is enforced by the Complex constructor; homology is the real check
    assert zero_spherical(c)
    assert homology(c, 0).relations == SubmoduleBasis(Q3, 1, [(x,), (y,), (z,)])


def test_total_complex_custom_ordering():
    # the same cube with its labels in the order 2, 1: summand order is
    # always canonical, and the label order only flips signs
    x = typical_cube([X, Y])
    c = total_complex(Cube(Q2, ("2", "1"), dict(x.vertices), dict(x.boundary)))
    assert c.differential(1) == FreeMap(Q2, [[X, Y]])
    assert c.differential(2) == FreeMap(Q2, [[-Y], [X]])
    assert zero_spherical(c)
    assert homology(c, 0).relations == SubmoduleBasis(Q2, 1, [(X,), (Y,)])


def test_restrict_faces():
    x = typical_cube([X, Y])
    front = restrict(x, {"1"}, frozenset())
    assert front.labels == ("1",)
    assert front.d(S1, "1") == FreeMap(Q2, [[X]])
    back = restrict(x, {"1"}, {"2"})
    assert back.d(S1, "1") == FreeMap(Q2, [[X]])
    assert back.vertex_rank[E] == 1
    with pytest.raises(ValueError):
        restrict(x, {"1"}, {"1"})
    with pytest.raises(ValueError):
        restrict(x, {"7"}, frozenset())


def _restrict_reference(x, U, V):
    """x|_U^V through the checked constructor, from x's public accessors."""
    labels = tuple(lab for lab in x.labels if lab in U)
    sub = [A for A in x.subsets() if A <= U]
    return Cube(x.ring, labels, {A: x.vertex(A | V) for A in sub},
                {(A, k): x.d(A | V, k) for A in sub for k in A})


def _h0_reference(x, k):
    """H_0^k of x through the checked constructor: each vertex's relations
    enlarged by the columns of d^k."""
    sub = [T for T in x.subsets() if k not in T]
    verts = {}
    for T in sub:
        M = x.vertex(T)
        rels = M.relations.plus(SubmoduleBasis(x.ring, M.rank, x.d(T | {k}, k).cols))
        verts[T] = FPModule(x.ring, M.rank, rels)
    return Cube(x.ring, tuple(lab for lab in x.labels if lab != k), verts,
                {(T, l): x.d(T, l) for T in sub for l in T})


def _same_cube(a, b):
    return (a.ring == b.ring and a.labels == b.labels and dict(a.vertices) == dict(b.vertices)
            and dict(a.boundary) == dict(b.boundary))


def test_derived_cubes_are_the_checked_constructors_cubes():
    # faces and H_0 cubes share their parent's maps and skip the
    # constructor's checks; they must be the cubes it builds from the same
    # data, and pass it
    from _gen import four_direction_koszul_suite, koszul_suite
    cubes = [x for x, _ in koszul_suite(20) + four_direction_koszul_suite(2)]
    h0s = [_h0_modcube(x, k) for x in cubes for k in x.labels]
    for x in cubes + h0s:
        S = frozenset(x.labels)
        for U in x.subsets():
            for V in restrict(x, S - U, E).subsets():
                face = restrict(x, U, V)
                assert _same_cube(face, _restrict_reference(x, U, V)), (x, U, V)
                assert _same_cube(face, Cube(face.ring, face.labels, dict(face.vertices),
                                             dict(face.boundary)))
        for k in x.labels:
            assert _same_cube(_h0_modcube(x, k), _h0_reference(x, k)), (x, k)
    for x in cubes:
        for T in x.subsets():
            want = x
            for k in [lab for lab in x.labels if lab in T]:
                want = _h0_reference(want, k)
            assert _same_cube(iterated_h0(x, T), want), (x, T)
    for x in cubes + h0s:
        assert validate_cube(x).ok
    x = cubes[-1]
    with pytest.raises(ValueError, match="not in cube labels"):
        restrict(x, {"9"}, E)
    with pytest.raises(ValueError, match="overlap"):
        restrict(x, {"1", "2"}, {"2"})


def test_degenerate_directions():
    x = square("1", "x")  # direction 1 is an isomorphism everywhere
    assert degenerate_directions(x) == frozenset({"1"})
    nd = nondegenerate_part(x)
    assert nd.labels == ("2",)
    assert nd.d(S2, "2") == FreeMap(Q2, [[X]])
    assert degenerate_directions(typical_cube([X, Y])) == frozenset()


def test_degenerate_directions_with_a_boundary_that_is_not_square():
    # d^1 maps A^2 onto A, which is not invertible; d^2 is the identity on
    # every vertex, so direction 2 alone is degenerate
    proj = FreeMap(Q2, [[Q2.one(), Q2.zero()]])
    x = Cube(Q2, ("1", "2"), {E: 1, S1: 2, S2: 1, S12: 2},
             {(S1, "1"): proj, (S12, "1"): proj,
              (S2, "2"): FreeMap.identity(Q2, 1), (S12, "2"): FreeMap.identity(Q2, 2)})
    assert validate_cube(x).ok
    assert degenerate_directions(x) == frozenset({"2"})


def test_directional_homology_h0():
    h = directional_homology(typical_cube([X, Y]), "1", 0)
    assert h.labels == ("2",)
    for T in h.subsets():
        assert h.vertex(T).relations.contains_vector((X,))
    assert h.d(S2, "2") == FreeMap(Q2, [[Y]])
    with pytest.raises(ValueError, match="direction '3' not a label"):
        directional_homology(typical_cube([X, Y]), "3", 0)
    with pytest.raises(ValueError, match="direction '1' not in subset 2"):
        h.d(S2, "1")


def test_directional_homology_h1():
    zero_d = Cube(Q2, ("1",), {E: 1, S1: 1}, {(S1, "1"): FreeMap.zero(Q2, 1, 1)})
    h1 = directional_homology(zero_d, "1", 1)
    assert h1.labels == ()
    assert h1.vertex(E).rank == 1  # ker(0) = A
    inj = directional_homology(typical_cube([X, Y]), "1", 1)
    assert inj.vertex(E).rank == 0
    with pytest.raises(ValueError):
        directional_homology(typical_cube([X, Y]), "1", 2)


def test_directional_homology_h1_without_coordinates_raises(monkeypatch):
    # an induced boundary is written in the target's kernel generators; when
    # the solver finds no coordinates the invariant is broken, and that is a
    # RuntimeError naming the boundary and the first generator the lift
    # (cube._factor_through) reports, not a None inside a matrix
    import koszul_lab.cube
    import koszul_lab.modcalc
    from _gen import zero_direction
    from koszul_lab.koszul import random_koszul
    x = zero_direction(typical_cube([X, Y]), "2")
    with monkeypatch.context() as m:
        m.setattr(koszul_lab.modcalc, "_graph_coordinates", lambda vecs, *rest: [None] * len(vecs))
        with pytest.raises(RuntimeError, match=r"d\^1_\{1,2\} maps kernel generator 0 out"):
            directional_homology(x, "2", 1)
    # zeroing d^2 of a rank-2 cube leaves two kernel generators per vertex
    x = zero_direction(random_koszul([X, Y], 2, 3, seed=11), "2")
    assert directional_homology(x, "2", 1).vertex_rank == {E: 2, S1: 2}
    monkeypatch.setattr(koszul_lab.cube, "_factor_through", lambda d, b, rel: 1)
    with pytest.raises(RuntimeError, match=r"^d\^1_\{1,2\} maps kernel generator 1 out of "
                                           r"the kernel of d\^2$"):
        directional_homology(x, "2", 1)


def test_directional_homology_h1_of_zeroed_direction():
    # ker of the zeroed d^2 is the whole vertex, so H_1^2 is the back face
    # written in the reduced kernel basis (e2, e1); boundaries pinned as the
    # one-vector solver computed them
    from _gen import zero_direction
    from koszul_lab.koszul import random_koszul
    ring = RingSpec(101, ("x", "y", "z"))
    x = zero_direction(random_koszul(list(ring.gens()), 2, 3, seed=11), "2")
    h = directional_homology(x, "2", 1)
    assert validate_cube(h).ok
    assert {subset_key(T): h.vertex(T).rank for T in h.subsets()} == {
        "": 2, "1": 2, "3": 2, "1,3": 2}
    got = {f"{subset_key(T)}|{l}": [[str(p) for p in r] for r in h.d(T, l).entries]
           for T in h.subsets() for l in sorted(T)}
    assert got == {
        "1|1": [["x^2", "30*x^2"], ["23*x^2 + 56*x", "84*x^2 + 65*x"]],
        "3|3": [["54*z^2", "91*z^2"], ["30*z^2 + 25*z", "73*z^2 + z"]],
        "1,3|1": [["x^2 + 69*x", "10*x"], ["76*x^2 + 9*x", "54*x"]],
        "1,3|3": [["65*z^2 + 96*z", "71*z"], ["45*z^2 + 17*z", "z"]],
    }


def test_iterated_h0_agreement():
    x = typical_cube([X, Y])
    mc = iterated_h0(x, {"1", "2"})
    assert mc.labels == ()
    assert mc.vertex(E).relations == SubmoduleBasis(Q2, 1, [(X,), (Y,)])


def test_iterated_h0_requires_admissibility():
    # every boundary of BOTH_X is injective; each H_0^k is not admissible
    with pytest.raises(ValueError) as refusal:
        iterated_h0(BOTH_X, {"1", "2"})
    assert str(refusal.value) == (
        "iterated H_0 requires an admissible cube: H0^1·boundary d^2_{2} is not injective; "
        "H0^2·boundary d^1_{1} is not injective")


@pytest.mark.parametrize("T", [(), ("1",), ("2",), ("1", "2")])
def test_iterated_h0_rejects_an_invalid_cube_in_any_directions(T):
    # d^1 d^2 = x·y but d^2 d^1 = x·x at {1,2}: H_0 in fewer than two
    # directions used to be taken without validating the cube
    bad = Cube(Q2, ("1", "2"), {E: 1, S1: 1, S2: 1, S12: 1},
               {(S1, "1"): FreeMap(Q2, [[X]]), (S2, "2"): FreeMap(Q2, [[Y]]),
                (S12, "1"): FreeMap(Q2, [[X]]), (S12, "2"): FreeMap(Q2, [[X]])})
    with pytest.raises(ValueError, match=r"^invalid cube: square at \{1,2\} in directions 1,2 "
                                         r"does not commute$"):
        iterated_h0(bad, T)


def test_iterated_h0_explicit_orders():
    x, y, z = Q3.gens()
    t = typical_cube([x, y, z])
    want = SubmoduleBasis(Q3, 1, [(x,), (z,)])
    mc = iterated_h0(t, {"1", "3"})
    assert mc.labels == ("2",)
    assert mc.vertex(E).relations == want
    # the reverse order presents the same vertex
    rev = _h0_modcube(_h0_modcube(t, "3"), "1")
    assert rev.vertex(E).relations == want


def test_iterated_h0_matches_tot_h0():
    x, y, z = Q3.gens()
    t = typical_cube([x, y, z])
    T = {"1", "2"}
    mc = iterated_h0(t, T)
    for W in mc.subsets():
        tot0 = homology(total_complex(restrict(t, T, W)), 0)
        assert mc.vertex(W).relations == tot0.relations


# --------------------------------------------------------------------------
# admissibility
# --------------------------------------------------------------------------

def test_typical_cube_admissible_all_strategies():
    x = typical_cube([X, Y])
    for s in ADMISSIBILITY_STRATEGIES:
        assert is_admissible(x, strategy=s).ok


def test_both_directions_x_square_rejected_everywhere():
    verdicts = {s: is_admissible(BOTH_X, strategy=s) for s in ADMISSIBILITY_STRATEGIES}
    assert all(not rep.ok for rep in verdicts.values())
    # injectivity holds at every boundary, so the defect shows up one level in
    assert any("H_1" in f for f in verdicts["spherical_faces"].failures)
    assert any("H0^" in f for f in verdicts["definition"].failures)


def test_noninjective_cube_rejected():
    z = Cube(Q2, ("1",), {E: 1, S1: 1}, {(S1, "1"): FreeMap.zero(Q2, 1, 1)})
    for s in ADMISSIBILITY_STRATEGIES:
        assert not is_admissible(z, strategy=s).ok


def test_empty_cube_admissible():
    z = Cube(Q2, (), {E: 2}, {})
    for s in ADMISSIBILITY_STRATEGIES:
        assert is_admissible(z, strategy=s).ok


def test_identity_padding_preserves_admissibility():
    base = typical_cube([X, Y])
    padded = _gen.pad_identity(base, "3")
    for s in ADMISSIBILITY_STRATEGIES:
        assert is_admissible(padded, strategy=s).ok


def test_report_truth_is_its_verdict():
    # a dataclass instance is truthy whatever its fields; a Report is not
    assert bool(Report(True)) is True
    assert bool(Report(False, ("a failure",))) is False
    assert not is_admissible(BOTH_X, "definition") and is_admissible(typical_cube([X, Y]))


def test_unknown_strategy():
    with pytest.raises(ValueError):
        is_admissible(typical_cube([X]), strategy="magic")


# --------------------------------------------------------------------------
# admissibility: homology regression, pinned failure lists, work counts
# --------------------------------------------------------------------------

@pytest.mark.parametrize("field", [101, "Q"])
def test_koszul_rank4_cube_admissible_all_strategies(field):
    # Koszul, hence admissible.  spherical_faces used to reject it: H_1 was
    # presented without the syzygies among its kernel generators.
    from koszul_lab.koszul import random_koszul
    ring = RingSpec(field, ("x", "y", "z", "w"))
    x = random_koszul(list(ring.gens()), 4, 6, seed=7)
    for s in ADMISSIBILITY_STRATEGIES:
        assert is_admissible(x, strategy=s).ok, s


# Failure lists as the unmemoized recursions produced them.  In both cubes
# one face or H_0 cube is reached along several paths, so the memo has to
# replay its failures under each path's prefix.  spherical_faces visits
# front faces only: its list is the back-face recursion's
# (`_reference.admissible_spherical`) less the back^ entries.
ZERO_DIRECTION_SPHERICAL_FAILURES = (
    "Tot is not 0-spherical: H_1 is nonzero",
    "front^2·Tot is not 0-spherical: H_1 is nonzero",
    "front^2·front^3·Tot is not 0-spherical: H_1 is nonzero",
    "front^3·Tot is not 0-spherical: H_1 is nonzero",
    "front^3·front^2·Tot is not 0-spherical: H_1 is nonzero",
)
ZERO_DIRECTION_DEFINITION_FAILURES = (
    "boundary d^1_{1} is not injective",
    "boundary d^1_{1,2} is not injective",
    "boundary d^1_{1,3} is not injective",
    "boundary d^1_{1,2,3} is not injective",
)
# (x, y, x + y): every boundary and every single H_0 is injective, but each
# H_0 over two directions is reached twice and kills the third.
TYPICAL_XY_XPY_DEFINITION_FAILURES = (
    "H0^1·H0^2·boundary d^3_{3} is not injective",
    "H0^1·H0^3·boundary d^2_{2} is not injective",
    "H0^2·H0^1·boundary d^3_{3} is not injective",
    "H0^2·H0^3·boundary d^1_{1} is not injective",
    "H0^3·H0^1·boundary d^2_{2} is not injective",
    "H0^3·H0^2·boundary d^1_{1} is not injective",
)


def test_memoized_failure_lists_pinned():
    from _gen import X3, Y3, Z3, zero_direction
    from koszul_lab.koszul import random_koszul
    zd = zero_direction(random_koszul([X3, Y3, Z3], 1, 2, seed=0), "1")
    assert is_admissible(zd, "spherical_faces").failures == ZERO_DIRECTION_SPHERICAL_FAILURES
    assert is_admissible(zd, "definition").failures == ZERO_DIRECTION_DEFINITION_FAILURES
    t = typical_cube([X3, Y3, X3 + Y3])
    assert is_admissible(t, "definition").failures == TYPICAL_XY_XPY_DEFINITION_FAILURES
    assert is_admissible(t, "spherical_faces").failures == (
        "Tot is not 0-spherical: H_1 is nonzero",)


def _nonadmissible_cubes():
    """The seeded non-admissible suite, zero_direction in each direction of
    two |S| = 3 Koszul cubes, and (x, y, x + y)."""
    from _gen import X3, Y3, Z3, perturbed_suite, zero_direction
    from koszul_lab.koszul import random_koszul
    zeroed = [zero_direction(random_koszul(fs, 1 + i, 2, seed=i), lab)
              for i, fs in enumerate(([X3, Y3, Z3], [X3, Y3 + Z3, Z3])) for lab in ("1", "2", "3")]
    return perturbed_suite(20) + zeroed + [typical_cube([X3, Y3, X3 + Y3])]


def _assert_front_faces_decide(x, strategy):
    # the back faces the reference also visits change no verdict, and only
    # their own failures go missing; returns the reference's Report
    ref = _reference.admissibility(x, strategy)
    got = is_admissible(x, strategy)
    assert got.ok == ref.ok, (x, strategy)
    assert got.failures == tuple(f for f in ref.failures if "back^" not in f), (x, strategy)
    assert got.failures or not any("back^" in f for f in ref.failures), (x, strategy)
    return ref


def test_back_faces_change_no_verdict():
    lost = {s: 0 for s in ("inductive", "spherical_faces")}
    cubes = _nonadmissible_cubes()
    for x in cubes:
        for s in lost:
            ref = _assert_front_faces_decide(x, s)
            lost[s] += sum("back^" in f for f in ref.failures)
        for k in x.labels:
            _assert_front_faces_decide(_h0_modcube(x, k), "inductive")
    assert all(not is_admissible(x, "definition").ok for x in cubes)
    assert lost["inductive"] > 0 and lost["spherical_faces"] > 0


def test_back_face_gate_can_fail(monkeypatch):
    # a reference whose back faces always fail disagrees on an admissible cube
    from _gen import X3, Y3, Z3
    x = typical_cube([X3, Y3, Z3])
    for s in ("inductive", "spherical_faces"):
        _assert_front_faces_decide(x, s)
    inductive, spherical = _reference.admissible_inductive, _reference.admissible_spherical

    def failing_inductive(mc, failures, prefix):
        if "back^" in prefix:
            failures.append(f"{prefix}broken")
            return False
        return inductive(mc, failures, prefix)

    def failing_spherical(face, fixed, memo):
        return (False, ("broken",)) if fixed else spherical(face, fixed, memo)

    monkeypatch.setattr(_reference, "admissible_inductive", failing_inductive)
    monkeypatch.setattr(_reference, "admissible_spherical", failing_spherical)
    for s in ("inductive", "spherical_faces"):
        with pytest.raises(AssertionError):
            _assert_front_faces_decide(x, s)


def _assert_squares_decide(x):
    # definition tests the first-label boundary at each vertex and the
    # commuting squares decide the rest: the Report, failures included, is
    # the one testing every boundary gives
    ref = _reference.admissibility(x, "definition")
    assert is_admissible(x, "definition") == ref, x
    return ref


def test_definition_squares_change_no_report():
    from _gen import four_direction_koszul_suite, koszul_suite
    admissible = [x for x, _ in koszul_suite(20) + four_direction_koszul_suite(2)]
    refused = _nonadmissible_cubes() + [BOTH_X, _square_mod_x(MOD_X), square("x", "0"),
                                        square("0", "y")]
    for cubes, ok in ((admissible, True), (refused, False)):
        assert {x.ring.field.char for x in cubes} == {0, 101}
        assert all(_assert_squares_decide(x).ok == ok for x in cubes)
    # the H_0 cubes are module cubes, admissible or not over either field
    h0 = [_h0_modcube(x, k) for x in admissible + refused for k in x.labels]
    assert {(h.ring.field.char, _assert_squares_decide(h).ok) for h in h0} == {
        (0, True), (0, False), (101, True), (101, False)}
    # d^2 is the second label's boundary at {1,2}: the squares do not
    # decide it when a first-label boundary fails, so it is tested
    assert is_admissible(square("x", "0"), "definition").failures == (
        "boundary d^2_{2} is not injective", "boundary d^2_{1,2} is not injective")


def test_definition_squares_gate_can_fail(monkeypatch):
    # a reference that reports d^2_{1,2}, which is not a first-label
    # boundary, as not injective disagrees on an admissible cube
    from _gen import X3, Y3, Z3
    x = typical_cube([X3, Y3, Z3])
    _assert_squares_decide(x)
    injective, d2 = _reference._mod_injective, x.d({"1", "2"}, "2")
    monkeypatch.setattr(_reference, "_mod_injective",
                        lambda m, src, tgt: m is not d2 and injective(m, src, tgt))
    with pytest.raises(AssertionError):
        _assert_squares_decide(x)


@pytest.mark.parametrize("variables,tests", [("xyz", 19), ("xyzw", 65)])
def test_definition_tests_one_boundary_per_vertex(count_calls, variables, tests):
    # Typ(x_1..x_m) is admissible, so every H_0 cube over the directions D
    # takes 2^(m-|D|) - 1 injectivity tests: 3^m - 2^m in all, against
    # m·3^(m-1) (27, 108) testing every boundary
    import koszul_lab.cube as cube_module
    from koszul_lab import groebner
    ring = RingSpec(101, tuple(variables))
    x = typical_cube(list(ring.gens()))
    groebner._cached.cache_clear()
    calls = count_calls(cube_module, "_mod_injective")
    assert is_admissible(x, "definition").ok
    assert len(calls) == tests == 3 ** len(variables) - 2 ** len(variables)


def test_spherical_faces_builds_each_face_tot_once(count_calls):
    # |S| = 4: one Tot per front face x|_U^∅ with U nonempty, 2^4 - 1 of them
    import koszul_lab.cube as cube_module
    ring = RingSpec(101, ("x", "y", "z", "w"))
    x = typical_cube(list(ring.gens()))
    calls = count_calls(cube_module, "_total_complex")
    assert is_admissible(x, "spherical_faces").ok
    assert 0 < len(calls) <= 2 ** 4 - 1


def test_spherical_faces_validates_once(count_calls):
    # the input is validated at the root; its faces are valid free cubes
    # and their total complexes are built without validating again
    import koszul_lab.cube as cube_module
    ring = RingSpec(101, ("x", "y", "z", "w"))
    x = typical_cube(list(ring.gens()))
    calls = count_calls(cube_module, "validate_cube")
    assert is_admissible(x, "spherical_faces").ok
    assert len(calls) == 1


def test_a_cube_is_validated_once(count_calls):
    # validate_cube keeps its Report on the cube: the three strategies and a
    # validate_cube after them test each commuting square once
    import koszul_lab.cube as cube_module
    x = typical_cube(list(Q3.gens()))
    calls = count_calls(cube_module, "_congruent")
    for s in ADMISSIBILITY_STRATEGIES:
        assert is_admissible(x, strategy=s).ok
    assert validate_cube(x).ok
    assert len(calls) == sum(len(T) * (len(T) - 1) // 2 for T in x.subsets()) == 6
    assert validate_cube(x) is validate_cube(x)


def test_cube_vertices_and_boundary_are_read_only():
    # the kept Report could go stale if a vertex or boundary were replaced
    x = typical_cube(list(Q3.gens()))
    with pytest.raises(TypeError):
        x.boundary[(S1, "1")] = FreeMap(Q3, [[Q3.one()]])
    with pytest.raises(TypeError):
        x.vertices[E] = FPModule.free(Q3, 1)
    assert x.boundary[(S1, "1")] == FreeMap(Q3, [[Q3.var("x")]])


def test_unknown_strategy_is_refused_before_validation(count_calls):
    # a misspelt strategy used to surface only after the commuting-square
    # validation, which on an invalid cube raised "invalid cube: ..."
    import koszul_lab.cube as cube_module
    noncommuting = Cube(Q2, ("1", "2"), {E: 1, S1: 1, S2: 1, S12: 1},
                        {(S1, "1"): FreeMap(Q2, [[X]]), (S2, "2"): FreeMap(Q2, [[Y]]),
                         (S12, "1"): FreeMap(Q2, [[X]]), (S12, "2"): FreeMap(Q2, [[X]])})
    assert not validate_cube(noncommuting).ok
    calls = count_calls(cube_module, "validate_cube")
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        is_admissible(noncommuting, "bogus")
    assert calls == []


def test_face_scans_build_no_complex(count_calls):
    # the face scans hand each Tot to the exactness scan as sparse columns;
    # only the public total_complex wraps it in a Complex, whose constructor
    # re-checks d ∘ d = 0
    from koszul_lab.koszul import verify_weight_decomposition
    from koszul_lab.modcalc import Complex
    ring = RingSpec(101, ("x", "y", "z", "w"))
    fs = list(ring.gens())
    x = typical_cube(fs)
    calls = count_calls(Complex, "__init__")
    assert is_admissible(x, "spherical_faces").ok
    assert verify_weight_decomposition(x, fs).ok
    assert calls == []
    total_complex(x)
    assert len(calls) == 1


def test_definition_builds_each_h0_cube_once(count_calls):
    # |S| = 4: H_0 cubes are indexed by the 2^4 sets of applied directions;
    # expanding each once takes at most 4 * 2^3 calls of _h0_modcube
    import koszul_lab.cube as cube_module
    ring = RingSpec(101, ("x", "y", "z", "w"))
    x = typical_cube(list(ring.gens()))
    calls = count_calls(cube_module, "_h0_modcube")
    assert is_admissible(x, "definition").ok
    assert len(calls) <= 4 * 2 ** 3


def test_verdicts_do_not_depend_on_what_the_cache_holds(monkeypatch):
    # spherical_faces reads the kernel of each Tot's d_1 from the cache that
    # definition fills; from an empty cache, and after definition, the
    # Reports are equal, failure lists included
    from _gen import X3, Y3, Z3, zero_direction
    from koszul_lab import groebner
    from koszul_lab.koszul import random_koszul
    zd = zero_direction(random_koszul([X3, Y3, Z3], 1, 2, seed=0), "1")
    cubes = [zd, BOTH_X, typical_cube([X3, Y3, X3 + Y3])]
    reports = []
    for x in cubes:
        groebner._cached.cache_clear()
        cold = is_admissible(x, "spherical_faces")
        groebner._cached.cache_clear()
        is_admissible(x, "definition")
        assert is_admissible(x, "spherical_faces") == cold, x
        reports.append(cold)
    assert reports[0].failures == ZERO_DIRECTION_SPHERICAL_FAILURES
    assert [r.ok for r in reports] == [False, False, False]


def test_spherical_faces_reads_one_direction_kernels_from_the_cache(monkeypatch, count_calls):
    # the Tot of a one-direction face is its boundary with sign +, whose
    # kernel definition's injectivity test has cached: after definition,
    # spherical_faces runs Buchberger once less for each of the n
    # one-direction front faces
    from koszul_lab import groebner
    from koszul_lab.koszul import random_koszul
    ring = RingSpec(101, ("x", "y", "z", "w"))
    x = random_koszul(list(ring.gens()), 2, 3, seed=5)
    assert validate_cube(x).ok
    runs = count_calls(groebner, "_buchberger")
    groebner._cached.cache_clear()
    assert is_admissible(x, "spherical_faces").ok
    cold = len(runs)
    groebner._cached.cache_clear()
    assert is_admissible(x, "definition").ok
    runs.clear()
    assert is_admissible(x, "spherical_faces").ok
    assert cold - len(runs) == 4
