"""Free maps, finitely presented modules, complexes, homology."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from _canonical import canonical
from _reference import annihilator
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul_lab.arith import Poly, RingSpec, parse_poly
import koszul_lab.modcalc as modcalc
from koszul_lab.groebner import IdealBasis, SubmoduleBasis, _nonexact_degree, _preimage, syzygies
from koszul_lab.modcalc import (
    CapExceededError,
    Complex,
    FPModule,
    FreeMap,
    _factor_through,
    cokernel,
    determinant_of_square,
    fitting_ideal,
    homology,
    is_injective,
    is_zero_module,
    min_annihilating_power,
    supported_on,
    zero_spherical,
)

Q2 = RingSpec("Q", ("x", "y"))
X, Y = Q2.gens()
ZERO, ONE = Q2.zero(), Q2.one()


def M(rows, **kw):
    return FreeMap(Q2, [[parse_poly(e, Q2) for e in r] for r in rows], **kw)


def cyclic(*rels):
    return FPModule(Q2, 1, SubmoduleBasis(Q2, 1, [(parse_poly(r, Q2),) for r in rels]))


# --------------------------------------------------------------------------
# free maps
# --------------------------------------------------------------------------

def test_freemap_shapes_and_algebra():
    f = M([["x", "y"]])                      # A^2 -> A
    g = M([["x"], ["y"]])                    # A -> A^2
    assert f.target_rank == 1 and f.source_rank == 2
    assert f.compose(g) == M([["x^2 + y^2"]])
    assert f.apply((ONE, ONE)) == (X + Y,)
    assert (f + f) == f.scaled(Q2.const(2))
    assert (f - f).is_zero_map()
    assert (-f) == f.scaled(Q2.const(-1))


@pytest.mark.parametrize("field", ["Q", 101])
def test_compose_matches_entrywise_reference(field):
    # compose sums integer numerators over row and column denominators; the
    # reference sums Fraction (or mod p) products entry by entry
    import random
    from fractions import Fraction
    ring = RingSpec(field, ("x", "y"))
    F = ring.field
    rng = random.Random(f"compose-{field}")
    coeffs = [Fraction(1, 2), Fraction(-3, 7), Fraction(2), Fraction(-1), Fraction(5, 3),
              Fraction(1, 6), Fraction(-4, 9)]

    def entry():
        if rng.random() < 0.3:
            return ring.zero()
        terms = {(rng.randint(0, 2), rng.randint(0, 2)): F.of(rng.choice(coeffs))
                 for _ in range(rng.randint(1, 3))}
        return Poly(ring, terms)

    def reference(a, b, i, j):
        out = {}
        for k in range(a.source_rank):
            for e1, c1 in a.entries[i][k].terms.items():
                for e2, c2 in b.entries[k][j].terms.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1])
                    out[e] = F.add(out.get(e, F.zero), F.mul(c1, c2))
        return {e: c for e, c in out.items() if c != F.zero}

    for _ in range(40):
        r, m, s = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = FreeMap(ring, [[entry() for _ in range(m)] for _ in range(r)], target_rank=r, source_rank=m)
        b = FreeMap(ring, [[entry() for _ in range(s)] for _ in range(m)], target_rank=m, source_rank=s)
        # [a | a] ∘ [b ; -b] is zero: every sum cancels
        b_minus_b = FreeMap(ring, b.entries + (-b).entries, target_rank=2 * m, source_rank=s)
        for x, y in ((a, b), (FreeMap.hstack(a, a), b_minus_b)):
            got = x.compose(y)
            for i in range(r):
                for j in range(s):
                    assert got.entries[i][j].terms == reference(x, y, i, j), (i, j)
                    assert all(canonical(c, F.char) for c in got.entries[i][j].terms.values())
        assert FreeMap.hstack(a, a).compose(b_minus_b).is_zero_map()


def test_freemap_identity_zero_blocks():
    i2 = FreeMap.identity(Q2, 2)
    z = FreeMap.zero(Q2, 2, 3)
    assert i2.compose(z) == z
    d = FreeMap.block_diag(M([["x"]]), M([["y"]]))
    assert d == M([["x", "0"], ["0", "y"]])
    h = FreeMap.hstack(M([["x"]]), M([["y"]]))
    assert h == M([["x", "y"]])
    s = FreeMap.diagonal(Q2, [X, X])
    assert s == M([["x", "0"], ["0", "x"]])


def test_freemap_zero_rank_edges():
    empty_src = FreeMap(Q2, [[], []], target_rank=2, source_rank=0)
    assert empty_src.cols == ()
    assert is_injective(empty_src)  # vacuously
    empty_tgt = FreeMap(Q2, [], target_rank=0, source_rank=2)
    assert empty_tgt.apply((X, Y)) == ()
    assert empty_src.compose(empty_tgt).entries == FreeMap.zero(Q2, 2, 2).entries


def test_freemap_shape_mismatch():
    with pytest.raises(ValueError):
        M([["x", "y"], ["x"]])
    with pytest.raises(ValueError):
        M([["x"]]).compose(M([["x", "y"]]).compose(FreeMap.identity(Q2, 3)))


def test_freemap_rejects_negative_ranks():
    for make in (lambda: FreeMap(Q2, [], target_rank=0, source_rank=-2),
                 lambda: FreeMap(Q2, [], target_rank=-1, source_rank=0),
                 lambda: FreeMap.zero(Q2, 0, -1),
                 lambda: FreeMap.zero(Q2, -1, 2),
                 lambda: FreeMap.identity(Q2, -1)):
        with pytest.raises(ValueError, match="negative rank"):
            make()


@pytest.mark.parametrize("make, message", [
    (lambda: FPModule(Q2, 2, SubmoduleBasis(Q2, 1, [])), "relations ambient rank 1 != module rank 2"),
    (lambda: FPModule(Q2, 1, SubmoduleBasis(RingSpec(101, ("x", "y")), 1, [])),
     "relations ring mismatch"),
    (lambda: Complex(Q2, [], []), "a complex needs at least one term"),
    (lambda: Complex(Q2, [1, 1], []), "expected 1 differentials, got 0"),
    (lambda: Complex(Q2, [1, 1], [FreeMap.identity(RingSpec(101, ("x", "y")), 1)]),
     "differential ring mismatch"),
    (lambda: Complex(Q2, [1, 2], [M([["x"]])]), "d_1 has shape 1x1, expected 1x2"),
    (lambda: FreeMap(Q2, []), "source rank required for a 0-row matrix"),
    (lambda: FreeMap(Q2, [[X]], target_rank=2), "expected 2 rows, got 1"),
    (lambda: FreeMap.hstack(M([["x"], ["y"]]), FreeMap.identity(Q2, 1)),
     "hstack needs equal target ranks"),
    (lambda: FreeMap(Q2, [[parse_poly("x", RingSpec("Q", ("x",)))]]), "entry ring mismatch"),
    (lambda: FreeMap.diagonal(Q2, [X, parse_poly("x", RingSpec(7, ("x", "y")))]),
     "entry ring mismatch"),
    (lambda: M([["x", "y"]]).apply((X,)), "vector length mismatch"),
    (lambda: M([["x", "y"]]) + M([["x"]]), "shape mismatch"),
    (lambda: SubmoduleBasis(Q2, 1, []).plus(SubmoduleBasis(Q2, 2, [])), "ambient mismatch"),
    (lambda: syzygies([]), "ring required for an empty matrix"),
    (lambda: syzygies([[X, Y], [X]]), "ragged matrix"),
])
def test_module_and_complex_constructor_refusals(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_reprs():
    d = M([["x", "y"]])
    objects = (X + Y.scale(2), SubmoduleBasis(Q2, 2, [(X, Y)]), IdealBasis(Q2, [X, Y * Y]), d,
               FPModule(Q2, 1, SubmoduleBasis(Q2, 1, [(X,)])), Complex(Q2, [1, 2], [d]))
    assert [repr(o) for o in objects] == [
        "Poly(x + 2*y)", "SubmoduleBasis(rank=2, gens=1)", "IdealBasis(['x', 'y^2'])",
        "FreeMap(1x2)", "FPModule(rank=1, relations=1)", "Complex(ranks=[1, 2])"]


def test_equal_modules_hash_equal():
    # relation generators in another order, one of them rescaled: the same
    # submodule, so the modules are equal, hash equal and deduplicate
    a = FPModule(Q2, 2, SubmoduleBasis(Q2, 2, [(X * X, ZERO), (Y, X), (ZERO, Y * Y)]))
    b = FPModule(Q2, 2, SubmoduleBasis(Q2, 2, [(ZERO, Y * Y), (-Y, -X), (X * X, ZERO)]))
    assert a == b and hash(a) == hash(b)
    assert {a, b, FPModule.free(Q2, 2)} == {a, FPModule.free(Q2, 2)}
    assert len({a, b}) == 1


# --------------------------------------------------------------------------
# kernels, cokernels, annihilators
# --------------------------------------------------------------------------

def test_kernel_generators():
    m = M([["x", "y"]])
    ker = syzygies(m.entries, m.ring, source_rank=m.source_rank)
    assert SubmoduleBasis(Q2, 2, ker) == SubmoduleBasis(Q2, 2, [(Y, -X)])
    m = M([["x"]])
    assert syzygies(m.entries, m.ring, source_rank=m.source_rank) == []


def test_is_injective():
    assert is_injective(M([["x"]]))
    assert is_injective(M([["x", "0"], ["0", "y"]]))
    assert not is_injective(M([["0"]]))
    assert not is_injective(M([["x", "y"]]))


def test_cokernel_presentation():
    C = cokernel(M([["x^2"]]))
    assert C.rank == 1
    assert C.relations.contains_vector((X * X,))
    assert not C.relations.contains_vector((X,))
    assert is_zero_module(cokernel(FreeMap.identity(Q2, 3)))


def test_annihilator_frozen():
    assert annihilator(cyclic("x^2")) == IdealBasis(Q2, [X * X])
    two = FPModule(Q2, 2, SubmoduleBasis(Q2, 2, [(X, ZERO), (ZERO, Y)]))
    assert annihilator(two) == IdealBasis(Q2, [X * Y])
    assert annihilator(FPModule.free(Q2, 2)).is_zero_ideal()
    assert annihilator(cyclic("1")).contains_one()


def test_min_annihilating_power():
    assert min_annihilating_power(X, cyclic("x^2"), 8) == 2
    assert min_annihilating_power(X, cyclic("x"), 8) == 1
    assert min_annihilating_power(X + Y, cyclic("(x + y)^3"), 8) == 3
    with pytest.raises(CapExceededError):
        min_annihilating_power(Y, cyclic("x"), 3)
    with pytest.raises(ValueError, match="cap must be at least 1"):
        min_annihilating_power(X, cyclic("x"), 0)


def test_compose_refuses_an_exponent_of_two_to_the_31():
    # compose adds the packed keys of its entries, so it keeps the bound that
    # every product of polynomials keeps: 2^31 is a cap error
    for ring in (Q2, RingSpec(101, ("x", "y")), RingSpec("Q", ("x", "y"), "lex")):
        x, y = ring.gens()
        top = FreeMap(ring, [[parse_poly("1/2*x^2147483647", ring), x]])
        below = FreeMap(ring, [[ring.one()], [y]])
        assert top.compose(below) == FreeMap(ring, [[parse_poly("1/2*x^2147483647 + x*y", ring)]])
        for beyond in (x, y, parse_poly("1/3*x*y", ring)):
            with pytest.raises(CapExceededError, match=r"2\^31"):
                top.compose(FreeMap(ring, [[beyond], [ring.zero()]]))


def test_submodule_equal():
    a = SubmoduleBasis(Q2, 2, [(X, ZERO), (ZERO, Y)])
    b = SubmoduleBasis(Q2, 2, [(X, Y), (ZERO, Y)])
    assert a == b
    assert a != SubmoduleBasis(Q2, 2, [(X, ZERO)])


# --------------------------------------------------------------------------
# determinants and Fitting ideals
# --------------------------------------------------------------------------

def test_determinant_frozen():
    assert determinant_of_square(M([["x", "y"], ["y", "x"]])) == X * X - Y * Y
    assert determinant_of_square(FreeMap.identity(Q2, 3)) == ONE
    assert determinant_of_square(FreeMap(Q2, [], target_rank=0, source_rank=0)) == ONE
    with pytest.raises(ValueError):
        determinant_of_square(M([["x", "y"]]))


def test_a_map_keeps_its_determinant(count_calls):
    # the first call expands, later ones read what the map keeps; a map
    # made from it is a new map and expands anew
    calls = count_calls(modcalc, "_minors")
    m = M([["x", "y"], ["y", "x"]])
    assert determinant_of_square(m) == determinant_of_square(m) == X * X - Y * Y
    assert len(calls) == 1
    assert determinant_of_square(-m) == X * X - Y * Y
    assert len(calls) == 2
    wide = M([["x", "y"]])
    for _ in range(2):
        with pytest.raises(ValueError):
            determinant_of_square(wide)
    assert len(calls) == 2


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=20)
def test_determinant_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    ours = determinant_of_square(FreeMap(Q2, [[Q2.const(e) for e in r] for r in rows]))
    theirs = sympy.Matrix(rows).det()
    assert ours == Q2.const(int(theirs))


def test_fitting_ideals_frozen():
    d = M([["x", "0"], ["0", "y"]])
    assert fitting_ideal(d, 1) == IdealBasis(Q2, [X, Y])
    assert fitting_ideal(d, 2) == IdealBasis(Q2, [X * Y])
    with pytest.raises(ValueError):
        fitting_ideal(d, 0)
    with pytest.raises(ValueError):
        fitting_ideal(d, 3)


def test_fitting_invariant_under_elementary_ops():
    d = M([["x", "0"], ["0", "y"]])
    # add x*(row 0) to row 1, then swap columns: minors' ideal is unchanged
    e = M([["0", "x"], ["y", "x^2"]])
    for t in (1, 2):
        assert fitting_ideal(d, t) == fitting_ideal(e, t)


def _minor_reference(cols, rows, sel, ring, memo):
    """The minor of the sparse columns `cols` at rows × sel by Laplace
    expansion along the first row in Poly arithmetic, memoized on (rows,
    sel): the reference that the integer expansion must match."""
    if not rows:
        return ring.one()
    key = (rows, sel)
    hit = memo.get(key)
    if hit is not None:
        return hit
    acc = ring.zero()
    for j, c in enumerate(sel):
        e = cols[c].get(rows[0])
        if e is None:
            continue
        term = e * _minor_reference(cols, rows[1:], sel[:j] + sel[j + 1:], ring, memo)
        acc = acc + term if j % 2 == 0 else acc - term
    memo[key] = acc
    return acc


def _first_of_each_class(minors):
    """The first of each class of nonzero minors equal up to a scalar, the
    class read off `monic()`: the generators `fitting_ideal` keeps."""
    gens, seen = [], set()
    for d in minors:
        key = frozenset(d.monic().keys.items())
        if d.keys and key not in seen:
            seen.add(key)
            gens.append(d)
    return gens


def _exact(p):
    # the keys of p with each coefficient's type: Fraction(1) is not 1
    return p.ring, sorted((k, repr(c)) for k, c in p.keys.items())


_COEFFS = (Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3), Fraction(2, 9), 1, -1)


def _random_matrix(ring, rows, cols, rng):
    """A sparse rows × cols matrix of one- and two-term entries, each row
    with mixed denominators; some have a zero row, a zero column, or a last
    row that is a multiple of the first, so that minors cancel to zero and
    others are scalar multiples of each other."""
    def entry():
        if rng.random() < 0.4:
            return ring.zero()
        return Poly(ring, {(rng.randrange(3), rng.randrange(3)): rng.choice(_COEFFS)
                           for _ in range(rng.randrange(1, 3))})
    entries = [[entry() for _ in range(cols)] for _ in range(rows)]
    kind = rng.randrange(4)
    if kind == 1 and rows:
        entries[rng.randrange(rows)] = [ring.zero()] * cols
    elif kind == 2 and cols:
        j = rng.randrange(cols)
        for r in entries:
            r[j] = ring.zero()
    elif kind == 3 and rows > 1:
        entries[-1] = [e.scale(Fraction(-5, 3)) for e in entries[0]]
    return FreeMap(ring, entries, target_rank=rows, source_rank=cols)


def _reference_cases():
    rng = random.Random(20)
    return [(ring, _random_matrix(ring, rows, cols, rng))
            for ring in (Q2, RingSpec(101, ("x", "y")))
            for rows in range(5) for cols in range(6) for _ in range(3)]


def test_minors_match_the_poly_reference():
    # determinants and Fitting generators, Poly for Poly and in order, on
    # every shape from 0x0 to 4x5 and every minor size
    cancelled = proportional = 0
    for ring, m in _reference_cases():
        if m.target_rank == m.source_rank:
            n = tuple(range(m.target_rank))
            assert _exact(determinant_of_square(m)) == _exact(_minor_reference(m.cols, n, n, ring, {}))
        for t in range(1, min(m.target_rank, m.source_rank) + 1):
            memo = {}
            pairs = [(r, c) for r in combinations(range(m.target_rank), t)
                     for c in combinations(range(m.source_rank), t)]
            minors = [_minor_reference(m.cols, r, c, ring, memo) for r, c in pairs]
            want = _first_of_each_class(minors)
            assert [_exact(g) for g in fitting_ideal(m, t).generators] == [_exact(g) for g in want]
            # zero although no row of the submatrix is zero
            cancelled += sum(not d.keys and all(any(i in m.cols[j] for j in c) for i in r)
                             for (r, c), d in zip(pairs, minors))
            proportional += sum(bool(d.keys) for d in minors) - len(want)
    assert cancelled > 0 and proportional > 0


def test_minors_over_q_run_no_fraction_arithmetic(monkeypatch):
    # Fractions may be built and read (Fraction(n, d), .numerator,
    # .denominator), but no Fraction operator may run while minors are
    # taken, and neither may Poly arithmetic
    cases = [m for ring, m in _reference_cases() if ring == Q2 and m.target_rank and m.source_rank]
    assert any(c.denominator > 1 for m in cases for col in m.cols
               for p in col.values() for c in p.keys.values())

    def run(maps):
        return [([_exact(determinant_of_square(m))] if m.target_rank == m.source_rank else [])
                + [[_exact(g) for g in fitting_ideal(m, t).generators]
                   for t in range(1, min(m.target_rank, m.source_rank) + 1)]
                for m in maps]
    expected = run(cases)
    # a map keeps its determinant: new maps on the same entries make the
    # expansions run again below
    fresh = [FreeMap(Q2, m.entries, m.target_rank, m.source_rank) for m in cases]

    def forbidden(*args):
        raise AssertionError("arithmetic inside a minor")
    with monkeypatch.context() as p:
        for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
            p.setattr(Fraction, f"__{op}__", forbidden)
            p.setattr(Fraction, f"__r{op}__", forbidden)
        for op in ("neg", "pos", "abs"):
            p.setattr(Fraction, f"__{op}__", forbidden)
        for op in ("__add__", "__sub__", "__mul__", "__neg__", "monic", "scale"):
            p.setattr(Poly, op, forbidden)
        got = run(fresh)
    assert got == expected


def test_determinant_refuses_an_exponent_of_two_to_the_31():
    # every level of the expansion tests its keys: in the 3x3 diagonal the
    # 2x2 sub-minor already reaches 2^31, and by the third factor the carry
    # has left x's guard bit clear
    for ring in (Q2, RingSpec(101, ("x", "y"))):
        x = ring.var("x")
        below = FreeMap.diagonal(ring, [x ** (2 ** 30), x ** (2 ** 30 - 1)])
        assert determinant_of_square(below) == x ** (2 ** 31 - 1)
        for n, e in ((2, 2 ** 30), (3, 2 ** 31 - 1)):
            with pytest.raises(CapExceededError, match=r"2\^31"):
                determinant_of_square(FreeMap.diagonal(ring, [x ** e] * n))


# --------------------------------------------------------------------------
# complexes and homology
# --------------------------------------------------------------------------

def koszul_xy():
    # 0 -> A -> A^2 -> A -> 0 with d1 = (x y), d2 = (y, -x)^t
    return Complex(Q2, (1, 2, 1), (M([["x", "y"]]), M([["y"], ["-x"]])))


def test_complex_validates_ddzero():
    with pytest.raises(ValueError):
        Complex(Q2, (1, 2, 1), (M([["x", "y"]]), M([["y"], ["x"]])))
    c = koszul_xy()
    assert c.length == 2
    assert c.differential(1) == M([["x", "y"]])
    with pytest.raises(IndexError):
        c.differential(3)
    with pytest.raises(IndexError, match=r"homology index 3 out of range 0\.\.2"):
        homology(c, 3)


def test_koszul_homology():
    c = koszul_xy()
    H0 = homology(c, 0)
    assert H0.relations == SubmoduleBasis(Q2, 1, [(X,), (Y,)])
    assert is_zero_module(homology(c, 1))
    assert is_zero_module(homology(c, 2))
    assert zero_spherical(c)


def test_two_step_homology():
    c = Complex(Q2, (1, 1), (M([["x"]]),))
    assert homology(c, 0).relations == SubmoduleBasis(Q2, 1, [(X,)])
    assert is_zero_module(homology(c, 1))
    assert zero_spherical(c)


def test_zero_differential_homology():
    c = Complex(Q2, (1, 1), (FreeMap.zero(Q2, 1, 1),))
    assert not zero_spherical(c)          # H_1 = A
    H1 = homology(c, 1)
    assert H1.rank == 1 and H1.relations.is_zero_submodule()


def test_length_zero_complex():
    c = Complex(Q2, (2,), ())
    assert homology(c, 0).rank == 2
    assert zero_spherical(c)


def test_homology_middle_degree():
    # A <-x- A <-0- A : H_1 = ker(x)/im(0) = 0, H_2 = ker(0) = A
    c = Complex(Q2, (1, 1, 1), (M([["x"]]), FreeMap.zero(Q2, 1, 1)))
    assert is_zero_module(homology(c, 1))
    assert homology(c, 2).rank == 1
    assert not zero_spherical(c)


# --------------------------------------------------------------------------
# lifting
# --------------------------------------------------------------------------

# modcalc._factor_through is the one lift: X with d∘X ≡ b modulo the
# relations, or the index of the first column of b that has no preimage.
# Its callers in resolve turn that index into a LiftError.

def _lifts(d, b, rel):
    """Whether X = _factor_through(d, b, rel) is a map with d∘X ≡ b modulo
    rel, tested column by column by membership."""
    X = _factor_through(d, b, rel)
    assert isinstance(X, FreeMap), X
    assert (X.target_rank, X.source_rank) == (d.source_rank, b.source_rank)
    return all(rel.contains_vector(c) for c in (d.compose(X) - b).cols)


def test_lift_through_surjection():
    # p : A^2 -> A/(x^2), e1 -> 1, e2 -> x ; lift f : A -> A/(x^2), 1 -> x + x^2
    mod = cyclic("x^2")
    assert _lifts(M([["1", "x"]]), M([["x + x^2"]]), mod.relations)


def test_lift_not_surjective_raises():
    # x : A -> A is not onto, so 1 has no preimage: column 0 is reported
    assert _factor_through(M([["x"]]), M([["1"]]), SubmoduleBasis(Q2, 1, [])) == 0


def test_lift_infeasible_raises():
    # the 2x1 map e1 -> e1 misses e2, so the identity on A^2 lifts in its
    # first column and not in its second: the index 1 is returned
    p = M([["1"], ["0"]])
    assert _factor_through(p, FreeMap.identity(Q2, 2), SubmoduleBasis(Q2, 2, [])) == 1


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=15)
def test_lift_roundtrip_on_cyclic_quotients(a, b):
    # any map into A/(x^2) given by a polynomial lifts through p = (1 x)
    mod = cyclic("x^2")
    assert _lifts(M([["1", "x"]]), FreeMap(Q2, [[X ** a * Y ** b]]), mod.relations)


def _exact_at(c: Complex, k: int) -> bool:
    """ker d_k ⊆ im d_{k+1}, decided by membership alone (d_0 = 0)."""
    ring, rank = c.ring, c.ranks[k]
    if k == 0:
        kernel = [tuple(ring.one() if j == i else ring.zero() for j in range(rank))
                  for i in range(rank)]
    else:
        d = c.differential(k)
        kernel = syzygies(d.entries, ring, source_rank=d.source_rank)
    if k == c.length:
        return not kernel
    image = SubmoduleBasis(ring, rank, c.differential(k + 1).cols)
    return all(image.contains_vector(g) for g in kernel)


def test_homology_zero_iff_kernel_in_image():
    import _gen
    for c in _gen.complex_suite(100):
        for k in range(c.length + 1):
            assert is_zero_module(homology(c, k)) == _exact_at(c, k), (c, k)


def test_homology_presents_syzygies_of_kernel_generators():
    # H_1 of A <- A^3 is ker (x y z), generated by three Koszul vectors that
    # satisfy one syzygy; the presentation must carry it as a relation
    R = RingSpec("Q", ("x", "y", "z"))
    c = Complex(R, (1, 3), (FreeMap(R, [list(R.gens())]),))
    d = c.differential(1)
    gens = syzygies(d.entries, R, source_rank=d.source_rank)
    H1 = homology(c, 1)
    assert H1.rank == len(gens) == 3
    assert not H1.relations.is_zero_submodule()
    for rel in H1.relations.generators:
        combo = [sum((r * g[i] for r, g in zip(rel, gens)), R.zero()) for i in range(3)]
        assert all(p.is_zero() for p in combo)


# --------------------------------------------------------------------------
# sparse compose against the dense loop it replaced
# --------------------------------------------------------------------------

def _compose_reference(a: FreeMap, b: FreeMap) -> FreeMap:
    """a ∘ b by the dense triple loop over Poly arithmetic."""
    z = a.ring.zero()
    rows = []
    for i in range(a.target_rank):
        row = []
        for j in range(b.source_rank):
            acc = z
            for k in range(a.source_rank):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        rows.append(row)
    return FreeMap(a.ring, rows, target_rank=a.target_rank, source_rank=b.source_rank)


def _sparse_random_map(rng, ring, target, source, density=0.35):
    gens = ring.gens()
    rows = []
    for _ in range(target):
        row = []
        for _ in range(source):
            p = ring.zero()
            if rng.random() < density:
                for _ in range(rng.randint(1, 3)):
                    mono = ring.const(rng.randint(-3, 3))
                    for g in gens:
                        mono = mono * g ** rng.randint(0, 2)
                    p = p + mono
            row.append(p)
        rows.append(row)
    return FreeMap(ring, rows, target_rank=target, source_rank=source)


@pytest.mark.parametrize("field", ["Q", 101])
def test_compose_matches_dense_reference(field):
    import random
    ring = RingSpec(field, ("x", "y", "z"))
    rng = random.Random(20261017)
    for _ in range(60):
        m, n, p = (rng.randint(0, 5) for _ in range(3))
        a = _sparse_random_map(rng, ring, m, n)
        b = _sparse_random_map(rng, ring, n, p)
        assert a.compose(b) == _compose_reference(a, b)
    # products that cancel: (x  -x) ∘ (y ; y) = 0
    x, y, _ = ring.gens()
    cancel = FreeMap(ring, [[x, -x]]).compose(FreeMap(ring, [[y], [y]]))
    assert cancel.is_zero_map() and cancel.entries[0][0].terms == {}


def test_compose_ring_mismatch_raises():
    from koszul_lab.arith import RingMismatchError
    F = RingSpec(101, ("x", "y"))
    with pytest.raises(RingMismatchError):
        M([["x"]]).compose(FreeMap(F, [[F.gens()[0]]]))
    # zero entries still meet in a product, as in the dense loop
    with pytest.raises(RingMismatchError):
        FreeMap.zero(Q2, 2, 2).compose(FreeMap.zero(F, 2, 1))
    with pytest.raises(ValueError):
        M([["x", "y"]]).compose(M([["x"]]))


# --------------------------------------------------------------------------
# sparse storage against a dense reference
# --------------------------------------------------------------------------

def _dense_ops_reference(ring, rows, t, s):
    """Every FreeMap operation, on a dense list of rows of Poly."""
    z = ring.zero()
    return {
        "neg": [[-p for p in r] for r in rows],
        "scaled": lambda g: [[g * p for p in r] for r in rows],
        "plus": lambda other, sign: [[a + b if sign > 0 else a - b for a, b in zip(ra, rb)]
                                     for ra, rb in zip(rows, other)],
        "apply": lambda vec: tuple(sum((rows[i][j] * vec[j] for j in range(s)), z)
                                   for i in range(t)),
        "hstack": lambda other: [list(ra) + list(rb) for ra, rb in zip(rows, other)],
        "block_diag": lambda other, ot, os: ([list(r) + [z] * os for r in rows]
                                             + [[z] * s + list(r) for r in other]),
    }


def _assert_sparse_invariants(m):
    assert len(m.cols) == m.source_rank
    for c in m.cols:
        assert all(0 <= i < m.target_rank for i in c)
        assert all(p.terms and p.ring == m.ring for p in c.values())  # no zero entry stored
    again = FreeMap(m.ring, m.entries, target_rank=m.target_rank, source_rank=m.source_rank)
    assert again == m and hash(again) == hash(m)


@pytest.mark.parametrize("field", ["Q", 101])
def test_freemap_operations_match_dense_reference(field):
    import random
    ring = RingSpec(field, ("x", "y", "z"))
    z = ring.zero()
    rng = random.Random(f"freemap-{field}")
    shapes = [(0, 3), (3, 0), (0, 0), (2, 2)] + [(rng.randint(1, 4), rng.randint(1, 4))
                                                   for _ in range(30)]
    seen_zero = 0
    for t, s in shapes:
        density = rng.choice((0.0, 0.2, 0.5, 0.9))
        a = _sparse_random_map(rng, ring, t, s, density)
        b = _sparse_random_map(rng, ring, t, s, density)
        c = _sparse_random_map(rng, ring, s, rng.randint(0, 3), density)
        d = _sparse_random_map(rng, ring, rng.randint(0, 3), s, density)
        e = _sparse_random_map(rng, ring, rng.randint(0, 3), t, density)
        seen_zero += a.is_zero_map()
        rows = [list(r) for r in a.entries]
        ref = _dense_ops_reference(ring, rows, t, s)

        def same(m, dense_rows, shape):
            _assert_sparse_invariants(m)
            assert (m.target_rank, m.source_rank) == shape
            assert m.entries == tuple(tuple(r) for r in dense_rows)
            assert m == FreeMap(ring, dense_rows, target_rank=shape[0], source_rank=shape[1])

        for m in (a, b, c, d, e):
            _assert_sparse_invariants(m)
        assert a.is_zero_map() == all(p.is_zero() for r in rows for p in r)
        same(-a, ref["neg"], (t, s))
        g = rng.choice((z, ring.const(3), ring.gens()[0] - ring.gens()[2]))
        same(a.scaled(g), ref["scaled"](g), (t, s))
        same(a + b, ref["plus"](b.entries, 1), (t, s))
        same(a - b, ref["plus"](b.entries, -1), (t, s))
        same(a - a, [[z] * s for _ in range(t)], (t, s))
        same(a + -a, [[z] * s for _ in range(t)], (t, s))  # every sum cancels
        same((a + b) - b, rows, (t, s))
        assert (a - a).is_zero_map() and (a - a) == FreeMap.zero(ring, t, s)
        same(a.compose(c), _compose_reference(a, c).entries, (t, c.source_rank))
        same(e.compose(a), _compose_reference(e, a).entries, (e.target_rank, s))
        vec = tuple(r[0] for r in c.entries) if c.source_rank else (ring.gens()[1],) * s
        assert a.apply(vec) == ref["apply"](vec)
        same(FreeMap.hstack(a, b), ref["hstack"](b.entries), (t, 2 * s))
        same(FreeMap.block_diag(a, c), ref["block_diag"](c.entries, c.target_rank, c.source_rank),
             (t + c.target_rank, s + c.source_rank))
        # equal maps built in different ways hash equal
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert a.compose(FreeMap.identity(ring, s)) == a == FreeMap.identity(ring, t).compose(a)
        assert hash(a.compose(FreeMap.identity(ring, s))) == hash(a)
    assert seen_zero
    # the constructors against their dense matrices
    x = ring.gens()[0]
    for n in (0, 1, 3):
        eye = [[ring.one() if i == j else z for j in range(n)] for i in range(n)]
        assert FreeMap.identity(ring, n).entries == tuple(map(tuple, eye))
        diag = [x, z, ring.one()][:n]
        assert FreeMap.diagonal(ring, diag).entries == tuple(
            tuple(diag[i] if i == j else z for j in range(n)) for i in range(n))
        _assert_sparse_invariants(FreeMap.diagonal(ring, diag))
        assert FreeMap.zero(ring, n, 2).entries == ((z, z),) * n
        assert FreeMap.zero(ring, 2, n).entries == ((z,) * n,) * 2


# --------------------------------------------------------------------------
# batched graph coordinates against the one-vector solver they replaced
# --------------------------------------------------------------------------

def _graph_coordinates_reference(vec, cols, rels, ring, rank):
    """Coordinates of one vector, the one column of the map vec, in terms of
    the columns of the map cols modulo rels, or None, by a fresh graph
    module and `nf_vector` per vector."""
    n = cols.source_rank
    z = ring.zero()
    # the columns col_j ⊕ e_j of the matrix (cols ; 1)
    gens = list(zip(*(cols.entries + FreeMap.identity(ring, n).entries)))
    for r in rels.generators:
        gens.append(tuple(r) + (z,) * n)
    graph = SubmoduleBasis(ring, rank + n, gens)
    rem, _ = graph.nf_vector(tuple(r[0] for r in vec.entries) + (z,) * n)
    if any(not p.is_zero() for p in rem[:rank]):
        return None
    return [-p for p in rem[rank:]]


@pytest.mark.parametrize("field", ["Q", 101])
def test_graph_coordinates_batch_matches_reference(field):
    import random
    from koszul_lab.modcalc import _graph_coordinates
    ring = RingSpec(field, ("x", "y", "z"))
    rng = random.Random(20261018)
    seen_none = seen_coords = 0
    for _ in range(40):
        rank, n, nrels = rng.randint(1, 3), rng.randint(0, 4), rng.randint(0, 2)
        cols = _sparse_random_map(rng, ring, rank, n)
        rel_map = _sparse_random_map(rng, ring, rank, nrels)
        rels = SubmoduleBasis(ring, rank, rel_map.cols)
        # combinations of the columns and relations lie in the span; random
        # vectors mostly do not; each vector is a one-column map
        span = FreeMap.hstack(cols, rel_map)
        vecs = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.6:
                vecs.append(span.compose(_sparse_random_map(rng, ring, n + nrels, 1, density=0.6)))
            else:
                vecs.append(_sparse_random_map(rng, ring, rank, 1, density=0.6))
        got = [u if u is None else [u.get(j, ring.zero()) for j in range(n)]
               for u in _graph_coordinates([v.cols[0] for v in vecs], cols.cols, rels, ring, rank)]
        want = [_graph_coordinates_reference(v, cols, rels, ring, rank) for v in vecs]
        assert got == want
        seen_none += want.count(None)
        seen_coords += len(want) - want.count(None)
    assert seen_none and seen_coords
    assert _graph_coordinates([], [{0: X}], SubmoduleBasis(Q2, 1, []), Q2, 1) == []


def test_lift_reports_non_surjective_before_missing_preimage():
    # p misses e2: the index returned is the first column of b that has no
    # preimage, whichever columns after it also have none
    p = M([["1"], ["0"]])
    free = SubmoduleBasis(Q2, 2, [])
    # the columns e2, e1, e2; then e1, x·e1, e2, e2; then e1, x·e1, e2
    assert _factor_through(p, M([["0", "1", "0"], ["1", "0", "1"]]), free) == 0
    assert _factor_through(p, M([["1", "x", "0", "0"], ["0", "0", "1", "1"]]), free) == 2
    # modulo e2 every column lifts
    assert _lifts(p, M([["1", "x", "0"], ["0", "0", "1"]]), SubmoduleBasis(Q2, 2, [(ZERO, ONE)]))


# --------------------------------------------------------------------------
# verdict-only paths against the full computations they replaced
# --------------------------------------------------------------------------

def _nonzero_homology_degree_reference(c):
    """The least k >= 1 with H_k(c) != 0, or None: the kernel generators of
    each d_k tested against a Groebner basis of im d_{k+1} built on its own."""
    for k in range(1, c.length + 1):
        d = c.differential(k)
        gens = _preimage(d.cols, (), c.ring, d.target_rank)
        if not gens:
            continue
        if k == c.length:
            return k
        image = SubmoduleBasis(c.ring, c.ranks[k], c.differential(k + 1).cols)
        if not all(image.contains_vector(g) for g in gens):
            return k
    return None


def test_nonzero_homology_degree_matches_separate_image_reference():
    # one Buchberger run per differential gives both its kernel and its
    # image; the answer must be the one the separate image basis gave, on
    # the Tot of every face of Koszul and non-admissible cubes, on whole
    # |S| = 4 Tots and on complexes with a zeroed or scaled differential
    from _gen import complex_suite, four_direction_koszul_suite, koszul_suite, perturbed_suite
    from koszul_lab.cube import restrict, total_complex
    complexes = complex_suite(100) + [total_complex(x) for x, _ in four_direction_koszul_suite()]
    for x in [x for x, _ in koszul_suite(40)] + perturbed_suite(30):
        S = frozenset(x.labels)
        for U in x.subsets():
            if U:
                complexes += [total_complex(restrict(x, U, V))
                              for V in restrict(x, S - U, frozenset()).subsets()]
    degrees = []
    for c in complexes:
        want = _nonzero_homology_degree_reference(c)
        assert _nonexact_degree([d.cols for d in c.differentials], c.ranks, c.ring) == want, c
        degrees.append(want)
    assert None in degrees and 1 in degrees and any(d and d >= 2 for d in degrees)


def test_first_kernel_is_the_schreyer_list():
    # the scan reads ker d_1 from the cached Schreyer generators of d_1: the
    # run _kernel_and_image makes on the same graph module gives the same
    # generators in the same order
    from _gen import complex_suite
    from koszul_lab.groebner import _kernel_and_image, _schreyer
    nonzero = 0
    for c in complex_suite(100):
        d = c.differential(1)
        kernel = _kernel_and_image(d.cols, c.ring, c.ranks[0])[0]
        assert _schreyer(d.cols, (), c.ring, c.ranks[0]) == kernel, c
        nonzero += bool(kernel)
    assert nonzero > 0


def _rank_three_modules(ring):
    """A^3 modulo relations: a cokernel of a square map, one with a free
    summand, and a sum of cyclic modules of different supports."""
    x, y = ring.gens()[:2]
    z = ring.zero()
    rels = ([(x, y, z), (z, x, y), (y, z, x)],
            [(x * x, z, z), (y, x, z), (z, z, y)],
            [(x * x, z, z), (z, y, z), (z, z, x + y), (z, x * y, x)])
    return [FPModule(ring, 3, SubmoduleBasis(ring, 3, r)) for r in rels]


def _module_corpus():
    """Modules of both support verdicts: hand-made ones of rank up to 3 over
    Q and GF(101), the vertices and H_0^k vertices of the resolve problems'
    targets and of a GF(101) target with relations of rank 3, and cokernels
    of the boundaries of small Koszul cubes."""
    from _gen import X3, Y3, Z3, koszul_suite, resolve_problems
    from koszul_lab.cube import _h0_modcube, _h0_over
    from koszul_lab.koszul import random_koszul
    two = FPModule(Q2, 2, SubmoduleBasis(Q2, 2, [(X * X, ZERO), (Y, X), (ZERO, Y * Y)]))
    # A/(x^2) ⊕ A/(y): the two basis vectors have different supports
    split = FPModule(Q2, 2, SubmoduleBasis(Q2, 2, [(X * X, ZERO), (ZERO, Y)]))
    modules = [FPModule.free(Q2, 0), FPModule.free(Q2, 2), cyclic("1"), cyclic("x^2"),
               cyclic("x^2", "x*y"), cyclic("x*y"), two, split]
    modules += _rank_three_modules(Q2) + _rank_three_modules(RingSpec(101, ("x", "y")))
    targets = [z for inp in resolve_problems() for z in inp.targets]
    targets.append(_h0_over(random_koszul([X3, Y3 + Z3, Z3], 3, 4, seed=7), ["3"]))
    for z in targets:
        modules += [z.vertex(T) for T in z.subsets()]
        for v in z.labels:
            H = _h0_modcube(z, v)
            modules += [H.vertex(T) for T in H.subsets()]
    for x, _ in koszul_suite(20):
        modules += [cokernel(x.d(T, k)) for T in x.subsets() for k in sorted(T)]
    return modules


def test_supported_on_matches_annihilator_reference():
    # Ann M = ∩_i (rel : e_i), and the radical of a finite intersection is
    # the intersection of the radicals: testing each quotient on its own
    # must agree with the radical of the whole annihilator
    from koszul_lab.groebner import radical_membership
    verdicts = set()
    for M in _module_corpus():
        x, y = M.ring.gens()[:2]
        for f in (x, y, x + y, x * y, M.ring.zero(), M.ring.one()):
            want = radical_membership(f, annihilator(M))
            assert supported_on(M, f) == want, (M, f)
            verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", ["Q", 101])
def test_radical_membership_picks_a_fresh_variable(field, monkeypatch):
    # over a ring that has t and t0 the Rabinowitsch variable is t1; the
    # verdicts must be those of the same modules over a ring with other
    # names, where the variable is t, against the annihilator reference
    from koszul_lab.groebner import radical_membership
    ring, plain = RingSpec(field, ("t", "x", "t0")), RingSpec(field, ("a", "b", "c"))
    t, x, t0 = ring.gens()
    z = ring.zero()

    def module(rank, rels, over=ring):
        return FPModule(over, rank, SubmoduleBasis(over, rank, rels))

    def renamed(p):
        return Poly(plain, p.terms)

    modules = [module(1, [(t ** 2,)]), module(1, [(x * t0,)]), module(1, [(t * x,), (x ** 2,)]),
               module(1, [(t - x,), (t0 ** 3,)]), module(2, [(t, x), (z, t0 ** 2)]),
               module(2, [(x * t, z), (t0, t)]), module(2, [(t ** 2, z), (z, x + t0)])]
    fs = [t, x, t0, t + x, t * t0, x * t0 - t, z]
    want = [[radical_membership(renamed(f), annihilator(module(
                 M.rank, [tuple(map(renamed, g)) for g in M.relations.generators], plain)))
             for f in fs] for M in modules]
    names = []
    extended = RingSpec.extended
    monkeypatch.setattr(RingSpec, "extended", lambda r, name: names.append(name) or extended(r, name))
    assert [[radical_membership(f, M.relations) for f in fs] for M in modules] == want
    assert [[supported_on(M, f) for f in fs] for M in modules] == want
    assert [[radical_membership(f, annihilator(M)) for f in fs] for M in modules] == want
    assert set(names) == {"t1"}
    assert {v for row in want for v in row} == {True, False}


def test_support_forms_no_quotient(monkeypatch):
    # support is one Rabinowitsch run on the relations: neither supported_on
    # nor the Koszul support flags form a module quotient or ask the engine
    # for a preimage (non-square injectivity uses modcalc's own binding)
    import koszul_lab.groebner as groebner
    from _gen import koszul_suite
    from koszul_lab.cube import Cube
    from koszul_lab.koszul import is_koszul_cube
    modules = _rank_three_modules(Q2) + [cyclic("x^2", "x*y")]
    one, E = frozenset({"1"}), frozenset()
    cubes = koszul_suite(6) + [(Cube(Q2, ("1",), {E: r, one: s}, {(one, "1"): FreeMap(Q2, m)}),
                                [X]) for r, s, m in ((2, 1, [[X], [Y]]), (1, 2, [[X, Y]]))]
    want = [supported_on(M, X) for M in modules], [is_koszul_cube(x, fs) for x, fs in cubes]

    def forbidden(*args, **kwargs):
        raise AssertionError("support formed a quotient")

    monkeypatch.setattr(groebner, "module_quotient", forbidden)
    monkeypatch.setattr(groebner, "_preimage", forbidden)
    assert ([supported_on(M, X) for M in modules],
            [is_koszul_cube(x, fs) for x, fs in cubes]) == want
