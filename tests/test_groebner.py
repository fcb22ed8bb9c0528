"""Groebner engine: bases, normal forms, syzygies, ideal calculus.

Fixed expected values were computed by hand and cross-checked against sympy
(see test_reduced_gb_matches_sympy); they are frozen here on purpose so a
regression in the engine cannot silently re-derive itself.
"""

import math
from fractions import Fraction
from itertools import product
from operator import le

import pytest
from _canonical import canonical
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul_lab.arith import MONOMIAL_ORDERS, Poly, RingMismatchError, RingSpec, parse_poly
from koszul_lab.groebner import (
    IdealBasis,
    SubmoduleBasis,
    grade,
    ideal_dimension,
    ideal_intersection,
    ideal_quotient,
    module_quotient,
    radical_membership,
    syzygies,
)

Q2 = RingSpec("Q", ("x", "y"))
Q3 = RingSpec("Q", ("x", "y", "z"))


def P(s, ring=Q2):
    return parse_poly(s, ring)


def ideal(*gens, ring=Q2):
    return IdealBasis(ring, [parse_poly(g, ring) for g in gens])


# --------------------------------------------------------------------------
# bases and normal forms
# --------------------------------------------------------------------------

def test_reduced_gb_frozen():
    # members listed in the engine's canonical order (ascending leading term)
    I = ideal("x^2 + y^2", "x*y")
    assert tuple(str(g) for g in I.reduced_gb) == ("x*y", "x^2 + y^2", "y^3")


def test_reduced_gb_matches_sympy():
    sympy = pytest.importorskip("sympy")
    sx, sy = sympy.symbols("x y")
    ours = ideal("x^2 + y^2", "x*y").reduced_gb
    theirs = sympy.groebner([sx**2 + sy**2, sx * sy], sx, sy, order="grevlex")
    assert sorted(str(g).replace(" ", "") for g in ours) == \
        sorted(str(e).replace(" ", "").replace("**", "^") for e in theirs.exprs)


def test_normal_form_and_membership():
    I = ideal("x^2 + y^2", "x*y")
    assert I.nf(P("x^2*y + y^3"))[0].is_zero()
    assert I.contains(P("x^3"))  # x^3 = x(x^2+y^2) - y(x*y)
    assert not I.contains(P("x"))
    assert I.nf(P("x^2"), want_cert=True)[0] == P("-y^2")


def test_membership_certificate_reexpands():
    I = ideal("x^2 + y^2", "x*y")
    f = P("x^3 + x*y^2 + y^3")
    rem, cert = I.nf(f, want_cert=True)
    assert rem.is_zero()
    acc = Q2.zero()
    for c, g in zip(cert, I.reduced_gb):
        acc = acc + c * g
    assert acc == f


def test_zero_and_unit_ideal():
    assert ideal().is_zero_ideal()
    assert ideal("0").is_zero_ideal()
    assert ideal("x", "x + 1").contains_one()
    assert ideal("2").contains_one()


def test_basis_equality_ignores_presentation():
    assert ideal("x*y", "x^2 + y^2") == ideal("x^2 + y^2", "x*y", "y^3")
    assert ideal("x") != ideal("x^2")
    # another type, ring or rank is never equal
    assert ideal("x") != "x"
    assert ideal("x") != IdealBasis(RingSpec(7, ("x", "y")), [P("x", RingSpec(7, ("x", "y")))])
    assert ideal("x") != SubmoduleBasis(Q2, 2, [(P("x"), P("0"))])


@st.composite
def small_ideals(draw):
    pool = ["x", "y", "x + y", "x^2", "x*y", "y^2 - x", "x^2 + y^2"]
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return [P(g) for g in gens]


@given(small_ideals(), st.randoms(use_true_random=False))
def test_gb_canonical_under_shuffles(gens, rnd):
    reference = IdealBasis(Q2, gens).reduced_gb
    shuffled = list(gens) + [gens[0].scale(3)]  # duplicate + rescale
    rnd.shuffle(shuffled)
    assert IdealBasis(Q2, shuffled).reduced_gb == reference


@given(small_ideals())
def test_spolys_reduce_to_zero(gens):
    I = IdealBasis(Q2, gens)
    gb = I.reduced_gb
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            ei, ci = gb[i].leading()
            ej, cj = gb[j].leading()
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            s = gb[i] * Poly(Q2, {tuple(l - a for l, a in zip(lcm, ei)): Q2.field.inv(ci)}) \
                - gb[j] * Poly(Q2, {tuple(l - a for l, a in zip(lcm, ej)): Q2.field.inv(cj)})
            assert I.nf(s)[0].is_zero()


# --------------------------------------------------------------------------
# submodules
# --------------------------------------------------------------------------

def test_submodule_membership_and_cert():
    x, y = Q2.gens()
    zero = Q2.zero()
    sub = SubmoduleBasis(Q2, 2, [(x, zero), (zero, y)])
    assert sub.contains_vector((x * y, y * y))
    assert not sub.contains_vector((y, zero))
    rem, cert = sub.nf_vector((x * x + y, y), want_cert=True)
    gb = sub.reduced_gb
    recon = [zero, zero]
    for c, g in zip(cert, gb):
        recon = [r + c * gi for r, gi in zip(recon, g)]
    assert (recon[0] + rem[0], recon[1] + rem[1]) == (x * x + y, y)


def test_submodule_plus_and_zero():
    x, y = Q2.gens()
    zero = Q2.zero()
    a = SubmoduleBasis(Q2, 2, [(x, zero)])
    b = SubmoduleBasis(Q2, 2, [(zero, y)])
    assert a.plus(b) == SubmoduleBasis(Q2, 2, [(x, zero), (zero, y)])
    assert SubmoduleBasis(Q2, 3, []).is_zero_submodule()


def test_zero_vector_and_zero_polynomial_need_no_basis():
    # the zero element lies in every submodule and ideal, so membership is
    # answered before any Groebner basis is built; shape and ring checks
    # still come first and still raise
    x, y = Q2.gens()
    zero = Q2.zero()
    sub = SubmoduleBasis(Q2, 2, [(x * x + y, x), (y, zero)])
    assert sub.contains_vector((zero, zero))
    assert sub._gb is None
    with pytest.raises(ValueError, match="vector length 3 != ambient rank 2"):
        sub.contains_vector((zero, zero, zero))
    with pytest.raises(RingMismatchError):
        sub.contains_vector((Q3.zero(), Q3.zero()))
    assert sub._gb is None
    ideal = IdealBasis(Q2, [x * x + y, x * y])
    assert ideal.contains(zero)
    assert ideal._gb is None
    with pytest.raises(RingMismatchError):
        ideal.contains(Q3.zero())
    assert ideal._gb is None
    # a nonzero element still builds the basis and is decided by it
    assert sub.contains_vector((y, zero)) and not sub.contains_vector((x, zero))
    assert sub._gb is not None
    assert ideal.contains(x * x * y + y * y) and not ideal.contains(x)


def test_contains_vector_takes_sparse_columns():
    # a sparse column {position: Poly} is the dense vector with zeros filled in
    x, y = Q2.gens()
    zero = Q2.zero()
    sub = SubmoduleBasis(Q2, 3, [(x * x + y, x, zero), (y, zero, x * y)])
    for vec in [(zero, zero, zero), (x * x + y, x, zero), (y, zero, x * y), (y, x, zero),
                (x * x + y + y, x, x * y), (zero, zero, x)]:
        col = {i: p for i, p in enumerate(vec) if not p.is_zero()}
        assert sub.contains_vector(col) == sub.contains_vector(vec), vec
        assert sub.contains_vector(dict(enumerate(vec))) == sub.contains_vector(vec), vec
        assert sub.nf_vector(col) == sub.nf_vector(vec), vec
    assert SubmoduleBasis(Q2, 2, []).contains_vector({})
    with pytest.raises(ValueError, match="position out of range"):
        sub.contains_vector({3: x})
    with pytest.raises(RingMismatchError):
        sub.contains_vector({0: Q3.gens()[0]})


def test_dense_and_sparse_generators_give_one_submodule():
    # a generator given as a dense tuple or as a sparse column is stored as
    # the same sparse column, with no zero entry; a zero generator is kept
    # as {} and still reads as the zero vector
    x, y = Q2.gens()
    zero = Q2.zero()
    dense = [(x * x + y, zero, x), (zero, zero, zero), (y, x * y, zero)]
    sparse = [{0: x * x + y, 2: x}, {}, {0: y, 1: x * y, 2: zero}]
    a, b = SubmoduleBasis(Q2, 3, dense), SubmoduleBasis(Q2, 3, sparse)
    assert a.cols == b.cols == ({0: x * x + y, 2: x}, {}, {0: y, 1: x * y})
    assert a.generators == b.generators == tuple(dense)
    assert all(len(v) == 3 for v in b.generators)
    assert a.reduced_gb == b.reduced_gb
    assert a == b and hash(a) == hash(b)
    assert a.plus(b).cols == a.cols + b.cols
    assert SubmoduleBasis(Q2, 2, [{1: zero}]).generators == ((zero, zero),)


def test_vector_checks_reject_wrong_shape_and_ring():
    # contains_vector, nf_vector and the constructor share one checker
    x, y = Q2.gens()
    zero = Q2.zero()
    sub = SubmoduleBasis(Q2, 2, [(x, y)])
    for check in (sub.contains_vector, sub.nf_vector,
                  lambda v: SubmoduleBasis(Q2, 2, [v])):
        with pytest.raises(ValueError, match="position out of range"):
            check({2: x})
        with pytest.raises(ValueError, match="position out of range"):
            check({-1: x})
        with pytest.raises(ValueError, match="vector length 3 != ambient rank 2"):
            check((x, zero, zero))
        with pytest.raises(ValueError, match="vector length 1 != ambient rank 2"):
            check((x,))
        with pytest.raises(RingMismatchError):
            check((Q3.gens()[0], zero))
        with pytest.raises(RingMismatchError):
            check({1: RingSpec(101, ("x", "y")).gens()[0]})


def test_ideal_and_module_operations_check_length_and_ring(monkeypatch):
    # a wrong length raises ValueError and a wrong ring RingMismatchError,
    # before any Groebner work starts
    import koszul_lab.groebner as groebner

    def no_groebner_work(*args, **kwargs):
        raise AssertionError("Groebner work before the checks")
    x, y = Q2.gens()
    I = IdealBasis(Q2, [x * y])
    F2 = RingSpec(101, ("x", "y"))
    monkeypatch.setattr(groebner, "_buchberger", no_groebner_work)
    with pytest.raises(ValueError, match="vector length 2 != ambient rank 1"):
        module_quotient(SubmoduleBasis(Q2, 1, [(x,)]), (y, x))
    with pytest.raises(ValueError, match="vector length 1 != ambient rank 2"):
        module_quotient(SubmoduleBasis(Q2, 2, [(x, Q2.zero())]), (y,))
    with pytest.raises(RingMismatchError):
        ideal_quotient(I, Q3.var("z"))
    with pytest.raises(RingMismatchError):
        ideal_intersection(I, IdealBasis(Q3, [Q3.var("z")]))
    with pytest.raises(RingMismatchError):
        ideal_intersection(I, IdealBasis(F2, [F2.var("x")]))
    with pytest.raises(RingMismatchError):
        radical_membership(Q3.var("z"), I)


def test_reduced_kernel_holds_its_reduced_basis(monkeypatch):
    # the kernel of the Koszul row (x, y, z) comes back holding the cached
    # reduced basis, so reading that basis and reducing against it runs no
    # Buchberger, and certificates are in its generators
    import koszul_lab.groebner as G
    x, y, z = Q3.gens()
    zero = Q3.zero()
    kernel = G._reduced_kernel([{0: x}, {0: y}, {0: z}], Q3, 1)

    def forbidden(*args, **kwargs):
        raise AssertionError("Buchberger ran on a basis already held")

    monkeypatch.setattr(G, "_buchberger", forbidden)
    assert kernel.reduced_gb == kernel.generators
    vec = (y * z, -x * z, zero)
    rem, cert = kernel.nf_vector(vec, want_cert=True)
    assert all(p.is_zero() for p in rem)
    assert len(cert) == len(kernel.generators)
    assert tuple(sum((c * g[i] for c, g in zip(cert, kernel.generators)), zero)
                 for i in range(3)) == vec
    monkeypatch.undo()
    assert kernel == SubmoduleBasis(Q3, 3, syzygies([[x, y, z]]))


# --------------------------------------------------------------------------
# syzygies
# --------------------------------------------------------------------------

def test_syzygy_of_two_elements():
    x, y = Q2.gens()
    syz = syzygies([[x, y]])
    got = SubmoduleBasis(Q2, 2, syz)
    assert got == SubmoduleBasis(Q2, 2, [(y, -x)])


def test_syzygy_of_koszul_row():
    x, y, z = Q3.gens()
    zero = Q3.zero()
    syz = syzygies([[x, y, z]])
    got = SubmoduleBasis(Q3, 3, syz)
    want = SubmoduleBasis(Q3, 3, [(y, -x, zero), (z, zero, -x), (zero, z, -y)])
    assert got == want


def test_syzygies_are_syzygies():
    x, y = Q2.gens()
    rows = [[x * x, x * y, y * y]]
    for col in syzygies(rows):
        img = Q2.zero()
        for a, b in zip(rows[0], col):
            img = img + a * b
        assert img.is_zero()


def test_syzygies_empty_and_injective():
    x, _ = Q2.gens()
    assert syzygies([[x]]) == []
    assert syzygies([], ring=Q2, source_rank=0) == []
    with pytest.raises(ValueError):
        syzygies([], ring=Q2)  # source rank unknowable


# --------------------------------------------------------------------------
# ideal calculus
# --------------------------------------------------------------------------

def test_ideal_quotients_frozen():
    assert ideal_quotient(ideal("x^2"), P("x")) == ideal("x")
    assert ideal_quotient(ideal("x*y"), P("x")) == ideal("y")
    assert ideal_quotient(ideal("x"), P("y")) == ideal("x")


def test_module_quotient():
    x, y = Q2.gens()
    zero = Q2.zero()
    rel = SubmoduleBasis(Q2, 2, [(x * x, zero), (zero, y)])
    assert module_quotient(rel, (x, zero)) == ideal("x")
    assert module_quotient(rel, (zero, Q2.one())) == ideal("y")


def test_ideal_intersection():
    assert ideal_intersection(ideal("x"), ideal("y")) == ideal("x*y")
    assert ideal_intersection(ideal("x^2", "y"), ideal("x")) == ideal("x^2", "x*y")


def test_radical_membership():
    assert radical_membership(P("x"), ideal("x^2"))
    assert not radical_membership(P("y"), ideal("x^2"))
    assert radical_membership(P("x"), ideal("x^2 + y^2", "x*y"))
    assert radical_membership(P("x + y"), ideal("x", "y"))
    assert not radical_membership(P("x"), ideal())


def test_ideal_dimension():
    assert ideal_dimension(ideal()) == 2
    assert ideal_dimension(ideal("x")) == 1
    assert ideal_dimension(ideal("x*y")) == 1
    assert ideal_dimension(ideal("x", "y")) == 0
    assert ideal_dimension(ideal("x", ring=Q3)) == 2
    with pytest.raises(ValueError):
        ideal_dimension(ideal("1"))


def test_grade_conventions():
    assert grade(ideal()) == 0
    assert grade(ideal("1")) == math.inf
    assert grade(ideal("x")) == 1
    assert grade(ideal("x^2")) == 1
    assert grade(ideal("x", "y")) == 2
    assert grade(ideal("x*y", ring=Q3)) == 1
    assert grade(ideal("x", "y", "z", ring=Q3)) == 3


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=10)
def test_quotient_of_power_by_smaller_power(a, b):
    # ((x^a) : x^b) = (x^(a-b)) for b < a, the unit ideal otherwise
    x, _ = Q2.gens()
    got = ideal_quotient(IdealBasis(Q2, [x ** a]), x ** b)
    if b >= a:
        assert got.contains_one()
    else:
        assert got == IdealBasis(Q2, [x ** (a - b)])


def test_grade_invariant_under_permutation():
    gens = ["x^2", "y^2 - x", "z"]
    base = grade(ideal(*gens, ring=Q3))
    assert base == grade(ideal(*reversed(gens), ring=Q3))


# --------------------------------------------------------------------------
# keyed-heap normal form on packed keys against the loop it replaced
# --------------------------------------------------------------------------
#
# The references run on (position, exponent tuple) dicts and share no code
# with the engine's packed term keys; the engine's results are compared
# through its decoder, `_column_from_vp`.

def _vp_of(vec, ring):
    """The engine's flattened vector of a dense vector of Poly."""
    from koszul_lab.groebner import _column, _vp_from_column
    return _vp_from_column(_column(vec, ring, len(vec)), ring)


def _vector_of(vp, ring, rank):
    """The dense vector in A^rank of the engine's flattened vector vp."""
    from koszul_lab.groebner import _column_from_vp, _dense
    return _dense(_column_from_vp(vp, ring), ring, rank)


def _tuple_vp(vec):
    """A vector of Poly as a (position, exponent tuple) -> coefficient dict."""
    return {(pos, e): c for pos, p in enumerate(vec) for e, c in p.terms.items()}


def _decoded(vp, ring, rank):
    """A packed-key dict of the engine as a (position, exponent tuple) dict."""
    return _tuple_vp(_vector_of(vp, ring, rank))


def _working(vp, ring):
    """(w, d): vp in the engine's working form, its denominators cleared:
    w = d·vp (`_cleared`)."""
    from koszul_lab.groebner import _cleared
    return _cleared(vp, ring.field.char)


def _monic(e, ring):
    """A basis element of the engine made monic, as it leaves the engine."""
    from koszul_lab.groebner import _field_vp
    return _field_vp(e.vp, e.lc, ring.field)


def _decoded_nf(result, ring, rank, d=1):
    # remainder in A^rank, certificate keys as exponent tuples; the engine's
    # pseudo-division returns λ·(normal form) of its input, which was d times
    # the vector reduced, so both are divided by λ·d as they leave it
    from koszul_lab.groebner import _field_vp
    rem, cert, lam = result
    rem = _field_vp(rem, lam * d, ring.field)
    cert = cert and [_field_vp(q, lam * d, ring.field) for q in cert]
    return _decoded(rem, ring, rank), cert and [{e: c for (_, e), c in _decoded(q, ring, 1).items()}
                                                for q in cert]


class _RefElement:
    """A basis element of the references: its leading (position, exponent
    tuple) under position over term, lower position first."""

    def __init__(self, vp, ring):
        mono = MONOMIAL_ORDERS[ring.order]
        self.vp = vp
        self.lt = max(vp, key=lambda t: (-t[0], mono(t[1])))
        self.lc = vp[self.lt]
        self.lt_pos, self.lt_exp = self.lt


def _nf_vp_reference(vp, basis, ring, want_cert=False):
    """Normal form by re-keying every remaining term at each step: the
    largest term first, reduced by the first divisor in basis order."""
    field = ring.field
    mono = MONOMIAL_ORDERS[ring.order]
    work = dict(vp)
    rem = {}
    cert = [dict() for _ in basis] if want_cert else None
    while work:
        t = max(work, key=lambda t: (-t[0], mono(t[1])))
        pos, e = t
        c = work[t]
        for i, b in enumerate(basis):
            if b.lt_pos == pos and all(a <= x for a, x in zip(b.lt_exp, e)):
                qexp = tuple(a - x for a, x in zip(e, b.lt_exp))
                qc = field.mul(c, field.inv(b.lc))
                if want_cert:
                    s = field.add(cert[i].get(qexp, field.zero), qc)
                    if s == field.zero:
                        cert[i].pop(qexp, None)
                    else:
                        cert[i][qexp] = s
                for (bpos, be), bc in b.vp.items():
                    key = (bpos, tuple(a + x for a, x in zip(be, qexp)))
                    s = field.add(work.get(key, field.zero), field.mul(bc, field.neg(qc)))
                    if s == field.zero:
                        work.pop(key, None)
                    else:
                        work[key] = s
                break
        else:
            rem[t] = c
            del work[t]
    return rem, cert


def _random_vector(rng, ring, rank, terms, max_exp):
    vec = []
    for _ in range(rank):
        p = ring.zero()
        for _ in range(rng.randint(0, terms)):
            e = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
            p = p + Poly(ring, {e: ring.field.of(rng.randint(1, 9) * rng.choice((1, -1)))})
        vec.append(p)
    return tuple(vec)


@pytest.mark.parametrize("field", ["Q", 101])
@pytest.mark.parametrize("order", ["grevlex", "grlex", "lex"])
@pytest.mark.parametrize("rank", [1, 3])
def test_nf_vp_matches_reference(field, order, rank):
    import random
    from koszul_lab.groebner import _by_position, _Element, _nf_vp
    ring = RingSpec(field, ("x", "y", "z"), order)
    rng = random.Random(f"nf-{field}-{order}-{rank}")
    for _ in range(12):
        # a reduced GB of linear generators (it stays small under every
        # order), and quadratic generators as an arbitrary divisor list
        linear = [_random_vector(rng, ring, rank, terms=3, max_exp=1) for _ in range(rng.randint(1, 3))]
        quadratic = [_random_vector(rng, ring, rank, terms=3, max_exp=2) for _ in range(rng.randint(1, 3))]
        gb = SubmoduleBasis(ring, rank, linear)._gb_elements()
        raw = [_Element(_working(_vp_of(g, ring), ring)[0], ring.layout) for g in quadratic
               if any(not p.is_zero() for p in g)]
        for basis in (gb, raw):
            ref = [_RefElement(_decoded(b.vp, ring, rank), ring) for b in basis]
            assert [_decoded({b.lt: b.lc}, ring, rank) for b in basis] == [{r.lt: r.lc} for r in ref]
            for _ in range(4):
                vec = _random_vector(rng, ring, rank, terms=5, max_exp=3)
                vp, d = _working(_vp_of(vec, ring), ring)
                by_pos = _by_position(basis)
                assert _decoded_nf(_nf_vp(vp, basis, by_pos, ring, True), ring, rank, d) == \
                    _nf_vp_reference(_tuple_vp(vec), ref, ring, True)
                assert _decoded_nf(_nf_vp(vp, basis, by_pos, ring), ring, rank, d) == \
                    _nf_vp_reference(_tuple_vp(vec), ref, ring)


# --------------------------------------------------------------------------
# packed term keys
# --------------------------------------------------------------------------

@st.composite
def _term_pairs(draw):
    nvars = draw(st.integers(1, 5))
    rank = draw(st.integers(1, 3))
    order = draw(st.sampled_from(sorted(MONOMIAL_ORDERS)))
    exps = st.tuples(*[st.integers(0, 6) for _ in range(nvars)])
    pos = st.integers(0, rank - 1)
    return nvars, order, (draw(pos), draw(exps)), (draw(pos), draw(exps)), draw(exps)


@given(_term_pairs())
@settings(max_examples=300)
def test_packed_keys_follow_position_over_term(case):
    # one packed int per term: its heap key orders terms as position over
    # term under MONOMIAL_ORDERS; a product is a sum of keys; the guard-bit
    # test is componentwise <=; and a key unpacks to its term
    nvars, order, (p1, e1), (p2, e2), m = case
    terms = RingSpec("Q", [f"x{i}" for i in range(nvars)], order).layout
    mono = MONOMIAL_ORDERS[order]
    key = lambda pos, e: pos << terms.shift | terms.monomial(e)
    k1, k2, km = key(p1, e1), key(p2, e2), terms.monomial(m)
    larger = (-p1, mono(e1)) > (-p2, mono(e2))  # lower position wins
    assert ((k1 ^ terms.desc) < (k2 ^ terms.desc)) == larger
    assert (k1 == k2) == ((p1, e1) == (p2, e2))
    if p1 == p2:
        assert ((k1 & terms.mono ^ terms.asc) < (k2 & terms.mono ^ terms.asc)) == (mono(e1) < mono(e2))
    assert k1 + km == key(p1, tuple(a + b for a, b in zip(e1, m)))
    assert (((k1 | terms.guard) - k2) & terms.guard == terms.guard) == all(map(le, e2, e1))
    assert (k1 >> terms.shift, terms.exponents(k1)) == (p1, e1)
    if p1 == p2:
        lcm = tuple(max(a, b) for a, b in zip(e1, e2))
        assert terms.lcm(k1, k2) == key(p1, lcm)


def test_exponent_of_two_to_the_31_is_refused_not_wrapped():
    # a vector that cannot be packed is refused on entry; a reduction or an
    # S-vector that would form an exponent of 2^31 raises
    from koszul_lab.groebner import CapExceededError as engine_cap
    from koszul_lab.modcalc import CapExceededError as modcalc_cap
    import koszul_lab
    assert engine_cap is modcalc_cap is koszul_lab.CapExceededError
    big = 2 ** 31
    x, y = Q2.gens()
    with pytest.raises(engine_cap):
        IdealBasis(Q2, [x ** big, y]).reduced_gb
    with pytest.raises(engine_cap):
        IdealBasis(Q2, [x]).contains(x ** (big - 1) * y)
    # just below the bound every key packs, and the GB is the inputs
    assert IdealBasis(Q2, [x ** (big - 2), y]).contains(x ** (big - 2) * y)
    # one reduction step that raises the total degree from 2^31 - 2 to 2^31:
    # x^(2^31 - 2) - x^(2^31 - 3)·(x - y^3) under lex, and the same at
    # position 0 of A^2 against (x, y^3) under grevlex
    lex = RingSpec("Q", ("x", "y"), "lex")
    xl, yl = lex.gens()
    with pytest.raises(engine_cap):
        IdealBasis(lex, [xl - yl ** 3]).contains(xl ** (big - 2))
    with pytest.raises(engine_cap):
        SubmoduleBasis(Q2, 2, [(x, y ** 3)]).contains_vector((x ** (big - 2), Q2.zero()))
    assert not SubmoduleBasis(Q2, 2, [(x, y ** 2)]).contains_vector((x ** (big - 2), Q2.zero()))
    # an S-vector whose lcm has total degree 2^31: x^(2^30)·y - 1 and x·y^(2^30) - 1
    half = 2 ** 30
    with pytest.raises(engine_cap):
        IdealBasis(Q2, [x ** half * y - Q2.one(), x * y ** half - Q2.one()]).reduced_gb
    with pytest.raises(engine_cap):
        SubmoduleBasis(Q2, 2, [(x ** half * y, Q2.one()), (x * y ** half, Q2.one())]).reduced_gb


# --------------------------------------------------------------------------
# fraction-free Buchberger against the field-coefficient engine it replaced
# --------------------------------------------------------------------------

def _buchberger_reference(inputs, ring, rank):
    """Buchberger on field coefficients: every element made monic, every
    reduction a field division.  The same normal pair selection, chain
    criterion and rank-1 product criterion as the engine."""
    from heapq import heappop, heappush
    field = ring.field
    mono = MONOMIAL_ORDERS[ring.order]
    term_key = lambda t: (-t[0], mono(t[1]))  # ascending in position over term
    divides = lambda a, b: all(x <= y for x, y in zip(a, b))
    G, pairs, queue = [], {}, []

    def monic_elem(vp):
        e = _RefElement(vp, ring)
        if e.lc != field.one:
            inv = field.inv(e.lc)
            e.vp = {t: field.mul(c, inv) for t, c in vp.items()}
            e.lc = field.one
        return e

    def add_elem(vp):
        g = monic_elem(vp)
        for i, h in enumerate(G):
            if h is not None and h.lt_pos == g.lt_pos:
                lcm = tuple(max(a, b) for a, b in zip(h.lt_exp, g.lt_exp))
                pairs[(i, len(G))] = lcm
                heappush(queue, (mono(lcm), (i, len(G))))
        G.append(g)

    def add_scaled(target, vp, exp, coeff):
        for (pos, e), c in vp.items():
            key = (pos, tuple(a + b for a, b in zip(e, exp)))
            s = field.add(target.get(key, field.zero), field.mul(c, coeff))
            if s == field.zero:
                target.pop(key, None)
            else:
                target[key] = s

    for vp in inputs:
        rem, _ = _nf_vp_reference(vp, [h for h in G if h is not None], ring)
        if rem:
            add_elem(rem)
    while queue:
        _, (i, j) = heappop(queue)
        lcm = pairs.pop((i, j))
        gi, gj = G[i], G[j]
        if rank == 1 and all(a + b == l for a, b, l in zip(gi.lt_exp, gj.lt_exp, lcm)):
            continue
        if any(k not in (i, j) and gk.lt_pos == gi.lt_pos and divides(gk.lt_exp, lcm)
               and (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs
               for k, gk in enumerate(G)):
            continue
        s = {}
        add_scaled(s, gi.vp, tuple(a - b for a, b in zip(lcm, gi.lt_exp)), field.one)
        add_scaled(s, gj.vp, tuple(a - b for a, b in zip(lcm, gj.lt_exp)), field.neg(field.one))
        rem, _ = _nf_vp_reference(s, [h for h in G if h is not None], ring)
        if rem:
            add_elem(rem)
    minimal = []
    for g in sorted(G, key=lambda g: term_key(g.lt)):
        if not any(h.lt_pos == g.lt_pos and divides(h.lt_exp, g.lt_exp) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        rem, _ = _nf_vp_reference(g.vp, [h for k, h in enumerate(minimal) if k != idx], ring)
        if rem:
            reduced.append(monic_elem(rem))
    return sorted(reduced, key=lambda g: term_key(g.lt))


RATIONALS = (Fraction(1, 2), Fraction(-3, 7), Fraction(2), Fraction(-1), Fraction(5, 3),
             Fraction(-4), Fraction(2, 9), Fraction(1))


def _rational_corpus(field, order, rank):
    """Seeded generator sets with non-integral coefficients."""
    import random
    ring = RingSpec(field, ("x", "y", "z"), order)
    rng = random.Random(f"ff-{field}-{order}-{rank}")
    corpus = []
    # quadrics under lex can take minutes at rank 2; linear forms stay small
    max_deg = 1 if order == "lex" else 2
    monomials = [e for e in product(range(3), repeat=3) if sum(e) <= max_deg]
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(2, 3)):
            vec = []
            for _ in range(rank):
                terms = {rng.choice(monomials): ring.field.of(rng.choice(RATIONALS))
                         for _ in range(rng.randint(1, 4))}
                vec.append(Poly(ring, terms))
            gens.append(tuple(vec))
        corpus.append(gens)
    return ring, corpus


def _gb_data(gb, ring, rank):
    # the engine's elements, made monic as they leave it, through its decoder
    return [(_decoded(_monic(e, ring), ring, rank), next(iter(_decoded({e.lt: e.lc}, ring, rank))),
             ring.field.one) for e in gb]


def _ref_gb_data(gb):
    return [(e.vp, e.lt, e.lc) for e in gb]


@pytest.mark.parametrize("field", ["Q", 101])
@pytest.mark.parametrize("order", ["grevlex", "grlex", "lex"])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_buchberger_matches_field_reference(field, order, rank):
    import random
    from koszul_lab.groebner import _buchberger, _by_position, _nf_vp
    ring, corpus = _rational_corpus(field, order, rank)
    rng = random.Random(f"ff-nf-{field}-{order}-{rank}")
    for gens in corpus:
        gens = [g for g in gens if any(p.terms for p in g)]
        ours = _buchberger([_vp_of(g, ring) for g in gens], ring, rank)
        ref = _buchberger_reference([_tuple_vp(g) for g in gens], ring, rank)
        assert _gb_data(ours, ring, rank) == _ref_gb_data(ref)
        assert all(canonical(c, ring.field.char) for e in ours for c in _monic(e, ring).values())
        for _ in range(3):
            vec = tuple(Poly(ring, {
                tuple(rng.randint(0, 3) for _ in range(3)): ring.field.of(rng.choice(RATIONALS))
                for _ in range(rng.randint(0, 4))}) for _ in range(rank))
            # the certificate of the engine is against its own elements,
            # which are lc times the monic ones of the reference
            vp, d = _working(_vp_of(vec, ring), ring)
            rem, cert = _decoded_nf(_nf_vp(vp, ours, _by_position(ours), ring, True), ring, rank, d)
            assert (rem, [{k: c * e.lc for k, c in q.items()} for q, e in zip(cert, ours)]) == \
                _nf_vp_reference(_tuple_vp(vec), ref, ring, True)


@pytest.mark.parametrize("order", ["grevlex", "grlex", "lex"])
def test_rank1_buchberger_matches_sympy(order):
    sympy = pytest.importorskip("sympy")
    from koszul_lab.groebner import _buchberger
    ring, corpus = _rational_corpus("Q", order, 1)
    sx = sympy.symbols("x y z")
    for gens in corpus:
        polys = [g[0] for g in gens if not g[0].is_zero()]
        if not polys:
            continue
        ours = {frozenset((e, c) for (_, e), c in _decoded(_monic(g, ring), ring, 1).items())
                for g in _buchberger([_vp_of((p,), ring) for p in polys], ring, 1)}
        theirs = sympy.groebner([sympy.Poly.from_dict(dict(p.terms), *sx, domain=sympy.QQ)
                                 for p in polys], *sx, order=order, domain=sympy.QQ)
        theirs = {frozenset((e, Fraction(int(c.numerator), int(c.denominator))) for e, c in g.terms())
                  for g in theirs.polys if not g.is_zero}
        assert ours == theirs


def _reductions_over_q():
    """Seeded inputs over Q for the tests that reduce against cached bases:
    membership, the injectivity of a map of modules, exactness of a total
    complex and coordinates modulo relations.  Returns a function that asks
    all of them on fresh basis objects, so that each computes its own bases,
    and returns the answers by kind."""
    import random
    from koszul_lab.cube import _mod_injective, _total_complex
    from koszul_lab.groebner import _column, _graph_coordinates, _nonexact_degree
    from koszul_lab.koszul import typical_cube
    from koszul_lab.modcalc import FPModule, FreeMap
    ring, quotients, _ = _quotient_corpus("Q")
    _, matrices = _matrix_corpus("Q", "grevlex")
    rng = random.Random("reductions-Q")
    x, y, z = ring.gens()
    half = ring.const(Fraction(1, 2))
    members = [(rel.ambient_rank, rel.cols, vec) for rel, vec in quotients]
    # half of a module's first relation lies in its relations
    members += [(rel.ambient_rank, rel.cols, tuple(half * p for p in g))
                for rel, _ in quotients for g in rel.generators[:1]]
    maps = []
    for rows in matrices[::3]:
        m = FreeMap(ring, rows)
        rels = lambda rank: [tuple(_seeded_poly(ring, rng, 1) for _ in range(rank))
                             for _ in range(rng.randint(0, 2))]
        maps.append((m, [_column(v, ring, m.source_rank) for v in rels(m.source_rank)],
                     [_column(v, ring, m.target_rank) for v in rels(m.target_rank)]))
    complexes = [_total_complex(typical_cube(row)) for row in
                 ([x, y, z], [half * x, y, x + y], [x * y, half * y * z, x * z], [x, x + y, y])]
    # half of each column lies in the span, a drawn vector mostly not
    coordinates = [([_column(v, ring, len(rows)) for v in
                     [tuple(half * p for p in c) for c in zip(*rows)]
                     + [tuple(_seeded_poly(ring, rng, 1) for _ in rows)]], m, tgt)
                   for (m, _, tgt), rows in zip(maps, matrices[::3])]

    def module(rank, rels):
        return FPModule(ring, rank, SubmoduleBasis(ring, rank, rels))

    def ask():
        return {
            "member": [SubmoduleBasis(ring, rank, rels).contains_vector(vec)
                       for rank, rels, vec in members],
            "injective": [_mod_injective(m, module(m.source_rank, src), module(m.target_rank, tgt))
                          for m, src, tgt in maps],
            "degree": [_nonexact_degree(*tc, ring) for tc in complexes],
            "coordinates": [_graph_coordinates(vecs, m.cols, SubmoduleBasis(ring, m.target_rank, tgt),
                                               ring, m.target_rank)
                            for vecs, m, tgt in coordinates]}
    return ask


def test_buchberger_over_q_runs_no_fraction_arithmetic(monkeypatch):
    # Fractions may be built and read (Fraction(n, d), .numerator,
    # .denominator), but no Fraction operator may run inside Buchberger, nor
    # in the membership, injectivity, exactness and coordinate tests that
    # reduce against its bases: a vector enters with its denominators
    # cleared and leaves divided once
    from koszul_lab import groebner
    from koszul_lab.groebner import _buchberger
    cases = []
    for rank in (1, 2):
        ring, corpus = _rational_corpus("Q", "grevlex", rank)
        cases += [(ring, rank, [g for g in gens if any(p.terms for p in g)]) for gens in corpus]
    expected = [_ref_gb_data(_buchberger_reference([_tuple_vp(g) for g in gens], ring, rank))
                for ring, rank, gens in cases]
    cases = [(ring, rank, [_vp_of(g, ring) for g in gens]) for ring, rank, gens in cases]
    ask = _reductions_over_q()
    groebner._cached.cache_clear()
    answers = ask()

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic inside the engine")
    groebner._cached.cache_clear()
    with monkeypatch.context() as m:
        for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
            m.setattr(Fraction, f"__{op}__", forbidden)
            m.setattr(Fraction, f"__r{op}__", forbidden)
        for op in ("neg", "pos", "abs"):
            m.setattr(Fraction, f"__{op}__", forbidden)
        got = [_buchberger(vps, ring, rank) for ring, rank, vps in cases]
        assert ask() == answers
    assert [_gb_data(gb, ring, rank) for gb, (ring, rank, _) in zip(got, cases)] == expected
    assert any(c.denominator > 1 for (ring, _, _), gb in zip(cases, got) for e in gb
               for c in _monic(e, ring).values())
    # both answers to each yes-no question, exact and inexact complexes, and
    # coordinates with denominators and vectors outside the span
    assert set(answers["member"]) == set(answers["injective"]) == {True, False}
    assert None in answers["degree"] and any(answers["degree"])
    coordinates = [c for batch in answers["coordinates"] for c in batch]
    assert None in coordinates
    assert any(q.denominator > 1 for c in coordinates if c for p in c.values()
               for q in p.terms.values())


# --------------------------------------------------------------------------
# Schreyer syzygies against the elimination they replaced
# --------------------------------------------------------------------------

def _syzygies_reference(rows, ring, source_rank):
    """The elimination `syzygies` used to run: the reduced basis of the
    columns augmented with unit vectors below them, whose members with a
    leading term in the unit block are the reduced syzygy basis."""
    from koszul_lab.groebner import _buchberger
    target_rank = len(rows)
    augmented = []
    for j in range(source_rank):
        unit = [ring.zero()] * source_rank
        unit[j] = ring.one()
        augmented.append(tuple(r[j] for r in rows) + tuple(unit))
    rank = target_rank + source_rank
    gb = _buchberger([vp for vp in (_vp_of(v, ring) for v in augmented) if vp], ring, rank)
    return [_vector_of(_monic(e, ring), ring, rank)[target_rank:] for e in gb
            if e.lt_pos >= target_rank]


def _matrix_corpus(field, order):
    """Seeded matrices, three of each shape: target rank 1-3, source rank
    1-5, coefficients such as 1/2 and -3/7.  Some columns are zero or a
    multiple of an earlier column, so that inputs reduce to syzygies too."""
    import random
    ring = RingSpec(field, ("x", "y", "z"), order)
    rng = random.Random(f"syz-{field}-{order}")
    corpus = []
    for target_rank, source_rank, _ in product((1, 2, 3), (1, 2, 3, 4, 5), range(3)):
        # quadrics blow up under lex and in the larger shapes; linear forms
        # stay small
        max_deg = 2 if order != "lex" and target_rank * source_rank <= 6 else 1
        monomials = [e for e in product(range(3), repeat=3) if sum(e) <= max_deg]
        cols = []
        for _ in range(source_rank):
            kind = rng.random()
            if kind < 0.1:
                cols.append(tuple(ring.zero() for _ in range(target_rank)))
            elif kind < 0.25 and cols:
                c = Poly(ring, {rng.choice(monomials): ring.field.of(rng.choice(RATIONALS))})
                cols.append(tuple(c * p for p in rng.choice(cols)))
            else:
                cols.append(tuple(
                    Poly(ring, {rng.choice(monomials): ring.field.of(rng.choice(RATIONALS))
                                for _ in range(rng.randint(0, 3))})
                    for _ in range(target_rank)))
        corpus.append([[c[i] for c in cols] for i in range(target_rank)])
    return ring, corpus


def _vector_data(vectors):
    # coefficients with their types: a Fraction and an equal int differ here
    return [[sorted((e, type(c), c) for e, c in p.terms.items()) for p in v] for v in vectors]


@pytest.mark.parametrize("field", ["Q", 101])
@pytest.mark.parametrize("order", ["grevlex", "grlex", "lex"])
def test_syzygies_match_elimination_reference(field, order):
    ring, corpus = _matrix_corpus(field, order)
    for rows in corpus:
        source_rank = len(rows[0])
        ours = syzygies(rows, ring, source_rank)
        ref = _syzygies_reference(rows, ring, source_rank)
        assert _vector_data(ours) == _vector_data(ref), rows
    assert any(not syzygies(rows, ring, len(rows[0])) for rows in corpus)
    assert any(len(syzygies(rows, ring, len(rows[0]))) >= 3 for rows in corpus)


def _kernel_span(rows, ring=None, source_rank=None):
    """The unreduced kernel generators of the matrix rows (row-major), as
    dense columns: the preimage of 0 under its columns."""
    from koszul_lab.groebner import _column, _dense, _preimage
    ring = ring or rows[0][0].ring
    source_rank = len(rows[0]) if source_rank is None else source_rank
    cols = [_column([r[j] for r in rows], ring, len(rows)) for j in range(source_rank)]
    return [_dense(t, ring, source_rank) for t in _preimage(cols, (), ring, len(rows))]


@pytest.mark.parametrize("field", ["Q", 101])
@pytest.mark.parametrize("order", ["grevlex", "grlex", "lex"])
def test_kernel_span_generates_the_syzygy_module(field, order):
    ring, corpus = _matrix_corpus(field, order)
    for rows in corpus:
        source_rank = len(rows[0])
        span = _kernel_span(rows, ring, source_rank)
        for g in span:
            for row in rows:
                img = ring.zero()
                for a, b in zip(row, g):
                    img = img + a * b
                assert img.is_zero()
        reduced = list(SubmoduleBasis(ring, source_rank, span).reduced_gb)
        assert _vector_data(reduced) == _vector_data(syzygies(rows, ring, source_rank))


@pytest.mark.parametrize("field", ["Q", 101])
@pytest.mark.parametrize("order", ["grevlex", "grlex", "lex"])
def test_kernel_and_image_from_one_run(field, order):
    # the heads of the basis elements that are not syzygies are a Groebner
    # basis of the image: they generate the span of the columns, and their
    # leading terms generate the leading terms of its reduced basis; the
    # collected tails are the kernel
    from koszul_lab.groebner import _buchberger, _column, _kernel_and_image, _vp_canonical
    ring, corpus = _matrix_corpus(field, order)
    for rows in corpus:
        target_rank, source_rank = len(rows), len(rows[0])
        cols = [tuple(r[j] for r in rows) for j in range(source_rank)]
        kernel, image = _kernel_and_image([_column(c, ring, target_rank) for c in cols], ring,
                                          target_rank)
        assert all(e.lt_pos < target_rank for e in image)
        reduced = _buchberger([e.vp for e in image], ring, target_rank)
        want = SubmoduleBasis(ring, target_rank, cols)._gb_elements()
        assert [_vp_canonical(e.vp) for e in reduced] == [_vp_canonical(e.vp) for e in want]
        lead = lambda e: next(iter(_decoded({e.lt: e.lc}, ring, target_rank)))
        image_leads, want_leads = list(map(lead, image)), list(map(lead, want))
        assert [e.lt_pos for e in image] == [pos for pos, _ in image_leads]
        assert all(any(a == b and all(map(le, ea, eb)) for a, ea in image_leads)
                   for b, eb in want_leads), rows
        span = [_vector_of(vp, ring, source_rank) for vp in kernel]
        assert _vector_data(SubmoduleBasis(ring, source_rank, span).reduced_gb) == \
            _vector_data(syzygies(rows, ring, source_rank))


def test_kernel_span_of_injective_matrix_is_empty():
    x, y, z = Q3.gens()
    zero = Q3.zero()
    assert _kernel_span([[x, y], [zero, z]]) == []
    assert _kernel_span([[x * y]]) == []
    assert _kernel_span([[x, y]]) != []


# --------------------------------------------------------------------------
# quotients and intersections from the preimage against the code they replaced
# --------------------------------------------------------------------------

def _module_quotient_reference(rel, vec):
    """The `module_quotient` that took the reduced syzygies of the columns
    (vec | rel) and kept their distinct nonzero first coordinates."""
    ring, rank = rel.ring, rel.ambient_rank
    cols = [tuple(vec)] + list(rel.generators)
    rows = [[c[i] for c in cols] for i in range(rank)]
    gens, seen = [], set()
    for col in syzygies(rows, ring, source_rank=len(cols)):
        a = col[0]
        key = tuple(sorted(a.monic().terms.items())) if not a.is_zero() else None
        if key is not None and key not in seen:
            seen.add(key)
            gens.append(a)
    return IdealBasis(ring, gens)


def _ideal_intersection_reference(I, J):
    """The `ideal_intersection` that eliminated in A^2 on the generators
    (g, g) of I and (h, 0) of J: the basis members with a zero first
    coordinate carry I ∩ J in the second."""
    ring = I.ring
    gens = [(g, g) for g in I.generators if not g.is_zero()]
    gens += [(h, ring.zero()) for h in J.generators if not h.is_zero()]
    gb = SubmoduleBasis(ring, 2, gens).reduced_gb
    return IdealBasis(ring, [v[1] for v in gb if v[0].is_zero()])


def _seeded_poly(ring, rng, max_deg):
    """0-3 terms of degree at most max_deg in 3 variables, coefficients from
    RATIONALS; the zero polynomial when no term is drawn."""
    monomials = [e for e in product(range(3), repeat=3) if sum(e) <= max_deg]
    return Poly(ring, {rng.choice(monomials): ring.field.of(rng.choice(RATIONALS))
                       for _ in range(rng.randint(0, 3))})


def _quotient_corpus(field):
    """Seeded module quotients at rank 1-3 with 0-3 relations, and ideal
    pairs with 0-3 generators each; coefficients such as 1/2 and -3/7.
    Some vectors, relations and generators are zero."""
    import random
    ring = RingSpec(field, ("x", "y", "z"))
    rng = random.Random(f"quot-{field}")

    def poly(max_deg):
        return _seeded_poly(ring, rng, max_deg)

    quotients = []
    for rank, nrels, _ in product((1, 2, 3), (0, 1, 2, 3), range(3)):
        # quadrics stay in the smaller shapes, as in _matrix_corpus
        max_deg = 2 if rank * (nrels + 1) <= 6 else 1
        vec = tuple(poly(max_deg) for _ in range(rank)) if rng.random() > 0.15 else \
            tuple(ring.zero() for _ in range(rank))
        rels = []
        for _ in range(nrels):
            # half of the relations sit at one position, so that the module is
            # torsion more often and its quotients are proper ideals
            at = rng.randrange(rank) if rng.random() < 0.5 else None
            rels.append(tuple(poly(max_deg) if at in (None, i) else ring.zero()
                              for i in range(rank)))
        quotients.append((SubmoduleBasis(ring, rank, rels), vec))
    pairs = [(IdealBasis(ring, [poly(2) for _ in range(ni)]),
              IdealBasis(ring, [poly(2) for _ in range(nj)]))
             for ni, nj, _ in product((0, 1, 2, 3), (0, 1, 2, 3), range(2))]
    return ring, quotients, pairs


@pytest.mark.parametrize("field", ["Q", 101])
def test_module_quotient_matches_reference(field):
    ring, quotients, _ = _quotient_corpus(field)
    got = []
    for rel, vec in quotients:
        ours = module_quotient(rel, vec)
        assert ours == _module_quotient_reference(rel, vec), (rel.generators, vec)
        got.append(ours)
    # the corpus reaches the zero ideal, the unit ideal and proper ideals between
    assert any(q.is_zero_ideal() for q in got)
    assert any(q.contains_one() for q in got)
    assert any(not q.is_zero_ideal() and not q.contains_one() for q in got)
    # a zero vector has the unit ideal as its quotient
    assert module_quotient(SubmoduleBasis(ring, 2, []), (ring.zero(), ring.zero())).contains_one()


@pytest.mark.parametrize("field", ["Q", 101])
def test_ideal_intersection_matches_reference(field):
    ring, _, pairs = _quotient_corpus(field)
    got = []
    for I, J in pairs:
        ours = ideal_intersection(I, J)
        assert ours == _ideal_intersection_reference(I, J), (I, J)
        got.append(ours)
    assert any(not q.is_zero_ideal() and not q.contains_one() for q in got)
    assert ideal_intersection(IdealBasis(ring, []), IdealBasis(ring, ring.gens())).is_zero_ideal()


# --------------------------------------------------------------------------
# an ideal is the rank-1 submodule
# --------------------------------------------------------------------------

def _rank_one_corpus(field, order):
    """Seeded generator lists of ideals of k[x,y,z] under `order`, 0-3
    generators each, some of them zero, with the unit and the zero ideal;
    and polynomials to reduce against them, coefficients such as 1/2 and
    -3/7."""
    import random
    ring = RingSpec(field, ("x", "y", "z"), order)
    rng = random.Random(f"rank1-{field}-{order}")

    def poly(max_deg):
        return _seeded_poly(ring, rng, max_deg)

    gen_lists = [[poly(2) for _ in range(n)] for n, _ in product(range(4), range(3))]
    gen_lists += [[ring.zero(), P("x + 1", ring), ring.one()], [ring.zero()], []]
    fs = [poly(3) for _ in range(4)] + [ring.zero(), ring.one()]
    return ring, gen_lists, fs


RANK_ONE_CASES = list(product(["Q", 101], sorted(MONOMIAL_ORDERS)))


@pytest.mark.parametrize("field,order", RANK_ONE_CASES)
def test_ideal_agrees_with_rank_one_submodule(field, order):
    ring, gen_lists, fs = _rank_one_corpus(field, order)
    ideals = [IdealBasis(ring, gens) for gens in gen_lists]
    for gens, I in zip(gen_lists, ideals):
        mod = SubmoduleBasis(ring, 1, [(g,) for g in gens])
        assert I.generators == tuple(v[0] for v in mod.generators) == tuple(gens)
        assert I.reduced_gb == tuple(v[0] for v in mod.reduced_gb)
        assert I.is_zero_ideal() == mod.is_zero_submodule()
        assert I.contains_one() == mod.contains_vector((ring.one(),))
        for f in fs:
            rem, cert = mod.nf_vector((f,), want_cert=True)
            assert I.nf(f, want_cert=True) == (rem[0], cert)
            assert I.nf(f) == (rem[0], None)
            assert I.contains(f) == mod.contains_vector((f,))
    # the corpus reaches the zero ideal, the unit ideal and proper ideals between
    assert any(I.is_zero_ideal() for I in ideals)
    assert any(I.contains_one() for I in ideals)
    assert any(not I.is_zero_ideal() and not I.contains_one() for I in ideals)
    assert any(any(g.is_zero() for g in I.generators) for I in ideals)


@pytest.mark.parametrize("field,order", RANK_ONE_CASES)
def test_ideal_equals_rank_one_submodule(field, order):
    ring, gen_lists, _ = _rank_one_corpus(field, order)
    for gens in gen_lists:
        I, mod = IdealBasis(ring, gens), SubmoduleBasis(ring, 1, [(g,) for g in gens])
        assert I == mod and mod == I
        assert hash(I) == hash(mod)


def test_ideal_ring_mismatch_raises():
    I = IdealBasis(Q2, [P("x*y")])
    other = Q3.var("x")
    with pytest.raises(RingMismatchError):
        IdealBasis(Q2, [P("x"), other])
    for op in (I.nf, I.contains):
        with pytest.raises(RingMismatchError):
            op(other)
    with pytest.raises(RingMismatchError):
        I.nf(other, want_cert=True)


# --------------------------------------------------------------------------
# the bounded cache of reduced bases and preimages
# --------------------------------------------------------------------------

def _eviction_corpus():
    """Seeded syzygies, reduced bases, module quotients and admissibility
    verdicts under all three strategies, over Q and GF(101).  Every basis
    object and cube is made afresh on each call, so none carries a basis
    over from an earlier call: each result comes from the cache or a run."""
    from _gen import koszul_suite, perturbed_suite
    from koszul_lab.cube import ADMISSIBILITY_STRATEGIES, is_admissible
    out = []
    for field in ("Q", 101):
        ring, corpus = _matrix_corpus(field, "grevlex")
        for rows in corpus[::4]:
            out.append(_vector_data(syzygies(rows, ring)))
            cols = [tuple(r[j] for r in rows) for j in range(len(rows[0]))]
            out.append(_vector_data(SubmoduleBasis(ring, len(rows), cols).reduced_gb))
        _, quotients, _ = _quotient_corpus(field)
        out += [module_quotient(rel, vec).reduced_gb for rel, vec in quotients[::3]]
    cubes = [x for x, _ in koszul_suite(6)] + perturbed_suite(4)
    out += [is_admissible(x, strategy=s) for x in cubes for s in ADMISSIBILITY_STRATEGIES]
    return out


def test_eviction_never_changes_a_result(monkeypatch, count_calls):
    # Buchberger is deterministic and a reduced basis is unique, so an
    # entry dropped and computed again is the same, bases and preimage
    # generators alike
    from functools import lru_cache

    from koszul_lab import groebner
    runs = count_calls(groebner, "_buchberger")
    groebner._cached.cache_clear()
    want, full = _eviction_corpus(), len(runs)
    monkeypatch.setattr(groebner, "_cached", lru_cache(maxsize=2)(groebner._cached.__wrapped__))
    runs.clear()
    assert _eviction_corpus() == want
    # entries were dropped and asked for again
    assert len(runs) > full


def test_cache_holds_at_most_its_bound(monkeypatch):
    # one least-recently-used cache of _GB_CACHE_ENTRIES entries holds the
    # reduced bases (head None) and the Schreyer generators alike
    from functools import lru_cache

    from koszul_lab import groebner
    assert groebner._cached.cache_info().maxsize == groebner._GB_CACHE_ENTRIES == 512
    compute = groebner._cached.__wrapped__
    bounded = lru_cache(maxsize=5)(compute)
    sizes, kinds = [], set()

    def recorded(ring, rank, gens, head):
        hit = bounded(ring, rank, gens, head)
        sizes.append(bounded.cache_info().currsize)
        kinds.add(head is None)
        return hit

    monkeypatch.setattr(groebner, "_cached", recorded)
    _eviction_corpus()
    assert max(sizes) == 5 and kinds == {True, False}
    # a hit makes its entry the most recently used: the least recently used
    # one is dropped (recorded now reads a cache of 2 entries)
    bounded = lru_cache(maxsize=2)(compute)
    for f in ("x", "y", "x", "x + y", "x"):
        ideal(f).reduced_gb
    assert bounded.cache_info()[:2] == (2, 3)
    ideal("y").reduced_gb
    assert bounded.cache_info()[:2] == (2, 4)


# --------------------------------------------------------------------------
# the engine's edge: every way a vector leaves it, pinned over Q
# --------------------------------------------------------------------------

EDGE_LINES = 258
EDGE_TRANSCRIPT_SHA256 = "341d6a5eae4349719c982d91cea2c8ac2b5ebaf57329cba4f1b0b8221bd6176d"


def _edge_transcript():
    """The printed values of every way a vector leaves the engine, over Q:
    reduced bases, syzygies, normal forms with certificates, preimages,
    reduced kernels, graph coordinates, module quotients, intersections and
    homology presentations, on seeded submodules of rank 1-3 with 0-2
    relations and coefficients such as 1/2 and -3/7."""
    import random
    from koszul_lab.groebner import _column, _dense, _graph_coordinates, _preimage, _reduced_kernel
    from koszul_lab.modcalc import Complex, FreeMap, homology
    ring = RingSpec("Q", ("x", "y", "z"))
    rng = random.Random("edge-Q")
    show = lambda vecs: "; ".join("[" + ", ".join(map(str, v)) + "]" for v in vecs)
    lines = []
    for rank, nrels, ncols in product((1, 2, 3), (0, 1, 2), (1, 2, 3)):
        max_deg = 2 if rank * (nrels + ncols) <= 6 else 1
        vector = lambda: tuple(_seeded_poly(ring, rng, max_deg) for _ in range(rank))
        cols, rels = [vector() for _ in range(ncols)], [vector() for _ in range(nrels)]
        sub, rel = SubmoduleBasis(ring, rank, cols + rels), SubmoduleBasis(ring, rank, rels)
        sparse = [_column(c, ring, rank) for c in cols]
        # one vector of the span, with rational coefficients, and one drawn
        scalars = [_seeded_poly(ring, rng, 1) for _ in cols + rels]
        inside = tuple(sum((a * v[i] for a, v in zip(scalars, cols + rels)), ring.zero())
                       for i in range(rank))
        vecs = [inside, vector()]
        lines.append(f"{rank} {nrels} {ncols} gb {show(sub.reduced_gb)}")
        rows = [[c[i] for c in cols] for i in range(rank)]
        lines.append(f"syz {show(syzygies(rows, ring, ncols))}")
        preimage = _preimage(sparse, rel.cols, ring, rank)
        lines.append(f"preimage {show(_dense(t, ring, ncols) for t in preimage)}")
        lines.append(f"kernel {show(_reduced_kernel(sparse, ring, rank).generators)}")
        for vec in vecs:
            rem, cert = sub.nf_vector(vec, want_cert=True)
            lines.append(f"nf {show([rem])} cert {show([cert])}")
            lines.append(f"quotient {show([module_quotient(rel, vec).generators])}")
        coords = _graph_coordinates([_column(v, ring, rank) for v in vecs], sparse, rel, ring, rank)
        lines.append("coords " + "; ".join("None" if t is None else show([_dense(t, ring, ncols)])
                                           for t in coords))
    for ni, nj in product((1, 2, 3), (1, 2)):
        I = IdealBasis(ring, [_seeded_poly(ring, rng, 2) for _ in range(ni)])
        J = IdealBasis(ring, [_seeded_poly(ring, rng, 2) for _ in range(nj)])
        lines.append(f"meet {show([ideal_intersection(I, J).generators])} gb {show([I.reduced_gb])}")
    for n in range(3):
        # d_2 is made of multiples of kernel generators of d_1, so its image
        # lies in the kernel and each homology is presented on real data
        d1 = FreeMap(ring, [[_seeded_poly(ring, rng, 1) for _ in range(3)] for _ in range(2)])
        gens = syzygies(d1.entries, ring, 3)
        cols = [tuple(a * p for p in g) for g in gens
                for a in (_seeded_poly(ring, rng, 1), _seeded_poly(ring, rng, 1))]
        # the rows of the matrix whose columns are cols
        d2 = FreeMap(ring, list(zip(*cols)) or [()] * 3, 3, len(cols))
        c = Complex(ring, [2, 3, len(cols)], [d1, d2])
        for k in range(3):
            H = homology(c, k)
            lines.append(f"H_{k} {H.rank} {show(H.relations.generators)}")
    return lines


def test_engine_edge_is_pinned():
    # computed at the commit before the engine kept integer working forms
    # over Q: every Fraction that leaves the engine is the one the field
    # engine made, to the last digit
    import hashlib
    lines = _edge_transcript()
    assert len(lines) == EDGE_LINES
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EDGE_TRANSCRIPT_SHA256


def test_every_rational_coefficient_is_made_in_its_one_form():
    # over Q a coefficient is an int exactly when it is an integer and a
    # Fraction with denominator > 1 otherwise, at every place one is made:
    # parsing, Poly arithmetic, map products and minors, and every exit of
    # the engine; each place makes both kinds here
    from koszul_lab.groebner import _column, _graph_coordinates, _preimage
    from koszul_lab.modcalc import FreeMap, determinant_of_square, fitting_ideal
    made: dict = {}

    def record(where, *polys):
        made.setdefault(where, []).extend(c for p in polys for c in p.keys.values())

    ring, quotients, pairs = _quotient_corpus("Q")
    x, y, _ = ring.gens()
    half, third = ring.const(Fraction(1, 2)), ring.const(Fraction(1, 3))
    parsed = parse_poly("4/2*x - 6/3*y + 1/2*z", ring)
    assert parsed.terms == {(1, 0, 0): 2, (0, 1, 0): -2, (0, 0, 1): Fraction(1, 2)}
    record("parse", parsed)
    record("terms", Poly(ring, {(1, 0, 0): Fraction(4, 2), (0, 1, 0): Fraction(1, 3)}))
    record("add", half * x + half * x, half * x + third * x)
    record("sub", half * x - ring.const(Fraction(-1, 2)) * x, x - third * x)
    record("mul", half * (x + y) * ring.const(2), half * third * x)
    record("scale", (half * x).scale(2), x.scale(Fraction(2, 3)))
    record("monic", (ring.const(3) * x + ring.const(6) * y).monic(),
           (ring.const(Fraction(2, 3)) * x + y).monic())

    _, matrices = _matrix_corpus("Q", "grevlex")
    for rows in matrices:
        m = FreeMap(ring, rows)
        square = m.compose(FreeMap(ring, [list(c) for c in zip(*rows)]))
        record("compose", *(p for r in square.entries for p in r))
        record("determinant", determinant_of_square(square))
        for t in range(1, min(m.target_rank, m.source_rank) + 1):
            record("minors", *fitting_ideal(m, t).generators)
        ncols = len(rows[0])
        record("syzygies", *(p for g in syzygies(rows, ring, ncols) for p in g))
    for rel, vec in quotients:
        rank = rel.ambient_rank
        sub = rel.plus(SubmoduleBasis(ring, rank, [vec]))
        record("reduced_gb", *(p for g in sub.reduced_gb for p in g))
        rem, cert = rel.nf_vector(tuple(half * p + third * q for p, q in zip(vec, vec[1:] + vec[:1])),
                                  want_cert=True)
        record("nf_vector", *rem, *cert)
        cols = [_column(g, ring, rank) for g in rel.generators + (vec,)]
        record("_preimage", *(p for t in _preimage(cols, rel.cols, ring, rank) for p in t.values()))
        record("module_quotient", *module_quotient(rel, vec).generators)
        # each column and half of it lie in the span
        vecs = cols + [{i: half * p for i, p in c.items()} for c in cols]
        record("_graph_coordinates", *(p for t in _graph_coordinates(vecs, cols, rel, ring, rank)
                                       if t for p in t.values()))
    for I, J in pairs:
        record("reduced_gb", *I.reduced_gb)
        record("ideal_intersection", *ideal_intersection(I, J).generators)
    assert sorted(made) == sorted([
        "parse", "terms", "add", "sub", "mul", "scale", "monic", "compose",
        "determinant", "minors", "syzygies", "reduced_gb", "nf_vector", "_preimage",
        "module_quotient", "_graph_coordinates", "ideal_intersection"])
    for where, coefficients in made.items():
        assert all(canonical(c, 0) for c in coefficients), where
        assert {type(c) for c in coefficients} == {int, Fraction}, where
