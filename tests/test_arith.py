"""Polynomial arithmetic, monomial orders, parsing/printing."""

import random
from fractions import Fraction

import pytest
from _canonical import canonical
from _reference import exact_division
from hypothesis import given
from hypothesis import strategies as st

from koszul_lab.arith import (
    MONOMIAL_ORDERS,
    CapExceededError,
    ParseError,
    Poly,
    RingMismatchError,
    RingSpec,
    _is_prime,
    is_unit,
    parse_poly,
)
from koszul_lab.modcalc import FreeMap

Q2 = RingSpec("Q", ("x", "y"))
F7 = RingSpec(7, ("x", "y"))


def P(s, ring=Q2):
    return parse_poly(s, ring)


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def test_gens_and_consts():
    x, y = Q2.gens()
    assert str(x * y + Q2.const(2)) == "x*y + 2"
    assert Q2.zero().is_zero()
    assert Q2.one().is_constant()
    assert (x * x).total_degree() == 2
    assert Q2.zero().total_degree() == -1


def test_characteristic():
    assert Q2.field.char == 0
    assert F7.field.char == 7
    assert RingSpec("Q", ("x",)).field.of(3) == Fraction(3)


def test_coefficients_are_ints_and_fractions_only():
    # a float would be truncated over GF(p) (2.5 -> 2, 0.1 -> 0) and kept
    # as its binary value over Q, and a string parsed over Q alone: every
    # way a coefficient enters refuses them on both fields
    from decimal import Decimal
    for ring in (Q2, F7):
        x = ring.var("x")
        for bad in (2.5, 0.1, 2.0, "3", "1/2", Decimal("0.5"), None):
            with pytest.raises(ValueError, match="not an int or a Fraction"):
                Poly(ring, {(1, 0): bad})
            with pytest.raises(ValueError, match="not an int or a Fraction"):
                ring.const(bad)
            with pytest.raises(ValueError, match="not an int or a Fraction"):
                x.scale(bad)
        # a bool counts as its int
        assert ring.const(True) == ring.one() and x.scale(False).is_zero()


def test_mod_p_normalization():
    x, _ = F7.gens()
    assert str(x.scale(9)) == "2*x"
    assert x.scale(7).is_zero()
    assert str(F7.const(-1)) == "6"  # canonical representative in [0, p)


def test_bad_order_and_duplicate_vars():
    with pytest.raises(ValueError):
        RingSpec("Q", ("x", "y"), order="degrevlex")
    with pytest.raises(ValueError):
        RingSpec("Q", ("x", "x"))


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatchError):
        P("x") + P("x", F7)
    with pytest.raises(RingMismatchError):
        P("x") * P("x", RingSpec("Q", ("x", "y"), order="lex"))
    with pytest.raises(RingMismatchError):
        P("x") - P("x", F7)
    m = FreeMap(Q2, [[P("x")]])
    with pytest.raises(RingMismatchError):
        m.scaled(P("x", F7))
    with pytest.raises(RingMismatchError):
        m + FreeMap(F7, [[P("x", F7)]])


@pytest.mark.parametrize("make, message", [
    (lambda: Q2.var("z"), "unknown variable 'z'"),
    (lambda: Q2.extended("y"), "variable 'y' already present"),
    (lambda: P("x") ** -1, "negative exponent"),
])
def test_ring_and_power_refusals(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("spec,message", [
    (0, "must be prime"), (1, "must be prime"), (4, "must be prime"), (-3, "must be prime"),
    # below 2 the value is not printed: str() refuses an int of more than
    # 4,300 digits
    pytest.param(-10 ** 5000, "prime, got a value below 2$", id="minus_ten_to_the_5000"),
    (-7, "prime, got a value below 2$"), (0, "prime, got a value below 2$"),
    (1, "prime, got a value below 2$"),
    (True, "must be prime"), ("GF(7)", "unsupported field spec"),
    (2.0, "unsupported field spec"),
    # a Carmichael number and a base-2 strong pseudoprime
    (561, "must be prime"), (2047, "must be prime"),
    (10 ** 400, r"below 2\^64"), (2 ** 64 + 1, r"below 2\^64"),
])
def test_field_spec_is_refused(spec, message):
    # 0 is not a way to ask for Q, and a bool is not a characteristic
    with pytest.raises(ValueError, match=message):
        RingSpec(spec, ("x",))
    assert RingSpec(2, ("x",)).field.char == 2


def test_rings_made_apart_are_equal_by_value():
    # rings are compared, and cached under, their field, variables and order
    for field in ("Q", 7, 2 ** 61 - 1):
        a, b = RingSpec(field, ("x", "y")), RingSpec(field, ("x", "y"))
        assert a == b and hash(a) == hash(b)
        assert P("x", a) == P("x", b)
    assert RingSpec(7, ("x", "y")) != RingSpec(11, ("x", "y"))
    assert RingSpec(7, ("x", "y")) != RingSpec("Q", ("x", "y"))


def test_large_prime_characteristics_are_accepted():
    # 2^61 - 1, the largest Mersenne prime below 2^64, and 2^64 - 59, the
    # largest prime below 2^64
    for p in (2 ** 61 - 1, 2 ** 64 - 59):
        ring = RingSpec(p, ("x",))
        x = ring.var("x")
        assert ring.field.char == p
        assert (x.scale(p - 1) + x).is_zero()


def test_primality_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    values = list(range(-5, 3000)) + [rng.randrange(2 ** 64) for _ in range(2000)]
    values += [rng.randrange(2 ** 32) | 1 for _ in range(2000)]
    # the least strong pseudoprimes to the prime bases up to 7 and up to 23
    values += [3215031751, 3825123056546413051]
    assert [p for p in values if _is_prime(p) != sympy.isprime(p)] == []


def test_poly_constructor_checks_its_exponent_tuples():
    # a packed exponent that is negative or out of place would borrow from
    # or land in a neighbouring field of the key, so it is refused
    x, _ = Q2.gens()
    for bad in [(1,), (1, 0, 0), (-1, 2), (1.0, 0), ("1", 0)]:
        with pytest.raises(ValueError):
            Poly(Q2, {bad: Fraction(1)})
    zero = Poly(Q2, {(1, 0): Fraction(0)})
    assert zero.is_zero() and zero == Q2.zero() and str(zero) == "0"
    assert Poly(Q2, {(1, 0): Fraction(1)}) == x
    assert str(Poly(Q2, {(1, 0): Fraction(1)}) + x) == "2*x"
    # coefficients are brought into the field, as every operation keeps them
    assert Poly(F7, {(1, 0): 9}) == F7.var("x").scale(2)
    assert Poly(F7, {(1, 0): 7}).is_zero()
    # over Q an integer is an int and anything else a Fraction in lowest terms
    for c, want in [(1, 1), (Fraction(4, 2), 2), (True, 1), (Fraction(-1, 2), Fraction(-1, 2))]:
        got = Poly(Q2, {(1, 0): c}).terms[(1, 0)]
        assert got == want and type(got) is type(want) and canonical(got, 0)


# --------------------------------------------------------------------------
# ring axioms (randomized)
# --------------------------------------------------------------------------

@st.composite
def polys(draw, ring=Q2, max_terms=4, max_exp=3):
    n = len(ring.variables)
    pairs = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, max_exp)] * n), st.integers(-5, 5)),
        max_size=max_terms))
    acc = ring.zero()
    for e, c in pairs:
        acc = acc + Poly(ring, {e: ring.field.of(c)})
    return acc


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a * Q2.one() == a
    assert (a * Q2.zero()).is_zero()


def _reference_sum(a, b, sign):
    # term by term through the field's own operations
    field = a.ring.field
    out = dict(a.terms)
    for e, c in b.terms.items():
        s = field.add(out.get(e, field.zero), field.mul(c, field.of(sign)))
        if s == field.zero:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _reference_product(a, b):
    field = a.ring.field
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = field.add(out.get(e, field.zero), field.mul(c1, c2))
            if s == field.zero:
                out.pop(e, None)
            else:
                out[e] = s
    return out


@st.composite
def rational_polys(draw, ring):
    # coefficients with denominators, so products sum over a common denominator
    n = len(ring.variables)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * n),
                                 st.fractions(min_value=-3, max_value=3, max_denominator=6),
                                 max_size=4))
    return Poly(ring, {e: ring.field.of(c) for e, c in terms.items() if ring.field.of(c)})


@given(st.sampled_from([Q2, F7]), st.data())
def test_arithmetic_matches_term_by_term_reference(ring, data):
    a, b = data.draw(rational_polys(ring)), data.draw(rational_polys(ring))
    assert (a + b).terms == _reference_sum(a, b, 1)
    assert (a - b).terms == _reference_sum(a, b, -1)
    assert (-a).terms == _reference_sum(ring.zero(), a, -1)
    assert (a * b).terms == _reference_product(a, b)
    for p in (a + b, a - b, -a, a * b):
        assert all(canonical(c, ring.field.char) for c in p.terms.values())


@given(polys(), st.integers(0, 5))
def test_pow_matches_repeated_mul(a, n):
    expected = Q2.one()
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


# --------------------------------------------------------------------------
# monomial orders
# --------------------------------------------------------------------------

exps3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@given(exps3, exps3, exps3)
def test_order_axioms(e1, e2, e3):
    for key in MONOMIAL_ORDERS.values():
        if e1 != e2:
            assert (key(e1) < key(e2)) != (key(e2) < key(e1))
        # compatible with multiplication
        if key(e1) < key(e2):
            shifted1 = tuple(a + b for a, b in zip(e1, e3))
            shifted2 = tuple(a + b for a, b in zip(e2, e3))
            assert key(shifted1) < key(shifted2)
        # 1 is minimal
        assert key((0, 0, 0)) <= key(e1)


def test_grevlex_vs_grlex_disagree():
    # xyz^2 vs y^3z, both degree 4: grlex ranks xyz^2 higher, grevlex lower.
    grev = MONOMIAL_ORDERS["grevlex"]
    grl = MONOMIAL_ORDERS["grlex"]
    a, b = (1, 1, 2), (0, 3, 1)
    assert grl(a) > grl(b)
    assert grev(a) < grev(b)


def test_lex_ignores_degree():
    lex = MONOMIAL_ORDERS["lex"]
    assert lex((1, 0)) > lex((0, 5))  # x > y^5 under lex


def test_leading_term_respects_ring_order():
    p_grev = P("x + y^2")
    assert p_grev.leading()[0] == (0, 2)
    p_lex = parse_poly("x + y^2", RingSpec("Q", ("x", "y"), "lex"))
    assert p_lex.leading()[0] == (1, 0)


@st.composite
def ordered_polys(draw, ring):
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * ring.nvars),
                                 st.integers(-5, 5).filter(bool), max_size=5))
    return Poly(ring, {e: ring.field.of(c) for e, c in terms.items()})


@given(st.sampled_from(sorted(MONOMIAL_ORDERS)), st.sampled_from(["Q", 101]), st.data())
def test_packed_order_is_the_reference_order(order, field, data):
    # leading terms, sorted terms and degrees come from the packed keys;
    # MONOMIAL_ORDERS on exponent tuples is the reference they must match
    ring = RingSpec(field, ("x", "y", "z"), order)
    a, b, c = (data.draw(ordered_polys(ring)) for _ in range(3))
    p = a * b + c  # keys made by key arithmetic, not only by packing
    key = MONOMIAL_ORDERS[order]
    assert [e for e, _ in p.sorted_terms()] == sorted(p.terms, key=key, reverse=True)
    assert [coef for _, coef in p.sorted_terms()] == [p.terms[e] for e, _ in p.sorted_terms()]
    if not p.is_zero():
        top = max(p.terms, key=key)
        assert p.leading() == (top, p.terms[top])
    assert Poly(ring, p.terms) == p
    assert p.total_degree() == max((sum(e) for e in p.terms), default=-1)
    if not b.is_zero():
        assert exact_division(a * b, b) == a


# --------------------------------------------------------------------------
# printing / parsing
# --------------------------------------------------------------------------

def test_canonical_strings():
    assert str(P("0")) == "0"
    assert str(P("y + x")) == "x + y"
    assert str(P("-x")) == "-x"
    assert str(P("2*x - 3")) == "2*x - 3"
    assert str(P("1/2*x^2*y")) == "1/2*x^2*y"
    assert str(P("(x + y)^2")) == "x^2 + 2*x*y + y^2"


def test_one_printing_rule_for_both_fields():
    # the sign comes from c < 0 and the magnitude is abs(c), with / only for
    # a Fraction; GF(p) coefficients are never negative
    p = P("-3*x^2 + 1/2*y - 1")
    assert [type(c) for _, c in p.sorted_terms()] == [int, Fraction, int]
    assert str(p) == "-3*x^2 + 1/2*y - 1"
    assert str(P("-6/3*x - 1/2 + 4/2*y")) == "-2*x + 2*y - 1/2"
    assert str(P("-3*x^2 + 1/2*y - 1", F7)) == "4*x^2 + 4*y + 6"
    assert str(P("x - 1", F7)) == "x + 6"


@given(polys())
def test_str_parse_round_trip(p):
    assert parse_poly(str(p), Q2) == p


@given(polys(ring=F7))
def test_str_parse_round_trip_mod_p(p):
    assert parse_poly(str(p), F7) == p


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        P("x + ")
    assert e.value.position == 4
    with pytest.raises(ParseError):
        P("x^0")  # exponents must be positive
    with pytest.raises(ParseError):
        P("x^-1")
    with pytest.raises(ParseError):
        P("w + 1")  # unknown variable
    with pytest.raises(ParseError):
        P("x y")  # implicit multiplication is not in the grammar
    with pytest.raises(ParseError):
        P("")
    with pytest.raises(ParseError, match=r"expected '\)'") as e:
        P("(x")
    assert e.value.position == 2
    with pytest.raises(ParseError, match="zero denominator") as e:
        P("1/0")
    assert e.value.position == 2
    # past the nesting bound the parser raises its own error, which the CLI
    # reports as malformed input
    with pytest.raises(ParseError, match="nested too deeply"):
        P("(" * 2000 + "x" + ")" * 2000)


@pytest.mark.parametrize("text, message, position", [
    ("x^\u00b2", "expected an integer", 2),  # superscript two
    ("\u0663*x", "expected a coefficient, variable, or '\\('", 0),  # Arabic-Indic three
    ("x^1\u0663", "unexpected character", 3),
    ("1/\uff13", "expected an integer", 2),  # fullwidth three
])
def test_integers_are_ascii_digits(text, message, position):
    # INT is 0-9 only: str.isdigit also accepts other scripts' digits, which
    # int() then read or refused with a bare ValueError and no position
    with pytest.raises(ParseError, match=message) as e:
        P(text)
    assert e.value.position == position


def test_integers_have_at_most_4300_digits():
    # str() and int() refuse more than 4,300 digits with a bare ValueError;
    # the parser and the printer refuse them first, as a cap
    assert P("9" * 4300) == Q2.const(10 ** 4300 - 1)
    assert str(Q2.const(Fraction(1, 10 ** 4300 - 1))) == "1/" + "9" * 4300
    for text in ("1" * 4301 + "*x", "x^" + "1" * 4301, "1/" + "3" * 5000):
        with pytest.raises(CapExceededError, match="more than 4300"):
            P(text)
    for c in (10 ** 4300, Fraction(1, 10 ** 4300), Fraction(-(10 ** 4300), 3)):
        with pytest.raises(CapExceededError, match="more than 4300 digits"):
            str(Q2.const(c) * Q2.gens()[0])


def _at_depth(frames, f):
    """f() called `frames` stack frames below this call."""
    return f() if frames == 0 else _at_depth(frames - 1, f)


def test_nesting_bound_does_not_depend_on_the_stack():
    # 100 open parentheses parse and 101 are refused, at the top level and
    # 300 frames down alike; before the bound, Python's recursion limit
    # decided, so how deep the caller's stack was changed the answer
    for frames in (0, 300):
        deep = "(" * 100 + "x" + ")" * 100
        assert _at_depth(frames, lambda: P(deep)) == P("x")
        with pytest.raises(ParseError, match="nested too deeply") as e:
            _at_depth(frames, lambda: P("(" + deep + ")"))
        assert e.value.position == 100


def test_double_star_is_not_a_power():
    # only ^ writes a power; the second * of ** starts no factor
    with pytest.raises(ParseError) as e:
        P("x**2")
    assert e.value.position == 2


def test_parse_rational_and_nested():
    assert P("1/2*x + 1/2*x") == P("x")
    assert P("-(x - y)") == P("y - x")
    assert P("2^3") == Q2.const(8)
    assert P("(" * 50 + "x" + ")" * 50) == P("x")


# --------------------------------------------------------------------------
# division helpers
# --------------------------------------------------------------------------

def test_exact_division():
    assert exact_division(P("x^2*y + x*y^2"), P("x*y")) == P("x + y")
    assert exact_division(P("x^2 - y^2"), P("x - y")) == P("x + y")
    assert exact_division(P("x"), P("y")) is None
    assert exact_division(P("x"), P("0")) is None
    assert exact_division(P("0"), P("x")) == P("0")


def test_is_unit():
    assert is_unit(P("3"))
    assert is_unit(P("-1/2"))
    assert not is_unit(P("x"))
    assert not is_unit(P("0"))
    assert is_unit(P("5", F7))


def test_monic():
    assert P("2*x + 2*y").monic() == P("x + y")
    assert P("0").monic().is_zero()


# --------------------------------------------------------------------------
# the bound of the packed keys
# --------------------------------------------------------------------------

@pytest.mark.parametrize("ring", [Q2, F7, RingSpec("Q", ("x", "y"), "lex"),
                                  RingSpec("Q", ("x", "y"), "grlex")])
def test_every_polynomial_keeps_exponents_below_two_to_the_31(ring):
    # the fields of a monomial key are 32 bits wide and keep the top bit as
    # a guard, so 2^31 bounds every exponent and total degree of every
    # polynomial, not only of those that reach the Groebner engine
    x, y = ring.gens()
    top = parse_poly("x^2147483647", ring)
    assert top.total_degree() == 2 ** 31 - 1
    assert str(top) == "x^2147483647"
    assert top.leading()[0] == (2 ** 31 - 1, 0)
    for beyond in (lambda: top * x, lambda: y * top, lambda: parse_poly("x^2147483648", ring),
                   lambda: Poly(ring, {(2 ** 31, 0): ring.field.one})):
        with pytest.raises(CapExceededError, match=r"2\^31"):
            beyond()
