"""Exact coefficient fields and sparse multivariate polynomials.

Everything downstream (Groebner bases, module calculus, cube homology) runs on
the two types defined here: `RingSpec`, which fixes a coefficient field, a
variable list and a monomial order, and `Poly`, a sparse exponent-vector ->
coefficient map.  Coefficients are `fractions.Fraction` over the rationals and
plain ints in [0, p) over a prime field; there is no floating point anywhere.
(Inside Buchberger over Q the Groebner engine works on integer vectors; every
Poly and every basis it returns holds Fractions.  Products over Q, here and in
`modcalc.FreeMap.compose`, likewise sum integer numerators over a common
denominator and make each Fraction once.)

Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

__all__ = [
    "RingSpec",
    "Poly",
    "ParseError",
    "RingMismatchError",
    "parse_poly",
    "is_unit",
    "exact_division",
    "MONOMIAL_ORDERS",
]


class RingMismatchError(ValueError):
    """Raised when two polynomials from different rings meet in one operation."""


class ParseError(ValueError):
    """Syntax error in the polynomial grammar; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

class _Rationals:
    """Arbitrary-precision rationals; coefficients are Fraction instances."""

    name = "Q"
    char = 0

    @staticmethod
    def of(n) -> Fraction:
        return Fraction(n)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return Fraction(1) / a

    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, _Rationals)

    def __hash__(self):
        return hash("Q")


class _PrimeField:
    """GF(p); coefficients are ints reduced into [0, p)."""

    char: int

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"field characteristic must be prime, got {p}")
        self.p = p
        self.char = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def of(self, n) -> int:
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise ValueError(f"denominator of {n} is divisible by {self.p}")
            return n.numerator * pow(n.denominator, -1, self.p) % self.p
        return int(n) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, _PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------
#
# Each order is given as a key function on exponent tuples; monomial m is
# larger than m' iff key(m) > key(m') under tuple comparison.  All three keys
# are total, multiplicative (key comparison is translation-invariant) and have
# the constant monomial as minimum; the property tests exercise this.

def _grevlex_key(e: tuple) -> tuple:
    # graded, ties broken by the *last* nonzero entry of the difference being
    # negative — encoded by comparing reversed negated exponents.
    return (sum(e), tuple(-x for x in reversed(e)))


def _grlex_key(e: tuple) -> tuple:
    return (sum(e), e)


def _lex_key(e: tuple) -> tuple:
    return e


MONOMIAL_ORDERS = {
    "grevlex": _grevlex_key,
    "grlex": _grlex_key,
    "lex": _lex_key,
}

class RingSpec:
    """A polynomial ring over an exact field with a fixed monomial order.

    field: "Q" or an int p (prime) for GF(p).
    variables: ordered, distinct, nonempty names.
    order: "grevlex" (default) | "lex" | "grlex".
    """

    __slots__ = ("field", "variables", "order", "nvars", "mono_key", "_var_index", "_zero_exp",
                 "_term_keys")

    def __init__(self, field, variables: Iterable[str], order: str = "grevlex"):
        if field == "Q" or isinstance(field, _Rationals):
            self.field = _Rationals()
        elif isinstance(field, int):
            self.field = _PrimeField(field)
        elif isinstance(field, _PrimeField):
            self.field = field
        else:
            raise ValueError(f"unsupported field spec: {field!r}")
        variables = tuple(variables)
        if not variables or len(set(variables)) != len(variables) or any(not v for v in variables):
            raise ValueError("variable names must be distinct and nonempty")
        if order not in MONOMIAL_ORDERS:
            raise ValueError(f"unknown monomial order {order!r}")
        self.variables = variables
        self.order = order
        self.nvars = len(variables)
        self.mono_key = MONOMIAL_ORDERS[order]
        self._var_index = {v: i for i, v in enumerate(variables)}
        self._zero_exp = (0,) * self.nvars
        self._term_keys = None  # the Groebner engine's term-key layout, made on first use

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {self._zero_exp: self.field.one})

    def const(self, c) -> "Poly":
        c = self.field.of(c)
        return Poly(self, {} if c == self.field.zero else {self._zero_exp: c})

    def var(self, name: str) -> "Poly":
        if name not in self._var_index:
            raise ValueError(f"unknown variable {name!r}")
        e = [0] * self.nvars
        e[self._var_index[name]] = 1
        return Poly(self, {tuple(e): self.field.one})

    def gens(self) -> tuple:
        return tuple(self.var(v) for v in self.variables)

    def with_order(self, order: str) -> "RingSpec":
        return RingSpec(self.field, self.variables, order)

    def extended(self, extra_var: str) -> "RingSpec":
        """Ring with one fresh variable appended (used by radical membership)."""
        if extra_var in self._var_index:
            raise ValueError(f"variable {extra_var!r} already present")
        return RingSpec(self.field, self.variables + (extra_var,), self.order)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RingSpec)
            and self.field == other.field
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return f"RingSpec({self.field!r}, vars={list(self.variables)}, order={self.order!r})"

    def key(self) -> tuple:
        """Hashable identity used by caches."""
        return (repr(self.field), self.variables, self.order)


class Poly:
    """Sparse polynomial: mapping exponent tuple -> nonzero coefficient.

    The term dict is owned by the instance and must not be mutated; all
    operations build fresh dicts.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: Mapping[tuple, object]):
        self.ring = ring
        self.terms = dict(terms)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and next(iter(self.terms)) == self.ring._zero_exp)

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    # -- leading data --------------------------------------------------------

    def leading(self) -> tuple:
        """(exponent tuple, coefficient) of the leading term; error on zero."""
        key = self.ring.mono_key
        e = max(self.terms, key=key)
        return e, self.terms[e]

    def sorted_terms(self) -> list:
        """Terms in descending monomial order — the canonical serialization order."""
        key = self.ring.mono_key
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.ring.field.char
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            old = get(e)
            if old is None:
                out[e] = c
                continue
            s = (old + c) % p if p else old + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _poly(self.ring, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.ring.field.char
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            old = get(e)
            if old is None:
                out[e] = -c % p if p else -c
                continue
            s = (old - c) % p if p else old - c
            if s:
                out[e] = s
            else:
                del out[e]
        return _poly(self.ring, out)

    def __neg__(self) -> "Poly":
        p = self.ring.field.char
        if p:
            return _poly(self.ring, {e: -c % p for e, c in self.terms.items()})
        return _poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.ring.field.char
        a, b = self.terms, other.terms
        if p:
            return _poly(self.ring, _coefficients(_product_sums(a, b, {}), 1, p))
        da, db = _denominator(a.values()), _denominator(b.values())
        acc = _product_sums(_numerators(a, da), _numerators(b, db), {})
        return _poly(self.ring, _coefficients(acc, da * db, 0))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Poly":
        field = self.ring.field
        c = field.of(c)
        if c == field.zero:
            return Poly(self.ring, {})
        return Poly(self.ring, {e: field.mul(v, c) for e, v in self.terms.items()})

    def mul_term(self, exp: tuple, coeff) -> "Poly":
        """Multiply by a single term coeff * x^exp (used heavily by reduction)."""
        field = self.ring.field
        if coeff == field.zero:
            return Poly(self.ring, {})
        return Poly(
            self.ring,
            {tuple(a + b for a, b in zip(e, exp)): field.mul(c, coeff) for e, c in self.terms.items()},
        )

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        _, lc = self.leading()
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({self})"

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.ring.variables
        pieces = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mono = "*".join(factors)
            neg, mag = _coeff_string(c)
            if mono:
                body = mono if mag == "1" else f"{mag}*{mono}"
            else:
                body = mag
            pieces.append(("-" if neg else "+", body))
        sign0, body0 = pieces[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


def _poly(ring: RingSpec, terms: dict) -> Poly:
    """A Poly that takes ownership of `terms`, a fresh dict of nonzero
    coefficients: no copy is made, unlike Poly(ring, terms)."""
    p = Poly.__new__(Poly)
    p.ring = ring
    p.terms = terms
    return p


def _denominator(coeffs: Iterable) -> int:
    """The lcm of the denominators of Fraction coefficients."""
    return math.lcm(*[c.denominator for c in coeffs])


def _numerators(terms: dict, d: int) -> dict:
    """Fraction coefficients times d, a common denominator, as ints."""
    if d == 1:
        return {e: c.numerator for e, c in terms.items()}
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}


def _product_sums(a: dict, b: dict, acc: dict) -> dict:
    """acc += a * b on integer coefficients, unreduced; zero sums are kept."""
    get = acc.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            acc[e] = get(e, 0) + c1 * c2
    return acc


def _coefficients(acc: dict, d: int, p: int) -> dict:
    """The nonzero field coefficients of integer sums over the denominator d:
    s % p over GF(p) (where d is 1), Fraction(s, d) over Q."""
    if p:
        return {e: r for e, s in acc.items() if (r := s % p)}
    if d == 1:
        return {e: Fraction(s) for e, s in acc.items() if s}
    return {e: Fraction(s, d) for e, s in acc.items() if s}


def _coeff_string(c) -> tuple:
    """(is_negative, magnitude string) for a coefficient.

    GF(p) coefficients are already in [0, p) and print as-is; rationals print
    their absolute value, with `/` for non-integers.
    """
    if isinstance(c, Fraction):
        neg = c < 0
        a = abs(c)
        return neg, (str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}")
    return False, str(c)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
#
# Grammar (whitespace insensitive):
#   expr   :=  [sign] term { sign term }
#   term   :=  factor { "*" factor }
#   factor :=  atom [ "^" INT ]
#   atom   :=  COEFF | NAME | "(" expr ")"
#   COEFF  :=  INT [ "/" INT ]        (the ratio form appears in canonical
#                                      output over Q; see README)
# Exponents must be positive integers.

def parse_poly(text: str, ring: RingSpec) -> Poly:
    """Parse `text` into a canonical Poly over `ring`.

    Raises ParseError (with position) on bad syntax, including unknown
    variable names.
    """
    parser = _Parser(text, ring)
    poly = parser.parse_expr()
    parser.skip_ws()
    if parser.pos < len(parser.text):
        raise ParseError(f"unexpected character {parser.text[parser.pos]!r}", parser.pos)
    return poly


class _Parser:
    def __init__(self, text: str, ring: RingSpec):
        self.text = text
        self.ring = ring
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_expr(self) -> Poly:
        sign = 1
        ch = self.peek()
        if ch in "+-":
            sign = -1 if ch == "-" else 1
            self.pos += 1
        result = self.parse_term()
        if sign < 0:
            result = -result
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                result = result + self.parse_term()
            elif ch == "-":
                self.pos += 1
                result = result - self.parse_term()
            else:
                return result

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Poly:
        base = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            n = self.parse_int(allow_sign=False)
            if n <= 0:
                raise ParseError("exponent must be a positive integer", start)
            return base ** n
        return base

    def parse_atom(self) -> Poly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.parse_expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if ch.isdigit():
            num = self.parse_int(allow_sign=False)
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                start = self.pos
                den = self.parse_int(allow_sign=False)
                if den == 0:
                    raise ParseError("zero denominator", start)
                return self.ring.const(Fraction(num, den))
            return self.ring.const(num)
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in self.ring._var_index:
                raise ParseError(f"unknown variable {name!r}", start)
            return self.ring.var(name)
        raise ParseError("expected a coefficient, variable, or '('", self.pos)

    def parse_int(self, allow_sign: bool) -> int:
        self.skip_ws()
        start = self.pos
        if allow_sign and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits_start:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])


# ---------------------------------------------------------------------------
# the small spec'd operation surface
# ---------------------------------------------------------------------------

def is_unit(a: Poly) -> bool:
    """Units of a polynomial ring over a field: nonzero constants."""
    return bool(a.terms) and a.is_constant()


def exact_division(numer: Poly, denom: Poly):
    """numer / denom when denom divides numer exactly; None otherwise.

    Plain long division by a single divisor: whenever denom | numer the
    leading term of the running remainder stays divisible, so a single
    non-divisible leading term proves inexactness.
    """
    if denom.is_zero():
        return None
    ring = numer.ring
    if denom.ring != ring:
        raise RingMismatchError("division across different rings")
    field = ring.field
    de, dc = denom.leading()
    dinv = field.inv(dc)
    rem = Poly(ring, numer.terms)
    q: dict = {}
    while not rem.is_zero():
        re, rc = rem.leading()
        if any(a < b for a, b in zip(re, de)):
            return None
        qe = tuple(a - b for a, b in zip(re, de))
        qc = field.mul(rc, dinv)
        q[qe] = qc
        rem = rem - denom.mul_term(qe, qc)
    return Poly(ring, q)
