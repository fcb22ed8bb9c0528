"""Exact coefficient fields and sparse multivariate polynomials.

Everything downstream (Groebner bases, module calculus, cube homology) runs on
the two types defined here: `RingSpec`, which fixes a coefficient field, a
variable list and a monomial order, and `Poly`, a sparse monomial ->
coefficient map.  Coefficients are plain ints in [0, p) over a prime field,
and over the rationals an int when the value is an integer and a
`fractions.Fraction` only otherwise (`_Field`); there is no floating point
anywhere.  (Inside Buchberger over Q the Groebner engine works on integer
vectors.  Products over Q, of two Poly and of two matrices of sparse columns
(`_matrix_product`), likewise sum integer numerators over a common
denominator and make each coefficient once, and so do the minors of a matrix
of sparse columns (`_minors`), a Laplace expansion on integer sums; where
every coefficient is an int, nothing is cleared and no Fraction is made.)

A monomial has one encoding below the public API: a packed int, its key
under the ring's layout (`_Terms`, shared by every ring with the same number
of variables and order).  A Poly maps keys to coefficients, and the Groebner
engine keys a vector's terms the same way with the position added on top, so
a product of monomials is a sum of ints, a divisibility test is one masked
subtraction, and entering the engine is a shift.  Exponent tuples appear only
at the edge: `Poly(ring, {exponent tuple: c})` packs them, `Poly.terms`,
`leading` and `sorted_terms` unpack, and so does printing.  Every exponent
and total degree stays below 2^31, the bound of the keys' fields: a product
or an exponent tuple that would reach it raises CapExceededError.

Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Collection, Iterable, Mapping, Optional, Sequence

__all__ = [
    "RingSpec",
    "Poly",
    "ParseError",
    "RingMismatchError",
    "CapExceededError",
    "parse_poly",
    "is_unit",
    "MONOMIAL_ORDERS",
]


class RingMismatchError(ValueError):
    """Raised when two polynomials from different rings meet in one operation."""


class ParseError(ValueError):
    """Syntax error in the polynomial grammar; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CapExceededError(RuntimeError):
    """A bounded search (annihilating power, determinant exponent) ran out of
    cap, an exponent or total degree reached 2^31, the bound of the packed
    monomial keys, or an integer to parse or print has more than 4,300
    digits (`_DIGITS`)."""


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

class _Field:
    """The coefficient field of characteristic `char`: Q when it is 0, and
    GF(char) otherwise, with ints in [0, char).

    An element of Q has one form: an int when it is an integer, and a
    Fraction with denominator > 1 otherwise (`_rational`).  An int and a
    Fraction that are equal also hash equal, so Poly equality and every
    cache key see values, not types.  No coefficient is divided by `/`: an
    int divided by an int is a float, so the one inverse goes through
    Fraction.
    """

    __slots__ = ("char", "name", "zero", "one")

    def __init__(self, char: int):
        self.char = char
        self.name = f"GF({char})" if char else "Q"
        self.zero = 0
        self.one = 1

    def of(self, n):
        """n, an int (a bool counts as its int) or a Fraction, in the field;
        ValueError for any other type, and over GF(p) for a denominator
        divisible by p."""
        p = self.char
        if isinstance(n, int):
            return n % p if p else int(n)
        if not isinstance(n, Fraction):
            raise ValueError(f"coefficient {n!r} is not an int or a Fraction")
        if not p:
            return _rational(n)
        if n.denominator % p == 0:
            raise ValueError(f"denominator of {n} is divisible by {p}")
        return n.numerator * pow(n.denominator, -1, p) % p

    def add(self, a, b):
        p = self.char
        return (a + b) % p if p else _rational(a + b)

    def mul(self, a, b):
        p = self.char
        return a * b % p if p else _rational(a * b)

    def neg(self, a):
        p = self.char
        return -a % p if p else -a

    def inv(self, a):
        p = self.char
        return pow(a, -1, p) if p else _rational(Fraction(a.denominator, a.numerator))

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, _Field) and other.char == self.char

    def __hash__(self):
        return hash(("GF", self.char) if self.char else "Q")


def _rational(c):
    """The rational c, an int or a Fraction, in its one form over Q: an int
    when it is an integer, else the Fraction."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller–Rabin with the first twelve primes as bases, exact for every
    n below 2^64 (it is not called on larger n)."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------
#
# Each order is given as a key function on exponent tuples; monomial m is
# larger than m' iff key(m) > key(m') under tuple comparison.  All three keys
# are total, multiplicative (key comparison is translation-invariant) and have
# the constant monomial as minimum; the property tests exercise this.  They
# are the reference the packed keys of `_Terms` are tested against.

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


# ---------------------------------------------------------------------------
# packed monomial keys
# ---------------------------------------------------------------------------

_FIELD = 32
_ONES = (1 << _FIELD) - 1
_LIMIT = 1 << (_FIELD - 1)  # every exponent and total degree stays below this


class _Terms:
    """Packed term keys of A^r for one number of variables and monomial order.

    The key of x^e at position pos is (pos << shift) | fields, with one
    32-bit field for the total degree and one per variable, most
    significant first:

        grevlex   deg | e_n | ... | e_1
        grlex     deg | e_1 | ... | e_n
        lex       e_1 | ... | e_n | deg

    A Poly holds the keys at position 0; the Groebner engine adds the
    position of a vector's entry on top.  Under grlex and lex the fields,
    read as one int, compare as the monomials do.  Grevlex compares (deg,
    -e_n, ..., -e_1), so there the variable fields compare complemented:
    `m ^ asc` orders monomials ascending, and `k ^ desc`, which complements
    the degree field under grevlex and every field otherwise, orders keys by
    position and then by descending term.  That is position over term
    reversed: a min-heap of `k ^ desc` pops the largest term first.

    While every field is below 2^31, its top bit is a guard.  k + m is the
    key of the term times the monomial, with no carry between fields, and
    it overflows exactly when `(k + m) & overflow` is nonzero.
    ((t | guard) - lt) & guard == guard, with `guard` the guard bits of the
    variable fields, holds exactly when every exponent of t is at least
    lt's: a variable field can borrow only from the degree field, which lies
    below one only under lex, and only when t has the smaller degree and so
    some smaller exponent.
    """

    __slots__ = ("shift", "mono", "desc", "asc", "guard", "overflow", "var_keys", "_deg",
                 "_offsets", "_vars", "_spread", "_top")

    def __init__(self, nvars: int, order: str):
        if order == "lex":
            deg, offsets = 0, [_FIELD * (nvars - i) for i in range(nvars)]
        elif order == "grlex":
            deg, offsets = _FIELD * nvars, [_FIELD * (nvars - 1 - i) for i in range(nvars)]
        else:
            deg, offsets = _FIELD * nvars, [_FIELD * i for i in range(nvars)]
        self.shift = _FIELD * (nvars + 1)
        self.mono = (1 << self.shift) - 1
        self.desc = _ONES << deg if order == "grevlex" else self.mono
        self.asc = self.desc ^ self.mono
        self.guard = sum(_LIMIT << o for o in offsets)
        self.overflow = self.guard | _LIMIT << deg
        self.var_keys = tuple(1 << deg | 1 << o for o in offsets)  # the key of each variable
        self._deg = deg
        self._offsets = offsets
        self._vars = sum(_ONES << o for o in offsets)
        self._spread = sum(1 << o for o in offsets)
        self._top = min(offsets) + max(offsets)

    def monomial(self, e: tuple) -> int:
        """The key of x^e at position 0, for a tuple e of nonnegative ints;
        CapExceededError from total degree 2^31."""
        d = sum(e)
        if d >= _LIMIT:
            raise _overflowed()
        m = d << self._deg
        for x, o in zip(e, self._offsets):
            m |= x << o
        return m

    def exponents(self, k: int) -> tuple:
        """The exponent tuple of the key k, at any position."""
        return tuple((k >> o) & _ONES for o in self._offsets)

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two keys at the same position.

        Its degree field is summed anew and may reach 2^31, never 2^32; the
        key of a term it makes in an S-vector is then refused as overflow.
        """
        ea, eb = a & self._vars, b & self._vars
        a_ge = ((ea | self.guard) - eb) & self.guard  # guard bit: a's exponent >= b's
        take = (a_ge >> (_FIELD - 1)) * (_LIMIT - 1)
        e = (ea & take) | (eb & ~take)
        # the field of e * spread at offset `top` is the sum of e's fields;
        # each partial sum is at most that, below 2^32, so none carries
        d = (e * self._spread >> self._top) & _ONES
        return (a & ~self.mono) | d << self._deg | e


def _overflowed() -> CapExceededError:
    return CapExceededError("an exponent or total degree reached 2^31, beyond the packed "
                            "monomial keys")


_LAYOUTS: dict = {}  # (number of variables, order) -> _Terms, shared by equal layouts


def _variable_names(variables: Iterable[str]) -> tuple:
    """`variables` as a tuple; ValueError unless the names are distinct and
    nonempty and there is at least one."""
    variables = tuple(variables)
    if not variables or len(set(variables)) != len(variables) or any(not v for v in variables):
        raise ValueError("variable names must be distinct and nonempty")
    return variables


class RingSpec:
    """A polynomial ring over an exact field with a fixed monomial order.

    field: "Q" or an int p (prime, below 2^64) for GF(p).
    variables: ordered, distinct, nonempty names.
    order: "grevlex" (default) | "lex" | "grlex".
    `layout` packs its monomials into keys (`_Terms`).
    """

    __slots__ = ("field", "variables", "order", "nvars", "layout", "_var_keys")

    def __init__(self, field, variables: Iterable[str], order: str = "grevlex"):
        if isinstance(field, _Field):
            self.field = field
        elif field == "Q":
            self.field = _Field(0)
        elif isinstance(field, int):
            # neither bound prints the value: str() refuses an int of more
            # than 4,300 digits
            if field < 2:
                raise ValueError("field characteristic must be prime, got a value below 2")
            if field >= 1 << 64:
                raise ValueError("field characteristic must be below 2^64")
            if not _is_prime(field):
                raise ValueError(f"field characteristic must be prime, got {field}")
            self.field = _Field(field)
        else:
            raise ValueError(f"unsupported field spec: {field!r}")
        variables = _variable_names(variables)
        if order not in MONOMIAL_ORDERS:
            raise ValueError(f"unknown monomial order {order!r}")
        self.variables = variables
        self.order = order
        self.nvars = len(variables)
        key = (self.nvars, order)
        self.layout = _LAYOUTS.get(key) or _LAYOUTS.setdefault(key, _Terms(*key))
        self._var_keys = dict(zip(variables, self.layout.var_keys))

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Poly":
        return _poly(self, {})

    def one(self) -> "Poly":
        return _poly(self, {0: self.field.one})

    def const(self, c) -> "Poly":
        c = self.field.of(c)
        return _poly(self, {0: c} if c else {})

    def var(self, name: str) -> "Poly":
        k = self._var_keys.get(name)
        if k is None:
            raise ValueError(f"unknown variable {name!r}")
        return _poly(self, {k: self.field.one})

    def gens(self) -> tuple:
        return tuple(self.var(v) for v in self.variables)

    def extended(self, extra_var: str) -> "RingSpec":
        """Ring with one fresh variable appended (used by radical membership)."""
        if extra_var in self._var_keys:
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


class Poly:
    """Sparse polynomial: `keys` maps the packed key (`ring.layout`) of each
    monomial to its nonzero coefficient.

    Poly(ring, terms) takes a mapping of exponent tuples, one nonnegative int
    per variable, to coefficients, which it brings into the field and drops
    when zero; `terms` is that mapping again.  The key dict is owned by the
    instance and must not be mutated; all operations build fresh dicts.
    """

    __slots__ = ("ring", "keys")

    def __init__(self, ring: RingSpec, terms: Mapping[tuple, object]):
        n, pack, of = ring.nvars, ring.layout.monomial, ring.field.of
        keys = {}
        for e, c in terms.items():
            if (not isinstance(e, tuple) or len(e) != n
                    or any(type(x) is not int or x < 0 for x in e)):
                raise ValueError(f"exponent {e!r} is not a tuple of {n} nonnegative ints")
            c = of(c)
            if c:
                keys[pack(e)] = c
        self.ring = ring
        self.keys = keys

    @property
    def terms(self) -> dict:
        """The exponent tuple of each monomial -> its coefficient, made anew
        on each read."""
        exponents = self.ring.layout.exponents
        return {exponents(k): c for k, c in self.keys.items()}

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.keys

    def is_constant(self) -> bool:
        return not self.keys or (len(self.keys) == 1 and 0 in self.keys)

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        d = self.ring.layout._deg
        return max((k >> d & _ONES for k in self.keys), default=-1)

    # -- leading data --------------------------------------------------------

    def _lead(self) -> int:
        """The key of the leading monomial; error on zero."""
        desc = self.ring.layout.desc
        return desc ^ min([k ^ desc for k in self.keys])

    def leading(self) -> tuple:
        """(exponent tuple, coefficient) of the leading term; error on zero."""
        k = self._lead()
        return self.ring.layout.exponents(k), self.keys[k]

    def sorted_terms(self) -> list:
        """(exponent tuple, coefficient) in descending monomial order — the
        canonical serialization order."""
        layout, keys = self.ring.layout, self.keys
        return [(layout.exponents(k), keys[k]) for k in sorted(keys, key=layout.desc.__xor__)]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other: "Poly") -> "Poly":
        return _signed_sum(self, other, False)

    def __sub__(self, other: "Poly") -> "Poly":
        return _signed_sum(self, other, True)

    def __neg__(self) -> "Poly":
        p = self.ring.field.char
        if p:
            return _poly(self.ring, {k: -c % p for k, c in self.keys.items()})
        return _poly(self.ring, {k: -c for k, c in self.keys.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        ring = self.ring
        p, overflow = ring.field.char, ring.layout.overflow
        a, b = self.keys, other.keys
        if p:
            return _poly(ring, _coefficients(_product_sums(a, b, {}), 1, p, overflow))
        da, db = _denominator(a.values()), _denominator(b.values())
        acc = _product_sums(_numerators(a, da), _numerators(b, db), {})
        return _poly(ring, _coefficients(acc, da * db, 0, overflow))

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
        if not c:
            return _poly(self.ring, {})
        return _poly(self.ring, {k: field.mul(v, c) for k, v in self.keys.items()})

    def monic(self) -> "Poly":
        if not self.keys:
            return self
        lc = self.keys[self._lead()]
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring == other.ring and self.keys == other.keys

    def __hash__(self):
        return hash((self.ring, frozenset(self.keys.items())))

    def __repr__(self):
        return f"Poly({self})"

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.keys:
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


def _poly(ring: RingSpec, keys: dict) -> Poly:
    """A Poly that takes ownership of `keys`, a fresh dict of packed
    monomial keys to nonzero coefficients: no check and no copy is made,
    unlike Poly(ring, terms)."""
    p = Poly.__new__(Poly)
    p.ring = ring
    p.keys = keys
    return p


def _signed_sum(a: Poly, b: Poly, negate: bool) -> Poly:
    """a + b, or a − b when negate is set: b's terms enter a copy of a's,
    each sum reduced mod p over GF(p) and brought to its one form over Q."""
    a._check(b)
    p = a.ring.field.char
    out = dict(a.keys)
    get = out.get
    for k, c in b.keys.items():
        old = get(k)
        if old is None:
            out[k] = (-c % p if p else -c) if negate else c
            continue
        s = old - c if negate else old + c
        s = s % p if p else _rational(s)
        if s:
            out[k] = s
        else:
            del out[k]
    return _poly(a.ring, out)


def _denominator(coeffs: Collection) -> int:
    """The lcm of the denominators of rational coefficients: 1, with no lcm
    taken, when every one is an int."""
    for c in coeffs:
        if type(c) is not int:
            return math.lcm(*[c.denominator for c in coeffs])
    return 1


def _numerators(keys: dict, d: int) -> dict:
    """Rational coefficients times d, a common denominator, as ints: keys
    itself when d is 1, where every coefficient is an int already (callers
    do not write into it)."""
    if d == 1:
        return keys
    return {k: c.numerator * (d // c.denominator) for k, c in keys.items()}


def _product_sums(a: dict, b: dict, acc: dict) -> dict:
    """acc += a * b on integer coefficients, unreduced; zero sums are kept.
    The key of a product of monomials is the sum of their keys."""
    get = acc.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


def _coefficients(acc: dict, d: int, p: int, overflow: int) -> dict:
    """The nonzero field coefficients of integer sums over the denominator d:
    s % p over GF(p) (where d is 1); over Q the sums themselves when d is 1,
    else s // d when d divides s and Fraction(s, d) otherwise.

    The keys of acc are sums of two keys whose fields are below 2^31, so no
    field carries into the next, and one that reaches 2^31 has its guard bit
    set: CapExceededError when the or of the keys has an `overflow` bit.
    """
    if reduce(or_, acc, 0) & overflow:
        raise _overflowed()
    if p:
        return {k: r for k, s in acc.items() if (r := s % p)}
    if d == 1:
        return {k: s for k, s in acc.items() if s}
    return {k: Fraction(s, d) if s % d else s // d for k, s in acc.items() if s}


def _matrix_product(ring: RingSpec, left: Sequence[Mapping[int, Poly]],
                    right: Iterable[Mapping[int, Poly]], rows: int) -> list:
    """The columns of L·R, where L has `rows` rows and the sparse columns
    `left`, R the sparse columns `right`, each a dict from row index to
    nonzero Poly over ring.  Column j of the product is the sum of b_kj times
    column k of L over the nonzero entries b_kj of column j of R (Gustavson,
    ACM TOMS 1978).

    Each output entry sums its products term by term in one dict of ints,
    for both fields.  Over Q each row i of L is scaled to integers by the
    lcm D_i of its denominators (`_integer_rows`) and each column j of R by
    E_j, so entry (i, j) is made once per term from the integer sum s, as
    s over D_i·E_j (`_coefficients`): s itself when both are 1, as they are
    for integer matrices; over GF(p) it is s % p.
    """
    p, overflow = ring.field.char, ring.layout.overflow
    row_den, ints = _integer_rows(left, rows, p)
    out = []
    for bcol in right:
        e = 1 if p else math.lcm(*[_denominator(b.keys.values()) for b in bcol.values()])
        acc: dict = {}  # output row -> integer sums
        for k, b in bcol.items():
            bkeys = _numerators(b.keys, e)
            for i, akeys in ints[k].items():
                _product_sums(akeys, bkeys, acc.setdefault(i, {}))
        out.append({i: _poly(ring, keys) for i, sums in acc.items()
                    if (keys := _coefficients(sums, row_den[i] * e, p, overflow))})
    return out


def _integer_rows(cols: Sequence[Mapping[int, Poly]], rows: int, p: int) -> tuple:
    """([D_i], columns): the lcm D_i of the denominators of row i of the
    matrix with `rows` rows and the sparse columns `cols`, and those columns
    with row i scaled by D_i, each entry as its integer term dict.  Where
    D_i is 1, as in every row over GF(p), an entry's dict is its Poly's
    keys (`_numerators`)."""
    row_den = [1] * rows
    if not p:
        for c in cols:
            for i, a in c.items():
                row_den[i] = math.lcm(row_den[i], _denominator(a.keys.values()))
    return row_den, [{i: _numerators(a.keys, row_den[i]) for i, a in c.items()} for c in cols]


def _minors(ring: RingSpec, cols: Sequence[Mapping[int, Poly]], rows: int,
            pairs: Iterable[tuple]) -> list:
    """The distinct nonzero minors of the matrix with `rows` rows and the
    sparse columns `cols` at `pairs`, in their order: each pair is a tuple
    of row indices and one of column indices, both ascending and of one
    length, and a minor is dropped when it is zero or a scalar multiple of
    one kept before it.  The minor at two empty tuples is 1.

    Each minor is a Laplace expansion along its first row on integer sums
    (`_minor_sums`), with one memo shared by every pair and dropped on
    return.  Over Q each row i is scaled to integers by the lcm D_i of its
    denominators (`_integer_rows`), so the minor at (R, C) is made once per
    term from the integer sum s, as s over ∏_{i∈R} D_i (`_coefficients`);
    over GF(p) each sum is kept reduced mod p.
    """
    p, overflow = ring.field.char, ring.layout.overflow
    row_den, ints = _integer_rows(cols, rows, p)
    memo: dict = {}
    seen = set()
    out = []
    for r, c in pairs:
        sums = _minor_sums(ints, r, c, memo, p, overflow) if r else {0: 1}
        if not sums:
            continue
        cls = _unit_class(sums, p)
        if cls in seen:
            continue
        seen.add(cls)
        out.append(_poly(ring, _coefficients(sums, math.prod(row_den[i] for i in r), p, overflow)))
    return out


def _minor_sums(ints: list, rows: tuple, sel: tuple, memo: dict, p: int, overflow: int) -> dict:
    """The nonzero integer sums of the minor of `ints`, sparse columns of
    integer term dicts, at rows × sel (both nonempty): Laplace expansion
    along the first row, memoized on (rows, sel) in memo.

    Each expansion collects every product of an entry with its sub-minor in
    one dict and tests the guard bits of all its keys, zero sums included,
    before it drops the zero sums (and reduces mod p over GF(p)).  A
    sub-minor's keys are then below 2^31 in every field, so the next level
    adds keys with no carry, and a key that reaches 2^31 raises at the level
    that made it.
    """
    if len(rows) == 1:
        return ints[sel[0]].get(rows[0], {})
    key = (rows, sel)
    hit = memo.get(key)
    if hit is not None:
        return hit
    r0, rest = rows[0], rows[1:]
    acc: dict = {}
    for j, c in enumerate(sel):
        e = ints[c].get(r0)
        if e is None:
            continue
        sub = _minor_sums(ints, rest, sel[:j] + sel[j + 1:], memo, p, overflow)
        if sub:
            _product_sums({k: -v for k, v in e.items()} if j & 1 else e, sub, acc)
    out = memo[key] = _coefficients(acc, 1, p, overflow)
    return out


def _unit_class(sums: dict, p: int) -> frozenset:
    """The terms of nonzero integer sums scaled so that the term with the
    largest key has coefficient 1 over GF(p); over Q, divided by their
    content with that term's sign.  Two sums get the same class exactly
    when one is a nonzero scalar multiple of the other."""
    top = sums[max(sums)]
    if p:
        inv = pow(top, -1, p)
        return frozenset((k, s * inv % p) for k, s in sums.items())
    g = math.gcd(*sums.values())
    if top < 0:
        g = -g
    return frozenset((k, s // g) for k, s in sums.items())


def _add_scaled(target: dict, vp: dict, q: int, coeff, field, overflow: int,
                born: Optional[list] = None) -> None:
    """target += vp * (coeff * x^q), in place, for the monomial key q, where
    target and vp map keys to coefficients: the keys of a Poly, or the term
    keys of a vector flattened by the Groebner engine.

    A key absent from target is a new term.  Each is tested against the
    `overflow` guard bits, a test that is exact because both addends have
    every field below 2^31, and appended to `born` when it is given.
    """
    get = target.get
    p = field.char
    for k, c in vp.items():
        key = k + q
        old = get(key)
        if old is None:
            if key & overflow:
                raise _overflowed()
            target[key] = c * coeff % p if p else c * coeff
            if born is not None:
                born.append(key)
        else:
            s = (old + c * coeff) % p if p else old + c * coeff
            if s:
                target[key] = s
            else:
                del target[key]


# No coefficient is printed, and no integer literal parsed, with more than
# this many decimal digits: str() and int() refuse longer ones
_DIGITS = 4300
_TOO_LONG = 10 ** _DIGITS  # the least int with more than _DIGITS digits


def _coeff_string(c) -> tuple:
    """(is_negative, magnitude string) for a coefficient: its sign and its
    absolute value, with `/` only for a Fraction, whose denominator is > 1.
    GF(p) coefficients lie in [0, p) and are never negative.
    CapExceededError when the numerator or denominator has more than
    _DIGITS digits."""
    m = abs(c)
    if m.numerator >= _TOO_LONG or m.denominator >= _TOO_LONG:
        raise CapExceededError(f"a coefficient has more than {_DIGITS} digits, "
                               "beyond the bound on printed integers")
    return c < 0, str(m)


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
#   INT    :=  one or more ASCII digits 0-9, at most _DIGITS of them
#              (a longer one raises CapExceededError)
# Exponents must be positive integers.

# At most this many parentheses may be open at once.  Each costs the parser
# four stack frames, so an expression parses, or is refused, the same way at
# the top level and from a caller hundreds of frames deep.
_MAX_NESTING = 100


def parse_poly(text: str, ring: RingSpec) -> Poly:
    """Parse `text` into a canonical Poly over `ring`.

    Raises ParseError (with position) on bad syntax, including unknown
    variable names and more than 100 parentheses open at once.
    """
    parser = _Parser(text, ring)
    try:
        poly = parser.parse_expr()
    except RecursionError:
        # a backstop: the nesting bound stops the parser first unless the
        # caller is already near Python's recursion limit
        raise ParseError("expression nested too deeply", parser.pos) from None
    parser.skip_ws()
    if parser.pos < len(parser.text):
        raise ParseError(f"unexpected character {parser.text[parser.pos]!r}", parser.pos)
    return poly


class _Parser:
    def __init__(self, text: str, ring: RingSpec):
        self.text = text
        self.ring = ring
        self.pos = 0
        self.depth = 0  # parentheses open at `pos`

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
            n = self.parse_int()
            if n <= 0:
                raise ParseError("exponent must be a positive integer", start)
            return base ** n
        return base

    def parse_atom(self) -> Poly:
        ch = self.peek()
        if ch == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError("expression nested too deeply", self.pos)
            self.pos += 1
            self.depth += 1
            inner = self.parse_expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            self.depth -= 1
            return inner
        if "0" <= ch <= "9":
            num = self.parse_int()
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                start = self.pos
                den = self.parse_int()
                if den == 0:
                    raise ParseError("zero denominator", start)
                return self.ring.const(Fraction(num, den))
            return self.ring.const(num)
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in self.ring._var_keys:
                raise ParseError(f"unknown variable {name!r}", start)
            return self.ring.var(name)
        raise ParseError("expected a coefficient, variable, or '('", self.pos)

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        if self.pos - start > _DIGITS:
            raise CapExceededError(f"the integer at position {start} has {self.pos - start} "
                                   f"digits, more than {_DIGITS}")
        return int(self.text[start:self.pos])


# ---------------------------------------------------------------------------
# units: a question about a unit multiple is one of monic forms (`Poly.monic`)
# ---------------------------------------------------------------------------

def is_unit(a: Poly) -> bool:
    """Units of a polynomial ring over a field: nonzero constants."""
    return bool(a.keys) and a.is_constant()
