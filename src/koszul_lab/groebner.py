"""Buchberger engine for ideals and submodules of free modules.

One reduction engine serves both cases: an element of a free module A^r is
flattened to a dict mapping a term key -> coefficient, and the term order is
position-over-term (lower position wins, then the ring's monomial order).
Ideals are the r = 1 case, and so is their type: `IdealBasis` is the
`SubmoduleBasis` of rank 1, which shows its generators, reduced basis and
normal forms as Poly, and the ideal operations are module operations.

A term key is one int: the position in the top bits above the packed
monomial key of `arith._Terms`, the ring's `layout`, with one 32-bit field
for the total degree and one per variable, laid out per monomial order so
that comparing keys compares terms.  A term times a monomial is the sum of
their keys; whether one term divides another of the same position is one
masked subtraction on the guard bits, the top bit of each variable's field;
and the key `k ^ desc` ascends as terms descend, so a min-heap of plain ints
pops the largest term first.  A Poly holds the same keys at position 0.
Below the public API a vector of A^r is a sparse column, a dict from
position to nonzero Poly (`_column` checks and makes one), the form of the
columns of a map and of `SubmoduleBasis.cols`.  It enters the engine by a
shift of each entry's keys to its position (`_vp_from_column`) and leaves it
by masking the position off (`_column_from_vp`); at rank 1 a Poly's keys are
its vector as they are.  Dense tuples of Poly are views made at the public
edge (`_dense`).  Every exponent and total degree stays below 2^31, so that
no field carries into the next: every Poly is within that bound, and a
reduction or S-vector whose new term reaches it raises CapExceededError,
never a wrapped key.

Everything here is exact and deterministic: pair selection uses the normal
strategy with a fixed tie-break, reduced bases are canonical (auto-reduced,
sorted by leading term, each element in the working form below), and the
reduced bases and Schreyer generators of the `_GB_CACHE_ENTRIES` most
recently used generator lists are kept by `functools.lru_cache` (`_cached`)
under the ring and the canonical form of the generators, from which they
are computed.  So a value is a function of its key alone: Buchberger is
deterministic, an entry computed again after it was dropped is the same,
and a reduced basis is unique, so it is the one the caller's order of the
generators would give.

Over Q the engine works on integers.  A vector enters with its denominators
cleared (`_cleared`), as it is when every coefficient is an int, and every
element Buchberger keeps, every cached reduced basis and every cached
Schreyer generator is a primitive integer vector: content 1, positive
leading coefficient, not divided out.  That form
is a unique multiple of the monic vector, so a reduced basis in it is still
canonical, and cache keys, `SubmoduleBasis.__eq__` and `__hash__` still
decide equality of submodules.  A reduction step is a pseudo-division: with
g = gcd(lc(b), c) the working vector is multiplied by lc(b)/g and
(c/g)·x^q·b is subtracted; the S-vector of g_i and g_j is
(lc_j/g)·x^{u_i}·g_i - (lc_i/g)·x^{u_j}·g_j.  Content is removed once per
remainder.  A normal form returns the product λ of its multipliers, so a
remainder, certificate or coordinate vector is divided by one scalar at the
end.  Over GF(p) elements are kept monic and the same steps run with
multipliers 1 and c/lc(b), so λ = 1.  Every element is a nonzero scalar
multiple of the one a field-coefficient run would hold, so leading terms,
divisibility tests, pairs and both criteria are the same and the same
reductions run.  Field coefficients are made only where a vector leaves the
engine (`_field_vp`): made monic, or divided by its λ, it is the field run's
vector to the last coefficient, each rational an int when it is an integer
and a Fraction only otherwise, so a vector with no denominator leaves as it
is.

Every linear system over A is solved on one graph module.  For columns
col_j in A^rank and relations rel, `_graph_module` flattens the generators
col_j ⊕ e_j, with e_j at position rank + j, and rel ⊕ 0; the tail of an
element records which combination of the columns its head is.  Buchberger
on it collects each remainder whose head vanishes, and such a remainder
never joins the basis (Schreyer): their tails generate the preimage
{t : Σ t_j·col_j ∈ span(rels)}, which `_preimage` returns.  The heads of
the elements that do join it are a Groebner basis of the image, the span of
the columns and relations, so one run gives both the kernel of a map and a
basis that decides membership in its image (`_kernel_and_image`), which is
all the 0-sphericity scan of a complex needs (`_nonexact_degree`); the
scan reads ker d_1, whose image it never needs, from the cached Schreyer
generators (`_schreyer`), the entry an injectivity test of d_1 fills.  A
kernel is the preimage of 0, and `_reduced_kernel`, which `syzygies` reads,
is its reduced basis; `module_quotient` is the preimage of rel under
a ↦ a·vec; `ideal_intersection` is Σ t_i·g_i over the preimage of J under
the generators g_i of I.  The reduced basis of the graph module itself gives
coordinates modulo the relations (`_graph_coordinates`).  Other modules
ask all of these in sparse columns and Poly: flattened vectors, basis
elements and the graph module stay here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd
from typing import Mapping, Optional, Sequence

from .arith import (CapExceededError, Poly, RingMismatchError, RingSpec, _add_scaled,
                    _denominator, _numerators, _poly, _Terms)

__all__ = [
    "CapExceededError",
    "IdealBasis",
    "SubmoduleBasis",
    "ideal_quotient",
    "ideal_intersection",
    "module_quotient",
    "radical_membership",
    "ideal_dimension",
    "grade",
    "syzygies",
]


# ---------------------------------------------------------------------------
# flattened vector-polynomial helpers
# ---------------------------------------------------------------------------

def _vp_from_column(col: Mapping[int, Poly], ring: RingSpec) -> dict:
    """The flattened vector of a sparse column: a mapping of positions to Poly,
    in which a missing position is zero.  A column whose one entry is at
    position 0 gives that Poly's own keys, not a copy: the engine never
    writes into its inputs."""
    if len(col) == 1 and 0 in col:
        return col[0].keys
    shift = ring.layout.shift
    return {pos << shift | k: c for pos, p in col.items() for k, c in p.keys.items()}


def _column_from_vp(vp: dict, ring: RingSpec, head: int = 0) -> Optional[dict]:
    """The sparse column of the terms of vp, each position moved down by head,
    mapping a position to its nonzero Poly; None when vp has a term at a
    position below head."""
    shift, mono = ring.layout.shift, ring.layout.mono
    polys: dict = {}
    for k, c in vp.items():
        pos = (k >> shift) - head
        if pos < 0:
            return None
        t = polys.get(pos)
        if t is None:
            t = polys[pos] = {}
        t[k & mono] = c
    return {pos: _poly(ring, t) for pos, t in polys.items()}


def _column(vec, ring: RingSpec, rank: int) -> dict:
    """The sparse column of vec, a sequence of rank Poly or a mapping of
    positions below rank to Poly, as a new dict with no zero entry.  A wrong
    length or position raises ValueError and a wrong ring RingMismatchError."""
    if isinstance(vec, dict):
        if any(not 0 <= i < rank for i in vec):
            raise ValueError(f"column position out of range for ambient rank {rank}")
        items = vec.items()
    else:
        vec = tuple(vec)
        if len(vec) != rank:
            raise ValueError(f"vector length {len(vec)} != ambient rank {rank}")
        items = enumerate(vec)
    col = {}
    for i, p in items:
        if p.ring is not ring and p.ring != ring:
            raise RingMismatchError(f"ring mismatch: {p.ring!r} vs {ring!r}")
        if p.keys:
            col[i] = p
    return col


def _dense(col: Mapping[int, Poly], ring: RingSpec, rank: int) -> tuple:
    """The sparse column col as a tuple of rank Poly, zeros filled in."""
    z = _poly(ring, {})
    return tuple(col.get(i, z) for i in range(rank))


def _vp_canonical(vp: dict) -> tuple:
    return tuple(sorted(vp.items()))


class _Element:
    """A basis element with precomputed leading data."""

    __slots__ = ("vp", "lt", "lc", "lt_pos")

    def __init__(self, vp: dict, layout: _Terms):
        desc = layout.desc
        self.vp = vp
        self.lt = desc ^ min([k ^ desc for k in vp])
        self.lc = vp[self.lt]
        self.lt_pos = self.lt >> layout.shift


def _cofactors(a: int, b: int, p: int) -> tuple:
    """(u, v) with u*a == v*b and u != 0: the multipliers that cancel the
    coefficient a against b, both ints.

    Over GF(p), u = 1.  Over Q, u = b/g and v = a/g with g = gcd(a, b), so
    no denominator arises; u > 0 whenever b > 0, as every leading
    coefficient of the working form is.
    """
    if p:
        return 1, a * pow(b, -1, p) % p
    g = gcd(a, b)
    return b // g, a // g


def _cleared(vp: dict, p: int) -> tuple:
    """(w, d): over Q, w = d·vp as ints, d the lcm of the denominators of
    vp's coefficients, and w is vp itself when d is 1 (`_numerators`); over
    GF(p), vp itself and 1."""
    if p:
        return vp, 1
    d = _denominator(vp.values())
    return _numerators(vp, d), d


def _unit_normal(vp: dict, layout: _Terms, p: int) -> _Element:
    """The element for vp in Buchberger's working form: monic over GF(p); over
    Q an integer vector with content 1 and a positive leading coefficient."""
    e = _Element(vp, layout)
    if p:
        if e.lc != 1:
            inv = pow(e.lc, -1, p)
            e.vp = {t: c * inv % p for t, c in vp.items()}
            e.lc = 1
    else:
        g = gcd(*vp.values())
        if e.lc < 0:
            g = -g
        if g != 1:
            e.vp = {t: c // g for t, c in vp.items()}
            e.lc //= g
    return e


def _by_position(basis: Sequence[_Element]) -> dict:
    """The elements of basis grouped by lead position: [(index, element)] in
    basis order."""
    by_pos: dict = {}
    for i, b in enumerate(basis):
        by_pos.setdefault(b.lt_pos, []).append((i, b))
    return by_pos


def _nf_vp(vp: dict, basis: Sequence[_Element], by_pos: dict, ring: RingSpec,
           want_cert: bool = False):
    """Full normal form of vp against basis; optionally with division certificate.

    vp and the basis are in the working form: over Q integer vectors (a
    caller clears an input's denominators, `_cleared`), over GF(p) ints
    below p.  Returns (remainder_vp, cert, λ)
    where cert[i] maps monomial keys to the coefficients of q_i, with
    λ·input = sum_i q_i * basis[i] + remainder  exactly.  Every step is a
    pseudo-division (`_cofactors`): the working vector, the remainder so far
    and the certificate are multiplied by u, and λ is the product of the
    u's, a positive int, 1 over GF(p).  The field normal form of the input
    is remainder / λ, and its certificate against the monic basis is
    q_i·lc_i / λ: the same reductions run, on proportional vectors.

    The terms still to reduce sit in a min-heap of plain ints, `k ^ desc`
    (see `_Terms`), so the largest pops first; a popped term no longer in
    the working vector was cancelled and is skipped.  A basis element at the
    term's position divides it when the guard bits survive the subtraction
    of its leading key, and the quotient is then the difference of the keys.
    `by_pos` is `_by_position(basis)`.
    """
    field = ring.field
    p = field.char
    layout = ring.layout
    desc, guard, shift, overflow = layout.desc, layout.guard, layout.shift, layout.overflow
    work = dict(vp)
    heap = [k ^ desc for k in work]
    heapify(heap)
    rem: dict = {}
    cert = [dict() for _ in basis] if want_cert else None
    scaled = (work, rem, *cert) if want_cert else (work, rem)
    lam = 1
    born: list = []
    while heap:
        t = heappop(heap) ^ desc
        c = work.get(t)
        if c is None:
            continue
        for i, b in by_pos.get(t >> shift, ()):
            if ((t | guard) - b.lt) & guard == guard:
                q = t - b.lt
                u, qc = _cofactors(c, b.lc, p)
                if u != 1:
                    lam *= u
                    for d in scaled:
                        for k in d:
                            d[k] *= u
                if want_cert:
                    # t pops once (terms pop in decreasing order and a step at
                    # t makes only smaller ones) and fixes q, so the key is new
                    # and qc, like c, is nonzero
                    cert[i][q] = qc
                _add_scaled(work, b.vp, q, field.neg(qc), field, overflow, born)
                for k in born:
                    heappush(heap, k ^ desc)
                born.clear()
                break
        else:
            rem[t] = c
            del work[t]
    return rem, cert, lam


def _field_vp(vp: dict, d: int, field) -> dict:
    """vp / d with field coefficients: the one place where a vector leaves
    the engine's working form.  d is an element's leading coefficient (the
    monic vector) or a normal form's λ times its input's denominator.

    Over GF(p) the working form is already monic and d is 1, and over Q d
    may be 1: vp is then returned as it is.  Otherwise each coefficient is
    made once, in the field's form over Q: c // d when d divides c, and
    Fraction(c, d) only when it does not.
    """
    if field.char or d == 1:
        return vp
    return {t: Fraction(c, d) if c % d else c // d for t, c in vp.items()}


def _monic_column(e: _Element, ring: RingSpec) -> dict:
    """The sparse column of the element e made monic (`_field_vp`)."""
    return _column_from_vp(_field_vp(e.vp, e.lc, ring.field), ring)


def _buchberger(inputs: Sequence[dict], ring: RingSpec, rank: int, head: Optional[int] = None):
    """Reduced module Groebner basis of the flattened generators, or, given
    `head`, generators of their syzygies and the basis whose heads are a
    Groebner basis of the image.

    Normal pair-selection strategy (smallest lcm in the order, ties by index),
    chain criterion always, product criterion only for rank 1 — it is unsound
    for module positions.  Elements are kept, and returned, in the working
    form of `_unit_normal` (over Q, primitive integer vectors); `_field_vp`
    makes the field vectors where they leave the engine.  Leading terms,
    lcms and the shifts of S-vectors are term keys (`_Terms`), so the
    criteria and S-vectors are integer operations.

    Given `head`, the inputs are a graph module (`_graph_module`) with its
    columns col_j in the positions < head, so every element is some
    (F·t + R·s, t).  A remainder whose head part is zero has F·t in the span
    R of the relations: it is collected and does not join the basis, so it
    never forms pairs and never reduces tails.  The heads of the basis are a
    Groebner basis of the span of columns and relations, the S-pairs kept by
    the chain criterion generate its syzygies, and the input remainders tie
    each input to the basis; so the collected tails generate the preimage of
    R, the kernel when there are no relations (Schreyer 1980; La
    Scala-Stillman 1998).  They are returned unreduced, shifted to positions
    0 .. rank - head - 1, in the working form, in place of the reduced
    basis, together with the basis as it stands: each of its elements has
    its leading term in the head, and each S-pair among them reduces to
    zero or to a collected remainder, whose head is zero; so the heads of
    the basis are a Groebner basis (neither minimal nor reduced, in the
    working form) of the image, the span of the columns and relations.  One
    run thus gives the kernel and decides membership in the image
    (Eisenbud, Commutative Algebra, 15.10).
    """
    field = ring.field
    p = field.char
    layout = ring.layout
    desc, asc, guard, mono, overflow = layout.desc, layout.asc, layout.guard, layout.mono, layout.overflow
    want_basis = head is None
    if want_basis:
        head = rank
    offset = head << layout.shift

    G: list = []
    by_pos: dict = {}  # `_by_position(G)`, grown with G
    syz: list = []  # zero-head remainders, shifted into the tail's positions
    pairs: dict = {}  # (i, j) -> lcm key, i < j, same lead position
    queue: list = []  # min-heap of (ascending lcm monomial, (i, j)) over exactly the pairs in `pairs`

    def add_elem(vp: dict):
        g = _unit_normal(vp, layout, p)
        if g.lt_pos >= head:
            syz.append({k - offset: c for k, c in g.vp.items()})
            return
        gi = len(G)
        same = by_pos.setdefault(g.lt_pos, [])
        for i, h in same:
            lcm = layout.lcm(h.lt, g.lt)
            pairs[(i, gi)] = lcm
            heappush(queue, ((lcm & mono) ^ asc, (i, gi)))
        same.append((gi, g))
        G.append(g)

    for vp in inputs:
        rem = _nf_vp(_cleared(vp, p)[0], G, by_pos, ring)[0]
        if rem:
            add_elem(rem)

    while queue:
        _, (i, j) = heappop(queue)
        lcm = pairs.pop((i, j))
        gi, gj = G[i], G[j]
        # product criterion (ideals only): coprime leading monomials
        if rank == 1 and gi.lt + gj.lt == lcm:
            continue
        # chain criterion: some g_k divides the lcm and both companion pairs
        # are already handled
        skip = False
        lcm_guarded = lcm | guard
        for k, gk in by_pos[gi.lt_pos]:
            if k == i or k == j:
                continue
            if (lcm_guarded - gk.lt) & guard == guard:
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pairs and pjk not in pairs:
                    skip = True
                    break
        if skip:
            continue
        # S-vector: ui*x^(lcm - lt_i)*g_i - uj*x^(lcm - lt_j)*g_j, ui*lc_i == uj*lc_j
        ui, uj = _cofactors(gi.lc, gj.lc, p)
        s: dict = {}
        _add_scaled(s, gi.vp, lcm - gi.lt, ui, field, overflow)
        _add_scaled(s, gj.vp, lcm - gj.lt, field.neg(uj), field, overflow)
        rem = _nf_vp(s, G, by_pos, ring)[0]
        if rem:
            add_elem(rem)

    if not want_basis:
        return syz, G
    # minimalize: drop elements whose leading term is divisible by another's
    # ascending by leading term; the leading terms are pairwise distinct
    G.sort(key=lambda g: g.lt ^ desc, reverse=True)
    minimal: list = []
    for g in G:
        lt_guarded = g.lt | guard
        if any(h.lt_pos == g.lt_pos and (lt_guarded - h.lt) & guard == guard for h in minimal):
            continue
        minimal.append(g)
    # tail-reduce each against the others, then put it in the working form;
    # the others stay in basis order, so each term meets the same divisor
    # first
    reduced = []
    by_pos = _by_position(minimal)
    for idx, g in enumerate(minimal):
        same = by_pos[g.lt_pos]
        at = same.index((idx, g))
        del same[at]
        rem = _nf_vp(g.vp, minimal, by_pos, ring)[0]
        same.insert(at, (idx, g))
        if rem:
            reduced.append(_unit_normal(rem, layout, p))
    reduced.sort(key=lambda g: g.lt ^ desc, reverse=True)
    return reduced


# Reduced bases and Schreyer generators of the process, least recently used
# dropped first.  The key is the ring (equal rings hash and compare equal by
# field, variables and order), the rank, the canonical generators
# (`_vp_canonical`) and `head`, and the value is a function of the key alone:
# a dropped entry recomputes to the same value.  The bound keeps what the
# three admissibility strategies on one cube share (one check of the
# benchmark's admissibility inputs adds at most 158 entries) and drops the
# entries of earlier checks, most of which are never read again.
_GB_CACHE_ENTRIES = 512


@lru_cache(maxsize=_GB_CACHE_ENTRIES)
def _cached(ring: RingSpec, rank: int, gens: tuple, head: Optional[int]) -> list:
    """`_buchberger` on the canonical generators gens in A^rank: their
    reduced basis when head is None, else the Schreyer generators of the
    graph module gens with head `head`."""
    out = _buchberger([dict(g) for g in gens], ring, rank, head)
    return out if head is None else out[0]


def _compute_gb(ring: RingSpec, rank: int, vps: Sequence[dict]) -> list:
    return _cached(ring, rank, tuple(sorted(_vp_canonical(vp) for vp in vps)), None)


# ---------------------------------------------------------------------------
# public basis types
# ---------------------------------------------------------------------------

def _indexed(basis) -> tuple:
    """(reduced basis, `_by_position` of it) of a SubmoduleBasis, grouped
    by lead position once per basis object."""
    gb = basis._gb_elements()
    if basis._by_pos is None:
        basis._by_pos = _by_position(gb)
    return gb, basis._by_pos


def _reduce(basis, vp: dict, want_cert: bool = False):
    """`_nf_vp` of vp, a flattened vector with field coefficients, against
    the reduced basis of a SubmoduleBasis: (remainder, cert, s) with
    s·vp = Σ cert_i·gb_i + remainder, where s is λ times the lcm of vp's
    denominators, which are cleared once, here."""
    gb, by_pos = _indexed(basis)
    vp, d = _cleared(vp, basis.ring.field.char)
    rem, cert, lam = _nf_vp(vp, gb, by_pos, basis.ring, want_cert)
    return rem, cert, lam * d


class SubmoduleBasis:
    """A submodule of A^rank given by generating vectors.

    Each generator is stored as a sparse column, cols[j] mapping the
    position of each nonzero entry of generator j to that entry; a zero
    generator is kept, as {}.  The constructor takes each generator as a
    sequence of ambient_rank Poly or as a sparse column (`_column`).
    `generators`, the dense tuples, is a view made anew on each read.
    """

    __slots__ = ("ring", "ambient_rank", "cols", "_gb", "_by_pos")

    def __init__(self, ring: RingSpec, ambient_rank: int, generators: Sequence):
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.cols = tuple(_column(v, ring, ambient_rank) for v in generators)
        self._gb: Optional[list] = None
        self._by_pos: Optional[dict] = None

    @property
    def generators(self) -> tuple:
        return tuple(_dense(c, self.ring, self.ambient_rank) for c in self.cols)

    def _gb_elements(self) -> list:
        if self._gb is None:
            self._gb = _compute_gb(self.ring, self.ambient_rank,
                                   [_vp_from_column(c, self.ring) for c in self.cols if c])
        return self._gb

    @property
    def reduced_gb(self) -> tuple:
        """The reduced basis as dense vectors, each made monic."""
        ring = self.ring
        return tuple(_dense(_monic_column(e, ring), ring, self.ambient_rank)
                     for e in self._gb_elements())

    def nf_vector(self, vec, want_cert: bool = False):
        """Normal form of vec, a sequence of Poly or a sparse column, as a
        dense vector; with `want_cert`, and its certificate against the
        monic `reduced_gb`.  Both are divided by their scalar once, here."""
        ring = self.ring
        vp = _vp_from_column(_column(vec, ring, self.ambient_rank), ring)
        rem, cert, s = _reduce(self, vp, want_cert)
        rvec = _dense(_column_from_vp(_field_vp(rem, s, ring.field), ring), ring, self.ambient_rank)
        if not want_cert:
            return rvec, None
        # q_i·gb_i = (q_i·lc_i)·(gb_i / lc_i); a quotient term is the
        # difference of two keys at one position
        return rvec, [_poly(ring, _field_vp({k: c * e.lc for k, c in q.items()}, s, ring.field))
                      for q, e in zip(cert, self._gb_elements())]

    def contains_vector(self, vec) -> bool:
        """Whether vec, a sequence of Poly or a sparse column, lies in the
        submodule."""
        vp = _vp_from_column(_column(vec, self.ring, self.ambient_rank), self.ring)
        # the zero vector lies in every submodule: no basis is needed
        return not vp or not _reduce(self, vp)[0]

    def is_zero_submodule(self) -> bool:
        return not self._gb_elements()

    def plus(self, other: "SubmoduleBasis") -> "SubmoduleBasis":
        if other.ambient_rank != self.ambient_rank or other.ring != self.ring:
            raise ValueError("ambient mismatch")
        return _basis(SubmoduleBasis, self.ring, self.ambient_rank, self.cols + other.cols)

    def __eq__(self, other):
        if not isinstance(other, SubmoduleBasis):
            return False
        if self.ring != other.ring or self.ambient_rank != other.ambient_rank:
            return False
        return sorted(_vp_canonical(e.vp) for e in self._gb_elements()) == sorted(
            _vp_canonical(e.vp) for e in other._gb_elements()
        )

    def __hash__(self):
        return hash(
            (self.ring, self.ambient_rank, tuple(sorted(_vp_canonical(e.vp) for e in self._gb_elements())))
        )

    def __repr__(self):
        return f"SubmoduleBasis(rank={self.ambient_rank}, gens={len(self.cols)})"


class IdealBasis(SubmoduleBasis):
    """An ideal of A: the submodule of A^1 spanned by its generators, with
    the same basis, equality and hash.  Its generators, reduced basis and
    normal forms face the caller as Poly, not as vectors of length 1."""

    __slots__ = ()

    def __init__(self, ring: RingSpec, generators: Sequence[Poly]):
        SubmoduleBasis.__init__(self, ring, 1, [(g,) for g in generators])

    @property
    def generators(self) -> tuple:
        zero = _poly(self.ring, {})
        return tuple(c.get(0, zero) for c in self.cols)

    @property
    def reduced_gb(self) -> tuple:
        # at rank 1 an element's flattened vector is a Poly's keys
        field = self.ring.field
        return tuple(_poly(self.ring, _field_vp(e.vp, e.lc, field)) for e in self._gb_elements())

    def nf(self, f: Poly, want_cert: bool = False):
        rem, cert = self.nf_vector((f,), want_cert)
        return rem[0], cert

    def contains(self, f: Poly) -> bool:
        return self.contains_vector((f,))

    def is_zero_ideal(self) -> bool:
        return self.is_zero_submodule()

    def contains_one(self) -> bool:
        # the key of the constant term at position 0 is 0
        return any(e.lt == 0 for e in self._gb_elements())

    def __repr__(self):
        return f"IdealBasis({[str(g) for g in self.generators]})"


def _basis(cls, ring: RingSpec, rank: int, cols: Sequence[dict], gb: Optional[list] = None):
    """A `cls` (SubmoduleBasis, or IdealBasis at rank 1) of A^rank on
    `cols`, sparse columns over ring as `_column` makes them, with `gb` as
    its reduced basis when given: no check and no copy is made, unlike the
    constructors.  For columns this module has just made or already
    checked."""
    b = cls.__new__(cls)
    b.ring = ring
    b.ambient_rank = rank
    b.cols = tuple(cols)
    b._gb = gb
    b._by_pos = None
    return b


# ---------------------------------------------------------------------------
# linear systems on the graph module, and the ideal operations
# ---------------------------------------------------------------------------

def _graph_module(cols: Sequence[dict], rels: Sequence[dict], ring: RingSpec, rank: int) -> list:
    """The graph module of the flattened columns `cols` modulo the flattened
    relations `rels` in A^rank.

    Its generators are col_j ⊕ e_j, with e_j at position rank + j, and then
    rel ⊕ 0.  An element (v, t) has v ≡ Σ t_j·col_j modulo rels, so the tail
    t records which combination of the columns the head v is.
    """
    shift, one = ring.layout.shift, ring.field.one
    return [{**vp, (rank + j) << shift: one} for j, vp in enumerate(cols)] + \
        [vp for vp in rels if vp]


def _schreyer(cols: Sequence[Mapping[int, Poly]], rels: Sequence[Mapping[int, Poly]],
              ring: RingSpec, rank: int) -> list:
    """Flattened generators of {t : Σ t_j·col_j ∈ span(rels)}, in
    A^len(cols) and in the working form; `cols` and `rels` are sparse
    columns in A^rank.

    One Buchberger run on the graph module with head `rank` collects its
    zero-head remainders (see `_buchberger`).  The generators are cached
    under the graph module in its order (`_cached`).
    """
    gens = _graph_module([_vp_from_column(c, ring) for c in cols],
                         [_vp_from_column(c, ring) for c in rels], ring, rank)
    return _cached(ring, rank + len(cols), tuple(map(_vp_canonical, gens)), rank)


def _preimage(cols: Sequence[Mapping[int, Poly]], rels: Sequence[Mapping[int, Poly]],
              ring: RingSpec, rank: int) -> list:
    """Generators of {t : Σ t_j·col_j ∈ span(rels)}, unreduced and monic, as
    sparse columns of length len(cols); `cols` and `rels` are sparse columns
    in A^rank."""
    return [_monic_column(_Element(vp, ring.layout), ring)
            for vp in _schreyer(cols, rels, ring, rank)]


def _preimage_in(cols: Sequence[Mapping[int, Poly]], rels: Sequence[Mapping[int, Poly]],
                 sub: SubmoduleBasis, rank: int) -> bool:
    """Whether {t : Σ t_j·col_j ∈ span(rels)} lies in sub, a submodule of
    A^len(cols); `cols` and `rels` are sparse columns in A^rank.

    Each cached Schreyer generator (`_schreyer`), an integer vector, is
    reduced against sub's reduced basis as it is: no column is made and no
    denominator is cleared.  sub's basis is computed only when there is a
    generator to test.
    """
    ring = sub.ring
    gens = _schreyer(cols, rels, ring, rank)
    if not gens:
        return True
    gb, by_pos = _indexed(sub)
    return all(not _nf_vp(vp, gb, by_pos, ring)[0] for vp in gens)


def _reduced_kernel(cols: Sequence[Mapping[int, Poly]], ring: RingSpec, rank: int) -> SubmoduleBasis:
    """The kernel of the map A^len(cols) -> A^rank with the sparse columns
    `cols`, as a SubmoduleBasis whose generators are its reduced Groebner
    basis, in basis order, made monic.  The basis is the cached reduced
    basis (`_compute_gb`) of the cached Schreyer generators, and the
    SubmoduleBasis holds it, so reading it runs no Buchberger and a
    certificate against it is in these generators."""
    n = len(cols)
    gb = _compute_gb(ring, n, _schreyer(cols, (), ring, rank))
    return _basis(SubmoduleBasis, ring, n, [_monic_column(e, ring) for e in gb], gb)


def _kernel_and_image(cols: Sequence[Mapping[int, Poly]], ring: RingSpec, rank: int) -> tuple:
    """(kernel, image) of the map A^len(cols) -> A^rank with the sparse
    columns `cols`, from one uncached Buchberger run on its graph module:
    the flattened kernel generators, unreduced, and a Groebner basis of the
    image, the heads of that run's basis, as elements for `_nf_vp` (see
    `_buchberger`)."""
    layout = ring.layout
    graph = _graph_module([_vp_from_column(c, ring) for c in cols], (), ring, rank)
    kernel, basis = _buchberger(graph, ring, rank + len(cols), head=rank)
    bound = rank << layout.shift  # the least key at position rank
    return kernel, [_Element({k: c for k, c in g.vp.items() if k < bound}, layout) for g in basis]


def _nonexact_degree(maps: Sequence[Sequence[Mapping[int, Poly]]], ranks: Sequence[int],
                     ring: RingSpec) -> Optional[int]:
    """The least k >= 1 with ker d_k not inside im d_{k+1}, or None when
    there is none, for the complex whose differential d_k : A^ranks[k] ->
    A^ranks[k-1] has the sparse columns maps[k-1].

    Each degree tests the unreduced kernel generators of d_k for membership
    in the image, and no homology is presented.  One uncached Buchberger
    run per differential d_{k+1}, k >= 1, serves both sides
    (`_kernel_and_image`): the run that gives the Groebner basis of its
    image also gives ker d_{k+1}, the next degree's kernel.  Each image
    basis is grouped by lead position once, for all the kernel generators.
    Degree 0 carries no condition, so the image of d_1 is never read, and
    ker d_1 is the cached Schreyer generators of d_1 (`_schreyer`): the same
    run on the same graph module, so the same list, and on a one-direction
    cube, whose Tot is its one boundary with sign +, the entry its
    injectivity test (`cube._mod_injective`) fills.  A cached list is the
    value a fresh run computes, so the answer does not depend on the cache.
    """
    kernel = _schreyer(maps[0], (), ring, ranks[0]) if maps else []
    for k in range(1, len(maps)):
        nxt, image = _kernel_and_image(maps[k], ring, ranks[k])
        if kernel:
            by_pos = _by_position(image)
            if any(_nf_vp(g, image, by_pos, ring)[0] for g in kernel):
                return k
        kernel = nxt
    return len(maps) if kernel else None  # a nonzero kernel at the top has no image to kill it


def _graph_coordinates(vecs: Sequence[Mapping[int, Poly]], cols: Sequence[Mapping[int, Poly]],
                       rels: SubmoduleBasis, ring: RingSpec, rank: int) -> list:
    """Coordinates of each vector of vecs in terms of cols, modulo rels.

    Vectors and columns are sparse columns in A^rank.  Returns one entry per
    vector, in order: its coordinates, a sparse column of length len(cols),
    or None when it is not in the span.  One reduced basis of the graph
    module (col_j ⊕ e_j, rel ⊕ 0) serves the whole batch: the normal form
    of (vec ⊕ 0) has zero head (positions < rank) iff vec lies in the span,
    so `_column_from_vp` with head = rank gives None exactly for a vector
    outside it.  The tail is the negated coordinate vector times the scalar
    s = λ·(lcm of vec's denominators), which is divided out once, here.
    """
    if not vecs:
        return []
    graph = _graph_module([_vp_from_column(c, ring) for c in cols],
                          [_vp_from_column(c, ring) for c in rels.cols], ring, rank)
    basis = _compute_gb(ring, rank + len(cols), graph)
    field = ring.field
    neg = field.neg
    by_pos = _by_position(basis)
    out = []
    for vec in vecs:
        vp, d = _cleared(_vp_from_column(vec, ring), field.char)
        rem, _, lam = _nf_vp(vp, basis, by_pos, ring)
        out.append(_column_from_vp(_field_vp({k: neg(c) for k, c in rem.items()}, lam * d, field),
                                   ring, head=rank))
    return out


def syzygies(rows: Sequence[Sequence[Poly]], ring: Optional[RingSpec] = None,
             source_rank: Optional[int] = None) -> list:
    """Generators for the kernel of the free-module map given by `rows`.

    `rows` is the matrix row-major (length = target rank); columns are vectors
    in A^(target rank).  Returns the reduced position-over-term Groebner
    basis of the syzygy module in A^(source rank), as dense columns.

    Computed as Schreyer syzygies, the preimage of 0 under the columns: the
    generators read off the S-pair reductions of one Buchberger run, and
    then their reduced basis.  A reduced basis is unique, so it does not
    depend on how the generators were found.
    """
    if ring is None:
        if not rows or not rows[0]:
            raise ValueError("ring required for an empty matrix")
        ring = rows[0][0].ring
    if source_rank is None:
        if not rows:
            raise ValueError("source rank required for a 0-row matrix")
        source_rank = len(rows[0])
    for r in rows:
        if len(r) != source_rank:
            raise ValueError("ragged matrix")
    cols = [{i: r[j] for i, r in enumerate(rows) if r[j].keys} for j in range(source_rank)]
    return list(_reduced_kernel(cols, ring, len(rows)).generators)


def ideal_quotient(I: IdealBasis, f: Poly) -> IdealBasis:
    """(I : f) = {a : a*f in I}: the module quotient of I, a submodule of A^1."""
    return module_quotient(I, (f,))


def module_quotient(rel: SubmoduleBasis, vec) -> IdealBasis:
    """(rel : vec) = {a : a*vec in rel} as an ideal: the preimage of rel
    under a ↦ a·vec.  vec is a sequence of Poly or a sparse column."""
    col = _column(vec, rel.ring, rel.ambient_rank)
    # a preimage generator of one column is a nonzero column {0: a}
    return _basis(IdealBasis, rel.ring, 1, _preimage([col], rel.cols, rel.ring, rel.ambient_rank))


def ideal_intersection(I: IdealBasis, J: IdealBasis) -> IdealBasis:
    """I ∩ J = {Σ t_i·g_i} over the preimage of J under the row (g_i) of
    I's generators."""
    ring = I.ring
    if J.ring != ring:
        raise RingMismatchError(f"ring mismatch: {J.ring!r} vs {ring!r}")
    gs = I.generators
    meet = [sum((a * gs[j] for j, a in sorted(t.items())), ring.zero())
            for t in _preimage(I.cols, J.cols, ring, 1)]
    # a syzygy of I's generators gives the zero generator, kept as {}
    return _basis(IdealBasis, ring, 1, [{0: g} if g.keys else {} for g in meet])


def radical_membership(f: Poly, rel: SubmoduleBasis) -> bool:
    """True iff f ∈ √Ann(A^r/rel), that is (A^r/rel)[1/f] = 0 (Rabinowitsch).

    With a fresh variable t, that holds iff rel + (1 - t·f)·A[t]^r is all of
    A[t]^r, that is iff its reduced basis has every unit vector e_i as a
    leading term.  An IdealBasis I is the rank-1 case: f ∈ √I iff 1 lies in
    I + (1 - t·f).  No quotient or annihilator is formed.
    """
    ring, r = rel.ring, rel.ambient_rank
    if f.ring != ring:
        raise RingMismatchError(f"ring mismatch: {f.ring!r} vs {ring!r}")
    if f.is_zero():
        return True
    name = "t"
    k = 0
    while name in ring.variables:
        name = f"t{k}"
        k += 1
    ext = ring.extended(name)
    lift = lambda p: Poly(ext, {e + (0,): c for e, c in p.terms.items()})
    u = ext.one() - ext.var(name) * lift(f)
    gens = [{i: lift(p) for i, p in c.items()} for c in rel.cols]
    leads = {e.lt for e in SubmoduleBasis(ext, r, gens + [{i: u} for i in range(r)])._gb_elements()}
    return all(i << ext.layout.shift in leads for i in range(r))


def ideal_dimension(I: IdealBasis) -> int:
    """Krull dimension of A/I from the leading-term staircase.

    The dimension equals the largest size of a variable subset U such that no
    leading monomial of the reduced GB is supported inside U.  Errors on the
    unit ideal; for a proper ideal no leading monomial is 1, so the empty U
    qualifies and the search always returns.
    """
    if I.contains_one():
        raise ValueError("unit ideal has no staircase dimension")
    n = I.ring.nvars
    exponents = I.ring.layout.exponents
    supports = {frozenset(i for i, x in enumerate(exponents(e.lt)) if x > 0) for e in I._gb_elements()}
    for size in range(n, -1, -1):
        for U in combinations(range(n), size):
            Uset = frozenset(U)
            if not any(s <= Uset for s in supports):
                return size


def grade(I: IdealBasis):
    """Depth of I: 0 for the zero ideal, math.inf for the unit ideal,
    otherwise nvars - dim(A/I) (the ring is Cohen-Macaulay)."""
    if I.is_zero_ideal():
        return 0
    if I.contains_one():
        return math.inf
    return I.ring.nvars - ideal_dimension(I)
