"""Finitely presented modules over a polynomial ring.

Modules are cokernels: an FPModule is a free ambient A^rank together with a
submodule of relations, and every operation below reduces to Groebner
computations on the relations or on free-map matrices.  Each linear system
among them is asked of the engine in sparse columns, and the engine solves
it on its one graph module: kernels, injectivity and the relations of
homology presentations are preimages of 0, and a lift X with d∘X ≡ b
reads coordinates modulo the relations.  The same run that gives a kernel
gives a basis of the image, which is all 0-sphericity needs; support on
V(f) is one Rabinowitsch test on the relations themselves,
rel + (1 - t·f)·A[t]^r = A[t]^r, with no quotient or annihilator formed.
Fitting ideals and determinants come from minors, which `arith._minors`
expands on integer sums.

A `Complex` checks d ∘ d = 0 when it is built, which guards complexes that
come from outside.  The cube layer builds none for its faces: it hands each
face's total complex to the engine's exactness scan as sparse columns.

Each question asked of module maps has one helper, the one place it is
asked: `_congruent` (a ≡ b modulo relations), `_kills` (g·M = 0),
`_factor_through` (X with d∘X ≡ b, the one place coordinates are asked for)
and `_preserves_relations` (m induces a map of the presented modules).

A FreeMap stores its nonzero entries only, one dict per column from row
index to entry, and every operation runs over those; `entries`, the dense
matrix row-major, is a view made on each read for printing.  A
sparse column is the one form of a vector below the public API: the columns
of a map and the relations of a module (`SubmoduleBasis.cols`) go to the
engine as they are, and kernels, preimages and coordinates come back as
sparse columns.  Dense tuples (`entries`, `apply`) are views for callers
only.

Presentations are never minimized; downstream properties are all phrased as
zero-tests or submodule equalities, which the engine decides exactly.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Optional, Sequence, Union

from .arith import Poly, RingMismatchError, RingSpec, _matrix_product, _minors, _poly
from .groebner import (
    CapExceededError,
    IdealBasis,
    SubmoduleBasis,
    _graph_coordinates,
    _nonexact_degree,
    _preimage,
    _reduced_kernel,
    radical_membership,
)

__all__ = [
    "FreeMap",
    "FPModule",
    "Complex",
    "CapExceededError",
    "LiftError",
    "is_injective",
    "cokernel",
    "supported_on",
    "fitting_ideal",
    "homology",
    "is_zero_module",
    "zero_spherical",
    "min_annihilating_power",
]


class LiftError(ValueError):
    """Projective lifting failed: the map is not surjective, or no preimage exists."""


class FreeMap:
    """A map of free modules A^source_rank -> A^target_rank.

    The matrix is stored by column: cols[j] maps the row index of each
    nonzero entry of column j to that entry, and no zero entry is stored,
    so every operation runs over the nonzero entries only.  `entries`, the
    dense matrix row-major, is a view made anew on each read.  Maps are
    immutable, and share column dicts.

    A square map keeps its determinant in `_det` once
    `determinant_of_square` has taken it; both constructors leave the slot
    unset.  Neither the map nor its column dicts ever change, so the kept
    value cannot go stale.
    """

    __slots__ = ("ring", "target_rank", "source_rank", "cols", "_det")

    def __init__(self, ring: RingSpec, entries: Sequence[Sequence[Poly]],
                 target_rank: Optional[int] = None, source_rank: Optional[int] = None):
        rows = [tuple(r) for r in entries]
        if target_rank is None:
            target_rank = len(rows)
        if source_rank is None:
            if not rows:
                raise ValueError("source rank required for a 0-row matrix")
            source_rank = len(rows[0])
        _check_ranks(target_rank, source_rank)
        if len(rows) != target_rank:
            raise ValueError(f"expected {target_rank} rows, got {len(rows)}")
        cols = [{} for _ in range(source_rank)]
        for i, r in enumerate(rows):
            if len(r) != source_rank:
                raise ValueError("ragged matrix")
            for col, p in zip(cols, r):
                if p.ring is not ring and p.ring != ring:
                    raise ValueError("entry ring mismatch")
                if p.keys:
                    col[i] = p
        self.ring = ring
        self.target_rank = target_rank
        self.source_rank = source_rank
        self.cols = tuple(cols)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "FreeMap":
        _check_ranks(n, n)
        one = ring.one()
        return _freemap(ring, n, [{i: one} for i in range(n)])

    @classmethod
    def zero(cls, ring: RingSpec, target_rank: int, source_rank: int) -> "FreeMap":
        _check_ranks(target_rank, source_rank)
        return _freemap(ring, target_rank, [{} for _ in range(source_rank)])

    @classmethod
    def diagonal(cls, ring: RingSpec, diag: Sequence[Poly]) -> "FreeMap":
        """The square matrix with diagonal `diag` and zeros elsewhere."""
        diag = tuple(diag)
        if any(g.ring != ring for g in diag):
            raise ValueError("entry ring mismatch")
        return _freemap(ring, len(diag), [{i: g} if g.keys else {} for i, g in enumerate(diag)])

    # -- block structure ------------------------------------------------------

    @classmethod
    def block_diag(cls, a: "FreeMap", b: "FreeMap") -> "FreeMap":
        _check_same_ring(a, b)
        shift = a.target_rank
        return _freemap(a.ring, a.target_rank + b.target_rank,
                        a.cols + tuple({i + shift: p for i, p in c.items()} for c in b.cols))

    @classmethod
    def hstack(cls, a: "FreeMap", b: "FreeMap") -> "FreeMap":
        """[a | b]: same target, concatenated sources."""
        if a.target_rank != b.target_rank:
            raise ValueError("hstack needs equal target ranks")
        _check_same_ring(a, b)
        return _freemap(a.ring, a.target_rank, a.cols + b.cols)

    # -- data access -----------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """The dense matrix, row-major, with the zero entries filled in."""
        z = _poly(self.ring, {})
        return tuple(tuple(c.get(i, z) for c in self.cols) for i in range(self.target_rank))

    def apply(self, vec: Sequence[Poly]) -> tuple:
        vec = tuple(vec)
        if len(vec) != self.source_rank:
            raise ValueError("vector length mismatch")
        out = [self.ring.zero()] * self.target_rank
        for c, v in zip(self.cols, vec):
            for i, a in c.items():
                out[i] = out[i] + a * v
        return tuple(out)

    # -- arithmetic -------------------------------------------------------------

    def compose(self, other: "FreeMap") -> "FreeMap":
        """self ∘ other, column by column (`arith._matrix_product`)."""
        if self.source_rank != other.target_rank:
            raise ValueError("rank mismatch in composition")
        if self.ring != other.ring and self.target_rank and self.source_rank and other.source_rank:
            raise RingMismatchError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")
        return _freemap(self.ring, self.target_rank,
                        _matrix_product(self.ring, self.cols, other.cols, self.target_rank))

    def __add__(self, other: "FreeMap") -> "FreeMap":
        return _plus(self, other, False)

    def __sub__(self, other: "FreeMap") -> "FreeMap":
        return _plus(self, other, True)

    def __neg__(self) -> "FreeMap":
        return _freemap(self.ring, self.target_rank,
                        [{i: -p for i, p in c.items()} for c in self.cols])

    def scaled(self, g: Poly) -> "FreeMap":
        # A is a domain: g·p is zero only when g is
        if g.ring != self.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring!r} vs {g.ring!r}")
        if not g.keys:
            return FreeMap.zero(self.ring, self.target_rank, self.source_rank)
        return _freemap(self.ring, self.target_rank,
                        [{i: g * p for i, p in c.items()} for c in self.cols])

    def is_zero_map(self) -> bool:
        return not any(self.cols)

    def __eq__(self, other):
        return (isinstance(other, FreeMap) and self.ring == other.ring
                and self.target_rank == other.target_rank
                and self.source_rank == other.source_rank
                and self.cols == other.cols)

    def __hash__(self):
        return hash((self.ring, self.target_rank, self.source_rank,
                     tuple(frozenset(c.items()) for c in self.cols)))

    def __repr__(self):
        return f"FreeMap({self.target_rank}x{self.source_rank})"


def _freemap(ring: RingSpec, target_rank: int, cols: Sequence[dict]) -> FreeMap:
    """A FreeMap on `cols`, one dict per column mapping row indices below
    target_rank to nonzero Poly over ring: no check is made, unlike
    FreeMap(ring, entries).  A column dict is never changed once it is in a
    map, so maps share them."""
    m = FreeMap.__new__(FreeMap)
    m.ring = ring
    m.target_rank = target_rank
    m.cols = tuple(cols)
    m.source_rank = len(m.cols)
    return m


def _plus(a: FreeMap, b: FreeMap, negate: bool) -> FreeMap:
    """a + b, or a − b when negate is set; a column of b equal to a's gives
    the zero column of a − b with no subtraction."""
    if (a.target_rank, a.source_rank) != (b.target_rank, b.source_rank):
        raise ValueError("shape mismatch")
    _check_same_ring(a, b)
    out = []
    for ca, cb in zip(a.cols, b.cols):
        if not cb:
            out.append(ca)
            continue
        if negate and ca == cb:
            out.append({})
            continue
        c = dict(ca)
        for i, q in cb.items():
            p = c.get(i)
            if p is None:
                c[i] = -q if negate else q
                continue
            s = p - q if negate else p + q
            if s.keys:
                c[i] = s
            else:
                del c[i]
        out.append(c)
    return _freemap(a.ring, a.target_rank, out)


def _check_ranks(target_rank: int, source_rank: int) -> None:
    if target_rank < 0 or source_rank < 0:
        raise ValueError(f"negative rank in a {target_rank}x{source_rank} map")


def _check_same_ring(a: FreeMap, b: FreeMap) -> None:
    if a.ring != b.ring:
        raise RingMismatchError(f"ring mismatch: {a.ring!r} vs {b.ring!r}")


class FPModule:
    """Cokernel presentation: A^rank modulo the relations submodule."""

    __slots__ = ("ring", "rank", "relations")

    def __init__(self, ring: RingSpec, rank: int, relations: SubmoduleBasis):
        if relations.ambient_rank != rank:
            raise ValueError(f"relations ambient rank {relations.ambient_rank} != module rank {rank}")
        if relations.ring != ring:
            raise ValueError("relations ring mismatch")
        self.ring = ring
        self.rank = rank
        self.relations = relations

    @classmethod
    def free(cls, ring: RingSpec, rank: int) -> "FPModule":
        return cls(ring, rank, SubmoduleBasis(ring, rank, []))

    def __eq__(self, other):
        return (isinstance(other, FPModule) and self.ring == other.ring
                and self.rank == other.rank and self.relations == other.relations)

    def __hash__(self):
        return hash((self.ring, self.rank, self.relations))

    def __repr__(self):
        return f"FPModule(rank={self.rank}, relations={len(self.relations.cols)})"


class Complex:
    """Bounded complex of free modules F_0 <- F_1 <- ... <- F_s.

    ranks[k] is the rank of F_k; differentials[k-1] is d_k : F_k -> F_{k-1}.
    d ∘ d = 0 is validated at construction.
    """

    __slots__ = ("ring", "ranks", "differentials")

    def __init__(self, ring: RingSpec, ranks: Sequence[int], differentials: Sequence[FreeMap]):
        ranks = tuple(ranks)
        differentials = tuple(differentials)
        if not ranks:
            raise ValueError("a complex needs at least one term")
        if len(differentials) != len(ranks) - 1:
            raise ValueError(f"expected {len(ranks) - 1} differentials, got {len(differentials)}")
        for k, d in enumerate(differentials, start=1):
            if d.ring != ring:
                raise ValueError("differential ring mismatch")
            if d.source_rank != ranks[k] or d.target_rank != ranks[k - 1]:
                raise ValueError(f"d_{k} has shape {d.target_rank}x{d.source_rank}, "
                                 f"expected {ranks[k - 1]}x{ranks[k]}")
        for k in range(1, len(differentials)):
            if not differentials[k - 1].compose(differentials[k]).is_zero_map():
                raise ValueError(f"not a complex: d_{k} ∘ d_{k + 1} != 0")
        self.ring = ring
        self.ranks = ranks
        self.differentials = differentials

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def differential(self, k: int) -> FreeMap:
        """d_k : F_k -> F_{k-1}, for 1 <= k <= length."""
        if not 1 <= k <= self.length:
            raise IndexError(f"no differential d_{k} in a length-{self.length} complex")
        return self.differentials[k - 1]

    def __repr__(self):
        return f"Complex(ranks={list(self.ranks)})"


# ---------------------------------------------------------------------------
# kernels / cokernels
# ---------------------------------------------------------------------------

def is_injective(m: FreeMap) -> bool:
    return not _preimage(m.cols, (), m.ring, m.target_rank)


def cokernel(m: FreeMap) -> FPModule:
    return FPModule(m.ring, m.target_rank, SubmoduleBasis(m.ring, m.target_rank, m.cols))


def supported_on(M: FPModule, f: Poly) -> bool:
    """True iff M is supported on V(f), that is f ∈ √Ann M, or M[1/f] = 0:
    one Rabinowitsch run on the relations (`radical_membership`), with no
    quotient or annihilator formed."""
    return radical_membership(f, M.relations)


def is_zero_module(M: FPModule) -> bool:
    return _kills(M.ring.one(), M)


# ---------------------------------------------------------------------------
# the questions asked of module maps
# ---------------------------------------------------------------------------

def _congruent(a: FreeMap, b: FreeMap, rel: SubmoduleBasis) -> bool:
    """a ≡ b modulo rel: every column of a − b lies in rel.  Only its nonzero
    columns are tested, since a zero column lies in every submodule, and
    with no relations only equal maps agree."""
    diff = [c for c in (a - b).cols if c]
    return not diff or (bool(rel.cols) and all(map(rel.contains_vector, diff)))


def _kills(g: Poly, M: FPModule) -> bool:
    """g·M = 0: g·e_i lies in the relations for every basis vector e_i."""
    return all(M.relations.contains_vector({i: g}) for i in range(M.rank))


def _preserves_relations(m: FreeMap, src: FPModule, tgt: FPModule) -> bool:
    """m maps the relations of src into those of tgt, so it induces a map
    src → tgt: every column of m∘R lies in tgt's relations, R the matrix
    whose columns are src's relations."""
    rels = src.relations.cols
    return not rels or all(map(tgt.relations.contains_vector,
                               m.compose(_freemap(m.ring, src.rank, rels)).cols))


def _factor_through(d: FreeMap, b: FreeMap, rel: SubmoduleBasis) -> Union[FreeMap, int]:
    """X with d∘X ≡ b modulo rel, or the index of the first column of b that
    has no preimage under d.  One graph module serves every column."""
    coords = _graph_coordinates(b.cols, d.cols, rel, d.ring, d.target_rank)
    if None in coords:
        return coords.index(None)
    return _freemap(d.ring, d.source_rank, coords)


# ---------------------------------------------------------------------------
# Fitting ideals
# ---------------------------------------------------------------------------
#
# Every minor is taken by `arith._minors`: a Laplace expansion on integer
# sums, with one memo per call shared by all the minors of one matrix.  A
# map keeps its determinant, so it is expanded once however many checks
# read it; Fitting ideals are not kept, since the t-minor lists of every
# differential would live as long as their maps.

def determinant_of_square(m: FreeMap) -> Poly:
    """det m, for a square m; 1 for the 0×0 matrix.  It is taken once per
    map and kept on it, so every check that asks for it shares it."""
    det = getattr(m, "_det", None)
    if det is None:
        if m.target_rank != m.source_rank:
            raise ValueError("determinant of a non-square map")
        n = tuple(range(m.target_rank))
        dets = _minors(m.ring, m.cols, m.target_rank, [(n, n)])
        det = m._det = dets[0] if dets else _poly(m.ring, {})
    return det


def fitting_ideal(m: FreeMap, t: int) -> IdealBasis:
    """Ideal of t×t minors of the matrix of m, generated by the first of
    each class of nonzero minors equal up to a scalar, rows and then columns
    in `combinations` order (`arith._minors`)."""
    if t < 1 or t > min(m.source_rank, m.target_rank):
        raise ValueError(f"minor size {t} out of range for a "
                         f"{m.target_rank}x{m.source_rank} matrix")
    pairs = product(combinations(range(m.target_rank), t), combinations(range(m.source_rank), t))
    return IdealBasis(m.ring, _minors(m.ring, m.cols, m.target_rank, pairs))


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def homology(c: Complex, k: int) -> FPModule:
    """H_k(c) presented on the kernel generators of d_k.

    Generators: the reduced syzygy basis of d_k (the full ambient basis at
    k = 0).  Relations: each column of d_{k+1}, rewritten in those kernel
    coordinates via an exact division certificate, followed by the syzygies
    among the kernel generators themselves.
    """
    if not 0 <= k <= c.length:
        raise IndexError(f"homology index {k} out of range 0..{c.length}")
    ring = c.ring
    if k == 0:
        if c.length == 0:
            return FPModule.free(ring, c.ranks[0])
        return cokernel(c.differential(1))
    kernel = _reduced_kernel(c.differential(k).cols, ring, c.ranks[k - 1])
    gens = kernel.cols
    rel_vectors = []
    if k < c.length:
        for col in c.differential(k + 1).cols:
            rem, cert = kernel.nf_vector(col, want_cert=True)
            if any(not p.is_zero() for p in rem):
                raise RuntimeError("image column escaped the kernel — broken complex")
            rel_vectors.append(cert)
    rel_vectors += _reduced_kernel(gens, ring, c.ranks[k]).cols
    rels = SubmoduleBasis(ring, len(gens), rel_vectors)
    return FPModule(ring, len(gens), rels)


def zero_spherical(c: Complex) -> bool:
    """True iff H_k(c) = 0 for every k >= 1.

    H_k is zero iff ker d_k lies in im d_{k+1}, which
    `groebner._nonexact_degree` tests with no H_k presented: one uncached
    Buchberger run per differential after the first, and the cached Schreyer
    generators of d_1 for ker d_1.
    """
    return _nonexact_degree([d.cols for d in c.differentials], c.ranks, c.ring) is None


def min_annihilating_power(f: Poly, M: FPModule, cap: int) -> int:
    """Least m <= cap with f^m · M = 0; CapExceededError when none exists."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    power = M.ring.one()
    for m in range(1, cap + 1):
        power = power * f
        if _kills(power, M):
            return m
    raise CapExceededError(f"no power of the element up to {cap} annihilates the module")
