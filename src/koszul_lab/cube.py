"""Cubes of finitely presented modules indexed by subsets of S.

A cube assigns a module to every subset T of a finite label set S and a
boundary map d^k_T : x_T -> x_{T\\{k}} to every k in T, subject to the
commuting-square law d^l ∘ d^k = d^k ∘ d^l.  This module provides validation,
restriction to faces, degeneracy detection, the total complex (with the usual
alternating signs), directional homology H_0^k / H_1^k, iterated H_0, and
three equivalent admissibility checkers that are cross-checked in the tests.

`Cube` is the one cube type.  Each vertex is a cokernel presentation
A^r / relations and each boundary a matrix between the ambient free modules;
a free cube (Koszul, typical) is the case with no relations, and a vertex
may be given as the int r for A^r.  Homology keeps the ambient ranks and
enlarges the relations, so boundary matrices are reused unchanged and
order-independence statements become literal submodule equalities.
`ModCube` is another name for the same class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple, Union

from .arith import RingSpec, is_unit
from .groebner import SubmoduleBasis, _nonexact_degree, _preimage_in, _reduced_kernel
from .modcalc import (
    Complex,
    FPModule,
    FreeMap,
    _congruent,
    _factor_through,
    _freemap,
    _preserves_relations,
    determinant_of_square,
)

__all__ = [
    "Cube",
    "ModCube",
    "Report",
    "subset_key",
    "validate_cube",
    "restrict",
    "degenerate_directions",
    "nondegenerate_part",
    "total_complex",
    "directional_homology",
    "iterated_h0",
    "is_admissible",
    "ADMISSIBILITY_STRATEGIES",
]


def subset_key(subset: Iterable[str]) -> str:
    """Canonical serialization of a label subset: sorted, comma-joined."""
    return ",".join(sorted(subset))


def label_subsets(labels: Iterable[str]) -> list:
    """All subsets of `labels` in doubling order: for each label in turn, the
    subsets so far followed by each of them with that label added."""
    out = [frozenset()]
    for lab in labels:
        out += [s | {lab} for s in out]
    return out


def _normalize_subset(subset: Iterable[str], labels: Sequence[str]) -> FrozenSet[str]:
    s = frozenset(subset)
    unknown = s - set(labels)
    if unknown:
        raise ValueError(f"labels {sorted(unknown)} not in cube labels {list(labels)}")
    return s


@dataclass(frozen=True)
class Report:
    """Pass/fail verdict with human-readable failure strings."""

    ok: bool
    failures: Tuple[str, ...] = ()
    info: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


class Cube:
    """A cube of finitely presented modules: an FPModule per subset, a FreeMap
    per (subset, direction) between the ambient free modules.

    A vertex given as an int r is the free module A^r, so a free cube is the
    case where no vertex carries relations.  Construction checks labels,
    shapes, key completeness and that every vertex and boundary lies over
    `ring`; well-definedness and the commuting-square law are checked by
    validate_cube so that invalid cubes can be constructed and reported on.
    `vertices` and `boundary` are read-only mappings, so the report
    validate_cube keeps on the cube cannot go stale, and a face or H_0 cube
    can share its parent's modules and maps (`_cube`).
    """

    __slots__ = ("labels", "ring", "vertices", "boundary", "_report")

    def __init__(self, ring: RingSpec, labels: Sequence[str],
                 vertices: Dict[FrozenSet[str], Union[int, FPModule]],
                 boundary: Dict[Tuple[FrozenSet[str], str], FreeMap]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("cube labels must be distinct")
        for lab in labels:
            # subset_key joins labels with ',' and boundary keys add '|'
            if not isinstance(lab, str) or not lab or "," in lab or "|" in lab:
                raise ValueError(f"cube label {lab!r} must be a nonempty string without ',' or '|'")
        self.labels = labels
        self.ring = ring
        verts = {}
        for T, M in vertices.items():
            if isinstance(M, int):
                if M < 0:
                    raise ValueError("vertex rank must be non-negative")
                M = FPModule.free(ring, M)
            elif M.ring != ring:
                raise ValueError("vertex ring mismatch")
            verts[frozenset(T)] = M
        boundary = {(frozenset(T), k): m for (T, k), m in boundary.items()}
        all_subsets = label_subsets(labels)
        if set(verts) != set(all_subsets):
            raise ValueError("vertices must cover exactly the subsets of the labels")
        self.vertices = MappingProxyType(verts)
        self.boundary = MappingProxyType(boundary)
        self._report: Optional[Report] = None
        needed = {(T, k) for T in all_subsets for k in T}
        if needed != boundary.keys():
            missing = {(subset_key(T), k) for (T, k) in needed - boundary.keys()}
            extra = {(subset_key(T), k) for (T, k) in boundary.keys() - needed}
            raise ValueError(f"boundary keys mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for (T, k), m in boundary.items():
            if m.ring != ring:
                raise ValueError("boundary ring mismatch")
            src, tgt = verts[T].rank, verts[T - {k}].rank
            if (m.source_rank, m.target_rank) != (src, tgt):
                raise ValueError(
                    f"boundary d^{k}_{{{subset_key(T)}}} has shape {m.target_rank}x{m.source_rank},"
                    f" expected {tgt}x{src}")

    @property
    def vertex_rank(self) -> Dict[FrozenSet[str], int]:
        """Ambient rank of every vertex."""
        return {T: M.rank for T, M in self.vertices.items()}

    def vertex(self, T: Iterable[str]) -> FPModule:
        return self.vertices[_normalize_subset(T, self.labels)]

    def subsets(self) -> list:
        """All 2^n subsets, ordered by (size, serialized key)."""
        return sorted(label_subsets(self.labels), key=lambda s: (len(s), subset_key(s)))

    def d(self, T: Iterable[str], k: str) -> FreeMap:
        T = _normalize_subset(T, self.labels)
        if k not in T:
            raise ValueError(f"direction {k!r} not in subset {subset_key(T) or '{}'}")
        return self.boundary[(T, k)]

    def __repr__(self):
        return f"Cube(labels={list(self.labels)})"


ModCube = Cube


def _cube(ring: RingSpec, labels: tuple, vertices: dict, boundary: dict) -> Cube:
    """A Cube on `vertices` and `boundary`, dicts keyed by frozenset and
    (frozenset, label) as the constructor keys them: no check and no copy is
    made, unlike Cube(...).  For the faces and H_0 cubes of a cube that
    passed the constructor, which would pass it too: the ring is the
    parent's, the labels a sub-tuple of the parent's, the keys complete by
    construction and every shape the shape of a parent's map."""
    x = Cube.__new__(Cube)
    x.ring = ring
    x.labels = labels
    x.vertices = MappingProxyType(vertices)
    x.boundary = MappingProxyType(boundary)
    x._report = None
    return x


# ---------------------------------------------------------------------------
# validation / restriction / degeneracy
# ---------------------------------------------------------------------------

def validate_cube(x: Cube) -> Report:
    """Well-definedness and the commuting-square law; list all violations.

    Every boundary must map the relations of its source into those of its
    target (these failures come first), and every square must commute,
    d^l ∘ d^k = d^k ∘ d^l, modulo the relations of the vertex it lands in.
    A cube is checked once: the Report is kept on it and returned again, so
    the strategies of `is_admissible` run on one cube share one check.
    """
    if x._report is not None:
        return x._report
    failures = []
    for T, k in sorted(x.boundary, key=lambda Tk: (subset_key(Tk[0]), Tk[1])):
        if not _preserves_relations(x.boundary[(T, k)], x.vertices[T], x.vertices[T - {k}]):
            failures.append(f"boundary d^{k}_{{{subset_key(T)}}} does not preserve relations")
    for T in x.subsets():
        for k in sorted(T):
            for l in sorted(T):
                if l > k and not _congruent(x.d(T - {k}, l).compose(x.d(T, k)),
                                            x.d(T - {l}, k).compose(x.d(T, l)),
                                            x.vertices[T - {k, l}].relations):
                    failures.append(
                        f"square at {{{subset_key(T)}}} in directions {k},{l} does not commute")
    x._report = Report(not failures, tuple(failures))
    return x._report


def _morphism_failures(w: Dict[FrozenSet[str], FreeMap], src: Cube, tgt: Cube) -> Iterator[tuple]:
    """Where the vertex maps w: src → tgt fail to be a morphism of module
    cubes, vertex by vertex in subset order: (T, None) when w[T] does not
    carry the relations of src at T into those of tgt, then (T, k) for each
    square that does not commute, w[T∖k]∘d^k_T ≢ d^k_T∘w[T] modulo the
    relations of tgt at T∖k.  w is a cube morphism iff there are none."""
    for T in src.subsets():
        if not _preserves_relations(w[T], src.vertex(T), tgt.vertex(T)):
            yield T, None
        yield from ((T, k) for k in sorted(T)
                    if not _congruent(w[T - {k}].compose(src.d(T, k)), tgt.d(T, k).compose(w[T]),
                                      tgt.vertex(T - {k}).relations))


def _require_valid(x: Cube) -> None:
    """Raise ValueError unless x is a valid cube."""
    report = validate_cube(x)
    if not report.ok:
        raise ValueError("invalid cube: " + "; ".join(report.failures))


def _require_free(x: Cube) -> None:
    """Raise ValueError unless x is a valid cube of free modules."""
    if any(M.relations.cols for M in x.vertices.values()):
        raise ValueError("expected a cube of free modules, but a vertex carries relations")
    _require_valid(x)


def restrict(x: Cube, U: Iterable[str], V: Iterable[str]) -> Cube:
    """x|_U^V: the cube over U whose vertex at A is x's vertex at A ∪ V.

    U and V must be disjoint subsets of the labels; the label order of U is
    inherited from x.  The face shares x's vertex modules and boundary maps
    and is built without the constructor's checks (`_cube`), which x has
    passed.
    """
    U = _normalize_subset(U, x.labels)
    V = _normalize_subset(V, x.labels)
    if U & V:
        raise ValueError(f"restriction subsets overlap: {sorted(U & V)}")
    labels = tuple(lab for lab in x.labels if lab in U)
    sub = label_subsets(labels)
    return _cube(x.ring, labels, {A: x.vertices[A | V] for A in sub},
                 {(A, k): x.boundary[(A | V, k)] for A in sub for k in A})


def degenerate_directions(x: Cube) -> frozenset:
    """Labels k along which the cube is degenerate (all d^k invertible).

    Every boundary parallel to d^k is tested, until one is not invertible; a
    boundary that is not square is not.  On a Koszul cube the top boundary
    d^k_S alone would decide, but this test does not assume one.
    """
    return frozenset(k for k in x.labels if all(
        m.source_rank == m.target_rank and is_unit(determinant_of_square(m))
        for (_, j), m in x.boundary.items() if j == k))


def nondegenerate_part(x: Cube) -> Cube:
    """restrict(x, S ∖ degenerate directions, ∅)."""
    deg = degenerate_directions(x)
    return restrict(x, frozenset(x.labels) - deg, frozenset())


# ---------------------------------------------------------------------------
# total complex
# ---------------------------------------------------------------------------

def total_complex(x: Cube) -> Complex:
    """Tot(x): degree k is ⊕_{|T|=k} x_T, components ordered by serialized subset.

    The component of the differential from summand T to T∖{j} is
    (−1)^{#{t ∈ T : t after j in x.labels}} · d^j_T, so the signs follow the
    cube's label order; the same cube with its labels in another order gives
    the signs of that order.  The Complex constructor re-asserts d ∘ d = 0.
    """
    _require_free(x)
    maps, ranks = _total_complex(x)
    return Complex(x.ring, ranks, [_freemap(x.ring, r, cols) for r, cols in zip(ranks, maps)])


def _total_complex(x: Cube) -> tuple:
    """(maps, ranks) of Tot(x), for a cube already known to be a valid free
    cube: ranks[k] is the rank of degree k and maps[k-1] the sparse columns
    of d_k, the form `groebner._nonexact_degree` reads.  Nothing re-checks
    d ∘ d = 0, which holds because x's squares commute.

    The subsets are sorted by serialized key once and grouped by size, and
    the vertices and boundaries are read by index: x's keys are complete,
    as for any Cube, and a face shares its parent's checked maps."""
    position = {lab: i for i, lab in enumerate(x.labels)}
    layers = [[] for _ in range(len(x.labels) + 1)]  # per degree: subsets in canonical order
    for s in sorted(label_subsets(x.labels), key=subset_key):
        layers[len(s)].append(s)
    offsets = []  # per degree: subset -> starting row/column
    ranks = []
    for subs in layers:
        off = {}
        total = 0
        for s in subs:
            off[s] = total
            total += x.vertices[s].rank
        offsets.append(off)
        ranks.append(total)
    maps = []
    for k in range(1, len(layers)):
        cols = [{} for _ in range(ranks[k])]
        for T in layers[k]:
            col0 = offsets[k][T]
            for j in sorted(T):
                sign = sum(1 for t in T if position[t] > position[j]) % 2
                m = x.boundary[(T, j)]
                row0 = offsets[k - 1][T - {j}]
                for jj, c in enumerate(m.cols):
                    out = cols[col0 + jj]
                    for i, entry in c.items():
                        out[row0 + i] = -entry if sign else entry
        maps.append(cols)
    return maps, ranks


# ---------------------------------------------------------------------------
# directional homology
# ---------------------------------------------------------------------------

def _h0_modcube(x: Cube, k: str) -> Cube:
    """H_0^k of a module cube: same ambient ranks, relations enlarged by im d^k.

    The H_0 cube shares x's boundary maps and is built without the
    constructor's checks (`_cube`), which x has passed; each new relation
    module is checked as it is made."""
    if k not in x.labels:
        raise ValueError(f"direction {k!r} not a label")
    labels = tuple(lab for lab in x.labels if lab != k)
    sub = label_subsets(labels)
    verts = {}
    for T in sub:
        amb = x.vertices[T]
        dk = x.boundary[(T | {k}, k)]
        rels = amb.relations.plus(SubmoduleBasis(x.ring, amb.rank, dk.cols))
        verts[T] = FPModule(x.ring, amb.rank, rels)
    return _cube(x.ring, labels, verts, {(T, l): x.boundary[(T, l)] for T in sub for l in T})


def _h0_over(x: Cube, T: Iterable[str]) -> Cube:
    """H_0 over the directions in T, taken in label order: a module cube over
    S∖T whose vertex at W is x_W modulo rel_W + Σ_{k∈T} im d^k_{W∪k}, the
    relations first, then the columns of each d^k in label order."""
    for k in [lab for lab in x.labels if lab in T]:
        x = _h0_modcube(x, k)
    return x


def directional_homology(x: Cube, k: str, p: int) -> Cube:
    """H_p^k(x) as a module cube over S∖{k}; p must be 0 or 1.

    p = 0: vertex at T is coker(d^k_{T∪{k}}), presented on x's ambient at T
    with the boundary matrices unchanged.  It is valid because x is: d^l maps
    im d^k_{T∪k} into im d^k_{(T∖l)∪k} as x's squares commute, and its
    squares are x's.

    p = 1: vertex at T presents ker(d^k_{T∪{k}}) on its reduced syzygy
    generators; induced boundaries are d^l in kernel coordinates, which
    exist because d^l maps ker d^k_{T∪k} into ker d^k_{(T∖l)∪k} as x's
    squares commute.
    """
    _require_free(x)
    if p == 0:
        return _h0_modcube(x, k)
    if p != 1:
        raise ValueError("homological degree must be 0 or 1")
    labels = tuple(lab for lab in x.labels if lab != k)
    sub = label_subsets(labels)
    gens_at: dict = {}  # T -> the kernel generators, as the columns of a map
    verts = {}
    for T in sub:
        d = x.d(T | {k}, k)
        gens = _reduced_kernel(d.cols, x.ring, d.target_rank).cols
        gens_at[T] = _freemap(x.ring, d.source_rank, gens)
        rels = _reduced_kernel(gens, x.ring, d.source_rank).cols
        verts[T] = FPModule(x.ring, len(gens), SubmoduleBasis(x.ring, len(gens), rels))
    boundary = {}
    for T in sub:
        for l in T:
            tgt_gens = gens_at[T - {l}]
            induced = _factor_through(tgt_gens, x.d(T | {k}, l).compose(gens_at[T]),
                                      SubmoduleBasis(x.ring, tgt_gens.target_rank, []))
            if isinstance(induced, int):
                raise RuntimeError(f"d^{l}_{{{subset_key(T | {k})}}} maps kernel generator "
                                   f"{induced} out of the kernel of d^{k}")
            boundary[(T, l)] = induced
    return Cube(x.ring, labels, verts, boundary)


def iterated_h0(x: Cube, T: Iterable[str]) -> Cube:
    """H_0 iterated over the directions in T: a module cube over S∖T.

    Its vertex at W is x's vertex at W with relations enlarged by
    Σ_{k∈T} im d^k_{W∪k}, a sum that does not depend on the order in which
    the directions are taken, so they are taken in label order.  x must be
    a valid cube, whatever T is, and admissible when |T| ≥ 2, per the
    iterated-homology hypothesis; x may be free or carry relations.
    """
    T = _normalize_subset(T, x.labels)
    _require_valid(x)
    if len(T) >= 2:
        verdict = is_admissible(x, strategy="definition")
        if not verdict.ok:
            raise ValueError("iterated H_0 requires an admissible cube: "
                             + "; ".join(verdict.failures[:3]))
    return _h0_over(x, T)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def _mod_injective(m: FreeMap, src: FPModule, tgt: FPModule) -> bool:
    """Is the induced map A^a/rel_src -> A^b/rel_tgt injective?

    Injectivity says the preimage of rel_tgt under m lies in rel_src.  Its
    generators are tested unreduced, since each is only tested for
    membership, and in the engine's own form (`groebner._preimage_in`).
    """
    return _preimage_in(m.cols, tgt.relations.cols, src.relations, tgt.rank)


def _admissible_definition(mc: Cube, applied: frozenset, memo: dict) -> tuple:
    """(ok, failures) for the H_0 cube `mc`, reached by applying the
    directions `applied`; failures are relative to mc.  memo maps a set of
    applied directions to the (ok, failures) of its cube.

    At each T only d^s_T is tested first, s the first label of T in mc's
    label order, the boundary `_admissible_inductive` tests.  When all of
    these are injective, so is every boundary, by induction on |T|: for
    k ≠ s in T, s is also the first label of T∖k, and the square
    d^s_{T∖k} ∘ d^k_T = d^k_{T∖s} ∘ d^s_T commutes modulo the relations at
    T∖{k,s}, as mc is valid (an H_0 cube of a valid cube is valid).  Its
    right-hand side is a composite of injections, d^k_{T∖s} by induction,
    so d^k_T is injective.  An m-cube thus takes 2^m − 1 tests, not
    m·2^(m−1).  When one of them fails, every boundary is tested, so the
    failure list names each boundary that is not injective."""
    def injective(T, k):
        return _mod_injective(mc.d(T, k), mc.vertex(T), mc.vertex(T - {k}))

    subsets = mc.subsets()  # by size, so subsets[0] is ∅
    if not all(injective(T, next(lab for lab in mc.labels if lab in T)) for T in subsets[1:]):
        return False, tuple(f"boundary d^{k}_{{{subset_key(T)}}} is not injective"
                            for T in subsets for k in sorted(T) if not injective(T, k))
    failures = []
    ok = True
    for k in mc.labels:
        key = applied | {k}
        if key not in memo:
            memo[key] = _admissible_definition(_h0_modcube(mc, k), key, memo)
        sub_ok, sub_failures = memo[key]
        ok = ok and sub_ok
        failures += [f"H0^{k}·{f}" for f in sub_failures]
    return ok, tuple(failures)


def _admissible_spherical(x: Cube, memo: dict) -> tuple:
    """(ok, failures) for the front face `x`, whose vertex at A is the input
    cube's vertex at A; failures are relative to x.  memo maps a face, by
    its labels, to its (ok, failures).

    Tot(x) is 0-spherical unless some ker d_k escapes im d_{k+1}; the first
    such degree is the one reported, and no H_k is presented to find it.

    Only front faces x|_U^∅ are visited: every face x|_U^V has a 0-spherical
    Tot once they do.  Take v ∈ V, V' = V∖v and y = x|_{U∪v}^{V'}.  Tot of
    the front face x|_U^{V'} is the subcomplex of Tot(y) on the vertices
    without v, and the quotient is Tot(x|_U^V) shifted up by one, each
    summand rescaled by ±1.  The long exact sequence of this mapping cone
    (Weibel, An Introduction to Homological Algebra, §1.5) holds
    H_k(y) → H_{k−1}(x|_U^V) → H_{k−1}(x|_U^{V'}), so H_k(y) = 0 and
    H_{k−1}(x|_U^{V'}) = 0 give H_{k−1}(x|_U^V) = 0 for every k ≥ 2, which
    is 0-sphericity.  y and x|_U^{V'} hold fewer directions at the back,
    which gives the induction on |V|; at V = ∅ the face is a front face.
    """
    if not x.labels:
        return True, ()
    failures = []
    bad = _nonexact_degree(*_total_complex(x), x.ring)
    if bad is not None:
        failures.append(f"Tot is not 0-spherical: H_{bad} is nonzero")
    ok = bad is None
    S = frozenset(x.labels)
    for k in x.labels:
        key = S - {k}
        if key not in memo:
            memo[key] = _admissible_spherical(restrict(x, key, ()), memo)
        sub_ok, sub_failures = memo[key]
        ok = ok and sub_ok
        failures += [f"front^{k}·{f}" for f in sub_failures]
    return ok, tuple(failures)


def _admissible_inductive(mc: Cube, failures: list, prefix: str) -> bool:
    """Is the module cube `mc` admissible?  Failures are appended to
    `failures`, each under `prefix`.

    With s the first label: the front face mc|_{S∖s}^∅ is admissible, every
    d^s is injective, and H_0^s(mc) is admissible, which is checked only
    when the first two hold.  The back face mc|_{S∖s}^{s} is not checked,
    as these three make it admissible, by induction on |S|.  Its boundaries:
    the square d^s_T ∘ d^k_{T∪s} = d^k_T ∘ d^s_{T∪s} has an injective
    right-hand side, so d^k_{T∪s} is injective.  Its H_0 cubes: 0 → back →
    front → H_0^s(mc) → 0 is exact at each vertex and the boundaries of
    H_0^s(mc) are injective, so the snake lemma (Weibel, An Introduction to
    Homological Algebra, 1.3.2) in a direction k makes H_0^k(back) →
    H_0^k(front) injective with cokernel H_0^s(H_0^k(mc)).  The cube
    H_0^k(mc) thus has an admissible front, an injective d^s and an
    admissible H_0^s in direction s, and its back face, H_0^k(back), is
    admissible by induction.  A 0-cube is admissible.
    """
    if not mc.labels:
        return True
    s = mc.labels[0]
    front = restrict(mc, mc.labels[1:], ())
    ok = _admissible_inductive(front, failures, f"{prefix}front^{s}·")
    for T in front.subsets():
        if not _mod_injective(mc.d(T | {s}, s), mc.vertex(T | {s}), mc.vertex(T)):
            failures.append(f"{prefix}boundary d^{s}_{{{subset_key(T | {s})}}} is not injective")
            ok = False
    return ok and _admissible_inductive(_h0_modcube(mc, s), failures, f"{prefix}H0^{s}·")


ADMISSIBILITY_STRATEGIES = ("definition", "spherical_faces", "inductive")


def is_admissible(x: Cube, strategy: str = "definition") -> Report:
    """Admissibility verdict under one of three equivalent strategies.

    definition: all boundaries are injective and every H_0^k cube is
    recursively admissible.  It tests 2^m − 1 boundaries of an m-dimensional
    H_0 cube, one per nonempty vertex, and the commuting squares decide the
    other ones (the proof is in `_admissible_definition`); only when one of
    those tests fails are all m·2^(m−1) tested, to list every failure.
    spherical_faces: Tot(x) is 0-spherical and
    every front face x|_U^∅ is recursively admissible.  inductive: the
    front face in the first label's direction is admissible, that
    direction's boundaries are injective, and H_0 in that direction is
    admissible.  Neither of the last two visits a back face x|_U^V with V
    nonempty: the checks they make fix its verdict (the proofs are in
    `_admissible_spherical` and `_admissible_inductive`), so a failure is
    never listed under a back^ prefix.

    x must be a valid cube.  definition and inductive take any cube,
    injectivity being tested modulo the vertex relations; spherical_faces
    builds total complexes, so it needs a free cube and raises ValueError on
    one whose vertices carry relations.  x is validated once, here: the
    faces of a valid free cube are valid free cubes (their squares are
    squares of x), so their total complexes are built without re-validating.

    definition and spherical_faces reach one cube along many paths (H_0^k
    then H_0^l or the reverse; the front face of a front face, in either
    order), so each call keeps a memo, created here and dropped on return,
    and checks every cube once.  This is sound because the cube a path ends
    at does not depend on the path.  H_0 over the directions D keeps the
    other labels in their order and presents its vertex at W with relations
    rel_W + Σ_{k∈D} im d^k_{W∪k}, a sum that does not depend on the order of
    D; a front face keeps the label order and is fixed by its labels.  A
    memo entry holds the verdict and the failures relative to its cube, and
    a repeat visit replays them under the path's prefix, so the failure list
    equals the unmemoized one.
    """
    if strategy not in ADMISSIBILITY_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {ADMISSIBILITY_STRATEGIES}")
    failures: list = []
    if strategy == "spherical_faces":
        _require_free(x)
        ok, failures = _admissible_spherical(x, {})
    elif strategy == "definition":
        _require_valid(x)
        ok, failures = _admissible_definition(x, frozenset(), {})
    else:
        _require_valid(x)
        ok = _admissible_inductive(x, failures, "")
    return Report(ok, tuple(failures), {"strategy": strategy})
