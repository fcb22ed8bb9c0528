"""Constructive resolution of module cubes by sums of typical cubes.

Given an admissible V-cube z of finitely presented modules — vertices killed
by powers of f_u (u ∈ U), directional cokernels supported on V(f_v) — this
builds a direct sum y of typical cubes over B = A/(g_U), g_s = f_s^{m_s},
together with vertex-wise surjections y → z.

The induction peels the first V-direction: resolve the front face, divide
the resulting epi through by g_v to land in the back face (solvable exactly
because g_v kills H_0 in that direction), resolve the back face to cover
the cokernel, and join the two epis side by side.  The front face's
summands carry v in their typical cube and come first, so a stage's cube is
the typical sum ⊕_T Typ_B(g^T)^{mult[T]} that its multiplicities declare:
`_typical_sum_cube` lists one row per summand and `koszul._typical_sum`
assembles the cube.

A ResolutionOutput stores only what the construction chose: the exponents
m_s, each stage's epi and multiplicities, and the lifted chain maps.  The
moduli g_s = f_s^{m_s} and the stage cubes are derived from those, by
koszul_resolve for the lifts and again by check_resolution, so the checker
verifies exactly the output the caller gets.

Chains z(0) → z(1) are handled by resolving both targets and lifting the
composite w ∘ q(0) through q(1).  The lift recurses the same way: lift on
H_0 along the first direction, re-lift through the projection, push the
front-level solution into the back level through the injective boundary,
absorb the remaining defect by a homotopy through d^z, and bottom out in
module-level lifting.

B = A/(g_U) is represented by carrying g_U·(ambient basis) as extra
relations on A-presentations throughout; one Groebner engine suffices.

Each division and lift is `modcalc._factor_through`, and the construction
re-verifies none of them: check_resolution checks the whole output once.
Whether vertex maps form a morphism of module cubes (relations carried into
relations, every square commuting) is `cube._morphism_failures`, for
verify() and check_resolution alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple, Union

from .arith import Poly, RingSpec
from .cube import (Cube, Report, _admissible_inductive, _h0_modcube, _h0_over,
                   _morphism_failures, label_subsets, restrict, subset_key, validate_cube)
from .groebner import SubmoduleBasis
from .koszul import _typical_sum, is_A_sequence
from .modcalc import (
    FPModule,
    FreeMap,
    LiftError,
    _congruent,
    _factor_through,
    min_annihilating_power,
    supported_on,
)

__all__ = [
    "ResolutionInput",
    "ResolutionStage",
    "ResolutionOutput",
    "find_exponents",
    "koszul_resolve",
    "check_resolution",
]

VertexMaps = Dict[FrozenSet[str], FreeMap]


class ResolutionInput:
    """A target (or a two-term chain) to resolve, with its sequence data.

    fs maps every label in U ∪ V to its sequence entry.  targets holds one or
    two V-cubes of finitely presented modules; a bare FPModule is accepted as
    the V = () case.  connecting holds the chain maps z(i) → z(i+1) as
    vertex-keyed ambient matrices.  Structural checks (labels, shapes, rings)
    happen here; the mathematical hypotheses are re-verified by verify().
    """

    __slots__ = ("ring", "fs", "U", "V", "targets", "connecting")

    def __init__(self, fs: Mapping[str, Poly], U: Sequence[str], V: Sequence[str],
                 targets: Sequence[Union[Cube, FPModule]],
                 connecting: Sequence[VertexMaps] = ()):
        self.U = tuple(U)
        self.V = tuple(V)
        for name, labels in (("U", self.U), ("V", self.V)):
            for i, lab in enumerate(labels):
                if lab in labels[:i]:
                    raise ValueError(f'label "{lab}" is repeated in {name}')
        if set(self.U) & set(self.V):
            raise ValueError("U and V must be disjoint")
        targets = tuple(targets)
        if not 1 <= len(targets) <= 2:
            raise ValueError("provide one target or a chain of two")
        wrapped = []
        for z in targets:
            if isinstance(z, FPModule):
                if self.V:
                    raise ValueError("a bare module target needs V = ()")
                z = Cube(z.ring, (), {frozenset(): z}, {})
            if tuple(z.labels) != self.V:
                raise ValueError(f"target labels {list(z.labels)} must equal V {list(self.V)}")
            wrapped.append(z)
        self.targets: Tuple[Cube, ...] = tuple(wrapped)
        self.ring: RingSpec = self.targets[0].ring
        if any(z.ring != self.ring for z in self.targets):
            raise ValueError("targets must share one ring")
        fs = dict(fs)
        missing = (set(self.U) | set(self.V)) - set(fs)
        if missing:
            raise ValueError(f"sequence entries missing for labels {sorted(missing)}")
        if any(f.ring != self.ring for f in fs.values()):
            raise ValueError("sequence ring mismatch")
        self.fs = fs
        connecting = tuple(connecting)
        if len(connecting) != len(self.targets) - 1:
            raise ValueError("need exactly one connecting map per consecutive pair of targets")
        normalized = []
        for i, w in enumerate(connecting):
            w = {frozenset(T): m for T, m in w.items()}
            src, tgt = self.targets[i], self.targets[i + 1]
            if set(w) != set(src.subsets()):
                raise ValueError("connecting map must cover every vertex")
            for T, mat in w.items():
                if (mat.target_rank, mat.source_rank) != (tgt.vertex(T).rank, src.vertex(T).rank):
                    raise ValueError(f"connecting map shape mismatch at {{{subset_key(T)}}}")
            normalized.append(w)
        self.connecting: Tuple[VertexMaps, ...] = tuple(normalized)

    def verify(self, perm_cap: int = 6) -> Report:
        """Re-verify the hypotheses the construction leans on.

        The sequence over U ∪ V is an A-sequence (`is_A_sequence` under
        perm_cap); every target is a valid, admissible module cube (checked
        by the inductive strategy, at every |V|, which visits no back face:
        see `cube._admissible_inductive`); every vertex is supported
        on V(f_u) for u ∈ U and every directional cokernel on V(f_v);
        connecting maps are cube morphisms.

        Support is tested at the corner only: z_∅ on V(f_u), and the corner
        of H_0^v(z) on V(f_v).  A target that passes `_admissible_inductive`
        is admissible, so every boundary is injective modulo relations, and
        z_T ↪ z_∅ through a chain of boundaries.  Then Ann(z_∅) ⊆ Ann(z_T)
        (Eisenbud, Commutative Algebra, §2.1), and z_T is supported on V(f)
        when z_∅ is.  H_0^v(z) is admissible too, so the same holds for its
        vertices.  The verdict is unchanged; a failure at another vertex
        shows only when the target is not admissible or its corner fails.

        Support is decided without forming an annihilator: f ∈ √Ann M iff
        M[1/f] = 0, which one Rabinowitsch run on the relations of M decides
        (`modcalc.supported_on`).
        """
        failures = []
        seq = [self.fs[s] for s in self.U + self.V]
        if seq and not is_A_sequence(seq, perm_cap=perm_cap).a_sequence:
            failures.append("the sequence over U ∪ V is not an A-sequence")
        for j, z in enumerate(self.targets):
            rep = validate_cube(z)
            if not rep.ok:
                failures.append(f"target {j} is not a valid module cube: {rep.failures[0]}")
                continue
            _admissible_inductive(z, failures, f"target {j}: ")
            failures += [f"target {j}: vertex {{}} is not supported on V(f_{u})"
                         for u in self.U if not supported_on(z.vertex(()), self.fs[u])]
            failures += [f"target {j}: H_0^{v} at {{}} is not supported on V(f_{v})"
                         for v in self.V
                         if not supported_on(_h0_modcube(z, v).vertex(()), self.fs[v])]
        for i, w in enumerate(self.connecting):
            failures += [f"connecting square at {{{subset_key(T)}}} direction {k} fails" if k else
                         f"connecting map does not preserve relations at {{{subset_key(T)}}}"
                         for T, k in _morphism_failures(w, self.targets[i], self.targets[i + 1])]
        return Report(not failures, tuple(failures))


@dataclass(frozen=True)
class ResolutionStage:
    """One resolved target: the epi from its covering cube, and the summand
    counts of that cube.

    The covering cube is not stored: it is ⊕_T Typ_B(g^T)^{multiplicities[T]},
    which `_typical_sum_cube` builds from the counts and the moduli.
    """

    epi: VertexMaps
    multiplicities: Dict[FrozenSet[str], int]


@dataclass(frozen=True)
class ResolutionOutput:
    """Exponents m_s, per-target stages, and lifted chain maps.

    The moduli g_s = f_s^{m_s} are not stored: they follow from the
    exponents and the input's sequence.
    """

    exponents: Dict[str, int]
    stages: Tuple[ResolutionStage, ...]
    connecting: Tuple[VertexMaps, ...]


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def find_exponents(inp: ResolutionInput, cap: int = 64, perm_cap: int = 6) -> Dict[str, int]:
    """Least m_s ≤ cap per label: f_u^{m_u} kills every vertex of every target;
    f_v^{m_v} kills H_0(Tot) of every target.  Raises CapExceededError when a
    power runs past the cap, or the sequence past perm_cap entries, and
    ValueError when the input hypotheses fail.

    m_u is read off z_∅ alone.  verify() has passed, so the target passed
    `_admissible_inductive` and every boundary is injective modulo
    relations.  Then z_T ↪ z_∅ through a chain of boundaries, so a power of
    f_u that kills z_∅ kills z_T: m_u(z_T) ≤ m_u(z_∅), and the maximum over
    all vertices is the corner's value."""
    rep = inp.verify(perm_cap)
    if not rep.ok:
        raise ValueError("input hypotheses violated: " + "; ".join(rep.failures[:3]))
    out: Dict[str, int] = {}
    for u in inp.U:
        out[u] = max(min_annihilating_power(inp.fs[u], z.vertex(()), cap) for z in inp.targets)
    for v in inp.V:
        out[v] = max(min_annihilating_power(inp.fs[v], _h0_over(z, z.labels).vertex(()), cap)
                     for z in inp.targets)
    return out


# ---------------------------------------------------------------------------
# the induction
# ---------------------------------------------------------------------------

def _resolve_cube(z: Cube, g: Dict[str, Poly]):
    """(epi, multiplicities) of a sum of typical cubes covering the module
    cube z, by induction on |V|.

    The summands of the front face's cover, where v ∈ T, come before those
    of the back face's, and each face orders its own summands by the same
    rule, so the cover is `_typical_sum_cube` of the multiplicities.  The
    base case is the identity of A^r, a map of modules from (A/(g_U))^r
    only because g_U kills the vertex, as `find_exponents` chose it to;
    check (a) of check_resolution verifies that, not this function.
    """
    ring = z.ring
    if not z.labels:
        r = z.vertex(frozenset()).rank
        return {frozenset(): FreeMap.identity(ring, r)}, {frozenset(): r}
    v = z.labels[0]
    rest = tuple(lab for lab in z.labels if lab != v)
    z0 = restrict(z, rest, frozenset())
    p0, l0 = _resolve_cube(z0, g)
    # divide the front epi through by g_v: d^z ∘ s ≡ g_v · p0, solvable iff
    # g_v kills H_0 in direction v at each vertex
    s: VertexMaps = {}
    for A in z0.subsets():
        s[A] = _factor_through(z.d(A | {v}, v), p0[A].scaled(g[v]), z0.vertex(A).relations)
        if isinstance(s[A], int):
            raise LiftError(
                f"lifting infeasible: g_{v} times generator {s[A]} at vertex "
                f"{{{subset_key(A)}}} has no preimage under the {v}-boundary "
                "(the modulus fails to kill H_0 in that direction)")
    z1 = restrict(z, rest, frozenset({v}))
    p1, l1 = _resolve_cube(z1, g)
    epi: VertexMaps = {}
    for A in z0.subsets():
        epi[A | {v}] = FreeMap.hstack(s[A], p1[A])
        epi[A] = FreeMap.hstack(p0[A], z.d(A | {v}, v).compose(p1[A]))
    mult = {Tp | {v}: c for Tp, c in l0.items()}
    mult.update(l1)
    return epi, mult


def _typical_sum_cube(ring: RingSpec, labels: Sequence[str], g: Dict[str, Poly],
                      mult: Dict[FrozenSet[str], int], gU: Sequence[Poly]) -> Cube:
    """The declared shape: ⊕_T Typ_B(g^T)^{mult[T]} with g^T_v = g_v or 1,
    the summands of the first label's block first, and so on recursively."""
    one = ring.one()
    order = sorted(label_subsets(labels), key=lambda T: tuple(lab not in T for lab in labels))
    rows = [[g[k] if k in T else one for k in labels] for T in order for _ in range(mult.get(T, 0))]
    return _typical_sum(ring, labels, rows, gU)


# ---------------------------------------------------------------------------
# lifting a cube morphism through an epi of resolution cubes
# ---------------------------------------------------------------------------

def _lift_cube(f: VertexMaps, x: Cube, q: VertexMaps, y: Cube, z: Cube) -> VertexMaps:
    """t: x → y with q∘t ≡ f modulo z's vertex relations, a cube morphism mod y's.

    x and y are resolution cubes (free ambients modulo g_U), z the target the
    epi q lands in.  Recursion on the first direction v: lift on H_0^v, then
    through the projection onto H_0^v(y), push to the back level through the
    injective d^y, absorb the front defect f − q∘s′ by a homotopy through
    d^z, lift that homotopy through the back epi, and assemble
    t₁ = s′₁ + u∘d^x, t₀ = s′₀ + d^y∘u.  Soundness needs z admissible, which
    ResolutionInput.verify() establishes: the recursion leans on d^z being
    injective modulo relations on z, on its faces and on H_0^v(z).

    Every step, the base case included, is one `_factor_through`; a column
    with no preimage raises LiftError.  No intermediate lift is re-verified:
    check_resolution checks the final maps.
    """
    ring = x.ring
    if not x.labels:
        t = _factor_through(q[frozenset()], f[frozenset()], z.vertex(frozenset()).relations)
        if isinstance(t, int):
            raise LiftError(f"lift failed: column {t} has no preimage under the epi")
        return {frozenset(): t}
    v = x.labels[0]
    rest = tuple(lab for lab in x.labels if lab != v)
    x0 = restrict(x, rest, frozenset())
    y0 = restrict(y, rest, frozenset())
    y1 = restrict(y, rest, frozenset({v}))
    z1 = restrict(z, rest, frozenset({v}))
    Hx = _h0_modcube(x, v)
    Hy = _h0_modcube(y, v)
    Hz = _h0_modcube(z, v)
    sub_rest = x0.subsets()
    q1 = {A: q[A | {v}] for A in sub_rest}
    sigma = _lift_cube(f, Hx, q, Hy, Hz)
    idmaps = {A: FreeMap.identity(ring, y0.vertex(A).rank) for A in sub_rest}
    s0p = _lift_cube(sigma, x0, idmaps, y0, Hy)
    s1p: VertexMaps = {}
    for A in sub_rest:
        s1p[A] = _factor_through(y.d(A | {v}, v), s0p[A].compose(x.d(A | {v}, v)),
                                 y0.vertex(A).relations)
        if isinstance(s1p[A], int):
            raise LiftError(
                f"lift failed: front solution does not factor through the "
                f"{v}-boundary at {{{subset_key(A)}}}")
    h: VertexMaps = {}
    for A in sub_rest:
        h[A] = _factor_through(z.d(A | {v}, v), f[A] - q[A].compose(s0p[A]),
                               z.vertex(A).relations)
        if isinstance(h[A], int):
            raise LiftError(
                f"lift failed: homotopy defect escapes the {v}-boundary image "
                f"at {{{subset_key(A)}}}")
    u = _lift_cube(h, x0, q1, y1, z1)
    t: VertexMaps = {}
    for A in sub_rest:
        t[A] = s0p[A] + y.d(A | {v}, v).compose(u[A])
        t[A | {v}] = s1p[A] + u[A].compose(x.d(A | {v}, v))
    return t


# ---------------------------------------------------------------------------
# driver and verification
# ---------------------------------------------------------------------------

def koszul_resolve(inp: ResolutionInput, cap: int = 64, perm_cap: int = 6) -> ResolutionOutput:
    """Resolve every target and lift the chain maps; verified before returning.

    Each stage's covering cube is built from its multiplicities by
    `_typical_sum_cube` for the lifts and is not kept: the output holds the
    exponents, epis, multiplicities and lifted maps that were chosen, and
    check_resolution builds the cubes again from exactly those.

    Nothing is verified on the way; check_resolution checks the whole
    output once, and a failure there raises RuntimeError — the construction is
    theorem-backed, so a failed check means a bug, not bad input (bad input
    is rejected earlier by verify()/find_exponents, or surfaces as LiftError
    with the offending generator).
    """
    m = find_exponents(inp, cap, perm_cap)
    g = {s: inp.fs[s] ** e for s, e in m.items()}
    gU = [g[u] for u in inp.U]
    stages = [ResolutionStage(*_resolve_cube(z, g)) for z in inp.targets]
    covers = [_typical_sum_cube(inp.ring, z.labels, g, stage.multiplicities, gU)
              for stage, z in zip(stages, inp.targets)]
    connecting = []
    for i, w in enumerate(inp.connecting):
        f = {A: w[A].compose(stages[i].epi[A]) for A in covers[i].subsets()}
        connecting.append(_lift_cube(f, covers[i], stages[i + 1].epi, covers[i + 1],
                                     inp.targets[i + 1]))
    out = ResolutionOutput(m, tuple(stages), tuple(connecting))
    rep = check_resolution(out, inp)
    if not rep.ok:
        raise RuntimeError("constructed resolution failed verification: "
                           + "; ".join(rep.failures[:3]))
    return out


def _shape_failures(out: ResolutionOutput, inp: ResolutionInput) -> list:
    """What the moduli and cubes derived from out need: a stage per target
    and a lifted map per connecting map, positive int exponents on exactly
    U ∪ V, counts ≥ 0 keyed by subsets of each target's labels, and at every
    vertex a map of the shape those counts give."""
    if (len(out.stages), len(out.connecting)) != (len(inp.targets), len(inp.connecting)):
        return [f"the output has {len(out.stages)} stages and {len(out.connecting)} lifted maps"
                f" for {len(inp.targets)} targets and {len(inp.connecting)} connecting maps"]
    failures = [f"stage {i}: multiplicities are not counts ≥ 0 of subsets of {list(z.labels)}"
                for i, (stage, z) in enumerate(zip(out.stages, inp.targets))
                if not all(isinstance(T, frozenset) and T <= set(z.labels) and isinstance(c, int)
                           and c >= 0 for T, c in stage.multiplicities.items())]
    if (set(out.exponents) != set(inp.U + inp.V)
            or not all(isinstance(e, int) and e > 0 for e in out.exponents.values())):
        failures.append(f"exponents are not positive ints on exactly {sorted(inp.U + inp.V)}")
    if failures:
        return failures
    L = [sum(stage.multiplicities.values()) for stage in out.stages]
    shapes = [(f"stage {i}: epi", stage.epi, {T: (z.vertex(T).rank, L[i]) for T in z.subsets()})
              for i, (stage, z) in enumerate(zip(out.stages, inp.targets))]
    shapes += [(f"lifted map {i}", t, dict.fromkeys(inp.targets[i].subsets(), (L[i + 1], L[i])))
               for i, t in enumerate(out.connecting)]
    return [f"{tag} at {{{subset_key(T)}}} is "
            + (f"{maps[T].target_rank}x{maps[T].source_rank}, not {r}x{s}" if T in maps else "missing")
            for tag, maps, want in shapes for T, (r, s) in want.items()
            if T not in maps or (maps[T].target_rank, maps[T].source_rank) != (r, s)]


def check_resolution(out: ResolutionOutput, inp: ResolutionInput) -> Report:
    """Independent re-verification of a resolution.

    First the shape of out (`_shape_failures`): a stage per target and a
    lifted map per connecting map, exponents on exactly U ∪ V, multiplicities
    keyed by subsets of the target's labels, and maps at every vertex of the
    ranks the multiplicities give.  Failures there are reported alone, since
    the checks below read those maps.  Then the moduli g_s = f_s^{m_s} and
    each stage's covering cube, `_typical_sum_cube` of its multiplicities,
    are built from out as koszul_resolve built them, and

    (a) every epi is onto its target module and a map of modules: it
        carries the relations of its covering vertex into the target's;
    (c) all squares commute modulo the target presentations — within each
        stage, and around the connecting maps for chains — and each lifted
        map carries relations into relations.

    Whether the vertex maps of an epi or of a lifted map form a morphism of
    module cubes is one test, `cube._morphism_failures`, the one verify()
    makes of the input's connecting maps.

    No cube is stored in out, so none can disagree with its multiplicities.

    For (a), epi[T] is onto A^r/rel exactly when every basis vector e_i
    lies in rel + im epi[T].  That is a membership question in one
    submodule of A^r, so it is decided by that submodule's Groebner basis;
    no coordinates are computed.

    Surjectivity on H_0(Tot) is not checked on its own: H_0(Tot z) is a
    quotient of z_∅, so (a) at the empty vertex implies it.
    """
    failures = _shape_failures(out, inp)
    if failures:
        return Report(False, tuple(failures))
    ring = inp.ring
    g = {s: inp.fs[s] ** e for s, e in out.exponents.items()}
    gU = [g[u] for u in inp.U]
    covers = [_typical_sum_cube(ring, z.labels, g, stage.multiplicities, gU)
              for stage, z in zip(out.stages, inp.targets)]
    for idx, (stage, y, z) in enumerate(zip(out.stages, covers, inp.targets)):
        tag = f"stage {idx}"
        for T in z.subsets():
            M = z.vertex(T)
            span = SubmoduleBasis(ring, M.rank, M.relations.cols + stage.epi[T].cols)
            missed = next((i for i in range(M.rank)
                           if not span.contains_vector({i: ring.one()})), None)
            if missed is not None:
                failures.append(
                    f"(a) {tag}: epi at {{{subset_key(T)}}} misses basis vector {missed}")
        failures += [f"(c) {tag}: square at {{{subset_key(T)}}} direction {k} fails" if k else
                     f"(a) {tag}: epi at {{{subset_key(T)}}} does not preserve relations"
                     for T, k in _morphism_failures(stage.epi, y, z)]
    for i, t in enumerate(out.connecting):
        src, tgt = out.stages[i], out.stages[i + 1]
        morphism = list(_morphism_failures(t, covers[i], covers[i + 1]))
        for T in inp.targets[i].subsets():
            if not _congruent(tgt.epi[T].compose(t[T]), inp.connecting[i][T].compose(src.epi[T]),
                              inp.targets[i + 1].vertex(T).relations):
                failures.append(
                    f"(c) connecting square at {{{subset_key(T)}}} fails (stage {i}→{i + 1})")
            failures += [f"(c) connecting map is not a cube morphism at {{{subset_key(T)}}}"
                         + (f" direction {k}" if k else "") for U, k in morphism if U == T]
    return Report(not failures, tuple(failures))
