"""Koszul cubes over a polynomial ring.

A cube is Koszul with respect to a sequence (f_s) when every boundary in
direction k is injective with cokernel supported on V(f_k).  This module
checks that, plus the satellite notions that make the class useful:
regular/A-sequences with failure witnesses, typical cubes Typ(f), the
reduced variant (f_k kills the cokernel on the nose), per-direction
determinants and their unit-coherence, the Buchsbaum–Eisenbud acyclicity
criterion, the weight decomposition data, the presentation of H_0(Tot) by
arrival boundaries, and a seeded generator of base-changed sums of typical
cubes for the test corpus.

Every sum of typical cubes is assembled by `_typical_sum`: Typ(f) is the
one-row sum, the generator conjugates the boundaries of a sum, and the
stage cubes of `resolve` are sums over A/(g_U).

Everything theorem-shaped (determinants form an A-sequence, Koszul implies
admissible, BE agrees with homology) is exposed as a checkable verdict so
the suite can use the theorems as live oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .arith import Poly, RingSpec, is_unit
from .cube import (
    Cube,
    Report,
    _h0_over,
    _require_free,
    _total_complex,
    degenerate_directions,
    label_subsets,
    restrict,
    subset_key,
    validate_cube,
)
from .groebner import (
    IdealBasis,
    SubmoduleBasis,
    _nonexact_degree,
    grade,
    ideal_quotient,
    radical_membership,
)
from .modcalc import (
    CapExceededError,
    Complex,
    FPModule,
    FreeMap,
    _freemap,
    _kills,
    cokernel,
    determinant_of_square,
    fitting_ideal,
    is_injective,
)

__all__ = [
    "SequenceReport",
    "KoszulVerdict",
    "is_regular_sequence",
    "is_A_sequence",
    "factor_sequence_check",
    "typical_cube",
    "is_koszul_cube",
    "is_reduced_koszul",
    "determinant",
    "det_is_a_sequence",
    "be_acyclicity",
    "verify_weight_decomposition",
    "generators_presentation",
    "random_koszul",
]


@dataclass(frozen=True)
class SequenceReport:
    """Verdict of a regular/A-sequence check.

    On failure, failing_index is the 1-based position i in the failing order
    and witness w satisfies w·f_i ∈ (f_1..f_{i-1}) but w ∉ (f_1..f_{i-1}).
    A unit entry fails with witness None (there is no quotient to mine).
    For is_A_sequence, failing_permutation is the first order (in
    itertools.permutations order) that breaks, and index/witness refer to it.
    """

    sequence: Tuple[Poly, ...]
    regular: bool
    a_sequence: Optional[bool] = None
    failing_permutation: Optional[Tuple[Poly, ...]] = None
    failing_index: Optional[int] = None
    witness: Optional[Poly] = None


@dataclass(frozen=True)
class KoszulVerdict:
    """Per-boundary diagnostics of the Koszul condition.

    diagnostics maps "T|k" (serialized subset, direction) to injectivity and
    support flags.  The projective-dimension bound on each cokernel needs no
    computation — an injection of free modules presents its cokernel with
    pd ≤ 1 — and is recorded as a note.
    """

    is_koszul: bool
    diagnostics: Dict[str, dict]
    pd_note: str = "pd(coker) <= 1 by construction: cokernel of an injection of free modules"


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

def _regular_check(fs: Sequence[Poly], order: Sequence[int], memo: dict):
    """(ok, failing position 1-based, witness) for fs taken in `order`.

    Once the entries before position pos have passed, f_i, the entry at pos,
    is a nonzerodivisor modulo (f_P), P the earlier indices, exactly when
    grade (f_S) ≥ pos for S = P ∪ {i}:

    - the entries before pos passed, so f_P is a regular sequence;
    - if (f_P) ≠ A it is unmixed of height |P|, since A is Cohen–Macaulay
      (Matsumura, Commutative Ring Theory, Thm 17.6); so f_i is a
      nonzerodivisor modulo it iff f_i lies in no minimal prime of (f_P),
      iff ht (f_P, f_i) ≥ |P| + 1, which Krull's theorem also bounds above;
    - if (f_P) = A then (f_S) = A, whose grade is math.inf: the step passes;
    - in k[x_1..x_n], ht I = n − dim A/I, and dim A/I = dim A/LT(I) for
      every term order (Kredel and Weispfenning, J. Symbolic Comput. 6
      (1988)), which is what `grade` reads off one reduced basis.

    S is a set of indices, not of polynomials: (x, y, x) has grade 2 < 3 at
    S = {0, 1, 2} and fails at position 3.  memo maps S to its verdict; it
    is read only after the entries before pos have passed in the current
    order, so the verdict holds whichever order stored it.  Only a failing
    step forms the quotient (f_P : f_i), for its witness.
    """
    for pos, i in enumerate(order, start=1):
        if is_unit(fs[i]):
            return False, pos, None
        S = frozenset(order[:pos])
        if S not in memo:
            memo[S] = grade(IdealBasis(fs[i].ring, [fs[j] for j in sorted(S)])) >= pos
        if not memo[S]:
            prefix = IdealBasis(fs[i].ring, [fs[j] for j in order[:pos - 1]])
            return False, pos, next(
                g for g in ideal_quotient(prefix, fs[i]).reduced_gb if not prefix.contains(g))
    return True, None, None


def is_regular_sequence(fs: Sequence[Poly]) -> SequenceReport:
    """Is each f_i a nonunit and a nonzerodivisor modulo its predecessors?

    With I = (f_1..f_{i-1}), f_i is a nonzerodivisor modulo I exactly when
    (I : f_i) = I.  Each step is decided by the grade of (f_1..f_i), one
    reduced basis (`_regular_check`).  Only a failure forms the quotient,
    and its reduced Groebner basis yields the witness.
    """
    fs = tuple(fs)
    ok, idx, wit = _regular_check(fs, range(len(fs)), {})
    return SequenceReport(fs, ok, failing_index=idx, witness=wit)


def is_A_sequence(fs: Sequence[Poly], perm_cap: int = 6) -> SequenceReport:
    """Regular under every permutation (the order-free strengthening).

    All len(fs)! orders are checked, so the length is capped (default 6).
    Each step is decided by the grade of the ideal of the entries up to it,
    which depends only on their set S of indices (`_regular_check`).  A memo
    keyed on S is shared by every permutation, the identity first, so
    n entries cost at most 2^n − 1 reduced bases instead of n + n!·n ideal
    quotients.  The witness, the first element of the reduced Groebner basis
    of (P : f_i) outside (P), is canonical, so every report is the one the
    unmemoized checks would give.
    """
    fs = tuple(fs)
    if len(fs) > perm_cap:
        raise CapExceededError(
            f"A-sequence check on {len(fs)} elements exceeds the permutation cap {perm_cap}")
    memo: dict = {}
    for tried, perm in enumerate(permutations(range(len(fs)))):
        ok, idx, wit = _regular_check(fs, perm, memo)
        if not ok:
            # the first order is the identity: fs is regular iff it passed
            return SequenceReport(fs, tried > 0, a_sequence=False,
                                  failing_permutation=tuple(fs[i] for i in perm),
                                  failing_index=idx, witness=wit)
    return SequenceReport(fs, True, a_sequence=True)


def factor_sequence_check(fs: Sequence[Poly], gs: Sequence[Poly], perm_cap: int = 6) -> Report:
    """Live check of the factor lemma: (f_i·g_i) an A-sequence ⇒ (f_i) one too.

    Both verdicts are computed and reported; the report fails only in the
    forbidden quadrant (hypothesis holds, conclusion fails), which would be a
    genuine bug-detection event rather than bad input.
    """
    fs = tuple(fs)
    gs = tuple(gs)
    if len(fs) != len(gs):
        raise ValueError(f"sequence length mismatch: {len(fs)} vs {len(gs)}")
    for f in fs:
        if is_unit(f):
            raise ValueError("the factor lemma requires nonunit entries in the first sequence")
    hs = tuple(f * g for f, g in zip(fs, gs))
    hyp = is_A_sequence(hs, perm_cap=perm_cap)
    conc = is_A_sequence(fs, perm_cap=perm_cap)
    applicable = bool(hyp.a_sequence)
    violated = applicable and not conc.a_sequence
    failures = ()
    if violated:
        failures = ("products form an A-sequence but the factors do not",)
    return Report(not violated, failures, info={
        "hypothesis_a_sequence": bool(hyp.a_sequence),
        "conclusion_a_sequence": bool(conc.a_sequence),
        "applicable": applicable,
    })


# ---------------------------------------------------------------------------
# typical cubes and the Koszul condition
# ---------------------------------------------------------------------------

def _labels(labels: Optional[Sequence[str]], n: int) -> Tuple[str, ...]:
    """The labels as a tuple, "1".."n" by default; one per sequence entry."""
    labels = tuple(str(i + 1) for i in range(n)) if labels is None else tuple(labels)
    if len(labels) != n:
        raise ValueError("one label per sequence entry")
    return labels


def _typical_sum(ring: RingSpec, labels: Sequence[str], rows: Sequence[Sequence[Poly]],
                 moduli: Sequence[Poly]) -> Cube:
    """⊕_i Typ(rows[i]) over A/(moduli), each row a sequence in label order.

    Every vertex is A^L, L = len(rows), modulo g·e_j for each g in moduli and
    each j, and all vertices share that one module.  The boundary in
    direction k is the diagonal of the rows' k-entries, a fresh map at each
    subset, so each keeps its own determinant.
    """
    L = len(rows)
    vertex = FPModule(ring, L, SubmoduleBasis(ring, L, [{j: g} for g in moduli for j in range(L)]))
    subs = label_subsets(labels)
    diagonal = {k: [row[j] for row in rows] for j, k in enumerate(labels)}
    boundary = {(T, k): FreeMap.diagonal(ring, diagonal[k]) for T in subs for k in T}
    return Cube(ring, labels, {T: vertex for T in subs}, boundary)


def typical_cube(fs: Sequence[Poly], labels: Optional[Sequence[str]] = None,
                 ring: Optional[RingSpec] = None) -> Cube:
    """Typ(f): every vertex A, boundary in direction t is multiplication by f_t.

    Labels default to "1".."n".  Its total complex is the classical Koszul
    complex of the sequence.  Koszulness of the result requires fs to be an
    A-sequence, which is deliberately not enforced here so that failing
    inputs can be built and diagnosed.
    """
    fs = tuple(fs)
    if ring is None:
        if not fs:
            raise ValueError("ring required for the empty typical cube")
        ring = fs[0].ring
    return _typical_sum(ring, _labels(labels, len(fs)), [fs], ())


def _sequence_by_label(x: Cube, fs) -> Dict[str, Poly]:
    if isinstance(fs, Mapping):
        out = dict(fs)
        if set(out) != set(x.labels):
            raise ValueError("sequence labels do not match the cube's labels")
        return out
    fs = tuple(fs)
    if len(fs) != len(x.labels):
        raise ValueError(
            f"sequence length {len(fs)} does not match {len(x.labels)} cube directions")
    return dict(zip(x.labels, fs))


def _boundary_flags(m: FreeMap, f: Poly) -> Tuple[bool, bool]:
    """(injective, support on V(f)) for one boundary m."""
    if m.target_rank == m.source_rank:
        det = determinant_of_square(m)
        return not det.is_zero(), radical_membership(f, IdealBasis(m.ring, [det]))
    return is_injective(m), radical_membership(f, cokernel(m).relations)


def is_koszul_cube(x: Cube, fs) -> KoszulVerdict:
    """Every boundary d^k_T injective with cokernel supported on V(f_k).

    For a square m, since the ring is a domain, m is injective iff det m ≠ 0,
    and √Ann(coker m) = √(det m), since (det m) = Fitt_0(coker m) (Fitting's
    lemma, Eisenbud, Commutative Algebra, Prop. 20.7): the determinant the
    map keeps decides both flags.  Any other shape keeps the kernel
    computation for injectivity, and its support is the one Rabinowitsch
    test f_k ∈ √Ann(coker m) on the columns of m (`radical_membership`).
    Diagnostics cover every (T,k) pair even after a failure, so a bad cube
    reports all of its defects at once.
    """
    _require_free(x)
    seq = _sequence_by_label(x, fs)
    diagnostics: Dict[str, dict] = {}
    ok = True
    for T in x.subsets():
        for k in sorted(T):
            inj, supp = _boundary_flags(x.d(T, k), seq[k])
            diagnostics[f"{subset_key(T)}|{k}"] = {"injective": inj, "support": supp}
            ok = ok and inj and supp
    return KoszulVerdict(ok, diagnostics)


def is_reduced_koszul(x: Cube, fs) -> bool:
    """Does f_k annihilate coker d^k_T on the nose (not just up to radical)?

    Precondition: the cube is Koszul for fs; violated preconditions raise.
    """
    verdict = is_koszul_cube(x, fs)
    if not verdict.is_koszul:
        raise ValueError("not a Koszul cube with respect to the given sequence")
    seq = _sequence_by_label(x, fs)
    return all(_kills(seq[k], cokernel(x.d(T, k))) for T in x.subsets() for k in sorted(T))


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def determinant(x: Cube) -> Tuple[Dict[str, Poly], Report]:
    """Per-direction determinants det d^k at the top subset, plus coherence.

    Coherence: all vertices share one rank, det d^k_S is nonzero, and for
    every T ≠ S the ratio det d^k_T / det d^k_S is a nonzero constant —
    decided by monic forms: for a nonzero det d^k_S, det d^k_T is a unit
    multiple of it exactly when the two monic forms are equal.  A zero
    det d^k_S is the one failure reported for k: no ratio is taken against it.
    Incoherence on a cube that passed is_koszul_cube means a bug, so the
    verdict is returned rather than assumed.
    """
    _require_free(x)
    ranks = {M.rank for M in x.vertices.values()}
    if len(ranks) > 1:
        return {}, Report(False, (f"vertices do not share a rank: {sorted(ranks)}",))
    S = frozenset(x.labels)
    det = {(T, k): determinant_of_square(x.d(T, k)) for T in x.subsets() for k in sorted(T)}
    dets = {k: det[(S, k)] for k in x.labels}
    failures = [f"det d^{k} at {{{subset_key(S)}}} is zero" for k in x.labels if dets[k].is_zero()]
    tops = {k: top.monic() for k, top in dets.items()}
    for (T, k), dT in det.items():
        if T != S and not dets[k].is_zero() and dT.monic() != tops[k]:
            failures.append(
                f"det d^{k} at {{{subset_key(T)}}} is not a unit multiple of the top determinant")
    return dets, Report(not failures, tuple(failures))


def det_is_a_sequence(x: Cube) -> bool:
    """A-sequence verdict for the determinant sequence of a non-degenerate cube.

    The theorem says this is always true for non-degenerate free Koszul
    cubes; the suite treats a False here as a bug-detection event.
    """
    return bool(is_A_sequence(_det_sequence(x)).a_sequence)


def _det_sequence(x: Cube) -> list:
    """The determinants det d^k at the top subset, in label order, of a
    non-degenerate cube with coherent determinants; any other cube raises.
    Degeneracy is decided first; each boundary keeps the determinant it
    takes, so the coherence test takes none twice."""
    deg = degenerate_directions(x)
    if deg:
        raise ValueError(
            f"degenerate directions {sorted(deg)}: their determinants are units, "
            "take the nondegenerate part first")
    dets, coherence = determinant(x)
    if not coherence.ok:
        raise ValueError("determinant incoherence: " + "; ".join(coherence.failures))
    return [dets[k] for k in x.labels]


# ---------------------------------------------------------------------------
# acyclicity by expected ranks
# ---------------------------------------------------------------------------

def be_acyclicity(c: Complex) -> Report:
    """Exactness in positive degrees via expected ranks and minor-ideal grades.

    r_i = Σ_{j≥i} (−1)^{j−i} rank F_j; the verdict is true iff
    grade I_{r_i}(d_i) ≥ i for every i.  Degenerate expected ranks (r_i ≤ 0
    or larger than the matrix) are rejected loudly — the criterion has
    nothing to say about such complexes.
    """
    s = c.length
    r = {i: sum((-1) ** (j - i) * c.ranks[j] for j in range(i, s + 1))
         for i in range(1, s + 1)}
    for i in range(1, s + 1):
        d = c.differential(i)
        if r[i] <= 0 or r[i] > min(d.target_rank, d.source_rank):
            raise ValueError(
                f"expected rank r_{i} = {r[i]} is out of range for the "
                f"{d.target_rank}x{d.source_rank} differential d_{i}")
    failures = []
    grades: Dict[int, object] = {}
    fittings: Dict[int, IdealBasis] = {}
    for i in range(1, s + 1):
        ideal = fitting_ideal(c.differential(i), r[i])
        g = grade(ideal)
        grades[i] = g
        fittings[i] = ideal
        if not g >= i:
            failures.append(f"grade of the r_{i}-minor ideal of d_{i} is {g}, needs >= {i}")
    return Report(not failures, tuple(failures),
                  info={"r": r, "grades": grades, "fitting": fittings})


# ---------------------------------------------------------------------------
# weight decomposition and generators
# ---------------------------------------------------------------------------

def verify_weight_decomposition(x: Cube, fs) -> Report:
    """Sphericity data behind the weight decomposition of a Koszul cube.

    For every disjoint pair (T, U) of label subsets, Tot(x|_T^U) must be
    0-spherical (Koszul ⇒ admissible ⇒ 0-spherical, a live oracle).  The
    faces with |T| ≤ 1 are counted but not computed: at |T| = 0 Tot is one
    module, and at |T| = 1 it is the boundary d^t_{U∪t}, 0-spherical iff
    injective, which the Koszul check decides.  The support of the piece
    x_U / Σ_{s∈T} im d^s_{U∪s} is implied: for t ∈ T it is a quotient of
    coker d^t_{U∪t}, whose annihilator has f_t in its radical by the Koszul
    check (Eisenbud, Commutative Algebra, §2.1).  That check validates x,
    and faces of a valid free cube are valid.
    """
    verdict = is_koszul_cube(x, fs)
    if not verdict.is_koszul:
        raise ValueError("weight decomposition requires a verified Koszul cube")
    failures = []
    pairs = 0
    for T in x.subsets():
        for U in label_subsets(lab for lab in x.labels if lab not in T):
            pairs += 1
            if len(T) >= 2 and _nonexact_degree(*_total_complex(restrict(x, T, U)),
                                                x.ring) is not None:
                failures.append(
                    f"Tot of the restriction to {{{subset_key(T)}}} over "
                    f"{{{subset_key(U) or '{}'}}} is not 0-spherical")
    return Report(not failures, tuple(failures), info={"pairs_checked": pairs})


def generators_presentation(x: Cube, perm_cap: int = 6):
    """(H_0(Tot x) presented by arrival boundaries, determinant A-sequence report).

    The module is x_∅ modulo the images of the p maps d^k_{{k}}, whose
    columns in label order are the columns of the Tot differential d_1 (each
    with sign +1), so its relations span the degree-1 image of the total
    complex.  Requires a non-degenerate cube with coherent determinants.
    """
    dets = _det_sequence(x)
    return _h0_over(x, x.labels).vertices[frozenset()], is_A_sequence(dets, perm_cap=perm_cap)


# ---------------------------------------------------------------------------
# randomized corpus generator
# ---------------------------------------------------------------------------

def _random_constant(rng: random.Random, ring: RingSpec) -> Poly:
    p = ring.field.char
    if p:
        return ring.const(rng.randrange(1, p))
    return ring.const(rng.randint(1, 5))


def _elementary_product(ring: RingSpec, n: int, factors) -> FreeMap:
    out = eye = FreeMap.identity(ring, n)
    for (i, j, c) in factors:
        # the identity plus c, a nonzero term, at row i of column j != i
        cols = list(eye.cols)
        cols[j] = {**cols[j], i: c}
        out = out.compose(_freemap(ring, n, cols))
    return out


def random_koszul(fs: Sequence[Poly], summands: int, basechange_steps: int, seed: int) -> Cube:
    """Seeded Koszul cube: base-changed direct sum of power-tweaked typical
    cubes, labelled "1".."n" in the order of fs.

    Summand 0 uses the sequence as given; extra summands may square entries.
    Each vertex gets an invertible base change built from elementary matrices
    (unit diagonal), and boundaries are conjugated d ↦ P_{T∖{k}} d P_T^{-1},
    which preserves commutativity and Koszulness by construction.  Inverses
    are exact (reversed factors with negated off-diagonal entries).

    Off-diagonal entries are constants, except that when no entry was squared
    at most one linear entry may appear per vertex, and only at vertices of
    even subset size — so boundary entries never exceed degree
    1 + max degree of a squared sequence entry (degree 2 for variable
    sequences, which is what the generated suites use).

    The result is asserted to pass validate_cube and is_koszul_cube; a
    failure raises rather than returning a bad cube.
    """
    fs = tuple(fs)
    if not fs:
        raise ValueError("need a nonempty sequence")
    if len(fs) > 6:
        raise ValueError("at most 6 directions")
    if not 1 <= summands <= 4:
        raise ValueError("summands must be between 1 and 4")
    if not 0 <= basechange_steps <= 12:
        raise ValueError("basechange_steps must be between 0 and 12")
    cert = is_A_sequence(fs)
    if not cert.a_sequence:
        raise ValueError("the sequence must be an A-sequence")
    ring = fs[0].ring
    labels = _labels(None, len(fs))
    rng = random.Random(seed)
    expo = [[1] * len(fs)]
    for _ in range(summands - 1):
        expo.append([rng.choice((1, 2)) for _ in fs])
    any_power = any(e == 2 for row in expo for e in row)
    out = _typical_sum(ring, labels, [[f ** e for f, e in zip(fs, row)] for row in expo], ())
    if summands > 1 and basechange_steps > 0:
        P = {}
        Pinv = {}
        for T in out.subsets():
            factors = []
            linear_used = False
            for _ in range(basechange_steps):
                i, jj = rng.sample(range(summands), 2)
                coeff = _random_constant(rng, ring)
                if (not any_power and not linear_used and len(T) % 2 == 0
                        and rng.random() < 0.5):
                    coeff = coeff * ring.var(rng.choice(ring.variables))
                    linear_used = True
                factors.append((i, jj, coeff))
            P[T] = _elementary_product(ring, summands, factors)
            Pinv[T] = _elementary_product(
                ring, summands, [(i, jj, -c) for (i, jj, c) in reversed(factors)])
        out = Cube(ring, labels, out.vertices,
                   {(T, k): P[T - {k}].compose(d).compose(Pinv[T])
                    for (T, k), d in out.boundary.items()})
    check = validate_cube(out)
    if not check.ok:
        raise RuntimeError("generated cube failed validation: " + "; ".join(check.failures))
    if not is_koszul_cube(out, fs).is_koszul:
        raise RuntimeError("generated cube failed the Koszul check")
    return out
