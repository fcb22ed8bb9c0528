"""Independent references for the library's shortcuts.

The annihilator of a module, formed in full: the reference that the
library's support tests (`radical_membership`, `supported_on`,
`ResolutionInput.verify`), which form no annihilator, are checked against.

Regular and A-sequences by the definition: every step of every order asks
whether (I : f) = I afresh, with no memo and no height count, the reference
for `is_regular_sequence` and `is_A_sequence`.

The `inductive` and `spherical_faces` admissibility strategies with their
back-face recursion: each recurses into the back face x|_U^V (V nonempty)
as well as the front face, the reference for the strategies in `cube`,
which visit front faces only.

The `definition` strategy testing every boundary of every H_0 cube, the
reference for the library's, which tests the first-label boundary at each
vertex and lets the commuting squares decide the others.

`ResolutionInput.verify` and `find_exponents` testing support and
annihilating powers at every vertex of each target and of each H_0^v, the
reference for the library's, which test the corner only.

Exact division of one polynomial by another, and the determinant coherence
test built on it: a boundary determinant is a unit multiple of the top one
when the quotient exists and is a unit, the reference for
`koszul.determinant`, which compares monic forms."""

from itertools import permutations

from koszul_lab.arith import Poly, RingMismatchError, _add_scaled, _poly, is_unit
from koszul_lab.cube import (Report, _admissible_inductive, _h0_modcube, _h0_over, _mod_injective,
                             _morphism_failures, _require_free, _require_valid, _total_complex,
                             label_subsets, restrict, subset_key, validate_cube)
from koszul_lab.groebner import (IdealBasis, _nonexact_degree, ideal_intersection, ideal_quotient,
                                 module_quotient)
from koszul_lab.koszul import SequenceReport, is_A_sequence
from koszul_lab.modcalc import (FPModule, _kills, determinant_of_square, min_annihilating_power,
                               supported_on)


def annihilator(M: FPModule) -> IdealBasis:
    """ann(M) = ∩_i (relations : e_i); each generator re-verified against M."""
    ring = M.ring
    if M.rank == 0:
        return IdealBasis(ring, [ring.one()])
    acc = None
    for i in range(M.rank):
        quot = module_quotient(M.relations, {i: ring.one()})
        acc = quot if acc is None else ideal_intersection(acc, quot)
    assert all(_kills(a, M) for a in acc.generators), "annihilator generator fails to kill M"
    return acc


def is_nonzerodivisor_modulo(f, I: IdealBasis) -> bool:
    """f is a nonzerodivisor modulo I iff (I : f) = I."""
    return ideal_quotient(I, f) == I


def _regular_walk(fs, order):
    """(ok, failing position 1-based, witness) for fs taken in `order`; the
    witness is the first element of the reduced basis of (I : f_i) outside
    I, as `SequenceReport` documents."""
    for pos, i in enumerate(order, start=1):
        if is_unit(fs[i]):
            return False, pos, None
        prefix = IdealBasis(fs[i].ring, [fs[j] for j in order[:pos - 1]])
        if not is_nonzerodivisor_modulo(fs[i], prefix):
            quotient = ideal_quotient(prefix, fs[i])
            return False, pos, next(g for g in quotient.reduced_gb if not prefix.contains(g))
    return True, None, None


def sequence_reports(fs):
    """(is_regular_sequence report, is_A_sequence report) of fs, each order
    walked afresh in itertools.permutations order."""
    fs = tuple(fs)
    ok, idx, wit = _regular_walk(fs, range(len(fs)))
    regular = SequenceReport(fs, ok, failing_index=idx, witness=wit)
    if not ok:
        return regular, SequenceReport(fs, False, False, fs, idx, wit)
    for perm in permutations(range(len(fs))):
        ok, idx, wit = _regular_walk(fs, perm)
        if not ok:
            return regular, SequenceReport(fs, True, False, tuple(fs[i] for i in perm), idx, wit)
    return regular, SequenceReport(fs, True, True)


def admissible_inductive(mc, failures, prefix):
    """The inductive strategy recursing into both faces in the first label's
    direction, then testing that direction's boundaries, then H_0 in it when
    all of these hold; failures appended under `prefix`."""
    if not mc.labels:
        return True
    s = mc.labels[0]
    rest = frozenset(mc.labels) - {s}
    ok = True
    for V, tag in ((frozenset(), "front"), (frozenset({s}), "back")):
        if not admissible_inductive(restrict(mc, rest, V), failures, f"{prefix}{tag}^{s}·"):
            ok = False
    for T in restrict(mc, rest, frozenset()).subsets():
        if not _mod_injective(mc.d(T | {s}, s), mc.vertex(T | {s}), mc.vertex(T)):
            failures.append(f"{prefix}boundary d^{s}_{{{subset_key(T | {s})}}} is not injective")
            ok = False
    if ok and not admissible_inductive(_h0_modcube(mc, s), failures, f"{prefix}H0^{s}·"):
        ok = False
    return ok


def admissible_definition(mc, applied, memo):
    """(ok, failures) of the definition strategy on the H_0 cube `mc`,
    reached by applying the directions `applied`: every boundary is tested
    for injectivity, then H_0 in every direction when all are injective.
    memo maps a set of applied directions to the (ok, failures) of its
    cube."""
    failures = []
    for T in mc.subsets():
        for k in sorted(T):
            if not _mod_injective(mc.d(T, k), mc.vertex(T), mc.vertex(T - {k})):
                failures.append(f"boundary d^{k}_{{{subset_key(T)}}} is not injective")
    if failures:
        return False, tuple(failures)
    ok = True
    for k in mc.labels:
        key = applied | {k}
        if key not in memo:
            memo[key] = admissible_definition(_h0_modcube(mc, k), key, memo)
        sub_ok, sub_failures = memo[key]
        ok = ok and sub_ok
        failures += [f"H0^{k}·{f}" for f in sub_failures]
    return ok, tuple(failures)


def admissible_spherical(x, fixed, memo):
    """(ok, failures) of the spherical_faces strategy on the face `x`, whose
    vertex at A is the input's vertex at A ∪ fixed: Tot(x) is 0-spherical
    and both faces in every direction are, recursively.  memo maps a face,
    as (its labels, fixed), to its (ok, failures)."""
    if not x.labels:
        return True, ()
    failures = []
    bad = _nonexact_degree(*_total_complex(x), x.ring)
    if bad is not None:
        failures.append(f"Tot is not 0-spherical: H_{bad} is nonzero")
    ok = bad is None
    S = frozenset(x.labels)
    for k in x.labels:
        for V, tag in ((frozenset(), "front"), (frozenset({k}), "back")):
            key = (S - {k}, fixed | V)
            if key not in memo:
                memo[key] = admissible_spherical(restrict(x, S - {k}, V), fixed | V, memo)
            sub_ok, sub_failures = memo[key]
            ok = ok and sub_ok
            failures += [f"{tag}^{k}·{f}" for f in sub_failures]
    return ok, tuple(failures)


def admissibility(x, strategy):
    """`is_admissible(x, strategy)`: "inductive" and "spherical_faces"
    recursing into back faces, "definition" testing every boundary."""
    if strategy == "spherical_faces":
        _require_free(x)
        ok, failures = admissible_spherical(x, frozenset(), {})
    elif strategy == "definition":
        _require_valid(x)
        ok, failures = admissible_definition(x, frozenset(), {})
    else:
        _require_valid(x)
        failures = []
        ok = admissible_inductive(x, failures, "")
    return Report(ok, tuple(failures), {"strategy": strategy})


def vertex_supported(z, T, f):
    """Is the vertex of z at T supported on V(f)?"""
    return supported_on(z.vertex(T), f)


def resolution_verify(inp, perm_cap=6):
    """`inp.verify(perm_cap)` testing support on V(f_u) at every vertex of
    each target and on V(f_v) at every vertex of each H_0^v."""
    failures = []
    seq = [inp.fs[s] for s in inp.U + inp.V]
    if seq and not is_A_sequence(seq, perm_cap=perm_cap).a_sequence:
        failures.append("the sequence over U ∪ V is not an A-sequence")
    for j, z in enumerate(inp.targets):
        rep = validate_cube(z)
        if not rep.ok:
            failures.append(f"target {j} is not a valid module cube: {rep.failures[0]}")
            continue
        _admissible_inductive(z, failures, f"target {j}: ")
        for u in inp.U:
            for T in z.subsets():
                if not vertex_supported(z, T, inp.fs[u]):
                    failures.append(
                        f"target {j}: vertex {{{subset_key(T)}}} is not supported on V(f_{u})")
        for v in inp.V:
            H = _h0_modcube(z, v)
            for T in label_subsets(H.labels):
                if not vertex_supported(H, T, inp.fs[v]):
                    failures.append(
                        f"target {j}: H_0^{v} at {{{subset_key(T)}}} is not supported on V(f_{v})")
    for i, w in enumerate(inp.connecting):
        failures += [f"connecting square at {{{subset_key(T)}}} direction {k} fails" if k else
                     f"connecting map does not preserve relations at {{{subset_key(T)}}}"
                     for T, k in _morphism_failures(w, inp.targets[i], inp.targets[i + 1])]
    return Report(not failures, tuple(failures))


def resolution_exponents(inp, cap=64):
    """`find_exponents(inp, cap)` of an input verify() accepts: m_u the
    largest over every vertex of every target, m_v over H_0(Tot) of each
    target as `_h0_over` presents it."""
    out = {u: max(min_annihilating_power(inp.fs[u], z.vertex(T), cap)
                  for z in inp.targets for T in z.subsets()) for u in inp.U}
    for v in inp.V:
        out[v] = max(min_annihilating_power(inp.fs[v], _h0_over(z, z.labels).vertex(()), cap)
                     for z in inp.targets)
    return out


def exact_division(numer: Poly, denom: Poly):
    """numer / denom when denom divides numer exactly; None otherwise.

    Plain long division by a single divisor: whenever denom | numer the
    leading term of the running remainder stays divisible, so a single
    non-divisible leading term proves inexactness.  Divisibility is the
    guard-bit test of `_Terms`, and a quotient term's key is the difference
    of the keys.
    """
    if denom.is_zero():
        return None
    ring = numer.ring
    if denom.ring != ring:
        raise RingMismatchError("division across different rings")
    field, layout = ring.field, ring.layout
    desc, guard = layout.desc, layout.guard
    dk = denom._lead()
    dinv = field.inv(denom.keys[dk])
    rem = dict(numer.keys)
    q: dict = {}
    while rem:
        rk = desc ^ min([k ^ desc for k in rem])
        if ((rk | guard) - dk) & guard != guard:
            return None
        qk = rk - dk
        qc = q[qk] = field.mul(rem[rk], dinv)
        _add_scaled(rem, denom.keys, qk, field.neg(qc), field, layout.overflow)
    return _poly(ring, q)


def determinant(x):
    """`koszul.determinant(x)` with coherence decided by exact division: the
    ratio of each boundary determinant to the top one in its direction must
    exist and be a unit."""
    _require_free(x)
    ranks = {M.rank for M in x.vertices.values()}
    if len(ranks) > 1:
        return {}, Report(False, (f"vertices do not share a rank: {sorted(ranks)}",))
    S = frozenset(x.labels)
    det = {(T, k): determinant_of_square(x.d(T, k)) for T in x.subsets() for k in sorted(T)}
    dets = {k: det[(S, k)] for k in x.labels}
    failures = [f"det d^{k} at {{{subset_key(S)}}} is zero" for k in x.labels if dets[k].is_zero()]
    for (T, k), dT in det.items():
        if T == S or dets[k].is_zero():
            continue
        q = exact_division(dT, dets[k])
        if q is None or not is_unit(q):
            failures.append(
                f"det d^{k} at {{{subset_key(T)}}} is not a unit multiple of the top determinant")
    return dets, Report(not failures, tuple(failures))
