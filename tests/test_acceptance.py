"""End-to-end acceptance gates, one test per criterion.

Each test prints a single PASS line (visible under -s) with the measured
counts and timings; under plain -v the test id itself is the per-criterion
verdict line.  All randomized material comes from the seeded families in
_gen.py, so every run exercises the same instances.
"""

import itertools
import time

import pytest

import _gen
from koszul_lab.arith import RingSpec
from koszul_lab.cube import (
    Cube,
    _h0_modcube,
    _h0_over,
    degenerate_directions,
    is_admissible,
    iterated_h0,
    restrict,
    total_complex,
)
from koszul_lab.groebner import IdealBasis, SubmoduleBasis
from koszul_lab.koszul import (
    be_acyclicity,
    det_is_a_sequence,
    determinant,
    factor_sequence_check,
    is_A_sequence,
    is_koszul_cube,
    is_regular_sequence,
    typical_cube,
)
from koszul_lab.modcalc import (
    FPModule,
    FreeMap,
    homology,
    is_zero_module,
    zero_spherical,
)
from koszul_lab.resolve import (
    ResolutionInput,
    check_resolution,
    koszul_resolve,
)

STRATEGIES = ("definition", "spherical_faces", "inductive")


def report(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


def modules_equal(a, b):
    return a.rank == b.rank and a.relations == b.relations


@pytest.fixture(scope="module")
def koszul_cubes():
    """The 100-cube seeded Koszul family plus its generation wall time."""
    t0 = time.perf_counter()
    suite = _gen.koszul_suite(100)
    return suite, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. reference computation
# ---------------------------------------------------------------------------

def test_criterion_1_typical_xyz_homology():
    t0 = time.perf_counter()
    R = RingSpec(101, ("x", "y", "z"))
    x, y, z = R.gens()
    tot = total_complex(typical_cube((x, y, z)))
    h0 = homology(tot, 0)
    assert h0.rank == 1
    assert h0.relations == SubmoduleBasis(R, 1, [(x,), (y,), (z,)])
    for k in (1, 2, 3):
        assert is_zero_module(homology(tot, k)), f"H_{k} is nonzero"
    dt = time.perf_counter() - t0
    assert dt < 2.0, f"took {dt:.2f}s"
    report(1, f"H0 = A/(x,y,z) and H1..H3 = 0 over GF(101) in {dt:.2f}s (< 2s)")


# ---------------------------------------------------------------------------
# 2. strategy agreement
# ---------------------------------------------------------------------------

def test_criterion_2_strategy_agreement(koszul_cubes):
    suite, _ = koszul_cubes
    cubes = [(c, True) for c, _fs in suite]
    cubes += [(c, True) for c in _gen.identity_padded_suite(50)]
    cubes += [(c, False) for c in _gen.perturbed_suite(50)]
    assert len(cubes) >= 200
    disagreements = 0
    for i, (c, expected) in enumerate(cubes):
        verdicts = {s: is_admissible(c, strategy=s).ok for s in STRATEGIES}
        if len(set(verdicts.values())) != 1:
            disagreements += 1
        assert verdicts["definition"] is expected, (i, verdicts)
    assert disagreements == 0
    report(2, f"3 strategies agreed on all {len(cubes)} cubes "
              "(koszul + identity-padded + perturbed), 0 disagreements")


# ---------------------------------------------------------------------------
# 3. koszul implies admissible and 0-spherical
# ---------------------------------------------------------------------------

def test_criterion_3_koszul_implies_admissible(koszul_cubes):
    suite, gen_time = koszul_cubes
    t0 = time.perf_counter()
    assert len(suite) >= 100
    for i, (c, fs) in enumerate(suite):
        assert len(c.labels) <= 3
        assert all(r <= 4 for r in c.vertex_rank.values())
        for T in c.subsets():
            for k in sorted(T):
                assert all(e.total_degree() <= 2 for row in c.d(T, k).entries for e in row)
        assert is_admissible(c).ok, (i, "not admissible")
        assert zero_spherical(total_complex(c)) is True, (i, "Tot not 0-spherical")
    dt = gen_time + (time.perf_counter() - t0)
    assert dt < 300.0, f"took {dt:.1f}s"
    report(3, f"{len(suite)} random cubes (|S|<=3, rank<=4, deg<=2): all "
              f"admissible with 0-spherical Tot in {dt:.1f}s (< 5 min)")


# ---------------------------------------------------------------------------
# 4. rank criterion vs homology
# ---------------------------------------------------------------------------

def test_criterion_4_be_matches_homology():
    complexes = _gen.complex_suite(100)
    assert len(complexes) >= 100
    verdicts = {True: 0, False: 0}
    for i, c in enumerate(complexes):
        be = be_acyclicity(c).ok
        direct = zero_spherical(c)
        assert be is direct, (i, be, direct)
        verdicts[be] += 1
    assert verdicts[True] and verdicts[False], "suite failed to exercise both verdicts"
    report(4, f"rank-criterion verdict matched homology on all {len(complexes)} "
              f"complexes ({verdicts[True]} acyclic / {verdicts[False]} not)")


# ---------------------------------------------------------------------------
# 5. determinant coherence and determinant sequences
# ---------------------------------------------------------------------------

def test_criterion_5_determinants(koszul_cubes):
    suite, _ = koszul_cubes
    nondegenerate = 0
    for i, (c, fs) in enumerate(suite):
        dets, coherence = determinant(c)
        assert coherence.ok, (i, coherence.failures)
        assert set(dets) == set(c.labels)
        if not degenerate_directions(c):
            nondegenerate += 1
            assert det_is_a_sequence(c) is True, i
    report(5, f"unit-ratio coherence on all {len(suite)} cubes; determinant "
              f"A-sequence verified on all {nondegenerate} non-degenerate ones")


# ---------------------------------------------------------------------------
# 6. iterated H0 is order-independent and matches H0(Tot)
# ---------------------------------------------------------------------------

def test_criterion_6_iterated_h0(koszul_cubes):
    suite, _ = koszul_cubes
    checked = 0
    for i, (c, fs) in enumerate(suite):
        for size in range(1, min(3, len(c.labels)) + 1):
            for T in itertools.combinations(c.labels, size):
                y = iterated_h0(c, list(T))
                for order in itertools.permutations(T):
                    other = c
                    for k in order:
                        other = _h0_modcube(other, k)
                    assert all(modules_equal(y.vertex(W), other.vertex(W))
                               for W in y.subsets()), (i, T, order, "orders disagree")
                rest = [lab for lab in c.labels if lab not in T]
                for wsize in range(len(rest) + 1):
                    for W in itertools.combinations(rest, wsize):
                        direct = homology(
                            total_complex(restrict(c, list(T), list(W))), 0)
                        assert modules_equal(y.vertex(frozenset(W)), direct), (i, T, W)
                checked += 1
    report(6, f"iterated H0 agreed across all orders and with H0(Tot) on "
              f"{checked} direction-sets over {len(suite)} cubes")


# ---------------------------------------------------------------------------
# 7. regular vs A-sequence discrimination, factor lemma
# ---------------------------------------------------------------------------

def test_criterion_7_sequence_discrimination():
    R = RingSpec("Q", ("x", "y", "z"))
    x, y, z = R.gens()
    one = R.one()
    fs = [x, y * (one - x), z * (one - x)]

    assert is_regular_sequence(fs).regular is True
    rep = is_A_sequence(fs)
    assert rep.a_sequence is False
    assert rep.failing_permutation is not None and rep.witness is not None
    # re-verify the witness: w kills the failing entry modulo its
    # predecessors without lying in the predecessor ideal itself
    i = rep.failing_index
    prior = IdealBasis(R, rep.failing_permutation[:i - 1])
    assert prior.contains(rep.witness * rep.failing_permutation[i - 1])
    assert not prior.contains(rep.witness)

    good = is_A_sequence([x ** 2, y ** 3])
    assert good.regular is True and good.a_sequence is True

    pairs = _gen.factor_pairs(100)
    assert len(pairs) >= 100
    applicable = 0
    for k, (seq_f, seq_g) in enumerate(pairs):
        out = factor_sequence_check(seq_f, seq_g)
        hyp = out.info["hypothesis_a_sequence"]
        con = out.info["conclusion_a_sequence"]
        assert not (hyp and not con), (k, "factor lemma violated")
        if hyp:
            applicable += 1
    assert applicable >= 25, "suite failed to exercise the non-vacuous case"
    report(7, f"counterexample discriminated with verified witness; factor "
              f"lemma held on {len(pairs)} pairs ({applicable} non-vacuous)")


# ---------------------------------------------------------------------------
# 8. resolutions
# ---------------------------------------------------------------------------

def _kills(f, module, power):
    g = f ** power
    zero = module.ring.zero()
    return all(
        module.relations.contains_vector(
            tuple(g if j == i else zero for j in range(module.rank)))
        for i in range(module.rank))


def _verify_minimal_exponents(inp, out):
    for u in inp.U:
        f, m = inp.fs[u], out.exponents[u]
        targets = [z.vertex(T) for z in inp.targets for T in z.subsets()]
        assert all(_kills(f, M, m) for M in targets)
        if m > 1:
            assert not all(_kills(f, M, m - 1) for M in targets), (u, "not minimal")
    for v in inp.V:
        f, m = inp.fs[v], out.exponents[v]
        hs = [_h0_over(z, z.labels).vertex(()) for z in inp.targets]
        assert all(_kills(f, H, m) for H in hs)
        if m > 1:
            assert not all(_kills(f, H, m - 1) for H in hs), (v, "not minimal")


def _worked_examples():
    R = RingSpec("Q", ("x", "y"))
    x, y = R.gens()
    E, S1, S2, S12 = (frozenset(), frozenset({"1"}), frozenset({"2"}),
                      frozenset({"1", "2"}))
    cyclic = FPModule(R, 1, SubmoduleBasis(R, 1, [(x ** 2,)]))
    one_cube = Cube(R, ("1",), {E: 1, S1: 1},
                    {(S1, "1"): FreeMap(R, [[x ** 2]])})
    a, b = x ** 2, y
    square = Cube(R, ("1", "2"), {E: 1, S1: 1, S2: 1, S12: 1},
                  {(S1, "1"): FreeMap(R, [[a]]), (S12, "1"): FreeMap(R, [[a]]),
                   (S2, "2"): FreeMap(R, [[b]]), (S12, "2"): FreeMap(R, [[b]])})
    return [
        (ResolutionInput({"1": x}, ["1"], [], [cyclic]), {"1": 2}),
        (ResolutionInput({"1": x}, [], ["1"], [one_cube]), {"1": 2}),
        (ResolutionInput({"1": x, "2": y}, [], ["1", "2"], [square]),
         {"1": 2, "2": 1}),
    ]


def test_criterion_8_resolutions():
    t0 = time.perf_counter()
    solved = 0
    for inp, expected in _worked_examples():
        out = koszul_resolve(inp)
        assert dict(out.exponents) == expected
        assert check_resolution(out, inp).ok
        _verify_minimal_exponents(inp, out)
        solved += 1
    problems = _gen.resolve_problems(20)
    assert len(problems) >= 20
    for i, inp in enumerate(problems):
        out = koszul_resolve(inp)
        rep = check_resolution(out, inp)
        assert rep.ok, (i, rep.failures)
        _verify_minimal_exponents(inp, out)
        solved += 1
    dt = time.perf_counter() - t0
    assert dt < 120.0, f"took {dt:.1f}s"
    report(8, f"{solved} resolutions verified with minimal exponents "
              f"in {dt:.1f}s (< 2 min)")


# ---------------------------------------------------------------------------
# 9. output stability
# ---------------------------------------------------------------------------

def test_criterion_9_output_stability():
    import test_cli

    reruns = 0
    for name, args, infile, want_code in (test_cli.CROSS_ORDER_CASES
                                          + test_cli.FIXED_ORDER_CASES):
        reference = test_cli.golden_out(name)
        for _ in range(2):
            out, code = test_cli.run(*args, "--input", test_cli.golden_in(infile))
            assert code == want_code
            assert out == reference, f"{name}: output drifted between runs"
        reruns += 1
    cross = 0
    for name, args, infile, want_code in test_cli.CROSS_ORDER_CASES:
        reference = test_cli.golden_out(name)
        for order in ("grevlex", "lex", "grlex"):
            out, code = test_cli.run(*args, "--input", test_cli.golden_in(infile),
                                     "--order", order)
            assert code == want_code
            assert out == reference, f"{name}: output drifted under --order {order}"
        cross += 1
    report(9, f"byte-stable goldens: {reruns} commands x 2 consecutive runs; "
              f"{cross} order-independent commands x 3 orders")


# ---------------------------------------------------------------------------
# 10. the theorems on non-linear A-sequences
# ---------------------------------------------------------------------------

def test_criterion_10_nonlinear_a_sequences():
    t0 = time.perf_counter()
    suite = _gen.nonlinear_koszul_suite(6)
    assert len(suite) == 24
    for i, (c, fs) in enumerate(suite):
        assert len(c.labels) == 3 and all(r <= 3 for r in c.vertex_rank.values())
        assert is_koszul_cube(c, fs).is_koszul, (i, "not Koszul")
        for s in STRATEGIES:
            assert is_admissible(c, strategy=s).ok, (i, s)
        assert det_is_a_sequence(c), (i, "determinants not an A-sequence")
    dt = time.perf_counter() - t0
    report(10, f"{len(suite)} cubes on non-linear A-sequences (|S|=3, rank<=3, Q and "
               f"GF(101)): Koszul, admissible by all 3 strategies, determinants an "
               f"A-sequence, in {dt:.2f}s")
