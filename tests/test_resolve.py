"""Resolution of module cubes by sums of typical cubes.

The three small worked examples have fully hand-computed outputs (epis,
multiplicities, exponents); they are frozen byte-for-byte so the assembly
order of summands cannot drift silently.
"""

import itertools
import sys

import pytest

import _reference
from koszul_lab.arith import RingSpec, parse_poly
from koszul_lab.cube import Cube, ModCube, _h0_over, label_subsets, subset_key
from koszul_lab.groebner import SubmoduleBasis
from koszul_lab.koszul import random_koszul, typical_cube
from koszul_lab.modcalc import (CapExceededError, FPModule, FreeMap, LiftError,
                                _graph_coordinates)
from koszul_lab.resolve import (
    ResolutionInput,
    ResolutionOutput,
    ResolutionStage,
    _resolve_cube,
    _typical_sum_cube,
    check_resolution,
    find_exponents,
    koszul_resolve,
)
from _gen import resolve_problems

Q2 = RingSpec("Q", ("x", "y"))
X, Y = Q2.gens()

E = frozenset()
S1 = frozenset({"1"})
S2 = frozenset({"2"})
S12 = frozenset({"1", "2"})


def P(s, ring=Q2):
    return parse_poly(s, ring)


def entries(m: FreeMap):
    return [[str(p) for p in row] for row in m.entries]


def moduli(out, inp):
    """g_s = f_s^{m_s} for the exponents of out."""
    return {s: inp.fs[s] ** m for s, m in out.exponents.items()}


def cover(out, inp, i=0):
    """The covering cube of stage i, built from its multiplicities as
    check_resolution builds it."""
    g = moduli(out, inp)
    return _typical_sum_cube(inp.ring, inp.targets[i].labels, g, out.stages[i].multiplicities,
                             [g[u] for u in inp.U])


def cyclic(rel, ring=Q2):
    return FPModule(ring, 1, SubmoduleBasis(ring, 1, [(parse_poly(rel, ring),)]))


def free1(ring=Q2):
    return FPModule.free(ring, 1)


def one_cube(d_entry, vertex=None, ring=Q2):
    v = vertex if vertex is not None else free1(ring)
    return ModCube(ring, ("1",), {E: v, S1: v},
                   {(S1, "1"): FreeMap(ring, [[parse_poly(d_entry, ring)]])})


def square_cube(d1, d2, ring=Q2):
    v = free1(ring)
    a, b = parse_poly(d1, ring), parse_poly(d2, ring)
    return ModCube(ring, ("1", "2"), {E: v, S1: v, S2: v, S12: v},
                   {(S1, "1"): FreeMap(ring, [[a]]),
                    (S2, "2"): FreeMap(ring, [[b]]),
                    (S12, "1"): FreeMap(ring, [[a]]),
                    (S12, "2"): FreeMap(ring, [[b]])})


# --------------------------------------------------------------------------
# worked examples (hand-verified outputs, frozen)
# --------------------------------------------------------------------------

def test_resolve_module_example():
    inp = ResolutionInput({"1": X}, ["1"], [], [cyclic("x^2")])
    out = koszul_resolve(inp)
    assert out.exponents == {"1": 2}
    assert str(moduli(out, inp)["1"]) == "x^2"
    stage = out.stages[0]
    assert stage.multiplicities == {E: 1}
    assert entries(stage.epi[E]) == [["1"]]
    assert cover(out, inp).vertex(E).relations.contains_vector((X * X,))
    assert check_resolution(out, inp).ok


def test_resolve_one_cube_example():
    inp = ResolutionInput({"1": X}, [], ["1"], [one_cube("x^2")])
    out = koszul_resolve(inp)
    assert out.exponents == {"1": 2}
    stage = out.stages[0]
    assert stage.multiplicities == {S1: 1, E: 1}
    assert entries(stage.epi[S1]) == [["1", "1"]]
    assert entries(stage.epi[E]) == [["1", "x^2"]]
    assert entries(cover(out, inp).d(S1, "1")) == [["x^2", "0"], ["0", "1"]]
    assert cover(out, inp).vertex(E).relations.is_zero_submodule()  # U is empty
    assert check_resolution(out, inp).ok


def test_resolve_square_example():
    inp = ResolutionInput({"1": X, "2": Y}, [], ["1", "2"], [square_cube("x^2", "y")])
    out = koszul_resolve(inp)
    assert out.exponents == {"1": 2, "2": 1}
    g = moduli(out, inp)
    assert str(g["1"]) == "x^2" and str(g["2"]) == "y"
    stage = out.stages[0]
    assert stage.multiplicities == {S12: 1, S1: 1, S2: 1, E: 1}
    assert entries(stage.epi[S12]) == [["1", "1", "1", "1"]]
    assert entries(stage.epi[S1]) == [["1", "y", "1", "y"]]
    assert entries(stage.epi[S2]) == [["1", "1", "x^2", "x^2"]]
    assert entries(stage.epi[E]) == [["1", "y", "x^2", "x^2*y"]]
    # the covering cube is the diagonal sum of typical cubes, summands ordered
    # contains-1-first then contains-2-first
    y = cover(out, inp)
    assert entries(y.d(S12, "1")) == [
        ["x^2", "0", "0", "0"], ["0", "x^2", "0", "0"],
        ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    assert entries(y.d(S12, "2")) == [
        ["y", "0", "0", "0"], ["0", "1", "0", "0"],
        ["0", "0", "y", "0"], ["0", "0", "0", "1"]]
    assert check_resolution(out, inp).ok


def test_resolve_mixed_u_and_v():
    # target is a 1-cube over B = A/(y^3): vertex relations y^3, boundary x^2
    B = cyclic("y^3")
    z = one_cube("x^2", vertex=B)
    inp = ResolutionInput({"1": X, "2": Y}, ["2"], ["1"], [z])
    out = koszul_resolve(inp)
    assert out.exponents == {"1": 2, "2": 3}
    # the covering cube carries g_U = y^3 as vertex relations
    assert cover(out, inp).vertex(E).relations.contains_vector((Y ** 3, Q2.zero()))
    assert check_resolution(out, inp).ok


def test_resolve_rank2_vertex():
    rels = SubmoduleBasis(Q2, 2, [(X * X, Q2.zero()), (Q2.zero(), X)])
    M = FPModule(Q2, 2, rels)
    inp = ResolutionInput({"1": X}, ["1"], [], [M])
    out = koszul_resolve(inp)
    assert out.exponents == {"1": 2}
    assert out.stages[0].multiplicities == {E: 2}
    assert check_resolution(out, inp).ok


# --------------------------------------------------------------------------
# exponents
# --------------------------------------------------------------------------

def test_find_exponents_is_minimal():
    inp = ResolutionInput({"1": X, "2": Y}, [], ["1", "2"], [square_cube("x^2", "y")])
    assert find_exponents(inp) == {"1": 2, "2": 1}
    with pytest.raises(CapExceededError):
        find_exponents(ResolutionInput({"1": X}, ["1"], [], [cyclic("x^4")]), cap=3)


def test_find_exponents_rejects_bad_input():
    with pytest.raises(ValueError):
        # y does not kill A/(x^2) in any power
        find_exponents(ResolutionInput({"1": Y}, ["1"], [], [cyclic("x^2")]))


# --------------------------------------------------------------------------
# failure paths
# --------------------------------------------------------------------------

def test_resolve_rejects_non_a_sequence():
    inp = ResolutionInput({"1": X, "2": X * Y}, [], ["1", "2"],
                          [square_cube("x", "x*y")])
    with pytest.raises(ValueError):
        koszul_resolve(inp)


def test_resolve_rejects_noninjective_boundary():
    z = ModCube(Q2, ("1",), {E: free1(), S1: free1()},
                {(S1, "1"): FreeMap.zero(Q2, 1, 1)})
    with pytest.raises(ValueError):
        koszul_resolve(ResolutionInput({"1": X}, [], ["1"], [z]))


def test_resolve_cube_lift_error_when_power_too_small():
    # g = x does not kill H_0 of [A --x^2--> A]; the s-step must refuse
    z = one_cube("x^2")
    with pytest.raises(LiftError):
        _resolve_cube(z, {"1": X})


def _with_exponent(out, u, delta):
    """out with the exponent of u moved by delta; the epis and lifted maps
    are kept, so the covering cubes are rebuilt over the new modulus."""
    return ResolutionOutput({**out.exponents, u: out.exponents[u] + delta}, out.stages,
                            out.connecting)


def test_base_case_checks_annihilation():
    # the base case covers A/(x^2) by the identity of A^1, a map of modules
    # from A/(g_u) only when g_u kills A/(x^2): check (a) tests that, not
    # _resolve_cube
    inp = ResolutionInput({"1": X}, ["1"], [], [cyclic("x^2")])
    epi, mult = _resolve_cube(inp.targets[0], {})
    assert check_resolution(ResolutionOutput({"1": 1}, (ResolutionStage(epi, mult),), ()),
                            inp).failures == ("(a) stage 0: epi at {} does not preserve relations",)
    # on every resolved U problem whose exponent can go down: one less is
    # refused at every vertex of every stage, one more is a valid resolution
    lowered = 0
    for i, inp in enumerate(resolve_problems()):
        out = koszul_resolve(inp)
        for u in inp.U:
            if out.exponents[u] > 1:
                want = [f"(a) stage {j}: epi at {{{subset_key(T)}}} does not preserve relations"
                        for j, z in enumerate(inp.targets) for T in z.subsets()]
                assert list(check_resolution(_with_exponent(out, u, -1), inp).failures) == want, i
                assert check_resolution(_with_exponent(out, u, 1), inp).ok, i
                lowered += 1
    assert lowered == 6


def test_verify_reports_defect_two_h0_levels_down():
    # Typ(x, y, x+y): every boundary and every H_0^k boundary is injective,
    # but on H_0^1 H_0^2 = A/(x, y) the third boundary x+y is zero
    Q3 = RingSpec("Q", ("x", "y", "z"))
    x, y, z = Q3.gens()
    inp = ResolutionInput({"1": x, "2": y, "3": z}, [], ["1", "2", "3"],
                          [typical_cube([x, y, x + y])])
    failures = inp.verify().failures
    defect = "target 0: H0^1·H0^2·boundary d^3_{3} is not injective"
    assert defect in failures
    assert [f for f in failures if "not supported" not in f] == [defect]
    with pytest.raises(ValueError, match="not injective"):
        koszul_resolve(inp)


def test_input_shape_validation():
    with pytest.raises(ValueError):
        ResolutionInput({"1": X}, ["1"], [], [])  # no targets
    with pytest.raises(ValueError):
        ResolutionInput({"1": X}, ["1"], [], [cyclic("x"), cyclic("x"), cyclic("x")])
    with pytest.raises(ValueError):
        ResolutionInput({}, [], ["1"], [one_cube("x^2")])  # fs misses label 1
    with pytest.raises(ValueError):
        # module target but V nonempty
        ResolutionInput({"1": X}, [], ["1"], [cyclic("x^2")])
    with pytest.raises(ValueError):
        # chain of two targets needs exactly one connecting map
        ResolutionInput({"1": X}, [], ["1"],
                        [one_cube("x^2"), one_cube("x^2")], connecting=[])


R101 = RingSpec(101, ("x", "y"))


@pytest.mark.parametrize("make, message", [
    (lambda: ResolutionInput({"1": X}, ["1", "1"], [], [cyclic("x")]),
     'label "1" is repeated in U'),
    (lambda: ResolutionInput({"1": X, "2": Y}, ["2"], ["1", "1"], [one_cube("x^2")]),
     'label "1" is repeated in V'),
    (lambda: ResolutionInput({"1": X}, ["1"], ["1"], [one_cube("x^2")]),
     "U and V must be disjoint"),
    (lambda: ResolutionInput({"1": X, "2": Y}, [], ["2"], [one_cube("x^2")]),
     r"target labels \['1'\] must equal V \['2'\]"),
    (lambda: ResolutionInput({"1": X}, [], ["1"], [one_cube("x^2"), one_cube("x^2", ring=R101)]),
     "targets must share one ring"),
    (lambda: ResolutionInput({"1": R101.gens()[0]}, [], ["1"], [one_cube("x^2")]),
     "sequence ring mismatch"),
    (lambda: ResolutionInput({"1": X}, [], ["1"], [one_cube("x^2"), one_cube("x^2")],
                             connecting=[{E: FreeMap.identity(Q2, 1)}]),
     "connecting map must cover every vertex"),
    (lambda: ResolutionInput({"1": X}, [], ["1"], [one_cube("x^2"), one_cube("x^2")],
                             connecting=[{E: FreeMap.identity(Q2, 1), S1: FreeMap.zero(Q2, 2, 1)}]),
     r"connecting map shape mismatch at \{1\}"),
])
def test_input_structural_refusals(make, message):
    # the structural refusals test_input_shape_validation does not reach,
    # with their messages; the CLI reader refuses such documents before
    # they get here
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_verify_reports_an_invalid_target_cube():
    # a square whose two paths to the empty vertex are y·x and x·(y + 1)
    one = free1()
    z = ModCube(Q2, ("1", "2"), {E: one, S1: one, S2: one, S12: one},
                {(S1, "1"): FreeMap(Q2, [[X]]), (S2, "2"): FreeMap(Q2, [[Y]]),
                 (S12, "1"): FreeMap(Q2, [[X]]), (S12, "2"): FreeMap(Q2, [[Y + Q2.one()]])})
    failures = ResolutionInput({"1": X, "2": Y}, [], ["1", "2"], [z]).verify().failures
    assert failures == ("target 0 is not a valid module cube: "
                        "square at {1,2} in directions 1,2 does not commute",)


# --------------------------------------------------------------------------
# chains (two targets + one connecting map)
# --------------------------------------------------------------------------

def chain_input(w0, w1):
    z0 = one_cube("x^2")
    z1 = one_cube("x^2")
    w = {E: FreeMap(Q2, [[P(w0)]]), S1: FreeMap(Q2, [[P(w1)]])}
    return ResolutionInput({"1": X}, [], ["1"], [z0, z1], connecting=[w])


def test_chain_identity_connecting():
    inp = chain_input("1", "1")
    out = koszul_resolve(inp)
    assert len(out.stages) == 2 and len(out.connecting) == 1
    assert check_resolution(out, inp).ok


def test_chain_scalar_connecting():
    inp = chain_input("y", "y")
    out = koszul_resolve(inp)
    rep = check_resolution(out, inp)
    assert rep.ok, rep.failures


def test_chain_of_modules():
    m0, m1 = cyclic("x^2"), cyclic("x^2")
    w = {E: FreeMap(Q2, [[X]])}
    inp = ResolutionInput({"1": X}, ["1"], [], [m0, m1], connecting=[w])
    out = koszul_resolve(inp)
    assert check_resolution(out, inp).ok
    # the lifted map composed with the epi equals w on generators mod relations
    lifted = out.connecting[0][E]
    q1 = out.stages[1].epi[E]
    q0 = out.stages[0].epi[E]
    diff = q1.compose(lifted) - w[E].compose(q0)
    assert m1.relations.contains_vector(diff.cols[0])


def test_chain_rejects_broken_square():
    z0 = one_cube("x^2")
    z1 = one_cube("x^2")
    w = {E: FreeMap(Q2, [[Q2.one()]]), S1: FreeMap(Q2, [[Y]])}  # x^2*y != 1*x^2
    with pytest.raises(ValueError):
        koszul_resolve(ResolutionInput({"1": X}, [], ["1"], [z0, z1], connecting=[w]))


def square_chain_input():
    z0 = square_cube("x^2", "y")
    z1 = square_cube("x^2", "y")
    w = {T: FreeMap(Q2, [[Y]]) for T in (E, S1, S2, S12)}
    return ResolutionInput({"1": X, "2": Y}, [], ["1", "2"], [z0, z1], connecting=[w])


def three_v_chain_input():
    Q3 = RingSpec("Q", ("x", "y", "z"))
    x, y, z = Q3.gens()
    t = typical_cube([x ** 2, y, z])
    w = {T: FreeMap(Q3, [[y]]) for T in label_subsets(t.labels)}
    return ResolutionInput({"1": x, "2": y, "3": z}, [], ["1", "2", "3"], [t, t],
                           connecting=[w])


def test_chain_square_example():
    # the two-direction chain exercises the recursive lift in both labels
    inp = square_chain_input()
    out = koszul_resolve(inp)
    rep = check_resolution(out, inp)
    assert rep.ok, rep.failures


def test_chain_three_v_labels():
    inp = three_v_chain_input()
    out = koszul_resolve(inp)
    rep = check_resolution(out, inp)
    assert rep.ok, rep.failures


def _lift_failures(inp, monkeypatch):
    """The LiftError messages of koszul_resolve(inp) when the n-th call of
    `_factor_through` made by `_lift_cube` finds no preimage for column 0,
    one run for each n up to the number of such calls."""
    import koszul_lab.resolve as resolve
    original = resolve._factor_through
    messages = []
    for fail_at in itertools.count(1):
        calls = []

        def factor(d, b, rel):
            if sys._getframe(1).f_code.co_name == "_lift_cube":
                calls.append(1)
                if len(calls) == fail_at:
                    return 0
            return original(d, b, rel)

        monkeypatch.setattr(resolve, "_factor_through", factor)
        try:
            koszul_resolve(inp)
        except LiftError as e:
            messages.append(str(e))
        if len(calls) < fail_at:
            return messages


def test_each_lift_step_names_where_it_failed(monkeypatch):
    # _lift_cube has three steps that can find no preimage: the base case,
    # the front solution through the boundary of y and the homotopy through
    # the boundary of z.  Each refusal names its vertex and direction
    base = "lift failed: column 0 has no preimage under the epi"
    front = "lift failed: front solution does not factor through the {}-boundary at {{{}}}"
    homotopy = "lift failed: homotopy defect escapes the {}-boundary image at {{{}}}"
    assert set(_lift_failures(resolve_problems()[4], monkeypatch)) == {
        base, front.format("1", ""), homotopy.format("1", "")}
    assert set(_lift_failures(square_chain_input(), monkeypatch)) == {
        base, front.format("1", ""), front.format("1", "2"), front.format("2", ""),
        homotopy.format("1", ""), homotopy.format("1", "2"), homotopy.format("2", "")}


# --------------------------------------------------------------------------
# more than two V-directions
# --------------------------------------------------------------------------

def test_three_v_labels_resolve():
    Q3 = RingSpec("Q", ("x", "y", "z"))
    x, y, z3 = Q3.gens()
    t = typical_cube([x, y, z3])
    inp = ResolutionInput({"1": x, "2": y, "3": z3}, [], ["1", "2", "3"], [t])
    out = koszul_resolve(inp)
    assert out.exponents == {"1": 1, "2": 1, "3": 1}
    assert out.stages[0].multiplicities == {T: 1 for T in label_subsets(("1", "2", "3"))}
    rep = check_resolution(out, inp)
    assert rep.ok, rep.failures


def _wide_v_cases(field):
    """(name, ResolutionInput, exponents) with |V| = 3 or 4: typical cubes,
    random Koszul cubes, and the module cube H_0^4 of a random Koszul 4-cube
    resolved with U = {4}."""
    R3 = RingSpec(field, ("x", "y", "z"))
    x, y, z = R3.gens()
    R4 = RingSpec(field, ("x", "y", "z", "w"))
    X, Y, Z, W = R4.gens()
    fs3 = {"1": x, "2": y, "3": z}
    cases = [("typ_xyz", ResolutionInput(fs3, [], ["1", "2", "3"], [typical_cube([x, y, z])]),
              {"1": 1, "2": 1, "3": 1}),
             ("typ_xyzw", ResolutionInput({"1": X, "2": Y, "3": Z, "4": W}, [],
                                          ["1", "2", "3", "4"], [typical_cube([X, Y, Z, W])]),
              {"1": 1, "2": 1, "3": 1, "4": 1})]
    for r, m in ((2, {"1": 1, "2": 1, "3": 1}), (3, {"1": 2, "2": 1, "3": 2})):
        c = random_koszul([x, y, z], r, 3, seed=r)
        cases.append((f"random_rank{r}", ResolutionInput(fs3, [], ["1", "2", "3"], [c]), m))
    fs4 = [X, Y ** 2 + X * Z, Z, W]
    h = _h0_over(random_koszul(fs4, 2, 3, seed=5), ["4"])
    cases.append(("h0_4_of_random", ResolutionInput(dict(zip("1234", fs4)), ["4"],
                                                    ["1", "2", "3"], [h]),
                  {"1": 2, "2": 2, "3": 1, "4": 2}))
    return cases


@pytest.mark.parametrize("field", ["Q", 101])
def test_resolve_three_and_four_v_labels(field):
    for name, inp, exponents in _wide_v_cases(field):
        out = koszul_resolve(inp)
        assert out.exponents == exponents, name
        rep = check_resolution(out, inp)
        assert rep.ok, (name, rep.failures)


# sha256 of `_resolution_transcript` over resolve_problems() and the |V| = 3-4
# cases over Q and then GF(101), as the dense row-major FreeMap printed it
# before matrices were stored by column.  No golden prints these epis and
# connecting maps, so this is what pins their coordinates.
RESOLUTION_TRANSCRIPT_SHA256 = "50bbe0352801cb898e4d85bb4c88fcd7ea338ba731a0c5a78f34cc7608fb59c6"


def _resolution_transcript(cases) -> list:
    """One line per epi and connecting map of each resolution: the case, the
    stage, the vertex and the matrix as printed, row by row."""
    def printed(m):
        return ("[" + "; ".join(", ".join(str(p) for p in row) for row in m.entries)
                + f"] {m.target_rank}x{m.source_rank}")

    lines = []
    for n, inp in enumerate(cases):
        out = koszul_resolve(inp)
        for s, stage in enumerate(out.stages):
            for T in sorted(stage.epi, key=subset_key):
                lines.append(f"{n} epi {s} {{{subset_key(T)}}} {printed(stage.epi[T])}")
        for s, t in enumerate(out.connecting):
            for T in sorted(t, key=subset_key):
                lines.append(f"{n} connecting {s} {{{subset_key(T)}}} {printed(t[T])}")
    return lines


def test_resolution_maps_are_pinned():
    import hashlib
    cases = resolve_problems() + [inp for field in ("Q", 101) for _, inp, _ in _wide_v_cases(field)]
    lines = _resolution_transcript(cases)
    assert len(cases) == 30 and len(lines) == 153
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RESOLUTION_TRANSCRIPT_SHA256


def _block_assembly_reference(ring, labels, g, mult, gU) -> Cube:
    """The covering cube assembled block by block along the induction on the
    first label v: the front face's summands (v ∈ T) resolve the front, the
    others the back, and the two are joined by d^v = diag(g_v·1, 1) and
    block_diag on every other direction."""
    if not labels:
        r = sum(mult.values())
        rels = SubmoduleBasis(ring, r, [{i: gu} for gu in gU for i in range(r)])
        return Cube(ring, (), {E: FPModule(ring, r, rels)}, {})
    v, rest = labels[0], tuple(labels[1:])
    y0 = _block_assembly_reference(ring, rest, g, {T - {v}: c for T, c in mult.items() if v in T}, gU)
    y1 = _block_assembly_reference(ring, rest, g, {T: c for T, c in mult.items() if v not in T}, gU)
    L0, L1 = y0.vertex(E).rank, y1.vertex(E).rank
    subs = label_subsets(labels)
    rels = SubmoduleBasis(ring, L0 + L1, [{i: gu} for gu in gU for i in range(L0 + L1)])
    boundary = {}
    for T in subs:
        for k in T:
            if k == v:
                boundary[(T, k)] = FreeMap.diagonal(ring, [g[v]] * L0 + [ring.one()] * L1)
            else:
                boundary[(T, k)] = FreeMap.block_diag(y0.d(T - {v}, k), y1.d(T - {v}, k))
    return Cube(ring, tuple(labels), {T: FPModule(ring, L0 + L1, rels) for T in subs}, boundary)


def test_stage_cube_equals_block_assembly():
    # a stage's covering cube is not stored: koszul_resolve and
    # check_resolution both build it from the multiplicities, so this is
    # what keeps the assembly order checked against the induction
    cases = resolve_problems() + [inp for field in ("Q", 101) for _, inp, _ in _wide_v_cases(field)]
    for n, inp in enumerate(cases):
        out = koszul_resolve(inp)
        g = moduli(out, inp)
        gU = [g[u] for u in inp.U]
        for i, (stage, z) in enumerate(zip(out.stages, inp.targets)):
            want = _block_assembly_reference(inp.ring, z.labels, g, stage.multiplicities, gU)
            y = cover(out, inp, i)
            assert y.labels == want.labels and set(y.subsets()) == set(want.subsets()), n
            for T in want.subsets():
                assert y.vertex(T).rank == want.vertex(T).rank, (n, T)
                assert y.vertex(T).relations.cols == want.vertex(T).relations.cols, (n, T)
                for k in T:
                    assert y.d(T, k) == want.d(T, k), (n, T, k)


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

def _lifts(cols, M, ring):
    """Is M = A^r / relations spanned by the images of `cols`?  On M = H_0(Tot z)
    and the epi at the empty vertex this is surjectivity on H_0(Tot), which
    check_resolution leaves to its check (a)."""
    basis = FreeMap.identity(ring, M.rank).cols
    return None not in _graph_coordinates(basis, cols, M.relations, ring, M.rank)


def test_epi_at_empty_vertex_implies_h0_tot_surjective():
    # check (a) at the empty vertex, onto z_∅, implies surjectivity onto its
    # quotient H_0(Tot z); epis with one column dropped exercise the
    # implication where (a) can fail
    problems = resolve_problems() + [inp for _, inp, _ in _wide_v_cases(101)]
    for i, inp in enumerate(problems):
        out = koszul_resolve(inp)
        for stage, z in zip(out.stages, inp.targets):
            cols = stage.epi[E].cols
            for drop in [None] + list(range(len(cols))):
                kept = cols if drop is None else cols[:drop] + cols[drop + 1:]
                if _lifts(kept, z.vertex(E), inp.ring):
                    assert _lifts(kept, _h0_over(z, z.labels).vertex(E), inp.ring), (i, drop)
                else:
                    assert drop is not None, i


def test_resolve_solves_each_lifting_system_once(count_calls):
    # a chain of two free 1-cubes: the resolution, the lift of the chain map
    # and check_resolution each write a batch of vectors against one
    # (cols, rels); 11 solver calls in all (22 with one call per vector).
    # Every solve goes through modcalc._factor_through, so modcalc is the one
    # module that binds the solver
    import koszul_lab.modcalc
    inp = resolve_problems()[4]
    assert len(inp.targets) == 2
    calls = count_calls(koszul_lab.modcalc, "_graph_coordinates")
    koszul_resolve(inp)
    assert len(calls) <= 11


# --------------------------------------------------------------------------
# verdict-only checks against the full computations they replaced
# --------------------------------------------------------------------------

def _surjectivity_failures_reference(out, inp):
    """Check (a) as it was made by solving for coordinates: the first basis
    vector of each target vertex that has no preimage under the epi."""
    failures = []
    for idx, (stage, z) in enumerate(zip(out.stages, inp.targets)):
        for T in z.subsets():
            M = z.vertex(T)
            basis = FreeMap.identity(inp.ring, M.rank).cols
            coords = _graph_coordinates(basis, stage.epi[T].cols, M.relations, inp.ring, M.rank)
            missed = [i for i, u in enumerate(coords) if u is None]
            if missed:
                failures.append(f"(a) stage {idx}: epi at {{{subset_key(T)}}} misses basis vector "
                                f"{missed[0]}")
    return failures


def _zero_column(m, j):
    """m with its column j set to zero: m composed with the diagonal map
    that is 1 everywhere but 0 at j."""
    one, zero = m.ring.one(), m.ring.zero()
    return m.compose(FreeMap.diagonal(m.ring, [zero if i == j else one
                                               for i in range(m.source_rank)]))


def test_surjectivity_check_matches_graph_coordinates_reference():
    # (a) asks whether e_i ∈ rel + im epi for every i; its failures must be
    # the ones the coordinate solver gave, also on epis that are not onto
    problems = resolve_problems() + [inp for _, inp, _ in _wide_v_cases(101)]
    failing = 0
    for i, inp in enumerate(problems):
        out = koszul_resolve(inp)
        for drop in (None, 0, 1):
            stages = []
            for stage in out.stages:
                epi = dict(stage.epi)
                if drop is not None:
                    epi = {T: _zero_column(m, drop) if drop < m.source_rank else m
                           for T, m in epi.items()}
                stages.append(ResolutionStage(epi, stage.multiplicities))
            bent = ResolutionOutput(out.exponents, tuple(stages), out.connecting)
            want = _surjectivity_failures_reference(bent, inp)
            got = check_resolution(bent, inp).failures
            assert [f for f in got if f.startswith("(a)")] == want, (i, drop)
            assert (drop is None) <= (got == ()), (i, got)
            failing += bool(want)
    assert failing >= 20


def _verify_cases():
    """ResolutionInputs whose verify() passes and ones that fail it on
    support: the resolve problems, Koszul cubes of |S| <= 3 and |S| = 4 as
    V-targets, the same with the sequence reversed, and modules whose
    U-entry does not kill them."""
    from _gen import four_direction_koszul_suite, koszul_suite
    cases = resolve_problems() + [inp for _, inp, _ in _wide_v_cases(101)]
    for x, fs in koszul_suite(12) + four_direction_koszul_suite(per_field=2):
        labels = list(x.labels)
        cases.append(ResolutionInput(dict(zip(labels, fs)), [], labels, [x]))
        if len(fs) > 1:
            cases.append(ResolutionInput(dict(zip(labels, fs[::-1])), [], labels, [x]))
    cases.append(ResolutionInput({"1": Y}, ["1"], [], [cyclic("x^2")]))
    # x kills the first summand of A/(x^2) ⊕ A/(y) but no power kills the second
    split = FPModule(Q2, 2, SubmoduleBasis(Q2, 2, [(X * X, Q2.zero()), (Q2.zero(), Y)]))
    cases.append(ResolutionInput({"1": X}, ["1"], [], [split]))
    # x, x is no A-sequence, and x kills no vertex of this 1-cube over A/(y^3)
    cases.append(ResolutionInput({"1": X, "2": X}, ["2"], ["1"], [one_cube("x^2", cyclic("y^3"))]))
    return cases


def test_verify_support_matches_annihilator_reference(monkeypatch):
    # support on V(f) is f ∈ √(rel : e_i) for each basis vector; verify()
    # must report what the radical of the whole annihilator reported
    import koszul_lab.resolve as resolve_mod
    from _reference import annihilator
    from koszul_lab.groebner import radical_membership
    cases = _verify_cases()
    got = [inp.verify() for inp in cases]
    monkeypatch.setattr(resolve_mod, "supported_on",
                        lambda M, f: radical_membership(f, annihilator(M)))
    want = [inp.verify() for inp in cases]
    assert got == want
    assert {rep.ok for rep in want} == {True, False}
    unsupported = [f for rep in want for f in rep.failures if "is not supported" in f]
    assert any("vertex" in f for f in unsupported) and any("H_0^" in f for f in unsupported)


def _off_corner(failure):
    """Is failure a support entry at a vertex other than the corner?"""
    return "is not supported" in failure and "{} is not supported" not in failure


def _assert_corner_decides(inp):
    # support tests away from the corner change no verdict and no exponent,
    # and only their own entries go missing; returns the reference's Report
    ref = _reference.resolution_verify(inp)
    got = inp.verify()
    assert got.ok == ref.ok
    assert got.failures == tuple(f for f in ref.failures if not _off_corner(f))
    if ref.ok:
        assert find_exponents(inp) == _reference.resolution_exponents(inp)
    return ref


def _corner_cases():
    """The verify cases, the resolve suites, a non-admissible 1-cube whose
    corner A/(x) is supported on V(x) and whose other vertex A is not (its
    boundary is zero), and an admissible one whose corner A/(x^2, y) needs
    x^2 where its other vertex A/(x, y) needs x."""
    zero = ModCube(Q2, ("1",), {E: cyclic("x"), S1: free1()},
                   {(S1, "1"): FreeMap(Q2, [[Q2.zero()]])})
    deeper = ModCube(Q2, ("1",), {E: FPModule(Q2, 1, SubmoduleBasis(Q2, 1, [(X * X,), (Y,)])),
                                  S1: FPModule(Q2, 1, SubmoduleBasis(Q2, 1, [(X,), (Y,)]))},
                     {(S1, "1"): FreeMap(Q2, [[X]])})
    return (_verify_cases() + [inp for _, inp, _ in _wide_v_cases("Q")]
            + [ResolutionInput({"u": X, "1": Y}, ["u"], ["1"], [z]) for z in (zero, deeper)])


def test_corner_decides_support_and_exponents():
    dropped = []
    cases = _corner_cases()
    for inp in cases:
        ref = _assert_corner_decides(inp)
        dropped += [f for f in ref.failures if _off_corner(f)]
    assert "target 0: vertex {1} is not supported on V(f_u)" in dropped
    assert any("H_0^" in f for f in dropped)
    assert koszul_resolve(cases[-1]).exponents == {"u": 2, "1": 1}


def test_corner_gate_can_fail(monkeypatch):
    # a reference whose vertices off the corner always fail their support
    # test disagrees on an input verify() accepts
    inp = _wide_v_cases("Q")[0][1]
    assert _assert_corner_decides(inp).ok
    supported = _reference.vertex_supported
    monkeypatch.setattr(_reference, "vertex_supported",
                        lambda z, T, f: not T and supported(z, T, f))
    with pytest.raises(AssertionError):
        _assert_corner_decides(inp)


def test_checks_solve_no_coordinates_and_form_no_annihilator(monkeypatch):
    # check_resolution and verify() only answer yes/no questions: neither
    # reads coordinates off a graph module (and the library forms no
    # annihilator at all).  Every solve goes through modcalc._factor_through,
    # so patching modcalc's binding of the solver reaches all of them
    import koszul_lab.modcalc
    problems = resolve_problems()[:6] + [inp for _, inp, _ in _wide_v_cases(101)]
    outs = [koszul_resolve(inp) for inp in problems]

    def forbidden(*args, **kwargs):
        raise AssertionError("called from a yes/no check")

    monkeypatch.setattr(koszul_lab.modcalc, "_graph_coordinates", forbidden)
    for inp, out in zip(problems, outs):
        assert inp.verify().ok
        assert check_resolution(out, inp).ok


# --------------------------------------------------------------------------
# malformed outputs are reported, never raised
# --------------------------------------------------------------------------

def _reported(out, inp):
    """check_resolution's failures on out; it must not raise."""
    rep = check_resolution(out, inp)
    assert rep.ok is not bool(rep.failures)
    return list(rep.failures)


def test_check_resolution_reports_missing_stages_and_maps():
    # stages pair with targets and lifted maps with connecting maps, so an
    # output with fewer of either is refused before anything is paired
    problems = resolve_problems()
    assert len(problems) == 20
    for i, inp in enumerate(problems):
        out = koszul_resolve(inp)
        n, c = len(inp.targets), len(inp.connecting)
        assert _reported(ResolutionOutput(out.exponents, (), ()), inp) == [
            f"the output has 0 stages and 0 lifted maps for {n} targets and {c} connecting maps"], i
        assert _reported(ResolutionOutput(out.exponents, out.stages[:1], out.connecting), inp) \
            == ([] if n == 1 else ["the output has 1 stages and 1 lifted maps for 2 targets and "
                                   "1 connecting maps"]), i
        if c:
            assert _reported(ResolutionOutput(out.exponents, out.stages, ()), inp) == [
                "the output has 2 stages and 0 lifted maps for 2 targets and 1 connecting maps"], i


def test_check_resolution_reports_bad_exponents():
    inp = ResolutionInput({"1": X, "2": Y}, [], ["1", "2"], [square_cube("x^2", "y")])
    out = koszul_resolve(inp)
    assert out.exponents == {"1": 2, "2": 1}
    want = ["exponents are not positive ints on exactly ['1', '2']"]
    for exponents in ({"1": 2}, {"1": 2, "2": 1, "3": 1}, {"1": 2, "2": 0}, {"1": 2, "2": -1},
                      {"1": 2, "2": 1.0}, {"1": 2, "2": "1"}):
        assert _reported(ResolutionOutput(exponents, out.stages, out.connecting), inp) == want, \
            exponents


def test_check_resolution_reports_bad_multiplicities():
    for i, inp in enumerate(resolve_problems()):
        out = koszul_resolve(inp)
        stage, labels = out.stages[0], list(inp.targets[0].labels)
        first = next(iter(stage.multiplicities))
        want = [f"stage 0: multiplicities are not counts ≥ 0 of subsets of {labels}"]
        for mult in ({**stage.multiplicities, frozenset({"9"}): 1},
                     {**stage.multiplicities, first: -1},
                     {**stage.multiplicities, first: 0.5}):
            bent = ResolutionOutput(out.exponents,
                                    (ResolutionStage(stage.epi, mult),) + out.stages[1:],
                                    out.connecting)
            assert _reported(bent, inp) == want, (i, mult)
        # one more summand than the epi has columns: a well-formed count,
        # so every epi of the stage is reported by its shape
        more = {**stage.multiplicities, first: stage.multiplicities[first] + 1}
        L = sum(stage.multiplicities.values())
        bent = ResolutionOutput(out.exponents, (ResolutionStage(stage.epi, more),) + out.stages[1:],
                                out.connecting)
        z = inp.targets[0]
        want = [f"stage 0: epi at {{{subset_key(T)}}} is {z.vertex(T).rank}x{L}, "
                f"not {z.vertex(T).rank}x{L + 1}" for T in z.subsets()]
        if out.connecting:
            L1 = sum(out.stages[1].multiplicities.values())
            want += [f"lifted map 0 at {{{subset_key(T)}}} is {L1}x{L}, not {L1}x{L + 1}"
                     for T in z.subsets()]
        assert _reported(bent, inp) == want, i


def test_check_resolution_reports_maps_missing_a_vertex():
    checked = 0
    for i, inp in enumerate(resolve_problems()):
        out = koszul_resolve(inp)
        for T in inp.targets[0].subsets():
            stage = out.stages[0]
            epi = {U: m for U, m in stage.epi.items() if U != T}
            bent = ResolutionOutput(out.exponents,
                                    (ResolutionStage(epi, stage.multiplicities),) + out.stages[1:],
                                    out.connecting)
            assert _reported(bent, inp) == [f"stage 0: epi at {{{subset_key(T)}}} is missing"], i
            if out.connecting:
                t = {U: m for U, m in out.connecting[0].items() if U != T}
                bent = ResolutionOutput(out.exponents, out.stages, (t,))
                assert _reported(bent, inp) == [f"lifted map 0 at {{{subset_key(T)}}} is missing"], i
                checked += 1
    assert checked > 0


# --------------------------------------------------------------------------
# square checks against the loops they were written as
# --------------------------------------------------------------------------

def _square_failures_reference(out, inp):
    """The morphism checks of check_resolution on out (none when out is
    None): whether each epi and each lifted map carries relations into
    relations, and check (c); then the connecting-map checks of
    inp.verify().  They are written out as one loop per relation generator
    and per square: each difference of composites is tested column by
    column."""
    failures = []
    for idx, (stage, z) in enumerate(zip(out.stages if out else (), inp.targets)):
        y, epi = cover(out, inp, idx), stage.epi
        tag = f"stage {idx}"
        for T in z.subsets():
            if not all(z.vertex(T).relations.contains_vector(epi[T].apply(r))
                       for r in y.vertex(T).relations.generators):
                failures.append(f"(a) {tag}: epi at {{{subset_key(T)}}} does not preserve relations")
            for k in sorted(T):
                diff = epi[T - {k}].compose(y.d(T, k)) - z.d(T, k).compose(epi[T])
                rel = z.vertex(T - {k}).relations
                if not all(map(rel.contains_vector, diff.cols)):
                    failures.append(f"(c) {tag}: square at {{{subset_key(T)}}} direction {k} fails")
    for i, t in enumerate(out.connecting if out else ()):
        w = inp.connecting[i]
        y_src, y_tgt = cover(out, inp, i), cover(out, inp, i + 1)
        epi_src, epi_tgt = out.stages[i].epi, out.stages[i + 1].epi
        for T in y_src.subsets():
            diff = epi_tgt[T].compose(t[T]) - w[T].compose(epi_src[T])
            rel = inp.targets[i + 1].vertex(T).relations
            if not all(map(rel.contains_vector, diff.cols)):
                failures.append(
                    f"(c) connecting square at {{{subset_key(T)}}} fails (stage {i}→{i + 1})")
            if not all(y_tgt.vertex(T).relations.contains_vector(t[T].apply(r))
                       for r in y_src.vertex(T).relations.generators):
                failures.append(f"(c) connecting map is not a cube morphism at {{{subset_key(T)}}}")
            for k in sorted(T):
                diff = t[T - {k}].compose(y_src.d(T, k)) - y_tgt.d(T, k).compose(t[T])
                rel = y_tgt.vertex(T - {k}).relations
                if not all(map(rel.contains_vector, diff.cols)):
                    failures.append(f"(c) connecting map is not a cube morphism at "
                                    f"{{{subset_key(T)}}} direction {k}")
    for i, w in enumerate(inp.connecting):
        src, tgt = inp.targets[i], inp.targets[i + 1]
        for T in src.subsets():
            if not all(tgt.vertex(T).relations.contains_vector(w[T].apply(r))
                       for r in src.vertex(T).relations.generators):
                failures.append(f"connecting map does not preserve relations at "
                                f"{{{subset_key(T)}}}")
            for k in sorted(T):
                diff = w[T - {k}].compose(src.d(T, k)) - tgt.d(T, k).compose(w[T])
                rel = tgt.vertex(T - {k}).relations
                if not all(map(rel.contains_vector, diff.cols)):
                    failures.append(
                        f"connecting square at {{{subset_key(T)}}} direction {k} fails")
    return failures


def _square_failures(out, inp):
    """The failures of the same checks, as check_resolution and verify() report them."""
    failures = []
    if out is not None:
        failures += [f for f in check_resolution(out, inp).failures
                     if f.startswith("(c)") or f.endswith("does not preserve relations")]
    if inp.connecting:
        failures += [f for f in inp.verify().failures if f.startswith("connecting")]
    return failures


def _plus_x(maps, key, ring):
    """The maps with entry (0, 0) of maps[key] plus the first variable."""
    m = maps[key]
    rows = [list(r) for r in m.entries]
    rows[0][0] = rows[0][0] + ring.gens()[0]
    return {**maps, key: FreeMap(ring, rows, target_rank=m.target_rank, source_rank=m.source_rank)}


def _bent(out, inp, i):
    """(out, inp) pairs with one entry bent by x: an epi entry, an entry of
    the lifted connecting map, an entry of the input's connecting map.  The
    vertex bent cycles with i.  A U problem also gives out with each U
    exponent above 1 lowered by one, whose epis are not maps of modules."""
    ring = inp.ring
    for u in inp.U:
        if out.exponents[u] > 1:
            yield _with_exponent(out, u, -1), inp
    stage = out.stages[0]
    subs = inp.targets[0].subsets()
    T = subs[i % len(subs)]
    yield (ResolutionOutput(out.exponents,
                            (ResolutionStage(_plus_x(stage.epi, T, ring),
                                             stage.multiplicities),) + out.stages[1:],
                            out.connecting), inp)
    if out.connecting:
        yield (ResolutionOutput(out.exponents, out.stages,
                                (_plus_x(out.connecting[0], T, ring),)), inp)
        bent_inp = ResolutionInput(inp.fs, inp.U, inp.V, inp.targets,
                                   [_plus_x(inp.connecting[0], T, ring)])
        yield out, bent_inp


def test_square_checks_match_reference():
    # check (c) and the connecting-map checks of verify() report,
    # string for string and in order, what one loop per square reported,
    # on resolutions and on copies with one entry bent
    problems = (resolve_problems() + [square_chain_input(), three_v_chain_input()]
                + [inp for _, inp, _ in _wide_v_cases(101)])
    seen = set()
    for i, inp in enumerate(problems):
        out = koszul_resolve(inp)
        for bent_out, bent_inp in [(out, inp), *_bent(out, inp, i)]:
            want = _square_failures_reference(bent_out, bent_inp)
            assert _square_failures(bent_out, bent_inp) == want, i
            seen.update(f.split(" at ")[0] for f in want)
    # a connecting map that does not carry the relations of A/(x) into A/(x^2)
    unmapped = ResolutionInput({"1": X}, ["1"], [], [cyclic("x"), cyclic("x^2")],
                               connecting=[{E: FreeMap(Q2, [[Q2.one()]])}])
    want = _square_failures_reference(None, unmapped)
    assert _square_failures(None, unmapped) == want
    seen.update(f.split(" at ")[0] for f in want)
    assert seen >= {"(a) stage 0: epi", "(c) stage 0: square",
                    "(c) connecting square", "(c) connecting map is not a cube morphism",
                    "connecting square", "connecting map does not preserve relations"}, seen
