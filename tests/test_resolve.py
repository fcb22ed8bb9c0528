"""Resolution of module cubes by sums of typical cubes.

The three small worked examples have fully hand-computed outputs (epis,
multiplicities, exponents); they are frozen byte-for-byte so the assembly
order of summands cannot drift silently.
"""

import pytest

from koszul_lab.arith import RingSpec, parse_poly
from koszul_lab.cube import ModCube, subset_key
from koszul_lab.groebner import SubmoduleBasis
from koszul_lab.modcalc import CapExceededError, FPModule, FreeMap, LiftError
from koszul_lab.resolve import (
    ResolutionInput,
    _resolve_cube,
    check_resolution,
    find_exponents,
    koszul_resolve,
)

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
    assert str(out.g["1"]) == "x^2"
    stage = out.stages[0]
    assert stage.multiplicities == {E: 1}
    assert entries(stage.epi[E]) == [["1"]]
    assert stage.y.vertex(E).relations.contains_vector((X * X,))
    assert check_resolution(out, inp).ok


def test_resolve_one_cube_example():
    inp = ResolutionInput({"1": X}, [], ["1"], [one_cube("x^2")])
    out = koszul_resolve(inp)
    assert out.exponents == {"1": 2}
    stage = out.stages[0]
    assert stage.multiplicities == {S1: 1, E: 1}
    assert entries(stage.epi[S1]) == [["1", "1"]]
    assert entries(stage.epi[E]) == [["1", "x^2"]]
    assert entries(stage.y.d(S1, "1")) == [["x^2", "0"], ["0", "1"]]
    assert stage.y.vertex(E).relations.is_zero_submodule()  # U is empty
    assert check_resolution(out, inp).ok


def test_resolve_square_example():
    inp = ResolutionInput({"1": X, "2": Y}, [], ["1", "2"], [square_cube("x^2", "y")])
    out = koszul_resolve(inp)
    assert out.exponents == {"1": 2, "2": 1}
    assert str(out.g["1"]) == "x^2" and str(out.g["2"]) == "y"
    stage = out.stages[0]
    assert stage.multiplicities == {S12: 1, S1: 1, S2: 1, E: 1}
    assert entries(stage.epi[S12]) == [["1", "1", "1", "1"]]
    assert entries(stage.epi[S1]) == [["1", "y", "1", "y"]]
    assert entries(stage.epi[S2]) == [["1", "1", "x^2", "x^2"]]
    assert entries(stage.epi[E]) == [["1", "y", "x^2", "x^2*y"]]
    # the covering cube is the diagonal sum of typical cubes, summands ordered
    # contains-1-first then contains-2-first
    assert entries(stage.y.d(S12, "1")) == [
        ["x^2", "0", "0", "0"], ["0", "x^2", "0", "0"],
        ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    assert entries(stage.y.d(S12, "2")) == [
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
    stage = out.stages[0]
    # the covering cube carries g_U = y^3 as vertex relations
    assert stage.y.vertex(E).relations.contains_vector((Y ** 3, Q2.zero()))
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
        _resolve_cube(z, [], {"1": X})


def test_base_case_checks_annihilation():
    with pytest.raises(LiftError):
        _resolve_cube(ModCube(Q2, (), {E: cyclic("x^2")}, {}), [X], {})


def test_three_v_labels_out_of_scope():
    Q3 = RingSpec("Q", ("x", "y", "z"))
    x, y, z3 = Q3.gens()
    from koszul_lab.koszul import typical_cube
    t = typical_cube([x, y, z3])
    inp = ResolutionInput({"1": x, "2": y, "3": z3}, [], ["1", "2", "3"], [t])
    with pytest.raises(ValueError):
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
    assert m1.relations.contains_vector(diff.column(0))


def test_chain_rejects_broken_square():
    z0 = one_cube("x^2")
    z1 = one_cube("x^2")
    w = {E: FreeMap(Q2, [[Q2.one()]]), S1: FreeMap(Q2, [[Y]])}  # x^2*y != 1*x^2
    with pytest.raises(ValueError):
        koszul_resolve(ResolutionInput({"1": X}, [], ["1"], [z0, z1], connecting=[w]))


def test_chain_square_example():
    # the two-direction chain exercises the recursive lift in both labels
    z0 = square_cube("x^2", "y")
    z1 = square_cube("x^2", "y")
    w = {T: FreeMap(Q2, [[Y]]) for T in (E, S1, S2, S12)}
    inp = ResolutionInput({"1": X, "2": Y}, [], ["1", "2"], [z0, z1], connecting=[w])
    out = koszul_resolve(inp)
    rep = check_resolution(out, inp)
    assert rep.ok, rep.failures


def test_resolve_solves_each_lifting_system_once(monkeypatch):
    # a chain of two free 1-cubes: the resolution, the lift of the chain map
    # and check_resolution each write a batch of vectors against one
    # (cols, rels); 13 solver calls in all (22 with one call per vector)
    import koszul_lab.cube
    import koszul_lab.modcalc
    import koszul_lab.resolve
    from _gen import resolve_problems
    inp = resolve_problems()[4]
    assert len(inp.targets) == 2
    solve = koszul_lab.modcalc._graph_coordinates
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    for module in (koszul_lab.modcalc, koszul_lab.resolve, koszul_lab.cube):
        monkeypatch.setattr(module, "_graph_coordinates", counted)
    koszul_resolve(inp)
    assert len(calls) <= 13
