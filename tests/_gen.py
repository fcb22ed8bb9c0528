"""Seeded generator families shared by the acceptance suite.

Everything here is deterministic given the module-level SEED0; the families
are sized so the whole acceptance run stays within its stated time budgets
on a laptop-class machine (GF(101) coefficients, small ranks).
"""

from fractions import Fraction

from koszul_lab.arith import RingSpec, parse_poly
from koszul_lab.cube import Cube, ModCube
from koszul_lab.koszul import random_koszul
from koszul_lab.modcalc import Complex, FreeMap, FPModule
from koszul_lab.groebner import SubmoduleBasis
from koszul_lab.resolve import ResolutionInput

SEED0 = 20260817

R3 = RingSpec(101, ("x", "y", "z"))
X3, Y3, Z3 = R3.gens()

# A-sequences over GF(101)[x,y,z], grouped by length.  Linear forms that are
# linearly independent are A-sequences in any order; the mixed entries keep
# the generated boundaries from all looking alike.
SEQ_POOL = {
    1: ([X3], [Y3], [Z3], [X3 + Y3]),
    2: ([X3, Y3], [Y3, Z3], [X3, Z3], [X3 + Y3, Z3]),
    3: ([X3, Y3, Z3], [X3, Y3 + Z3, Z3]),
}


def koszul_suite(count=100, seed0=SEED0):
    """(cube, fs) pairs from random_koszul: |S| <= 3, vertex rank <= 4,
    entry degree <= 2.  Label count cycles so the small shapes dominate and
    the 3-direction cubes stay at rank <= 2."""
    import random as _random
    rng = _random.Random(seed0)
    out = []
    for i in range(count):
        if i % 5 == 4 and i % 2 == 0:
            nlab = 3
        elif i % 2 == 0:
            nlab = 2
        else:
            nlab = 1
        pool = SEQ_POOL[nlab]
        fs = pool[i % len(pool)]
        max_summands = {1: 4, 2: 3, 3: 2}[nlab]
        summands = rng.randint(1, max_summands)
        steps = rng.randint(0, 5)
        out.append((random_koszul(fs, summands, steps, seed=seed0 + i), fs))
    return out


# A-sequences of non-linear entries: pure powers, and a power plus a mixed
# term, in every order regular
NONLINEAR_A_SEQUENCES = (("x^2", "y^2+x*z", "z^3"), ("x*y+z^2", "y^2", "x^3"))


def nonlinear_koszul_suite(per_sequence=6, seed0=SEED0 + 60_000):
    """(cube, fs) pairs from random_koszul on NONLINEAR_A_SEQUENCES over Q
    and GF(101): |S| = 3, vertex rank cycling through 1..3."""
    out = []
    for field in ("Q", 101):
        ring = RingSpec(field, ("x", "y", "z"))
        for texts in NONLINEAR_A_SEQUENCES:
            fs = [parse_poly(t, ring) for t in texts]
            for i in range(per_sequence):
                out.append((random_koszul(fs, 1 + i % 3, 1 + (2 * i) % 5, seed=seed0 + i), fs))
    return out


def four_direction_koszul_suite(per_field=6, seed0=SEED0 + 70_000):
    """(cube, fs) pairs from random_koszul on x, y, z, w over Q and GF(101):
    |S| = 4, vertex rank cycling through 1..4."""
    out = []
    for field in ("Q", 101):
        ring = RingSpec(field, ("x", "y", "z", "w"))
        fs = list(ring.gens())
        for i in range(per_field):
            out.append((random_koszul(fs, 1 + i % 4, 1 + (3 * i) % 7, seed=seed0 + i), fs))
    return out


def nonlinear_four_direction_koszul_suite(seed0=SEED0 + 90_000):
    """(cube, fs) pairs from random_koszul on x^2, y^2+x*z, z^3, w over Q and
    GF(101): |S| = 4, vertex rank 1 and 2 per field."""
    out = []
    for field in ("Q", 101):
        ring = RingSpec(field, ("x", "y", "z", "w"))
        fs = [parse_poly(t, ring) for t in NONLINEAR_A_SEQUENCES[0] + ("w",)]
        for i, summands in enumerate((1, 2)):
            out.append((random_koszul(fs, summands, 2 + 3 * i, seed=seed0 + i), fs))
    return out


def five_direction_koszul_suite(seed0=SEED0 + 80_000):
    """(cube, fs) pairs from random_koszul at |S| = 5 over Q and GF(101),
    vertex rank at most 2: per field, x, y, z, w, v at ranks 1, 2, 2 and
    x^2, y^2+x*z, z^3, w, v at rank 2."""
    out = []
    for field in ("Q", 101):
        ring = RingSpec(field, ("x", "y", "z", "w", "v"))
        linear = list(ring.gens())
        nonlinear = [parse_poly(t, ring) for t in NONLINEAR_A_SEQUENCES[0] + ("w", "v")]
        for i, (fs, summands) in enumerate(((linear, 1), (linear, 2), (linear, 2), (nonlinear, 2))):
            out.append((random_koszul(fs, summands, 2 + (3 * i) % 7, seed=seed0 + i), fs))
    return out


def pad_identity(x: Cube, new_label: str) -> Cube:
    """Extend by one direction whose boundaries are all identities."""
    labels = x.labels + (new_label,)
    ranks = {}
    boundary = {}
    for T in x.subsets():
        ranks[T] = x.vertex_rank[T]
        ranks[T | {new_label}] = x.vertex_rank[T]
        for k in T:
            boundary[(T, k)] = x.d(T, k)
            boundary[(T | {new_label}, k)] = x.d(T, k)
        boundary[(T | {new_label}, new_label)] = FreeMap.identity(x.ring, x.vertex_rank[T])
    return Cube(x.ring, labels, ranks, boundary)


def identity_padded_suite(count=50, seed0=SEED0 + 10_000):
    """Admissible-by-construction cubes: a small Koszul cube plus one
    identity direction (their total complexes are cones of identities)."""
    out = []
    for i in range(count):
        nlab = 1 + i % 2
        fs = SEQ_POOL[nlab][i % len(SEQ_POOL[nlab])]
        base = random_koszul(fs, 1 + i % 2, (i * 5) % 4, seed=seed0 + i)
        out.append(pad_identity(base, "9"))
    return out


def zero_direction(x: Cube, label: str) -> Cube:
    """Replace every boundary in one direction by the zero map (squares still
    commute, injectivity dies)."""
    boundary = {}
    for T in x.subsets():
        for k in sorted(T):
            m = x.d(T, k)
            if k == label:
                m = FreeMap.zero(x.ring, m.target_rank, m.source_rank)
            boundary[(T, k)] = m
    return Cube(x.ring, x.labels, dict(x.vertex_rank), boundary)


def both_directions_square(f) -> Cube:
    """The rank-1 square with the same multiplier in both directions: every
    boundary is injective yet H_1(Tot) = A/(f) != 0."""
    ring = f.ring
    E = frozenset()
    S1, S2, S12 = frozenset({"1"}), frozenset({"2"}), frozenset({"1", "2"})
    m = FreeMap(ring, [[f]])
    return Cube(ring, ("1", "2"), {E: 1, S1: 1, S2: 1, S12: 1},
                {(S1, "1"): m, (S2, "2"): m, (S12, "1"): m, (S12, "2"): m})


def perturbed_suite(count=50, seed0=SEED0 + 20_000):
    """Non-admissible cubes: the both-directions square family plus Koszul
    cubes with one direction zeroed out."""
    out = [both_directions_square(X3)]
    multipliers = (Y3, Z3, X3 + Y3, X3 * X3)
    i = 0
    while len(out) < count:
        if i % 3 == 0:
            out.append(both_directions_square(multipliers[i % len(multipliers)]))
        else:
            nlab = 1 + i % 2
            fs = SEQ_POOL[nlab][i % len(SEQ_POOL[nlab])]
            base = random_koszul(fs, 1 + i % 2, (i * 3) % 4, seed=seed0 + i)
            out.append(zero_direction(base, base.labels[0]))
        i += 1
    return out


# Constants of the base changes and automorphisms below, nonzero in GF(101).
BASE_CHANGE_CONSTANTS = (1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 7))


def not_a_sequence_row(family, ring, rng):
    """A row of ring.nvars entries that is no A-sequence while the ideal of
    all its entries is proper (the maximal ideal at the origin):

    - "deep": x_1, ..., x_{n-1}, x_1 + ... + x_{n-1}.  Any n - 1 of its
      entries are a regular sequence and the last is zero modulo them, so
      admissibility first fails n - 1 levels of H_0 deep.
    - "image": x, y(1 - x), z(1 - x), w, ... under the automorphism that
      adds c_i·x_{i+1} to x_i, the c_i drawn from rng.  y(1 - x) and
      z(1 - x) are zero divisors modulo each other, so admissibility
      first fails one level deep.
    """
    xs = ring.gens()
    if family == "deep":
        return list(xs[:-1]) + [sum(xs[:-1], ring.zero())]
    image = [v + ring.const(rng.choice(BASE_CHANGE_CONSTANTS)) * w
             for v, w in zip(xs, xs[1:])] + [xs[-1]]
    x, y, z = image[:3]
    return [x, y * (ring.one() - x), z * (ring.one() - x)] + image[3:]


def not_a_sequence_suite(seed0=SEED0 + 100_000):
    """(family, cube, bad row) triples over Q and GF(101) at |S| = 3, 4 and
    5, for both families of `not_a_sequence_row`: the typical sum of the bad
    row and of the variables, an A-sequence, base-changed at every vertex by
    a product of elementary matrices as random_koszul does (which refuses
    rows that are no A-sequence).  A base change is an isomorphism and the
    variables' summand is admissible, so each cube is admissible exactly
    when the bad row is an A-sequence, which it is not."""
    import random as _random
    from koszul_lab.koszul import _elementary_product, _typical_sum
    out = []
    for field in ("Q", 101):
        for n in (3, 4, 5):
            ring = RingSpec(field, tuple(f"x{i}" for i in range(1, n + 1)))
            labels = tuple(str(i) for i in range(1, n + 1))
            for family in ("deep", "image"):
                rng = _random.Random(f"{seed0}-{field}-{n}-{family}")
                bad = not_a_sequence_row(family, ring, rng)
                x = _typical_sum(ring, labels, [bad, list(ring.gens())], ())
                P, Pinv = {}, {}
                for T in x.subsets():
                    factors = [(i, 1 - i, ring.const(rng.choice(BASE_CHANGE_CONSTANTS)))
                               for i in (0, 1, 0)]
                    P[T] = _elementary_product(ring, 2, factors)
                    Pinv[T] = _elementary_product(ring, 2,
                                                  [(i, j, -c) for i, j, c in reversed(factors)])
                out.append((family, Cube(ring, labels, x.vertices,
                                         {(T, k): P[T - {k}].compose(d).compose(Pinv[T])
                                          for (T, k), d in x.boundary.items()}), bad))
    return out


def scale_differential(c: Complex, k: int, g) -> Complex:
    """Multiply d_k by a ring element (keeps d∘d = 0, usually breaks exactness)."""
    diffs = list(c.differentials)
    diffs[k - 1] = diffs[k - 1].scaled(g)
    return Complex(c.ring, c.ranks, tuple(diffs))


def zero_differential(c: Complex, k: int) -> Complex:
    d = c.differential(k)
    diffs = list(c.differentials)
    diffs[k - 1] = FreeMap.zero(c.ring, d.target_rank, d.source_rank)
    return Complex(c.ring, c.ranks, tuple(diffs))


def complex_suite(count=100, seed0=SEED0 + 30_000):
    """Bounded free complexes with known provenance: total complexes of small
    Koszul cubes, plus corrupted variants (a differential zeroed or scaled by
    a variable) that preserve the rank data."""
    from koszul_lab.cube import total_complex
    out = []
    i = 0
    while len(out) < count:
        nlab = 1 + i % 2 if i % 7 else 3
        fs = SEQ_POOL[nlab][i % len(SEQ_POOL[nlab])]
        summands = 1 if nlab == 3 else 1 + i % 2
        tot = total_complex(random_koszul(fs, summands, (i * 5) % 5, seed=seed0 + i))
        out.append(tot)
        if len(out) < count and i % 2 == 0:
            out.append(zero_differential(tot, 1 + i % tot.length))
        if len(out) < count and i % 4 == 1:
            out.append(scale_differential(tot, 1 + i % tot.length, X3))
        i += 1
    return out


def factor_pairs(count=100, seed0=SEED0 + 40_000):
    """(fs, gs) pairs for the factor-lemma cross-check.  Roughly half have
    products that really are A-sequences (variable powers in scrambled
    roles); the rest are arbitrary small picks where the hypothesis usually
    fails and the check is vacuous."""
    import random as _random
    rng = _random.Random(seed0)
    gens = (X3, Y3, Z3)
    pool = (X3, Y3, Z3, X3 + Y3, X3 * Y3, Y3 * Z3, X3 * X3)
    out = []
    for i in range(count):
        n = 2 + i % 2
        if i % 2 == 0:
            roles = rng.sample(range(3), n)
            fs = [gens[r] ** rng.randint(1, 2) for r in roles]
            gs = [gens[r] ** rng.randint(1, 2) for r in roles]
        else:
            fs = [pool[rng.randrange(len(pool))] for _ in range(n)]
            gs = [pool[rng.randrange(len(pool))] for _ in range(n)]
        out.append((fs, gs))
    return out


def resolve_problems(count=20, seed0=SEED0 + 50_000):
    """ResolutionInput instances with |V| <= 2: plain modules, free 1-cubes
    and squares from random_koszul, a mixed A/(g_U) example, and two chains."""
    R2 = RingSpec(101, ("x", "y"))
    x, y = R2.gens()
    E = frozenset()
    problems = []

    def cyclic(rel):
        return FPModule(R2, 1, SubmoduleBasis(R2, 1, [(rel,)]))

    i = 0
    while len(problems) < count:
        kind = i % 6
        if kind == 0:
            # plain module, U = {1}
            a = 1 + i % 3
            problems.append(ResolutionInput({"1": x}, ["1"], [], [cyclic(x ** a)]))
        elif kind == 1:
            # free 1-cube from the generator, V = {1}
            c = random_koszul([x], 1 + i % 3, (i * 3) % 5, seed=seed0 + i)
            problems.append(ResolutionInput({"1": x}, [], ["1"], [c]))
        elif kind == 2:
            # free square, V = {1, 2}
            c = random_koszul([x, y], 1 + i % 2, (i * 5) % 4, seed=seed0 + i)
            problems.append(ResolutionInput({"1": x, "2": y}, [], ["1", "2"], [c]))
        elif kind == 3:
            # mixed: 1-cube over A/(y^b) with x-power boundary
            b = 1 + i % 2
            B = cyclic(y ** b)
            S1 = frozenset({"1"})
            z = ModCube(R2, ("1",), {E: B, S1: B},
                        {(S1, "1"): FreeMap(R2, [[x ** (1 + i % 2)]])})
            problems.append(ResolutionInput({"1": x, "2": y}, ["2"], ["1"], [z]))
        elif kind == 4:
            # chain of two free 1-cubes with a scalar connecting map
            S1 = frozenset({"1"})
            free = FPModule.free(R2, 1)
            a = 2 + i % 2
            z0 = ModCube(R2, ("1",), {E: free, S1: free},
                         {(S1, "1"): FreeMap(R2, [[x ** a]])})
            z1 = ModCube(R2, ("1",), {E: free, S1: free},
                         {(S1, "1"): FreeMap(R2, [[x ** a]])})
            w = {E: FreeMap(R2, [[y]]), S1: FreeMap(R2, [[y]])}
            problems.append(ResolutionInput({"1": x}, [], ["1"], [z0, z1],
                                            connecting=[w]))
        else:
            # chain of two modules, U = {1}
            m0, m1 = cyclic(x ** 2), cyclic(x ** 2)
            w = {E: FreeMap(R2, [[x]])}
            problems.append(ResolutionInput({"1": x}, ["1"], [], [m0, m1],
                                            connecting=[w]))
        i += 1
    return problems
