"""Seeded input generation for the koszul-lab benchmark.

    python3 perfbench/gen.py --workload admissibility --seed 1 --out DIR

Writes DIR/docs/<name>.json, input documents in the CLI's format, and
DIR/ops.json, the list of operations to time.  Every operation carries the
answer it must produce, known from how its input was built, never from the
program under test, which this script does not import.

The known answers rest on these facts:
  * a cube built as a base change of a direct sum of typical cubes over an
    A-sequence is Koszul, hence admissible, its determinants form an
    A-sequence, and its total complex is acyclic in positive degrees;
  * zeroing every boundary in one direction kills injectivity, so the cube
    is neither Koszul nor admissible, and its total complex has homology
    in degree 1;
  * the square with the same multiplier in both directions has
    H_1(Tot) != 0, and a direct sum is admissible only if each summand is;
  * a ring automorphism carries y_1^a, ..., y_n^b (an A-sequence) to an
    A-sequence, and carries x, y(1-x), z(1-x) (regular, not an A-sequence)
    to a regular sequence that is not an A-sequence;
  * the least power of f_v killing H_0(Tot) of a base-changed diagonal cube
    is the largest power of f_v on its diagonal.

Operations are ordered by a fixed cycle of size classes, so any prefix of
the list has the same mix of sizes whatever the seed; the seed only changes
the entries.
"""

import argparse
import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from polys import Field, Ring  # noqa: E402

GF = Field(101)
Q = Field(0)
VARS = ("x", "y", "z", "w")


def subsets(labels):
    subs = [frozenset()]
    for lab in labels:
        subs += [s | {lab} for s in subs]
    return subs


def key(T):
    return ",".join(sorted(T))


# ---------------------------------------------------------------------------
# cubes: labels, vertex ranks and boundary matrices, all built here
# ---------------------------------------------------------------------------

class Cube:
    def __init__(self, ring, labels, ranks, bd):
        self.ring, self.labels, self.ranks, self.bd = ring, tuple(labels), ranks, bd

    def doc(self):
        R = self.ring
        subs = subsets(self.labels)
        return {
            "S": list(self.labels),
            "vertices": {key(T): self.ranks[T] for T in subs},
            "boundaries": {f"{key(T)}|{k}": R.rows_text(self.bd[(T, k)])
                           for T in subs for k in sorted(T)},
        }

    def modcube_doc(self):
        d = self.doc()
        d["vertices"] = {k: {"rank": r} for k, r in d["vertices"].items()}
        return d


def diagonal_cube(R, labels, rows):
    """Direct sum of typical cubes; rows[i][k] is the multiplier of summand i
    in direction k."""
    n = len(rows)
    z = R.zero()
    subs = subsets(labels)
    diag = {k: [[rows[i][k] if i == j else z for j in range(n)] for i in range(n)]
            for k in labels}
    return Cube(R, labels, {T: n for T in subs}, {(T, k): diag[k] for T in subs for k in T})


def elementary(R, n, factors):
    out = R.identity(n)
    for i, j, c in factors:
        e = R.identity(n)
        e[i][j] = c
        out = R.matmul(out, e)
    return out


def base_change(shape, rng, cube, steps, allow_linear):
    """Conjugate d^k_T to P_{T-k} d P_T^{-1} with unitriangular elementary P_T.
    Commutativity, Koszulness and admissibility are preserved.  When allowed,
    the first factor at each vertex of even size is linear half the time."""
    R = cube.ring
    P, Pinv = {}, {}
    for T in sorted(subsets(cube.labels), key=lambda s: (len(s), key(s))):
        n = cube.ranks[T]
        factors = []
        linear = allow_linear and len(T) % 2 == 0 and shape.random() < 0.5
        for step in range(steps if n > 1 else 0):
            i, j = shape.sample(range(n), 2)
            c = R.const(rng.randrange(1, 101) if R.field.p else rng.randint(1, 5))
            if linear and step == 0:
                c = R.mul(c, R.var(shape.choice(R.names)))
            factors.append((i, j, c))
        P[T] = elementary(R, n, factors)
        Pinv[T] = elementary(R, n, [(i, j, R.neg(c)) for i, j, c in reversed(factors)])
    bd = {(T, k): R.matmul(R.matmul(P[T - {k}], m), Pinv[T])
          for (T, k), m in cube.bd.items()}
    return Cube(R, cube.labels, dict(cube.ranks), bd), P, Pinv


def diagonal_powers(shape, labels, summands):
    """Summand 0 has power 1 in every direction, the others 1 or 2."""
    return [{k: 1 for k in labels}] + [{k: shape.choice((1, 2)) for k in labels}
                                       for _ in range(summands - 1)]


def koszul_cube(shape, rng, R, fs, summands, steps):
    """Koszul cube over the sequence fs (label -> poly).  Returns the cube
    and the largest power placed in each direction."""
    labels = tuple(fs)
    powers = diagonal_powers(shape, labels, summands)
    rows = [{k: R.pow(fs[k], e[k]) for k in labels} for e in powers]
    any_power = any(v == 2 for e in powers for v in e.values())
    cube, _, _ = base_change(shape, rng, diagonal_cube(R, labels, rows), steps, not any_power)
    return cube, {k: max(e[k] for e in powers) for k in labels}


def zero_direction(cube, label):
    R = cube.ring
    bd = {(T, k): ([[R.zero()] * len(m[0]) for _ in m] if k == label else m)
          for (T, k), m in cube.bd.items()}
    return Cube(R, cube.labels, dict(cube.ranks), bd)


def both_directions_square(shape, rng, R, summands, steps):
    """A rank-1 square with one multiplier f in both directions, summed with
    a Koszul square over (x, y), then base-changed: not admissible."""
    x, y = R.var("x"), R.var("y")
    f = shape.choice((x, y, R.add(x, y), R.mul(x, x), R.mul(x, y)))
    rows = [{"1": f, "2": f}] + [{"1": R.pow(x, e["1"]), "2": R.pow(y, e["2"])}
                                 for e in diagonal_powers(shape, ("1", "2"), summands)[1:]]
    cube, _, _ = base_change(shape, rng, diagonal_cube(R, ("1", "2"), rows), steps, False)
    return cube


def total_complex(cube):
    """Tot with F_j = sum over |T| = j, d(e_T) = sum_k (-1)^{#{t in T: t < k}} d^k_T."""
    R = cube.ring
    by_size = {}
    for T in subsets(cube.labels):
        by_size.setdefault(len(T), []).append(T)
    for j in by_size:
        by_size[j].sort(key=key)
    n = len(cube.labels)
    ranks = [sum(cube.ranks[T] for T in by_size[j]) for j in range(n + 1)]
    diffs = []
    for j in range(1, n + 1):
        rows = [[R.zero()] * ranks[j] for _ in range(ranks[j - 1])]
        col0 = 0
        for T in by_size[j]:
            for k in T:
                S = T - {k}
                row0 = 0
                for U in by_size[j - 1]:
                    if U == S:
                        break
                    row0 += cube.ranks[U]
                sign = -1 if sum(1 for t in T if t < k) % 2 else 1
                m = cube.bd[(T, k)]
                for a, row in enumerate(m):
                    for b, e in enumerate(row):
                        rows[row0 + a][col0 + b] = e if sign > 0 else R.neg(e)
            col0 += cube.ranks[T]
        diffs.append(rows)
    return ranks, diffs


def complex_doc(R, ranks, diffs):
    return {"ranks": ranks, "differentials": [R.rows_text(d) for d in diffs]}


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

def automorphism(shape, rng, R, n):
    """Images y_1..y_n of a triangular automorphism of R: y_i is a variable
    plus a linear form in the variables after it."""
    order = shape.sample(R.names[:n], n)
    ys = []
    for i, v in enumerate(order):
        y = R.var(v)
        for u in order[i + 1:]:
            if shape.random() < 0.5:
                y = R.add(y, R.mul(R.const(rng.randint(1, 5)), R.var(u)))
        ys.append(y)
    return ys


def a_sequence(shape, rng, R, n):
    """A-sequence of degree 2-3: images of pure powers under an automorphism.
    Powers stay at most 2 for four entries; cubes there take seconds."""
    ys = automorphism(shape, rng, R, n)
    powers = (2, 3) if n <= 3 else (1, 2)
    return [R.pow(y, 2 if i == 0 else shape.choice(powers)) for i, y in enumerate(ys)]


def regular_not_a(shape, rng, R):
    """Image of x, y(1-x), z(1-x): regular in this order, not an A-sequence."""
    ys = automorphism(shape, rng, R, 3)
    one_minus = R.sub(R.const(1), ys[0])
    return [ys[0], R.mul(ys[1], one_minus), R.mul(ys[2], one_minus)]


def ring_doc(R):
    return {"field": R.field.doc(), "vars": list(R.names), "order": "grevlex"}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Builder:
    """Documents and operations of one workload.  `shape(i)` makes every
    choice about input i but its coefficients: kinds, ranks, powers, steps,
    the positions of the elementary operations, variable orders.  It does not
    depend on the seed, so every seed has the same mix of sizes in the same
    order.  The seeded `rng` draws the coefficients, which barely move the
    cost of an operation, while the shapes above can move it tenfold."""

    def __init__(self, seed, workload):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.docs = {}
        self.ops = []

    def shape(self, i):
        return random.Random(f"shape:{self.workload}:{i}")

    def doc(self, name, R, **body):
        self.docs[name] = {"ring": ring_doc(R), **body}
        return name

    def op(self, call, doc, expect, **args):
        self.ops.append({"id": len(self.ops), "call": call, "doc": doc,
                         "args": args, "expect": expect})


def field_for(i, period):
    return GF if (i // period) % 2 == 0 else Q


def var_fs(R, n):
    return {str(i + 1): R.var(v) for i, v in enumerate(R.names[:n])}


def zeroed_complex(R, ranks, diffs, k):
    diffs = list(diffs)
    diffs[k] = [[R.zero()] * ranks[k + 1] for _ in range(ranks[k])]
    return diffs


# (|S|, vertex rank) classes for the admissibility workload, cycled in order;
# every third cube is built not to be admissible.
ADMISSIBILITY_CLASSES = ((3, 2), (3, 3), (4, 2), (3, 2), (3, 4), (4, 3),
                         (3, 3), (4, 2), (3, 2), (4, 4))
STRATEGIES = ("definition", "spherical_faces", "inductive")


def build_admissibility(b, cubes):
    rng = b.rng
    for i in range(cubes):
        shape = b.shape(i)
        n, r = ADMISSIBILITY_CLASSES[i % len(ADMISSIBILITY_CLASSES)]
        R = Ring(field_for(i, len(ADMISSIBILITY_CLASSES)), VARS[:n])
        steps = shape.randint(2, 6)
        admissible = i % 3 != 2
        if admissible or i % 2 == 0:
            cube, _ = koszul_cube(shape, rng, R, var_fs(R, n), r, steps)
            if not admissible:
                cube = zero_direction(cube, shape.choice(cube.labels))
        else:
            R = Ring(R.field, VARS[:2])
            cube = both_directions_square(shape, rng, R, r, steps)
        name = b.doc(f"cube{i}", R, cube=cube.doc())
        for s in STRATEGIES:
            b.op("is_admissible", name, {"verdict": admissible}, strategy=s)


def resolution_doc(fs, U, V, targets, connecting=()):
    return {"U": list(U), "V": list(V), "fs": fs, "targets": targets,
            "connecting": list(connecting)}


def chain_of_cubes(shape, rng, R, fs, summands):
    """Two free cubes z0 -> z1 over the sequence fs: one diagonal under two
    base changes P0 and P1, joined by the cube morphism g * P1 P0^{-1}."""
    labels = tuple(fs)
    powers = diagonal_powers(shape, labels, summands)
    diag = diagonal_cube(R, labels, [{k: R.pow(fs[k], e[k]) for k in labels} for e in powers])
    steps = shape.randint(1, 3)
    z0, _, P0inv = base_change(shape, rng, diag, steps, False)
    z1, P1, _ = base_change(shape, rng, diag, steps, False)
    g = shape.choice((R.const(rng.randint(1, 5)), R.var("x"), R.var("y")))
    conn = {key(T): R.rows_text(R.scale(R.matmul(P1[T], P0inv[T]), g)) for T in subsets(labels)}
    expect = {k: max(e[k] for e in powers) for k in labels}
    return [z0.modcube_doc(), z1.modcube_doc()], [conn], expect


def build_resolve(b, count):
    rng = b.rng
    for i in range(count):
        shape = b.shape(i)
        R = Ring(field_for(i, 6), ("x", "y"))
        x, y = R.var("x"), R.var("y")
        kind = i % 6
        if kind in (0, 1):
            # chain of two free squares over (x, y), rank 2 or 3
            targets, conn, expect = chain_of_cubes(shape, rng, R, {"1": x, "2": y}, 2 + kind)
            res = resolution_doc({"1": "x", "2": "y"}, [], ["1", "2"], targets, conn)
        elif kind == 2:
            # chain of two free 1-cubes over x, rank 3 or 4
            targets, conn, expect = chain_of_cubes(shape, rng, R, {"1": x}, shape.randint(3, 4))
            res = resolution_doc({"1": "x"}, [], ["1"], targets, conn)
        elif kind == 3:
            # one free square over (x, y), rank 3 or 4
            cube, expect = koszul_cube(shape, rng, R, {"1": x, "2": y}, shape.randint(3, 4),
                                       shape.randint(1, 3))
            res = resolution_doc({"1": "x", "2": "y"}, [], ["1", "2"], [cube.modcube_doc()])
        elif kind == 4:
            # U = {2}, V = {1}: a free 1-cube over x of rank 3 or 4, taken
            # modulo y^b at every vertex (y^b A^r is fixed by base changes)
            r, bb = shape.randint(3, 4), shape.randint(1, 2)
            cube, expect = koszul_cube(shape, rng, R, {"1": x}, r, shape.randint(1, 3))
            expect["2"] = bb
            target = cube.modcube_doc()
            rel = [[R.text(R.pow(y, bb)) if i2 == j else "0" for i2 in range(r)] for j in range(r)]
            for v in target["vertices"].values():
                v["relations"] = rel
            res = resolution_doc({"1": "x", "2": "y"}, ["2"], ["1"], [target])
        else:
            # U = {1}, V = (): a chain A/(x^a) -> A/(x^a) by c*x
            a = shape.randint(2, 3)
            M = {"S": [], "vertices": {"": {"rank": 1, "relations": [[R.text(R.pow(x, a))]]}},
                 "boundaries": {}}
            expect = {"1": a}
            w = R.text(R.mul(R.const(rng.randint(1, 5)), x))
            res = resolution_doc({"1": "x"}, ["1"], [], [M, M], [{"": [[w]]}])
        name = b.doc(f"res{i}", R, resolution=res)
        b.op("koszul_resolve", name, {"exponents": expect})


KOSZUL_CYCLE = ("is_koszul_cube", "is_A_sequence", "det_is_a_sequence", "be_acyclicity",
                "factor_sequence_check", "is_koszul_cube_zeroed", "is_A_sequence_neg",
                "verify_weight_decomposition", "be_acyclicity_zeroed", "is_A_sequence")


def build_koszul(b, count):
    rng = b.rng
    for i in range(count):
        shape = b.shape(i)
        what = KOSZUL_CYCLE[i % len(KOSZUL_CYCLE)]
        F = field_for(i, len(KOSZUL_CYCLE))
        if what in ("is_koszul_cube", "det_is_a_sequence", "verify_weight_decomposition",
                    "is_koszul_cube_zeroed"):
            n = 3 if what == "verify_weight_decomposition" else shape.choice((3, 4))
            R = Ring(F, VARS[:n])
            fs = var_fs(R, n)
            cube, _ = koszul_cube(shape, rng, R, fs, shape.randint(2, 3), shape.randint(2, 5))
            koszul = what != "is_koszul_cube_zeroed"
            if not koszul:
                cube = zero_direction(cube, shape.choice(cube.labels))
            name = b.doc(f"k{i}", R, cube=cube.doc(), sequence=[R.text(fs[k]) for k in cube.labels])
            b.op("is_koszul_cube" if not koszul else what, name, {"verdict": koszul})
        elif what in ("is_A_sequence", "is_A_sequence_neg"):
            if what == "is_A_sequence":
                n = shape.choice((3, 4))
                R = Ring(F, VARS[:n])
                seq, expect = a_sequence(shape, rng, R, n), {"verdict": True, "regular": True}
            else:
                R = Ring(F, VARS[:3])
                seq, expect = regular_not_a(shape, rng, R), {"verdict": False, "regular": True}
            name = b.doc(f"k{i}", R, sequence=[R.text(f) for f in seq])
            b.op("is_A_sequence", name, expect)
        elif what == "factor_sequence_check":
            # powers of one A-sequence in matching roles, or a repeated
            # entry, which makes both sequences fail
            R = Ring(F, VARS[:3])
            ys = automorphism(shape, rng, R, 3)
            hyp = i % 20 < 10
            if hyp:
                fs = [R.pow(y, shape.randint(1, 2)) for y in ys]
                gs = [R.pow(y, shape.randint(1, 2)) for y in ys]
            else:
                fs, gs = [ys[0], ys[0]], [ys[1], ys[2]]
            name = b.doc(f"k{i}", R, sequence=[R.text(f) for f in fs],
                         cofactors=[R.text(g) for g in gs])
            b.op("factor_sequence_check", name,
                 {"verdict": True, "hypothesis_a_sequence": hyp, "conclusion_a_sequence": hyp})
        else:
            # |S| = 3 at rank 3 takes seconds (every minor is enumerated)
            n, r = shape.choice(((3, 2), (3, 2), (2, 3), (2, 4)))
            R = Ring(F, VARS[:n])
            cube, _ = koszul_cube(shape, rng, R, var_fs(R, n), r, shape.randint(1, 4))
            ranks, diffs = total_complex(cube)
            acyclic = what == "be_acyclicity"
            if not acyclic:
                diffs = zeroed_complex(R, ranks, diffs, shape.randrange(len(diffs)))
            name = b.doc(f"k{i}", R, complex=complex_doc(R, ranks, diffs))
            b.op("be_acyclicity", name, {"verdict": acyclic})


# CLI commands cycled in order: (command, document kind, extra arguments).
CLI_CYCLE = (
    ("validate", "cube", ()), ("tot", "cube", ()),
    ("admissible", "cube", ("--strategy", "definition")),
    ("koszul-check", "cube", ()), ("homology", "cube", ()), ("det", "cube", ()),
    ("typical", "aseq", ()), ("aseq", "aseq", ()), ("be-check", "complex", ()),
    ("resolve", "resolve", ()), ("random-koszul", "vars", ("--summands", "2", "--steps", "2")),
    ("admissible", "zeroed", ("--strategy", "inductive")), ("koszul-check", "zeroed", ()),
    ("aseq", "notaseq", ()), ("be-check", "complex0", ()),
    ("admissible", "cube", ("--strategy", "spherical_faces")),
)


def build_cli(b, count):
    rng = b.rng
    for i in range(count):
        shape = b.shape(i)
        command, kind, argv = CLI_CYCLE[i % len(CLI_CYCLE)]
        F = field_for(i, len(CLI_CYCLE))
        R = Ring(F, VARS[:2])
        fs2 = var_fs(R, 2)
        expect = {"exit": 0, "verdict": True}
        argv = list(argv)
        if kind in ("cube", "zeroed"):
            cube, _ = koszul_cube(shape, rng, R, fs2, shape.randint(1, 2), shape.randint(0, 3))
            if kind == "zeroed":
                cube = zero_direction(cube, shape.choice(cube.labels))
                expect = {"exit": 1, "verdict": False}
            elif command == "homology":
                expect["zero_spherical"] = True
            body = {"cube": cube.doc(), "sequence": [R.text(fs2[k]) for k in cube.labels]}
        elif kind in ("aseq", "notaseq", "vars"):
            R = Ring(F, VARS[:3])
            if kind == "aseq":
                seq = a_sequence(shape, rng, R, 2)
            elif kind == "notaseq":
                seq = regular_not_a(shape, rng, R)
                expect = {"exit": 1, "verdict": False}
            else:
                seq = [R.var(v) for v in VARS[:2]]
                argv += ["--seed", str(shape.randrange(1000))]
            body = {"sequence": [R.text(f) for f in seq]}
        elif kind in ("complex", "complex0"):
            cube, _ = koszul_cube(shape, rng, R, fs2, shape.randint(1, 2), shape.randint(0, 3))
            ranks, diffs = total_complex(cube)
            if kind == "complex0":
                diffs = zeroed_complex(R, ranks, diffs, shape.randrange(len(diffs)))
                expect = {"exit": 1, "verdict": False}
            body = {"complex": complex_doc(R, ranks, diffs)}
        else:
            cube, powers = koszul_cube(shape, rng, R, {"1": R.var("x")}, shape.randint(1, 2),
                                       shape.randint(0, 3))
            body = {"resolution": resolution_doc({"1": "x"}, [], ["1"], [cube.modcube_doc()])}
            expect["exponents"] = powers
        name = b.doc(f"c{i}", R, **body)
        b.op(command, name, expect, argv=argv)


# Inputs per seed: enough for runs of up to 30 s (see run.py).
WORKLOADS = {
    "admissibility": (build_admissibility, 80),
    "resolve": (build_resolve, 240),
    "koszul": (build_koszul, 300),
    "cli": (build_cli, 150),
}


def generate(workload, seed, out):
    build, count = WORKLOADS[workload]
    b = Builder(seed, workload)
    build(b, count)
    os.makedirs(os.path.join(out, "docs"), exist_ok=True)
    for name, doc in b.docs.items():
        with open(os.path.join(out, "docs", name + ".json"), "w") as fh:
            json.dump(doc, fh)
    with open(os.path.join(out, "ops.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": b.ops}, fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    generate(a.workload, a.seed, a.out)


if __name__ == "__main__":
    main()
