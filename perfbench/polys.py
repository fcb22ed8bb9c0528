"""Minimal exact polynomial arithmetic for building benchmark inputs.

The input generator must not use the program under test, so it carries its
own arithmetic: a polynomial is a dict mapping exponent tuples to nonzero
coefficients, either ints modulo a prime p or Fractions when p is 0 (the
field Q).  Only what the generator needs is here: sums, products, powers,
matrices, and printing in the grammar of the CLI documents.
"""

from fractions import Fraction


class Field:
    def __init__(self, p):
        self.p = p

    def norm(self, c):
        return c % self.p if self.p else Fraction(c)

    def doc(self):
        return {"Fp": self.p} if self.p else "Q"


class Ring:
    def __init__(self, field, names):
        self.field = field
        self.names = tuple(names)

    def zero(self):
        return {}

    def const(self, c):
        c = self.field.norm(c)
        return {(0,) * len(self.names): c} if c else {}

    def var(self, name, power=1):
        e = [0] * len(self.names)
        e[self.names.index(name)] = power
        return {tuple(e): self.field.norm(1)}

    def add(self, a, b):
        out = dict(a)
        for e, c in b.items():
            s = self.field.norm(out.get(e, 0) + c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return out

    def neg(self, a):
        return {e: self.field.norm(-c) for e, c in a.items()}

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                s = self.field.norm(out.get(e, 0) + ca * cb)
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return out

    def pow(self, a, n):
        out = self.const(1)
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def text(self, a):
        """Print in the CLI grammar: `3*x^2*y - 1/2*z + 5`."""
        if not a:
            return "0"
        pieces = []
        for e in sorted(a, key=lambda e: (-sum(e), tuple(-i for i in e))):
            c = a[e]
            mono = "*".join(n if k == 1 else f"{n}^{k}"
                            for n, k in zip(self.names, e) if k)
            neg = self.field.p == 0 and c < 0
            mag = abs(c) if self.field.p == 0 else c
            mag = str(mag)
            body = mono if mono and mag == "1" else (f"{mag}*{mono}" if mono else mag)
            pieces.append(("- " if neg else "+ ") + body)
        out = " ".join(pieces)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    # -- matrices: lists of rows of polynomials --------------------------------

    def identity(self, n):
        return [[self.const(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def matmul(self, a, b):
        inner = len(b)
        cols = len(b[0]) if b else 0
        out = []
        for row in a:
            new = []
            for j in range(cols):
                s = {}
                for t in range(inner):
                    if row[t] and b[t][j]:
                        s = self.add(s, self.mul(row[t], b[t][j]))
                new.append(s)
            out.append(new)
        return out

    def scale(self, m, g):
        return [[self.mul(g, e) for e in row] for row in m]

    def rows_text(self, m):
        return [[self.text(e) for e in row] for row in m]
