"""Exact coefficient bases and shift-masked matrices for the benchmark.

Written without importing gradedk0, so that the generated inputs and the
answers they are checked against do not depend on the code under test.

A degree-preserving map between shifted free modules has, at entry (i, j),
one monomial of degree shift[j] - shift[i] (or zero, which is forced when
that degree lies outside the cone).  So a graded matrix is a plain matrix of
base scalars plus that support mask, and composing two masked matrices is
plain matrix multiplication: the product respects the mask again.

Scalar representations: Fraction for ``rational``, an int in [0, p) for
``fp:p``, a pair (a, b) of Fractions meaning a + b*sqrt(d) for
``quadratic:d``, and a tuple of components for ``product:...``.
"""

from __future__ import annotations

import re
from fractions import Fraction

_FP_RE = re.compile(r"^\s*(\d+)\s+mod\s+(\d+)\s*$")


class Rational:
    descriptor = "rational"

    def __init__(self) -> None:
        self.factors = (self,)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def is_zero(self, x) -> bool:
        return x == 0

    def encode(self, x) -> str:
        return str(x)

    def parse(self, text: str):
        return Fraction(text.strip())

    def component(self, x, i: int):
        return x


class PrimeField:
    def __init__(self, p: int) -> None:
        self.p = p
        self.descriptor = f"fp:{p}"
        self.factors = (self,)

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def is_zero(self, x) -> bool:
        return x == 0

    def encode(self, x) -> str:
        return f"{x} mod {self.p}"

    def parse(self, text: str):
        m = _FP_RE.match(text)
        if not m or int(m.group(2)) != self.p:
            raise ValueError(f"not an element of F_{self.p}: {text!r}")
        return int(m.group(1)) % self.p

    def component(self, x, i: int):
        return x


class Quadratic:
    """Q(sqrt d); elements (a, b) mean a + b*sqrt(d)."""

    def __init__(self, d: int) -> None:
        self.d = d
        self.descriptor = f"quadratic:{d}"
        self.factors = (self,)

    def zero(self):
        return (Fraction(0), Fraction(0))

    def one(self):
        return (Fraction(1), Fraction(0))

    def from_int(self, n: int):
        return (Fraction(n), Fraction(0))

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def mul(self, x, y):
        return (x[0] * y[0] + self.d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def neg(self, x):
        return (-x[0], -x[1])

    def is_zero(self, x) -> bool:
        return x[0] == 0 and x[1] == 0

    def encode(self, x) -> str:
        return f"{x[0]}+{x[1]}√{self.d}"

    def parse(self, text: str):
        text = text.strip()
        if "√" not in text:
            return (Fraction(text), Fraction(0))
        body, d = text.split("√")
        if int(d) != self.d:
            raise ValueError(f"expected √{self.d}: {text!r}")
        a, b = body.rsplit("+", 1)
        return (Fraction(a), Fraction(b))

    def component(self, x, i: int):
        return x

    def sign(self, x) -> int:
        """Exact sign of a + b*sqrt(d) by comparing a^2 with d*b^2."""
        a, b = x
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        diff = a * a - self.d * b * b
        return sa * ((diff > 0) - (diff < 0))


class Product:
    def __init__(self, factors) -> None:
        self.factors = tuple(factors)
        self.descriptor = "product:" + ",".join(f.descriptor for f in self.factors)

    def zero(self):
        return tuple(f.zero() for f in self.factors)

    def one(self):
        return tuple(f.one() for f in self.factors)

    def from_int(self, n: int):
        return tuple(f.from_int(n) for f in self.factors)

    def add(self, x, y):
        return tuple(f.add(a, b) for f, a, b in zip(self.factors, x, y))

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def neg(self, x):
        return tuple(f.neg(a) for f, a in zip(self.factors, x))

    def is_zero(self, x) -> bool:
        return all(f.is_zero(a) for f, a in zip(self.factors, x))

    def encode(self, x) -> str:
        return "(" + ",".join(f.encode(a) for f, a in zip(self.factors, x)) + ")"

    def parse(self, text: str):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"not a product element: {text!r}")
        parts = text[1:-1].split(",")
        if len(parts) != len(self.factors):
            raise ValueError(f"wrong number of components: {text!r}")
        return tuple(f.parse(s) for f, s in zip(self.factors, parts))

    def component(self, x, i: int):
        return x[i]


def base_from_descriptor(text: str):
    if text == "rational":
        return Rational()
    kind, _, arg = text.partition(":")
    if kind == "fp":
        return PrimeField(int(arg))
    if kind == "quadratic":
        return Quadratic(int(arg))
    if kind == "product":
        return Product(base_from_descriptor(part) for part in arg.split(","))
    raise ValueError(f"unknown base {text!r}")


# -- matrices over a base ----------------------------------------------------


def identity(base, n: int):
    one, zero = base.one(), base.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(base, a, b):
    if not a:
        return []
    zero = base.zero()
    cols = len(b[0])
    out = []
    for row in a:
        acc = [zero] * cols
        for k, x in enumerate(row):
            if base.is_zero(x):
                continue
            brow = b[k]
            for j in range(cols):
                if not base.is_zero(brow[j]):
                    acc[j] = base.add(acc[j], base.mul(x, brow[j]))
        out.append(acc)
    return out


def mat_add(base, a, b):
    return [[base.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(base, a):
    return [[base.neg(x) for x in row] for row in a]


def mat_eq(base, a, b) -> bool:
    """Entrywise equality, comparing canonical values (so -0 == 0 etc.)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if not base.is_zero(base.add(x, base.neg(y))):
                return False
    return True


def is_zero_matrix(base, a) -> bool:
    return all(base.is_zero(x) for row in a for x in row)


def unipotent_inverse(base, m):
    """Inverse of 1 + N for nilpotent N, by the finite geometric series."""
    n = len(m)
    ident = identity(base, n)
    neg_n = mat_add(base, mat_neg(base, m), ident)  # -(m - 1)
    out, power = ident, ident
    for _ in range(n):
        power = mat_mul(base, power, neg_n)
        if is_zero_matrix(base, power):
            return out
        out = mat_add(base, out, power)
    raise ValueError("matrix is not unipotent")
