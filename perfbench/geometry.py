"""The benchmark's cones, order forms and lattice windows, in integer arithmetic.

Each cone is described by an exact integer membership test, independent of
gradedk0's facet derivation:

* R1, the orthant: x >= 0, y >= 0.
* R2, spanned by (1,0), (1,2): y >= 0, 2x - y >= 0.
* R3, spanned by (1,0), (1,sqrt 2): y >= 0, x >= 0, 2x^2 >= y^2.
* Q3, the non-simplicial 3-dim cone spanned by (1,0,0), (0,1,0), (1,0,1),
  (0,1,1): x, y, z >= 0 and x + y - z >= 0.

Jobs always state their order form gamma0, so every window below is fixed by
the job alone.  The interior vector is the sum of the generators made
primitive (for R3 the sum (2, sqrt 2) is rounded down to (2, 1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable


@dataclass(frozen=True)
class ConeSpec:
    name: str
    scalars: str  # job "scalars" descriptor of the cone coordinates
    generators: tuple  # as written into job files
    gamma0: tuple
    interior: tuple
    named: dict
    contains: Callable  # integer membership test of a lattice point
    box: tuple  # coordinate c of y in C with gamma0.y <= B lies in [0, box[c]*B]
    facets: tuple  # inward facet normals, exact, up to positive scaling

    @property
    def n(self) -> int:
        return len(self.gamma0)

    def value(self, p) -> int:
        return sum(g * x for g, x in zip(self.gamma0, p))

    def key(self, p):
        """Sort key of the total order: gamma0 value, then ascending lex."""
        return (self.value(p), tuple(p))

    def leq(self, a, b) -> bool:
        return self.key(a) <= self.key(b)

    def window(self, base, bound: int) -> list:
        """Lattice points x with x - base in C and gamma0.x <= bound, ascending."""
        slack = bound - self.value(base)
        if slack < 0:
            return []
        ranges = [range(0, f * slack + 1) for f in self.box]
        pts = [
            tuple(b + y for b, y in zip(base, off))
            for off in product(*ranges)
            if self.value(off) <= slack and self.contains(off)
        ]
        return sorted(pts, key=self.key)


def _r1(p):
    return p[0] >= 0 and p[1] >= 0


def _r2(p):
    return p[1] >= 0 and 2 * p[0] - p[1] >= 0


def _r3(p):
    x, y = p
    return y >= 0 and x >= 0 and 2 * x * x >= y * y


def _q3(p):
    x, y, z = p
    return min(x, y, z, x + y - z) >= 0


_Q = Fraction
_SQRT2 = (_Q(0), _Q(1))  # sqrt 2 as an element (a, b) of Q(sqrt 2)

CONES = {
    "R1": ConeSpec(
        "R1", "rational", (("1", "0"), ("0", "1")), (1, 1), (1, 1),
        {"X": (1, 0), "Y": (0, 1)}, _r1, (1, 1),
        ((_Q(1), _Q(0)), (_Q(0), _Q(1))),
    ),
    "R2": ConeSpec(
        "R2", "rational", (("1", "0"), ("1", "2")), (1, 0), (1, 1),
        {"U": (1, 0), "V": (1, 1), "W": (1, 2)}, _r2, (1, 2),
        ((_Q(0), _Q(1)), (_Q(2), _Q(-1))),
    ),
    "R3": ConeSpec(
        "R3", "quadratic:2", (("1", "0"), ("1", "0+1√2")), (1, 0), (2, 1),
        {}, _r3, (1, 2),
        (((_Q(0), _Q(0)), (_Q(1), _Q(0))), (_SQRT2, (_Q(-1), _Q(0)))),
    ),
    "Q3": ConeSpec(
        "Q3", "rational",
        (("1", "0", "0"), ("0", "1", "0"), ("1", "0", "1"), ("0", "1", "1")),
        (1, 1, 1), (1, 1, 1),
        {"A": (1, 0, 0), "B": (0, 1, 0), "C": (1, 0, 1), "D": (0, 1, 1)}, _q3,
        (1, 1, 1),
        (
            (_Q(1), _Q(0), _Q(0)), (_Q(0), _Q(1), _Q(0)),
            (_Q(0), _Q(0), _Q(1)), (_Q(1), _Q(1), _Q(-1)),
        ),
    ),
}


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def filtration_window_index(cone: ConeSpec, shifts) -> int:
    """Smallest k with every shift in -kv + C, order-below kv, not below -kv."""
    v = cone.interior
    k = 0
    while True:
        high = tuple(k * x for x in v)
        low = tuple(-x for x in high)
        if all(
            cone.contains(tuple(b + h for b, h in zip(s, high)))
            and cone.leq(s, high)
            and not cone.leq(s, low)
            for s in shifts
        ):
            return k
        k += 1


def filtration_window(cone: ConeSpec, k: int) -> list:
    """Points of -kv + C that are order-below kv, ascending."""
    high = tuple(k * x for x in cone.interior)
    low = tuple(-x for x in high)
    return [p for p in cone.window(low, cone.value(high)) if cone.leq(p, high)]
