"""Pointed polyhedral cones, the positive order form, and window enumeration.

A cone is given by finitely many generators over an exact ordered field
(rationals, or a real quadratic extension in ambient dimension <= 2).  The
facet description is derived from the generators: every facet of a
full-dimensional cone is spanned by n-1 linearly independent generators, so
candidate normals come from nullspaces of (n-1)-subsets and survive iff the
whole generator set lies on their nonnegative side.

The total order on Z^n is an integral linear form gamma0 that is strictly
positive on the cone generators, refined by ascending lexicographic
comparison on ties.  Strict positivity makes every slice
{y in C : gamma0 . y <= B} bounded, which is what window enumeration and the
nilpotency bounds downstream rely on; integrality makes the minimum positive
value on lattice points of the cone at least 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations, product

from . import linalg
from .errors import InternalCheckError
from .scalars import (
    QQ,
    QuadraticField,
    QuadraticReal,
    RationalField,
    rational_sign,
    sqrt_rational_approx,
    surd_sign,
)

LatticePoint = tuple[int, ...]

_BOX_LIMIT = 5_000_000


def vadd(a: LatticePoint, b: LatticePoint) -> LatticePoint:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: LatticePoint, b: LatticePoint) -> LatticePoint:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: LatticePoint) -> LatticePoint:
    return tuple(-x for x in a)


def vscale(k: int, a: LatticePoint) -> LatticePoint:
    return tuple(k * x for x in a)


def idot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _field_dot(weights, vec, field):
    """Dot product of an integer/field weight vector with a field vector."""
    acc = field.zero()
    for w, x in zip(weights, vec):
        acc = acc + x * w
    return acc


def _scalar_floor(x, field) -> int:
    if isinstance(x, Fraction):
        return math.floor(x)
    if isinstance(x, QuadraticReal):
        return x.floor()
    return math.floor(field.coerce(x))


def _scalar_ceil(x, field) -> int:
    return -_scalar_floor(-x, field)


@dataclass(frozen=True)
class OrderForm:
    """Integral linear form with ascending-lex tie-break: a total order on Z^n."""

    gamma0: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma0", tuple(int(x) for x in self.gamma0))

    @property
    def n(self) -> int:
        return len(self.gamma0)

    def value(self, point: LatticePoint) -> int:
        if len(point) != self.n:
            raise ValueError("dimension mismatch")
        return idot(self.gamma0, point)

    def compare(self, a: LatticePoint, b: LatticePoint) -> int:
        """-1, 0 or +1 for a < b, a = b, a > b in the total order."""
        va, vb = self.value(a), self.value(b)
        if va != vb:
            return -1 if va < vb else 1
        ta, tb = tuple(a), tuple(b)
        if ta == tb:
            return 0
        return -1 if ta < tb else 1

    def leq(self, a: LatticePoint, b: LatticePoint) -> bool:
        return self.compare(a, b) <= 0

    def is_positive(self, point: LatticePoint) -> bool:
        """True iff point > 0 in the total order."""
        return self.compare(point, (0,) * self.n) > 0

    def sort_key(self, point: LatticePoint):
        return (self.value(point), tuple(point))


def _normalize_direction(vec, field):
    """Canonical representative of the positive-scaling class of vec."""
    lead = next((x for x in vec if not field.is_zero(x)), None)
    if lead is None:
        raise ValueError("zero vector has no direction")
    scale = field.inv(lead if field.sign(lead) > 0 else -lead)
    return tuple(x * scale for x in vec)


def _clear_to_integers(vec_fractions) -> tuple[int, ...]:
    denom = reduce(lambda acc, f: acc * f.denominator // math.gcd(acc, f.denominator), vec_fractions, 1)
    ints = [int(f * denom) for f in vec_fractions]
    content = reduce(math.gcd, (abs(v) for v in ints), 0)
    if content > 1:
        ints = [v // content for v in ints]
    return tuple(ints)


def _pretty_normal(vec, field):
    """Clear denominators for display; direction is unchanged."""
    if isinstance(field, RationalField):
        return tuple(Fraction(v) for v in _clear_to_integers(vec))
    parts = [f for x in vec for f in (x.a, x.b)]
    cleared = _clear_to_integers(parts)
    half = [Fraction(v) for v in cleared]
    return tuple(
        QuadraticReal(half[2 * i], half[2 * i + 1], field.d) for i in range(len(vec))
    )


def _integral_direction(vec, field, accept, max_digits: int = 80) -> tuple[int, ...]:
    """Integer vector near the direction of vec passing the exact accept test."""
    if isinstance(field, RationalField):
        cand = _clear_to_integers(vec)
        if any(cand) and accept(cand):
            return cand
        raise InternalCheckError("rational direction failed exact verification")
    for digits in range(0, max_digits):
        apx = sqrt_rational_approx(field.d, digits)
        approx = [x.a + x.b * apx for x in vec]
        cand = _clear_to_integers(approx)
        if any(cand) and accept(cand):
            return cand
    raise InternalCheckError("no integral direction found after bounded refinement")


def facets_from_generators(generators, field):
    """Inward facet normals h_1..h_m with cone = {x : h_i . x >= 0 for all i}.

    Requires a full-dimensional cone.  Quadratic scalars are limited to
    ambient dimension 2, where the construction amounts to inward
    perpendiculars of the two extreme rays.
    """
    gens = [list(g) for g in generators]
    n = len(gens[0])
    if isinstance(field, QuadraticField) and n > 2:
        raise ValueError("quadratic cones are supported only in dimension <= 2")
    if linalg.rank(gens, field) < n:
        raise ValueError("facet description requires a full-dimensional cone")

    found = {}
    for subset in combinations(range(len(gens)), n - 1):
        kernel = linalg.nullspace([gens[i] for i in subset], field, n)
        if len(kernel) != 1:
            continue
        for cand in (kernel[0], [-x for x in kernel[0]]):
            signs = [field.sign(_field_dot(cand, g, field)) for g in gens]
            if all(s >= 0 for s in signs):
                key = _normalize_direction(cand, field)
                found.setdefault(key, _pretty_normal(key, field))
    facets = sorted(found.values(), key=lambda h: [field.encode(x) for x in h])
    _cross_validate_facets(gens, facets, field, n)
    return facets


def _cross_validate_facets(gens, facets, field, n: int) -> None:
    """Check the H- and V-descriptions agree.

    Every generator satisfies every facet by construction.  When the facet
    normals span R^n (pointed case) the extreme rays of the facet
    intersection are recovered and each must be parallel to a generator;
    otherwise the two descriptions would differ.
    """
    for h in facets:
        for g in gens:
            if field.sign(_field_dot(h, g, field)) < 0:
                raise InternalCheckError("generator violates derived facet")
    rows = [list(h) for h in facets]
    if linalg.rank(rows, field) < n:
        return
    for subset in combinations(range(len(facets)), n - 1):
        kernel = linalg.nullspace([rows[i] for i in subset], field, n)
        if len(kernel) != 1:
            continue
        for ray in (kernel[0], [-x for x in kernel[0]]):
            if all(field.sign(_field_dot(h, ray, field)) >= 0 for h in rows):
                if not any(
                    linalg.rank([ray, g], field) == 1 for g in gens
                ):
                    raise InternalCheckError(
                        "facet description admits a ray outside the generated cone"
                    )


class Cone:
    """Polyhedral cone spanned by nonzero generators over an exact ordered field."""

    def __init__(self, generators, field=QQ) -> None:
        if not getattr(field, "is_ordered", False):
            raise ValueError("cone scalars must be an ordered field")
        gens = [tuple(field.coerce(x) for x in g) for g in generators]
        if not gens:
            raise ValueError("a cone needs at least one generator")
        n = len(gens[0])
        if n == 0 or any(len(g) != n for g in gens):
            raise ValueError("generators must be nonempty vectors of equal length")
        for g in gens:
            if all(field.is_zero(x) for x in g):
                raise ValueError("zero vector among cone generators")
        self.field = field
        self.n = n
        self.generators = tuple(gens)

    @classmethod
    def rational(cls, generators) -> "Cone":
        return cls(generators, QQ)

    @classmethod
    def quadratic(cls, d: int, generators) -> "Cone":
        return cls(generators, QuadraticField(d))

    @cached_property
    def facets(self):
        return tuple(facets_from_generators(self.generators, self.field))

    def is_full_dimensional(self) -> bool:
        return linalg.rank([list(g) for g in self.generators], self.field) == self.n

    @cached_property
    def _integer_facets(self):
        """Each facet normal, scaled by a positive factor, as integer vectors
        (p, q) standing for p + q*sqrt(d); q is None over the rationals."""
        if isinstance(self.field, RationalField):
            return tuple((_clear_to_integers(h), None) for h in self.facets)
        out = []
        for h in self.facets:
            ints = _clear_to_integers([f for x in h for f in (x.a, x.b)])
            out.append((ints[0::2], ints[1::2]))
        return tuple(out)

    def _facet_signs(self, point):
        """Sign of h . point for each facet normal h, lazily.

        Integer points are decided in integer arithmetic; points with field
        entries go through the field.
        """
        if len(point) != self.n:
            raise ValueError("dimension mismatch")
        if all(type(x) is int for x in point):
            for p, q in self._integer_facets:
                a = idot(p, point)
                if q is None:
                    yield rational_sign(a)
                else:
                    yield surd_sign(a, idot(q, point), self.field.d)
        else:
            field = self.field
            vec = [field.coerce(x) for x in point]
            for h in self.facets:
                yield field.sign(_field_dot(h, vec, field))

    def contains(self, point) -> bool:
        return all(s >= 0 for s in self._facet_signs(point))

    def contains_strictly(self, point) -> bool:
        return all(s > 0 for s in self._facet_signs(point))

    @cached_property
    def _pointedness(self):
        field, n = self.field, self.n
        rows = [list(g) for g in self.generators]
        r = linalg.rank(rows, field)
        if r < n:
            return self._pointedness_in_span(r)
        lineality = linalg.nullspace([list(h) for h in self.facets], field, n)
        if lineality:
            x = tuple(lineality[0])
            return False, None, (x, tuple(-c for c in x))
        normal_sum = [
            reduce(lambda a, b: a + b, (h[i] for h in self.facets), field.zero())
            for i in range(n)
        ]
        gamma0 = _integral_direction(
            normal_sum,
            field,
            lambda cand: all(
                field.sign(_field_dot(cand, g, field)) > 0 for g in self.generators
            ),
        )
        return True, OrderForm(gamma0), None

    def _pointedness_in_span(self, r: int):
        """Pointedness of a lower-dimensional cone, decided inside its span."""
        field = self.field
        basis: list[int] = []
        for i in range(len(self.generators)):
            rows = [list(self.generators[j]) for j in basis + [i]]
            if linalg.rank(rows, field) > len(basis):
                basis.append(i)
        bmat = [
            [self.generators[j][k] for j in basis] for k in range(self.n)
        ]  # n x r, columns are the basis generators
        coords = []
        for g in self.generators:
            sol = linalg.solve(bmat, list(g), field)
            if sol is None:
                raise InternalCheckError("generator not in span of chosen basis")
            coords.append(tuple(sol))
        sub = Cone(coords, field)
        pointed, order, pair = sub._pointedness
        if not pointed:
            def back(cvec):
                return tuple(
                    _field_dot(
                        cvec, [self.generators[j][k] for j in basis], field
                    )
                    for k in range(self.n)
                )
            return False, None, (back(pair[0]), back(pair[1]))
        # pull the witness back through a left inverse of the basis matrix
        row_idx: list[int] = []
        for k in range(self.n):
            rows = [bmat[j] for j in row_idx + [k]]
            if linalg.rank(rows, field) > len(row_idx):
                row_idx.append(k)
        inv = linalg.invert([bmat[k] for k in row_idx], field)
        gamma_hat = []
        for k in range(self.n):
            if k in row_idx:
                col = row_idx.index(k)
                acc = field.zero()
                for j in range(r):
                    acc = acc + inv[j][col] * order.gamma0[j]
                gamma_hat.append(acc)
            else:
                gamma_hat.append(field.zero())
        gamma0 = _integral_direction(
            gamma_hat,
            field,
            lambda cand: all(
                field.sign(_field_dot(cand, g, field)) > 0 for g in self.generators
            ),
        )
        return True, OrderForm(gamma0), None

    def is_pointed(self):
        """(True, integral OrderForm witness) or (False, None)."""
        pointed, order, _ = self._pointedness
        return pointed, order

    def opposite_pair(self):
        """A pair (x, -x) of nonzero opposite directions inside a non-pointed cone."""
        pointed, _, pair = self._pointedness
        if pointed:
            raise ValueError("cone is pointed; no opposite pair exists")
        return pair

    def interior_vector(self) -> LatticePoint:
        """Nonzero integral vector strictly inside a full-dimensional pointed cone."""
        if not self.is_full_dimensional():
            raise ValueError("interior vector requires a full-dimensional cone")
        pointed, _ = self.is_pointed()
        if not pointed:
            raise ValueError("interior vector requires a pointed cone")
        field = self.field
        total = [
            reduce(lambda a, b: a + b, (g[i] for g in self.generators), field.zero())
            for i in range(self.n)
        ]
        return _integral_direction(
            total,
            field,
            lambda cand: all(
                field.sign(_field_dot(list(h), cand, field)) > 0 for h in self.facets
            ),
        )

    def validate_order(self, order: OrderForm) -> None:
        if order.n != self.n:
            raise ValueError("order form dimension mismatch")
        for g in self.generators:
            if self.field.sign(_field_dot(order.gamma0, g, self.field)) <= 0:
                raise ValueError(
                    "order form is not strictly positive on every cone generator"
                )

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return self.field == other.field and self.generators == other.generators

    def __hash__(self):
        return hash((self.field, self.generators))

    def __repr__(self):
        gens = ", ".join(
            "(" + ", ".join(self.field.encode(x) for x in g) + ")"
            for g in self.generators
        )
        return f"Cone[{gens}]"


def enumerate_window(
    order: OrderForm, cone: Cone, base: LatticePoint, bound: int
) -> list[LatticePoint]:
    """All x in (base + C) with integer coordinates and gamma0 . x <= bound,
    strictly ascending in the total order.

    The slice {y in C : gamma0 . y <= B} is a polytope whose vertices are the
    origin and the generators scaled onto the bounding hyperplane, so exact
    coordinate extremes over those vertices give a finite integer box to scan.
    """
    cone.validate_order(order)
    base = tuple(int(x) for x in base)
    if len(base) != cone.n:
        raise ValueError("dimension mismatch")
    slack = bound - order.value(base)
    if slack < 0:
        return []
    field = cone.field
    verts = [[field.zero()] * cone.n]
    for g in cone.generators:
        level = _field_dot(order.gamma0, g, field)
        scale = field.from_int(slack) * field.inv(level)
        verts.append([x * scale for x in g])
    ranges = []
    volume = 1
    for i in range(cone.n):
        lo = min((_scalar_floor(v[i], field) for v in verts))
        hi = max((_scalar_ceil(v[i], field) for v in verts))
        ranges.append(range(lo + base[i], hi + base[i] + 1))
        volume *= len(ranges[-1])
        if volume > _BOX_LIMIT:
            raise ValueError("enumeration window is too large")
    points = [
        x
        for x in product(*ranges)
        if order.value(x) <= bound and cone.contains(vsub(x, base))
    ]
    points.sort(key=order.sort_key)
    return points
