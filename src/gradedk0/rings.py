"""Monoid rings S[C ∩ Z^n] with their Z^n-grading.

Elements are sparse: a finite map from lattice exponents inside the cone to
nonzero base coefficients.  Each graded piece is a free rank-1 module over
the base (one monomial per lattice point), the degree-0 part is the base
itself, and killing every positive-degree term is the reduction onto it.
"""

from __future__ import annotations

from .cones import Cone, LatticePoint, OrderForm, vadd


class GradedRing:
    """Descriptor for a monoid ring: base coefficients, cone, order, named monomials."""

    def __init__(self, base, cone: Cone, order: OrderForm | None = None, named_generators=None) -> None:
        pointed, witness = cone.is_pointed()
        if not pointed:
            raise ValueError("monoid rings require a pointed cone")
        if not cone.is_full_dimensional():
            raise ValueError("monoid rings require a full-dimensional cone")
        if order is None:
            order = witness
        cone.validate_order(order)
        named = {}
        for name, exp in (named_generators or {}).items():
            exp = tuple(int(x) for x in exp)
            if not cone.contains(exp):
                raise ValueError(f"named generator {name} has exponent outside the cone")
            named[str(name)] = exp
        self.base = base
        self.cone = cone
        self.order = order
        self.named_generators = named

    @property
    def n(self) -> int:
        return self.cone.n

    @property
    def origin(self) -> LatticePoint:
        return (0,) * self.n

    def zero(self) -> "RingElem":
        return RingElem(self, {}, _validated=True)

    def one(self) -> "RingElem":
        return self.constant(self.base.one())

    def constant(self, coeff) -> "RingElem":
        coeff = self.base.coerce(coeff)
        if self.base.is_zero(coeff):
            return self.zero()
        return RingElem(self, {self.origin: coeff}, _validated=True)

    def monomial(self, exponent, coeff=1) -> "RingElem":
        exponent = tuple(int(x) for x in exponent)
        return RingElem(self, {exponent: self.base.coerce(coeff)})

    def gen(self, name: str) -> "RingElem":
        if name not in self.named_generators:
            raise ValueError(f"unknown generator {name!r}")
        return self.monomial(self.named_generators[name])

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GradedRing):
            return NotImplemented
        return (
            self.base == other.base
            and self.cone == other.cone
            and self.order == other.order
            and self.named_generators == other.named_generators
        )

    def __hash__(self):
        return hash((self.base, self.cone, self.order, tuple(sorted(self.named_generators.items()))))

    def __repr__(self):
        return f"GradedRing(base={self.base!r}, cone={self.cone!r}, gamma0={self.order.gamma0})"


class RingElem:
    """Sparse exact element of a monoid ring."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: GradedRing, terms, _validated: bool = False) -> None:
        clean = {}
        if _validated:
            clean = dict(terms)
        else:
            for exp, coeff in dict(terms).items():
                exp = tuple(int(x) for x in exp)
                if len(exp) != ring.n:
                    raise ValueError("exponent dimension mismatch")
                if not ring.cone.contains(exp):
                    raise ValueError(f"exponent {exp} lies outside the cone")
                coeff = ring.base.coerce(coeff)
                if not ring.base.is_zero(coeff):
                    clean[exp] = coeff
        self.ring = ring
        self._terms = clean

    def _check_context(self, other: "RingElem") -> None:
        if self.ring != other.ring:
            raise ValueError("mixed ring contexts")

    def terms(self):
        """Term list in ascending order of exponent (canonical iteration order)."""
        return sorted(self._terms.items(), key=lambda kv: self.ring.order.sort_key(kv[0]))

    def support(self):
        return set(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        self._check_context(other)
        base = self.ring.base
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            acc = out.get(exp)
            acc = coeff if acc is None else acc + coeff
            if base.is_zero(acc):
                out.pop(exp, None)
            else:
                out[exp] = acc
        return RingElem(self.ring, out, _validated=True)

    def __neg__(self):
        return RingElem(
            self.ring, {e: -c for e, c in self._terms.items()}, _validated=True
        )

    def __sub__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self + (-other)

    def scalar_mul(self, coeff) -> "RingElem":
        # over a product base nonzero * nonzero can vanish componentwise
        base = self.ring.base
        coeff = base.coerce(coeff)
        out = {}
        for e, c in self._terms.items():
            prod = c * coeff
            if not base.is_zero(prod):
                out[e] = prod
        return RingElem(self.ring, out, _validated=True)

    def __mul__(self, other):
        if isinstance(other, RingElem):
            self._check_context(other)
            base = self.ring.base
            out: dict = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    exp = vadd(e1, e2)
                    prod = c1 * c2
                    acc = out.get(exp)
                    acc = prod if acc is None else acc + prod
                    if base.is_zero(acc):
                        out.pop(exp, None)
                    else:
                        out[exp] = acc
            return RingElem(self.ring, out, _validated=True)
        if isinstance(other, int):
            return self.scalar_mul(self.ring.base.from_int(other))
        try:
            return self.scalar_mul(other)
        except ValueError:
            return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("ring exponents must be nonnegative integers")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def graded_piece(self, degree: LatticePoint):
        """Coefficient at the given exponent (base zero if absent)."""
        degree = tuple(int(x) for x in degree)
        return self._terms.get(degree, self.ring.base.zero())

    def reduce_mod_plus(self):
        """Image under the ring map onto the degree-0 part."""
        return self.graded_piece(self.ring.origin)

    def is_homogeneous(self) -> bool:
        return len(self._terms) <= 1

    def degree(self) -> LatticePoint | None:
        """Exponent of a homogeneous element; None for 0."""
        if not self._terms:
            return None
        if len(self._terms) > 1:
            raise ValueError("element is not homogeneous")
        return next(iter(self._terms))

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        base = self.ring.base
        one = base.one()
        parts = []
        for exp, coeff in self.terms():
            enc = base.encode(coeff)
            if " " in enc and not enc.startswith("("):
                enc = f"({enc})"
            mono = "x^(" + ",".join(str(x) for x in exp) + ")"
            if all(x == 0 for x in exp):
                parts.append(enc)
            elif coeff == one:
                parts.append(mono)
            else:
                parts.append(f"{enc}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"RingElem({self})"

    def to_term_list(self):
        base = self.ring.base
        return [
            {"exp": list(exp), "coef": base.encode(coeff)}
            for exp, coeff in self.terms()
        ]


def from_term_list(ring: GradedRing, data) -> RingElem:
    terms: dict = {}
    base = ring.base
    for item in data:
        exp = tuple(int(x) for x in item["exp"])
        coeff = base.parse(item["coef"])
        if exp in terms:
            raise ValueError(f"duplicate exponent {exp} in term list")
        terms[exp] = coeff
    return RingElem(ring, terms)
