"""Exact scalar arithmetic: rationals, real quadratic extensions, prime fields.

Rationals are plain ``fractions.Fraction`` (already canonical: lowest terms,
positive denominator).  ``QuadraticReal`` models a + b*sqrt(d) for one fixed
squarefree d >= 2 per context, with sign computation done purely in integer
arithmetic; this is what makes irrational cone data decidable.
``PrimeFieldElem`` is arithmetic mod a fixed prime.

Field descriptors (``RationalField``, ``QuadraticField``, ``PrimeField``,
``ProductRing``) carry the per-context parameters, element construction and
the text encodings used for interchange:

    rationals        "p/q"      ("p" when q = 1)
    quadratic reals  "a+b√d"    (a, b rational in the same encoding)
    prime fields     "v mod p"
    products         "(enc,enc,...)"

All values are immutable; mixed-context operations raise ``ValueError``.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
PRIME_TEST_PROVEN = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Miller-Rabin with the twelve prime bases up to 37: proven deterministic
    below PRIME_TEST_PROVEN (about 3.2 * 10^23)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache
def is_squarefree(n: int) -> bool:
    """Trial division below 10^6, then the cofactor m (prime factors >= 10^6):
    squarefree if 1 or a proven prime; below 10^18 it has at most two prime
    factors, so squarefree iff not a square; otherwise over budget (ValueError)."""
    if n < 1:
        return False
    m = n
    p = 2
    while p < 10**6 and p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
        else:
            p += 1
    if p * p > m or (m < PRIME_TEST_PROVEN and is_prime(m)):
        return True
    if m < 10**18:
        return math.isqrt(m) ** 2 != m
    raise ValueError(f"squarefree test of {n} is over budget: cofactor >= 10^18 is not a proven prime")


def rational_sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def surd_sign(a, b, d: int) -> int:
    """Sign of a + b*sqrt(d) for rational a, b: a^2 against d*b^2 when the
    signs of a and b differ."""
    sa = rational_sign(a)
    sb = rational_sign(b)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    return sa * rational_sign(a * a - d * b * b)


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational encoding: {text!r}")
    return Fraction(text)


def sqrt_rational_approx(d: int, digits: int) -> Fraction:
    """Rational lower approximation of sqrt(d) with error below 10**-digits."""
    scale = 10**digits
    return Fraction(math.isqrt(d * scale * scale), scale)


@dataclass(frozen=True)
class QuadraticReal:
    """a + b*sqrt(d) with rational a, b and fixed squarefree d >= 2."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        if self.d < 2 or not is_squarefree(self.d):
            raise ValueError(f"d must be squarefree and >= 2, got {self.d}")
        if not isinstance(self.a, Fraction) or not isinstance(self.b, Fraction):
            object.__setattr__(self, "a", Fraction(self.a))
            object.__setattr__(self, "b", Fraction(self.b))

    def _coerce(self, other) -> "QuadraticReal | None":
        if isinstance(other, QuadraticReal):
            if other.d != self.d:
                raise ValueError(f"mixed radicals: √{self.d} vs √{other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticReal(Fraction(other), Fraction(0), self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticReal(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticReal(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticReal(
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticReal":
        norm = self.a * self.a - self.d * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero quadratic real")
        return QuadraticReal(self.a / norm, -self.b / norm, self.d)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadraticReal(Fraction(1), Fraction(0), self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sign(self) -> int:
        """Sign of a + b*sqrt(d), via integer comparison of a^2 against d*b^2."""
        return surd_sign(self.a, self.b, self.d)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticReal with {type(other)}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadraticReal):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def floor(self) -> int:
        approx = self.a + self.b * sqrt_rational_approx(self.d, 20)
        m = math.floor(approx)
        while self._cmp(m) < 0:
            m -= 1
        while self._cmp(m + 1) >= 0:
            m += 1
        return m

    def __floor__(self) -> int:
        return self.floor()

    def __str__(self) -> str:
        return f"{self.a}+{self.b}√{self.d}"

    def __repr__(self) -> str:
        return f"QuadraticReal({self.a!r}, {self.b!r}, {self.d})"


@dataclass(frozen=True)
class PrimeFieldElem:
    """Residue in [0, p) for a fixed prime p."""

    value: int
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.p)

    def _coerce(self, other) -> "PrimeFieldElem | None":
        if isinstance(other, PrimeFieldElem):
            if other.p != self.p:
                raise ValueError(f"mixed moduli: {self.p} vs {other.p}")
            return other
        if isinstance(other, int):
            return PrimeFieldElem(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElem(self.value + o.value, self.p)

    __radd__ = __add__

    def __neg__(self):
        return PrimeFieldElem(-self.value, self.p)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElem(self.value * o.value, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "PrimeFieldElem":
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of 0 mod {self.p}")
        return PrimeFieldElem(pow(self.value, -1, self.p), self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, PrimeFieldElem):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __str__(self) -> str:
        return f"{self.value} mod {self.p}"


class ProductElem:
    """Componentwise element of a finite product of fields."""

    __slots__ = ("components",)

    def __init__(self, components) -> None:
        self.components = tuple(components)

    def _zip(self, other) -> "ProductElem":
        if not isinstance(other, ProductElem):
            raise ValueError(f"cannot mix ProductElem with {type(other)}")
        if len(other.components) != len(self.components):
            raise ValueError("product length mismatch")
        return other

    def __add__(self, other):
        o = self._zip(other)
        return ProductElem(x + y for x, y in zip(self.components, o.components))

    def __neg__(self):
        return ProductElem(-x for x in self.components)

    def __sub__(self, other):
        o = self._zip(other)
        return ProductElem(x - y for x, y in zip(self.components, o.components))

    def __mul__(self, other):
        o = self._zip(other)
        return ProductElem(x * y for x, y in zip(self.components, o.components))

    def __bool__(self) -> bool:
        return any(bool(x) for x in self.components)

    def __eq__(self, other):
        if not isinstance(other, ProductElem):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"ProductElem({self.components!r})"


class RationalField:
    """Descriptor for Q; elements are fractions.Fraction."""

    name = "rational"
    is_ordered = True

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, x) -> Fraction:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ValueError(f"cannot coerce {x!r} into Q")
        return Fraction(x)

    def is_zero(self, x) -> bool:
        return not x

    def inv(self, x: Fraction) -> Fraction:
        return Fraction(1) / x

    def sign(self, x: Fraction) -> int:
        return rational_sign(x)

    def encode(self, x: Fraction) -> str:
        return str(x)

    def parse(self, text: str) -> Fraction:
        return parse_rational(text)

    @property
    def factors(self):
        return (self,)

    def project(self, x, i: int):
        if i != 0:
            raise IndexError(i)
        return x

    def from_factor_values(self, values):
        (v,) = values
        return v

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


@dataclass(frozen=True)
class QuadraticField:
    """Descriptor for Q(sqrt(d)), one fixed squarefree d per context."""

    d: int

    name = "quadratic"
    is_ordered = True

    def __post_init__(self) -> None:
        if self.d < 2 or not is_squarefree(self.d):
            raise ValueError(f"d must be squarefree and >= 2, got {self.d}")

    def zero(self) -> QuadraticReal:
        return QuadraticReal(Fraction(0), Fraction(0), self.d)

    def one(self) -> QuadraticReal:
        return QuadraticReal(Fraction(1), Fraction(0), self.d)

    def sqrt_gen(self) -> QuadraticReal:
        return QuadraticReal(Fraction(0), Fraction(1), self.d)

    def from_int(self, n: int) -> QuadraticReal:
        return QuadraticReal(Fraction(n), Fraction(0), self.d)

    def coerce(self, x) -> QuadraticReal:
        if isinstance(x, QuadraticReal):
            if x.d != self.d:
                raise ValueError(f"mixed radicals: √{self.d} vs √{x.d}")
            return x
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ValueError(f"cannot coerce {x!r} into Q(√{self.d})")
        return QuadraticReal(Fraction(x), Fraction(0), self.d)

    def is_zero(self, x) -> bool:
        return not x

    def inv(self, x: QuadraticReal) -> QuadraticReal:
        return x.inverse()

    def sign(self, x: QuadraticReal) -> int:
        return x.sign()

    def encode(self, x: QuadraticReal) -> str:
        return str(x)

    def parse(self, text: str) -> QuadraticReal:
        text = text.strip()
        if "√" not in text:
            return QuadraticReal(parse_rational(text), Fraction(0), self.d)
        body, dstr = text.split("√")
        if int(dstr) != self.d:
            raise ValueError(f"expected √{self.d}, got √{dstr}")
        a_str, b_str = body.rsplit("+", 1)
        return QuadraticReal(parse_rational(a_str), parse_rational(b_str), self.d)

    @property
    def factors(self):
        return (self,)

    def project(self, x, i: int):
        if i != 0:
            raise IndexError(i)
        return x

    def from_factor_values(self, values):
        (v,) = values
        return v


@dataclass(frozen=True)
class PrimeField:
    """Descriptor for F_p."""

    p: int

    name = "fp"
    is_ordered = False

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")

    def zero(self) -> PrimeFieldElem:
        return PrimeFieldElem(0, self.p)

    def one(self) -> PrimeFieldElem:
        return PrimeFieldElem(1, self.p)

    def from_int(self, n: int) -> PrimeFieldElem:
        return PrimeFieldElem(n, self.p)

    def coerce(self, x) -> PrimeFieldElem:
        if isinstance(x, PrimeFieldElem):
            if x.p != self.p:
                raise ValueError(f"mixed moduli: {self.p} vs {x.p}")
            return x
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"cannot coerce {x!r} into F_{self.p}")
        return PrimeFieldElem(x, self.p)

    def is_zero(self, x) -> bool:
        return not x

    def inv(self, x: PrimeFieldElem) -> PrimeFieldElem:
        return x.inverse()

    def encode(self, x: PrimeFieldElem) -> str:
        return str(x)

    def parse(self, text: str) -> PrimeFieldElem:
        m = re.match(r"^\s*(\d+)\s+mod\s+(\d+)\s*$", text)
        if not m:
            raise ValueError(f"not a prime field encoding: {text!r}")
        if int(m.group(2)) != self.p:
            raise ValueError(f"expected modulus {self.p}, got {m.group(2)}")
        return PrimeFieldElem(int(m.group(1)), self.p)

    @property
    def factors(self):
        return (self,)

    def project(self, x, i: int):
        if i != 0:
            raise IndexError(i)
        return x

    def from_factor_values(self, values):
        (v,) = values
        return v


class ProductRing:
    """Finite product of fields; not itself a field, but has per-factor ranks."""

    name = "product"
    is_ordered = False

    def __init__(self, factors) -> None:
        factors = tuple(factors)
        if not factors:
            raise ValueError("product of no fields")
        for f in factors:
            if isinstance(f, ProductRing):
                raise ValueError("nested products are not supported")
            if not isinstance(f, (RationalField, QuadraticField, PrimeField)):
                raise ValueError("product factors must be fields")
        self._factors = factors

    @property
    def factors(self):
        return self._factors

    def zero(self) -> ProductElem:
        return ProductElem(f.zero() for f in self._factors)

    def one(self) -> ProductElem:
        return ProductElem(f.one() for f in self._factors)

    def from_int(self, n: int) -> ProductElem:
        return ProductElem(f.from_int(n) for f in self._factors)

    def coerce(self, x) -> ProductElem:
        if isinstance(x, ProductElem):
            if len(x.components) != len(self._factors):
                raise ValueError("product length mismatch")
            return ProductElem(
                f.coerce(c) for f, c in zip(self._factors, x.components)
            )
        if isinstance(x, int):
            return self.from_int(x)
        raise ValueError(f"cannot coerce {x!r} into {self!r}")

    def is_zero(self, x) -> bool:
        return not x

    def inv(self, x: ProductElem) -> ProductElem:
        return ProductElem(
            f.inv(c) for f, c in zip(self._factors, x.components)
        )

    def project(self, x: ProductElem, i: int):
        return x.components[i]

    def from_factor_values(self, values) -> ProductElem:
        values = tuple(values)
        if len(values) != len(self._factors):
            raise ValueError("product length mismatch")
        return ProductElem(values)

    def encode(self, x: ProductElem) -> str:
        parts = (f.encode(c) for f, c in zip(self._factors, x.components))
        return "(" + ",".join(parts) + ")"

    def parse(self, text: str) -> ProductElem:
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"not a product encoding: {text!r}")
        parts = text[1:-1].split(",")
        if len(parts) != len(self._factors):
            raise ValueError("product length mismatch")
        return ProductElem(f.parse(s) for f, s in zip(self._factors, parts))

    def __eq__(self, other):
        return isinstance(other, ProductRing) and self._factors == other._factors

    def __hash__(self):
        return hash(self._factors)

    def __repr__(self):
        return "ProductRing(" + ", ".join(repr(f) for f in self._factors) + ")"


class IntegerRing:
    """Plain integer coefficients: fine for ring arithmetic, no K0 model.

    Not a field, so rank-based operations (classes, graded dimensions)
    reject it; everything division-free (reduction, conjugation) works.
    """

    name = "integer"
    is_ordered = False

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return int(n)

    def coerce(self, x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"cannot coerce {x!r} into Z")
        return x

    def is_zero(self, x) -> bool:
        return x == 0

    def inv(self, x: int) -> int:
        # only the units of Z
        if x in (1, -1):
            return x
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in Z")
        raise ValueError(f"{x} is not a unit in Z")

    def encode(self, x: int) -> str:
        return str(x)

    def parse(self, text: str) -> int:
        text = text.strip()
        if not re.match(r"^[+-]?\d+$", text):
            raise ValueError(f"not an integer encoding: {text!r}")
        return int(text)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("integer")

    def __repr__(self):
        return "ZZ"


QQ = RationalField()
ZZ = IntegerRing()


def base_ring_from_descriptor(text: str):
    """Build a coefficient base from its descriptor string.

    Grammar: "rational" | "integer" | "quadratic:d" | "fp:p"
           | "product:<desc>,<desc>,..."
    """
    text = text.strip()
    if text == "rational":
        return QQ
    if text == "integer":
        return ZZ
    if text.startswith("quadratic:"):
        return QuadraticField(int(text.split(":", 1)[1]))
    if text.startswith("fp:"):
        return PrimeField(int(text.split(":", 1)[1]))
    if text.startswith("product:"):
        inner = text.split(":", 1)[1]
        return ProductRing(
            base_ring_from_descriptor(part) for part in inner.split(",") if part
        )
    raise ValueError(f"unknown base ring descriptor: {text!r}")


def base_ring_descriptor(base) -> str:
    if isinstance(base, RationalField):
        return "rational"
    if isinstance(base, IntegerRing):
        return "integer"
    if isinstance(base, QuadraticField):
        return f"quadratic:{base.d}"
    if isinstance(base, PrimeField):
        return f"fp:{base.p}"
    if isinstance(base, ProductRing):
        return "product:" + ",".join(base_ring_descriptor(f) for f in base.factors)
    raise ValueError(f"unknown base ring: {base!r}")
