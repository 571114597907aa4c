"""Grothendieck-group classes, graded ranks, and the end-to-end verification.

For a base that is a field or a finite product of fields, the class of a
projective is the tuple of exact ranks per simple factor.  The graded rank
of a presentation collects the classes of its reduced blocks into a finite
Laurent-style sum over lattice exponents; realizing a class at a chosen
exponent goes the other way, via a diagonal idempotent concentrated at one
shift.  Together these give mutually inverse maps at the level of classes,
and the verification below checks that, the reconstruction identity, the
filtration bookkeeping and monomial-action linearity, all exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .cones import LatticePoint, enumerate_window, vadd, vneg, vsub
from .errors import InternalCheckError
from .modules import (
    DecomposedForm,
    IdempotentPresentation,
    filtration_walk,
    filtration_window,
    graded_dimension,
    window_index,
)
from .rings import GradedRing
from .scalars import IntegerRing, ProductRing


@dataclass(frozen=True)
class K0Class:
    """Integer rank vector indexed by the simple factors of the base."""

    components: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "components", tuple(int(x) for x in self.components)
        )

    def __add__(self, other: "K0Class") -> "K0Class":
        if len(self.components) != len(other.components):
            raise ValueError("class length mismatch")
        return K0Class(tuple(a + b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "K0Class":
        return K0Class(tuple(-a for a in self.components))

    def __sub__(self, other: "K0Class") -> "K0Class":
        return self + (-other)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.components)

    def __str__(self) -> str:
        if len(self.components) == 1:
            return str(self.components[0])
        return "(" + ",".join(str(a) for a in self.components) + ")"


class GradedRankClass:
    """Finite sum of K0 classes weighted by Laurent monomials t^b, b in Z^n."""

    __slots__ = ("terms",)

    def __init__(self, terms) -> None:
        clean = {}
        for exp, cls in dict(terms).items():
            exp = tuple(int(x) for x in exp)
            if not isinstance(cls, K0Class):
                cls = K0Class(tuple(cls))
            if not cls.is_zero():
                clean[exp] = cls
        self.terms = clean

    @classmethod
    def zero(cls) -> "GradedRankClass":
        return cls({})

    @classmethod
    def single(cls, exp, k0class: K0Class) -> "GradedRankClass":
        return cls({tuple(exp): k0class})

    def __add__(self, other: "GradedRankClass") -> "GradedRankClass":
        out = dict(self.terms)
        for exp, cls in other.terms.items():
            if exp in out:
                out[exp] = out[exp] + cls
            else:
                out[exp] = cls
        return GradedRankClass(out)

    def __eq__(self, other):
        if not isinstance(other, GradedRankClass):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def mul_monomial(self, b) -> "GradedRankClass":
        b = tuple(int(x) for x in b)
        return GradedRankClass({vadd(exp, b): cls for exp, cls in self.terms.items()})

    def l_action(self, axis: int, exponent: int) -> "GradedRankClass":
        """Multiply by the axis monomial or its inverse (exponent +1 or -1)."""
        if exponent not in (1, -1):
            raise ValueError("exponent must be +1 or -1")
        n = len(next(iter(self.terms))) if self.terms else None
        if n is None:
            return self
        if not 0 <= axis < n:
            raise ValueError("axis out of range")
        step = tuple(exponent if i == axis else 0 for i in range(n))
        return self.mul_monomial(step)

    def serialize(self):
        return [
            {"exp": list(exp), "class": list(cls.components)}
            for exp, cls in sorted(self.terms.items())
        ]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, cls in sorted(self.terms.items()):
            mono = "t^(" + ",".join(str(x) for x in exp) + ")"
            if len(cls.components) == 1 and cls.components[0] == 1:
                parts.append(mono)
            else:
                parts.append(f"{cls}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"GradedRankClass({self})"


def k0_of_idempotent(m, base) -> K0Class:
    """Class of an idempotent over the base: exact rank per simple factor."""
    if not hasattr(base, "factors"):
        raise ValueError(f"base {base!r} has no class model (not a field or product)")
    rows = [list(r) for r in m]
    if rows and not linalg.is_idempotent(rows, base):
        raise ValueError("matrix is not idempotent over the base")
    comps = []
    for i, factor in enumerate(base.factors):
        proj = [[base.project(x, i) for x in row] for row in rows]
        comps.append(linalg.rank(proj, factor))
    return K0Class(tuple(comps))


def graded_rank(pres: IdempotentPresentation) -> GradedRankClass:
    """Sum over shifts of the block class at that shift, one monomial each."""
    base = pres.ring.base
    out = {}
    for b, block in pres.decomposition.blocks.items():
        cls = k0_of_idempotent(block, base)
        if not cls.is_zero():
            out[b] = cls
    return GradedRankClass(out)


def phi_realize(x: K0Class, b, ring: GradedRing) -> IdempotentPresentation:
    """Presentation concentrated at shift b whose graded rank is x * t^b."""
    base = ring.base
    if not hasattr(base, "factors"):
        raise ValueError(f"base {base!r} has no class model (not a field or product)")
    if len(x.components) != len(base.factors):
        raise ValueError("class length does not match the base factors")
    if any(c < 0 for c in x.components):
        raise ValueError("cannot realize negative components as an idempotent")
    size = max(x.components, default=0)
    if size == 0:
        return IdempotentPresentation.zero(ring)
    block = []
    for j in range(size):
        row = []
        for jj in range(size):
            if j == jj:
                row.append(
                    base.from_factor_values(
                        factor.one() if j < comp else factor.zero()
                        for factor, comp in zip(base.factors, x.components)
                    )
                )
            else:
                row.append(base.zero())
        block.append(row)
    return IdempotentPresentation.from_base_idempotent(ring, b, block)


def _unit(n: int, axis: int) -> LatticePoint:
    return tuple(1 if i == axis else 0 for i in range(n))


def _check(name: str, passed: bool, detail=None) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if detail is not None and not passed:
        entry["detail"] = detail
    return entry


def xi_phi_identity(ring: GradedRing, dec: DecomposedForm):
    """Realizing each block class and taking its graded rank gives it back."""
    failures = []
    for b, block in sorted(dec.blocks.items()):
        cls = k0_of_idempotent(block, ring.base)
        if cls.is_zero():
            continue
        got = graded_rank(phi_realize(cls, b, ring))
        want = GradedRankClass.single(b, cls)
        if got != want:
            failures.append(
                {"shift": list(b), "expected": want.serialize(), "got": got.serialize()}
            )
    return not failures, {"mismatches": failures}


def filtration_consistency(
    pres: IdempotentPresentation, dec: DecomposedForm, v: LatticePoint | None, window_k: int | None
):
    """Stages through the window start at 0, nest, have quotients of the block
    classes and end at the whole module; the detail names the first failure."""
    ring = pres.ring
    if v is None:
        v = ring.cone.interior_vector()
    k = max(window_index(pres, v), window_k or 0)
    for a, step in filtration_walk(pres, filtration_window(ring, v, k), graded_rank, dec):
        cur = step.upper
        if step.lower is None:
            if not cur.matrix.is_zero():
                return False, {
                    "stage": list(a),
                    "reason": "bottom filtration stage is nonzero",
                    "matrix": cur.matrix.to_serializable(),
                }
            continue
        if not step.nested:
            return False, {
                "stage": list(a),
                "reason": "filtration stages do not nest",
                "matrix": cur.matrix.to_serializable(),
            }
        block = dec.blocks.get(a)
        want = (
            GradedRankClass.single(a, k0_of_idempotent(block, ring.base))
            if block is not None
            else GradedRankClass.zero()
        )
        got = step.quotient_class
        if got != want:
            return False, {
                "stage": list(a),
                "reason": "quotient class differs from block class",
                "matrix": step.quotient.matrix.to_serializable(),
                "expected": want.serialize(),
                "got": got.serialize(),
            }
    if cur.matrix != pres.matrix:
        return False, {
            "reason": "top filtration stage is not the whole module",
            "matrix": cur.matrix.to_serializable(),
        }
    return True, None


def l_linearity(pres: IdempotentPresentation, rank_class: GradedRankClass):
    """Translating by a unit vector multiplies the graded rank by its monomial."""
    failures = []
    for axis in range(pres.ring.n):
        unit = _unit(pres.ring.n, axis)
        if graded_rank(pres.shifted(vneg(unit))) != rank_class.l_action(axis, 1):
            failures.append({"axis": axis, "direction": +1})
        if graded_rank(pres.shifted(unit)) != rank_class.l_action(axis, -1):
            failures.append({"axis": axis, "direction": -1})
    return not failures, {"mismatches": failures}


def verify_theorem_k0(
    pres: IdempotentPresentation,
    v: LatticePoint | None = None,
    window_k: int | None = None,
) -> dict:
    """Run the exact class-level verification suite on one presentation.

    Checks, in order: reconstruction by conjugation; class realization
    followed by graded rank returning each block class; filtration stages
    through the enumerated window with quotient classes matching block
    classes; and monomial-action linearity of the graded rank under the
    translation functor.  The report carries one pass/fail entry per check
    and the graded rank of the presentation.  The checks after the first
    need the decomposition and are skipped without it.
    """
    try:
        dec = pres.decomposition
        checks = [_check("lemma_reconstruction", True)]
    except InternalCheckError as exc:
        dec = None
        detail = {"error": str(exc), "matrix": pres.matrix.to_serializable()}
        checks = [_check("lemma_reconstruction", False, detail)]
    rank_class = graded_rank(pres) if dec is not None else GradedRankClass.zero()
    table = (
        ("xi_phi_identity", lambda: xi_phi_identity(pres.ring, dec)),
        ("filtration_consistency", lambda: filtration_consistency(pres, dec, v, window_k)),
        ("l_linearity", lambda: l_linearity(pres, rank_class)),
    )
    skipped = (False, {"skipped": "no decomposition"})
    checks += [_check(name, *(skipped if dec is None else run())) for name, run in table]
    return {
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        "graded_rank": rank_class.serialize(),
        "shifts": [list(b) for b in pres.shifts],
    }


def hilbert_table(pres: IdempotentPresentation, bound: int):
    """Rows (degree, exact dimension, block convolution value) for all degrees
    of gamma-value at most the bound where either side could be nonzero."""
    ring = pres.ring
    base = ring.base
    if isinstance(base, (ProductRing, IntegerRing)):
        raise ValueError("dimension tables require a field base")
    ranks = {
        b: k0_of_idempotent(block, base).components[0]
        for b, block in pres.decomposition.blocks.items()
    }
    candidates = set()
    for b in set(pres.shifts):
        candidates.update(enumerate_window(ring.order, ring.cone, b, bound))
    rows = []
    for a in sorted(candidates, key=ring.order.sort_key):
        conv = 0
        for b, r in ranks.items():
            if r and ring.cone.contains(vsub(a, b)):
                conv += r
        rows.append((a, graded_dimension(pres, a), conv))
    return rows


def hilbert_series_check(pres: IdempotentPresentation, bound: int) -> bool:
    """Exact equality of per-degree dimension with the block convolution.

    Degrees outside every shifted cone have both sides zero, so scanning the
    union of windows based at the shifts decides the full strip of degrees
    with gamma-value up to the bound.
    """
    return all(dim == conv for _, dim, conv in hilbert_table(pres, bound))
