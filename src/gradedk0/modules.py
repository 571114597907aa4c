"""Graded projective modules as images of graded idempotent matrices.

Conventions, fixed once and used everywhere:

* A finitely generated graded projective module is presented as the image of
  a square matrix e with e*e = e acting on a shifted free module
  ⊕_i R(-b_i); elements are columns over the shift list.
* A degree-preserving map between shifted free modules with target shifts
  (b_1..b_r) and source shifts (c_1..c_s) is an r x s matrix whose (i, j)
  entry is homogeneous of degree c_j - b_i, so it is one base scalar (zero
  when that degree is outside the cone, forced by the ring itself).  Matrices
  compute on these scalars; ring elements appear only on the way in and out.
* Reducing a square matrix coefficientwise onto the degree-0 part kills
  every entry between distinct shifts, so the reduction is block diagonal
  over the distinct shift values; the block at b presents the degree-b piece
  of the coefficient reduction of the module.

The decomposition of a presentation works by explicit conjugation.  With
r = reduction of e (embedded back as a degree-0 matrix) the element

    u = r*e + (1-r)*(1-e)

satisfies u*e = r*u and u = 1 + correction with the correction supported in
positive degrees.  An integral order form makes every positive degree worth
at least 1, so the correction is nilpotent and u is invertible by a finite
geometric series.  The largest order value of a shift difference is the
a-priori bound on its length (reported as nilpotency_bound); the series
itself stops at the first zero power, at the latest after as many terms as
the longest chain of distinct shifts has steps.  All identities are verified
exactly after construction; failure raises InternalCheckError since no input
can legitimately trigger it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .cones import LatticePoint, enumerate_window, vadd, vneg, vscale, vsub
from .errors import InternalCheckError
from .rings import GradedRing, RingElem
from .scalars import IntegerRing, ProductRing

ShiftList = tuple[LatticePoint, ...]


def _as_shifts(shifts, n: int) -> ShiftList:
    out = tuple(tuple(int(x) for x in b) for b in shifts)
    for b in out:
        if len(b) != n:
            raise ValueError("shift dimension mismatch")
    return out


class GradedMatrix:
    """Degree-preserving map between shifted free modules, stored as `scalars`:
    rows of base scalars, entry (i, j) the coefficient at degree
    source[j] - target[i].  Ring elements are checked on the way in (the
    constructor) and rebuilt on the way out (`entries`); arithmetic results
    are graded by construction and built unchecked by `_of`."""

    __slots__ = ("ring", "target", "source", "scalars")

    def __init__(self, ring: GradedRing, target, source, entries) -> None:
        target = _as_shifts(target, ring.n)
        source = _as_shifts(source, ring.n)
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != len(target) or any(len(r) != len(source) for r in rows):
            raise ValueError("entry matrix shape does not match shift lists")
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if not isinstance(entry, RingElem) or entry.ring != ring:
                    raise ValueError("entries must be elements of the ambient ring")
                if entry.is_zero():
                    continue
                need = vsub(source[j], target[i])
                if not entry.is_homogeneous() or entry.degree() != need:
                    raise ValueError(
                        f"entry ({i},{j}) must be homogeneous of degree {need}"
                    )
        self.ring, self.target, self.source = ring, target, source
        self.scalars = tuple(
            tuple(x.graded_piece(vsub(c, b)) for c, x in zip(source, row))
            for b, row in zip(target, rows)
        )

    @classmethod
    def _of(cls, ring: GradedRing, target: ShiftList, source: ShiftList, rows) -> "GradedMatrix":
        """Trusted build from rows of base scalars that are graded by construction."""
        m = object.__new__(cls)
        m.ring, m.target, m.source, m.scalars = ring, target, source, tuple(map(tuple, rows))
        return m

    @property
    def entries(self):
        """Rows of ring elements: scalar (i, j) at degree source[j] - target[i]."""
        ring, is_zero = self.ring, self.ring.base.is_zero
        return tuple(
            tuple(
                RingElem(ring, {} if is_zero(x) else {vsub(c, b): x}, _validated=True)
                for c, x in zip(self.source, row)
            )
            for b, row in zip(self.target, self.scalars)
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: GradedRing, target, source) -> "GradedMatrix":
        target, source = _as_shifts(target, ring.n), _as_shifts(source, ring.n)
        return cls._of(ring, target, source, [[ring.base.zero()] * len(source) for _ in target])

    @classmethod
    def identity(cls, ring: GradedRing, shifts) -> "GradedMatrix":
        shifts = _as_shifts(shifts, ring.n)
        return cls._of(ring, shifts, shifts, linalg.mat_identity(len(shifts), ring.base))

    @classmethod
    def from_base_blocks(cls, ring: GradedRing, shifts, blocks) -> "GradedMatrix":
        """Degree-0 square matrix whose same-shift slots carry the given base blocks."""
        shifts = _as_shifts(shifts, ring.n)
        positions = shift_positions(shifts)
        base = ring.base
        r = len(shifts)
        rows = [[base.zero()] * r for _ in range(r)]
        for b, block in blocks.items():
            idx = positions.get(tuple(int(x) for x in b))
            if idx is None:
                raise ValueError(f"no summand with shift {b}")
            if len(block) != len(idx) or any(len(row) != len(idx) for row in block):
                raise ValueError(f"block at {b} has wrong size")
            for bi, i in enumerate(idx):
                for bj, j in enumerate(idx):
                    rows[i][j] = base.coerce(block[bi][bj])
        return cls._of(ring, shifts, shifts, rows)

    # -- arithmetic ----------------------------------------------------

    def compose(self, other: "GradedMatrix") -> "GradedMatrix":
        if self.ring != other.ring:
            raise ValueError("mixed ring contexts")
        if self.source != other.target:
            raise ValueError("shift mismatch in composition")
        is_zero, zero = self.ring.base.is_zero, self.ring.base.zero()
        nonzero = [
            [(j, x) for j, x in enumerate(row) if not is_zero(x)]
            for row in other.scalars
        ]
        out = []
        for left_row in self.scalars:
            row = [zero] * len(other.source)
            # ascending k: each entry sums its products in triple-loop order
            for left, pairs in zip(left_row, nonzero):
                if is_zero(left):
                    continue
                for j, right in pairs:
                    row[j] = row[j] + left * right
            out.append(row)
        return GradedMatrix._of(self.ring, self.target, other.source, out)

    def _entrywise(self, other: "GradedMatrix", op) -> "GradedMatrix":
        if self.ring != other.ring:
            raise ValueError("mixed ring contexts")
        if self.target != other.target or self.source != other.source:
            raise ValueError("shift mismatch in addition")
        rows = [map(op, ra, rb) for ra, rb in zip(self.scalars, other.scalars)]
        return GradedMatrix._of(self.ring, self.target, self.source, rows)

    def add(self, other: "GradedMatrix") -> "GradedMatrix":
        return self._entrywise(other, operator.add)

    def sub(self, other: "GradedMatrix") -> "GradedMatrix":
        return self._entrywise(other, operator.sub)

    def neg(self) -> "GradedMatrix":
        rows = [map(operator.neg, row) for row in self.scalars]
        return GradedMatrix._of(self.ring, self.target, self.source, rows)

    def is_zero(self) -> bool:
        is_zero = self.ring.base.is_zero
        return all(is_zero(x) for row in self.scalars for x in row)

    def is_idempotent(self) -> bool:
        return self.compose(self) == self

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.target == other.target
            and self.source == other.source
            and self.scalars == other.scalars
        )

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(x) for x in row) for row in self.entries
        )
        return f"GradedMatrix[{body}]"

    def to_serializable(self):
        return {
            "target": [list(b) for b in self.target],
            "source": [list(b) for b in self.source],
            "entries": [[x.to_term_list() for x in row] for row in self.entries],
        }


def shift_positions(shifts: ShiftList) -> dict:
    """Map shift value -> ascending list of indices carrying that shift."""
    out: dict = {}
    for i, b in enumerate(shifts):
        out.setdefault(b, []).append(i)
    return out


@dataclass(frozen=True)
class DecomposedForm:
    """Block data of the coefficient reduction together with the conjugating pair."""

    blocks: dict
    u: GradedMatrix
    u_inv: GradedMatrix
    nilpotency_bound: int


class IdempotentPresentation:
    """Graded projective module: image of a graded idempotent on ⊕ R(-b_i)."""

    def __init__(self, ring: GradedRing, shifts, matrix: GradedMatrix) -> None:
        shifts = _as_shifts(shifts, ring.n)
        if matrix.ring != ring or matrix.target != shifts or matrix.source != shifts:
            raise ValueError("matrix shifts do not match the presentation")
        if not matrix.is_idempotent():
            raise ValueError("matrix is not idempotent")
        self.ring = ring
        self.shifts = shifts
        self.matrix = matrix

    @classmethod
    def free(cls, ring: GradedRing, shifts) -> "IdempotentPresentation":
        shifts = _as_shifts(shifts, ring.n)
        return cls(ring, shifts, GradedMatrix.identity(ring, shifts))

    @classmethod
    def zero(cls, ring: GradedRing) -> "IdempotentPresentation":
        return cls(ring, (), GradedMatrix(ring, (), (), []))

    @classmethod
    def from_base_idempotent(cls, ring: GradedRing, shift, block) -> "IdempotentPresentation":
        """All summands at one shift, idempotent given over the base."""
        shift = tuple(int(x) for x in shift)
        shifts = tuple(shift for _ in block)
        if not block:
            return cls.zero(ring)
        m = GradedMatrix.from_base_blocks(ring, shifts, {shift: block})
        return cls(ring, shifts, m)

    @cached_property
    def decomposition(self) -> DecomposedForm:
        return _conjugate(self, mirror=False)

    @cached_property
    def mirror_decomposition(self) -> DecomposedForm:
        """Second, independent conjugating pair (inverse of the mirrored formula)."""
        return _conjugate(self, mirror=True)

    def direct_sum(self, other: "IdempotentPresentation") -> "IdempotentPresentation":
        if self.ring != other.ring:
            raise ValueError("mixed ring contexts")
        shifts = self.shifts + other.shifts
        zero = self.ring.base.zero()
        r, s = len(self.shifts), len(other.shifts)
        rows = [row + (zero,) * s for row in self.matrix.scalars]
        rows += [(zero,) * r + row for row in other.matrix.scalars]
        return IdempotentPresentation(
            self.ring, shifts, GradedMatrix._of(self.ring, shifts, shifts, rows)
        )

    def shifted(self, translation) -> "IdempotentPresentation":
        """Apply the translation functor: degree a of the result is degree
        translation + a of the original, i.e. every shift drops by translation."""
        translation = tuple(int(x) for x in translation)
        shifts = tuple(vsub(b, translation) for b in self.shifts)
        m = GradedMatrix._of(self.ring, shifts, shifts, self.matrix.scalars)
        return IdempotentPresentation(self.ring, shifts, m)

    def __eq__(self, other):
        if not isinstance(other, IdempotentPresentation):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.shifts == other.shifts
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"IdempotentPresentation(shifts={list(self.shifts)})"


def reduce_matrix(pres: IdempotentPresentation) -> dict:
    """Blocks of the coefficientwise degree-0 reduction, keyed by shift value.

    Entries between distinct shift values reduce to zero (their degree is a
    nonzero cone point), so only the same-shift blocks survive; each block is
    idempotent over the base.
    """
    s = pres.matrix.scalars
    return {
        b: [[s[i][j] for j in idx] for i in idx]
        for b, idx in shift_positions(pres.shifts).items()
    }


def _nilpotency_bound(ring: GradedRing, target: ShiftList, source: ShiftList) -> int:
    """Largest order value of a nonzero cone degree source[j] - target[i]."""
    best = 0
    for bi in target:
        for bj in source:
            d = vsub(bj, bi)
            if any(d) and ring.cone.contains(d):
                best = max(best, ring.order.value(d))
    return best


def _geometric_inverse(one_plus: GradedMatrix, bound: int) -> GradedMatrix:
    """Inverse of 1 + correction, the correction in positive degrees only; the
    series stops at the first zero power, which `bound` certifies by power bound+1."""
    ident = GradedMatrix.identity(one_plus.ring, one_plus.target)
    step = ident.sub(one_plus)
    out, power = ident, step
    for _ in range(bound + 1):
        if power.is_zero():
            return out
        out = out.add(power)
        power = power.compose(step)
    raise InternalCheckError("correction is not nilpotent at the derived bound")


def unipotent_inverse(m: GradedMatrix) -> GradedMatrix:
    """Exact inverse of a square matrix that is 1 plus positive-degree terms."""
    if m.target != m.source:
        raise ValueError("unipotent inverse requires a square matrix")
    ident = GradedMatrix.identity(m.ring, m.target)
    is_zero, order = m.ring.base.is_zero, m.ring.order
    for b, row in zip(m.target, m.sub(ident).scalars):
        for c, x in zip(m.source, row):
            if not is_zero(x) and not order.is_positive(vsub(c, b)):
                raise ValueError("matrix is not 1 plus positive-degree terms")
    return _geometric_inverse(m, _nilpotency_bound(m.ring, m.target, m.source))


def _conjugate(pres: IdempotentPresentation, mirror: bool) -> DecomposedForm:
    ring = pres.ring
    base = ring.base
    blocks = reduce_matrix(pres)
    for b, block in blocks.items():
        if not linalg.is_idempotent(block, base):
            raise InternalCheckError(f"reduced block at {b} is not idempotent")
    e = pres.matrix
    reduced = GradedMatrix.from_base_blocks(ring, pres.shifts, blocks)
    ident = GradedMatrix.identity(ring, pres.shifts)
    co_e = ident.sub(e)
    co_r = ident.sub(reduced)
    if mirror:
        straight = e.compose(reduced).add(co_e.compose(co_r))
    else:
        straight = reduced.compose(e).add(co_r.compose(co_e))
    bound = _nilpotency_bound(ring, pres.shifts, pres.shifts)
    straight_inv = _geometric_inverse(straight, bound)
    if mirror:
        u, u_inv = straight_inv, straight
    else:
        u, u_inv = straight, straight_inv
    ue = u.compose(e)
    if ue != reduced.compose(u):
        raise InternalCheckError("conjugation identity failed")
    if u.compose(u_inv) != ident or u_inv.compose(u) != ident:
        raise InternalCheckError("geometric-series inverse failed")
    if ue.compose(u_inv) != reduced:
        raise InternalCheckError("conjugated matrix is not the reduced form")
    # entries between equal shifts are the degree-0 part: there u must be 1
    for i, row in enumerate(u.scalars):
        for j, x in enumerate(row):
            if pres.shifts[i] == pres.shifts[j] and x != (base.one() if i == j else base.zero()):
                raise InternalCheckError("conjugator is not 1 modulo positive degrees")
    return DecomposedForm(blocks=blocks, u=u, u_inv=u_inv, nilpotency_bound=bound)


def conjugator(pres: IdempotentPresentation) -> DecomposedForm:
    """Explicit invertible u with u e u^{-1} equal to the reduced block form."""
    return pres.decomposition


def filtration_window(ring: GradedRing, v: LatticePoint, k: int) -> list[LatticePoint]:
    """Ascending list of lattice points of -kv + C that are order-below kv."""
    low = vscale(-k, v)
    high = vscale(k, v)
    pts = enumerate_window(ring.order, ring.cone, low, ring.order.value(high))
    return [p for p in pts if ring.order.leq(p, high)]


def filtration_idempotent(
    pres: IdempotentPresentation, a: LatticePoint, dec: DecomposedForm | None = None
) -> IdempotentPresentation:
    """Idempotent presenting the submodule generated by degrees order-below a.

    Computed through the decomposition: conjugate back the sum of reduced
    blocks at shifts <= a.  The result commutes with the presenting
    idempotent and its image is independent of the conjugator choice.
    """
    if dec is None:
        dec = pres.decomposition
    a = tuple(int(x) for x in a)
    order = pres.ring.order
    kept = {b: blk for b, blk in dec.blocks.items() if order.leq(b, a)}
    inner = GradedMatrix.from_base_blocks(pres.ring, pres.shifts, kept)
    p = dec.u_inv.compose(inner).compose(dec.u)
    return IdempotentPresentation(pres.ring, pres.shifts, p)


def _nonzero_blocks(base, blocks: dict) -> list[LatticePoint]:
    return [
        b
        for b, block in blocks.items()
        if any(not base.is_zero(x) for row in block for x in row)
    ]


class StageStep:
    """Passage from the filtration stage below a window point to the stage at it.

    The stage at a depends only on which nonzero blocks sit at shifts <= a, so
    window points that keep the same blocks share one stage, and points that
    pass between the same two stages share one step: the nesting products,
    the quotient and its class are formed once per step, on first use.
    `lower` is None below the first window point, where the quotient is the
    first stage itself.
    """

    def __init__(self, lower, upper: IdempotentPresentation, rank) -> None:
        self.lower = lower
        self.upper = upper
        self._rank = rank

    @cached_property
    def nested(self) -> bool:
        """lower * upper = upper * lower = lower."""
        if self.lower is None:
            return True
        lo, hi = self.lower.matrix, self.upper.matrix
        return lo.compose(hi) == lo and hi.compose(lo) == lo

    @cached_property
    def quotient(self) -> IdempotentPresentation:
        if self.lower is None:
            return self.upper
        hi = self.upper
        return IdempotentPresentation(
            hi.ring, hi.shifts, hi.matrix.sub(self.lower.matrix)
        )

    @cached_property
    def quotient_class(self):
        return self._rank(self.quotient)


def filtration_walk(
    pres: IdempotentPresentation, window, rank, dec: DecomposedForm | None = None
):
    """Yield (a, step) for each point a of the window, in window order.

    step.upper is the filtration stage at a and step.lower the stage at the
    previous point; `rank` maps a presentation to its class (classes live in
    k0, which builds on this module) and is applied to each distinct
    quotient once.  Every stage is computed by filtration_idempotent at the
    first window point that keeps its blocks.
    """
    if dec is None:
        dec = pres.decomposition
    order = pres.ring.order
    nonzero = _nonzero_blocks(pres.ring.base, dec.blocks)
    stages: dict = {}
    steps: dict = {}
    lower_key = None
    for a in window:
        key = tuple(b for b in nonzero if order.leq(b, a))
        if key not in stages:
            stages[key] = filtration_idempotent(pres, a, dec)
        if (lower_key, key) not in steps:
            lower = None if lower_key is None else stages[lower_key]
            steps[lower_key, key] = StageStep(lower, stages[key], rank)
        yield a, steps[lower_key, key]
        lower_key = key


def window_index(pres: IdempotentPresentation, v: LatticePoint) -> int:
    """Smallest k such that the presentation lives in the k-th window along v.

    Every shift carrying a nonzero reduced block must lie in -kv + C, be
    order-below kv, and not be order-below -kv.
    """
    v = tuple(int(x) for x in v)
    if not pres.ring.cone.contains_strictly(v):
        raise ValueError("window direction must be strictly interior to the cone")
    shifts = _nonzero_blocks(pres.ring.base, pres.decomposition.blocks)
    order = pres.ring.order
    cone = pres.ring.cone

    def fits(k: int) -> bool:
        high = vscale(k, v)
        return all(
            cone.contains(vadd(b, high)) and order.leq(b, high) and not order.leq(b, vneg(high))
            for b in shifts
        )

    # fits is monotone in k, since v lies in C and has a positive order value:
    # double past the answer, then bisect, keeping fits(hi) and not fits(lo)
    lo, hi = -1, 0
    while not fits(hi):
        lo, hi = hi, max(1, 2 * hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def graded_dimension(pres: IdempotentPresentation, a) -> int:
    """Dimension over the base field of the degree-a piece of the module."""
    base = pres.ring.base
    if isinstance(base, (ProductRing, IntegerRing)):
        raise ValueError("graded dimension requires a field base")
    a = tuple(int(x) for x in a)
    cone = pres.ring.cone
    active = [i for i, b in enumerate(pres.shifts) if cone.contains(vsub(a, b))]
    if not active:
        return 0
    s = pres.matrix.scalars
    m = [[s[i][j] for j in active] for i in active]
    return linalg.rank(m, base)


def _embed_block_column(
    pres: IdempotentPresentation, shift: LatticePoint, column
) -> GradedMatrix:
    """Column vector over the free cover, supported on the summands at `shift`."""
    idx = shift_positions(pres.shifts)[shift]
    base = pres.ring.base
    col = [[base.zero()] for _ in pres.shifts]
    for pos, i in enumerate(idx):
        col[i][0] = base.coerce(column[pos])
    return GradedMatrix._of(pres.ring, pres.shifts, (shift,), col)


def splitting_difference_check(
    pres: IdempotentPresentation,
    a_j: LatticePoint,
    v: LatticePoint | None = None,
    k: int | None = None,
) -> bool:
    """Difference of the two canonical splittings lands below the predecessor.

    For each generator x of the reduced block at a_j, both conjugating pairs
    give a degree-preserving lift of x into the module.  The difference of
    the two lifts must lie in the module (absorbed by e) and in the stage of
    the filtration at the predecessor of a_j in the window enumeration; at
    the bottom of the window the difference must vanish outright.
    """
    ring = pres.ring
    a_j = tuple(int(x) for x in a_j)
    block = pres.decomposition.blocks.get(a_j)
    base = ring.base
    if block is None or all(base.is_zero(x) for row in block for x in row):
        return True
    if v is None:
        v = ring.cone.interior_vector()
    if k is None:
        k = window_index(pres, v)
    window = filtration_window(ring, v, k)
    if a_j not in window:
        raise ValueError("degree is not a point of the enumerated window")
    pos = window.index(a_j)
    pred = window[pos - 1] if pos > 0 else None
    p_pred = (
        filtration_idempotent(pres, pred) if pred is not None else None
    )
    first = pres.decomposition
    second = pres.mirror_decomposition
    e = pres.matrix
    cols = len(block[0])
    for c in range(cols):
        column = [block[i][c] for i in range(len(block))]
        if all(base.is_zero(x) for x in column):
            continue
        embedded = _embed_block_column(pres, a_j, column)
        lift_one = first.u_inv.compose(embedded)
        lift_two = second.u_inv.compose(embedded)
        delta = lift_one.sub(lift_two)
        if e.compose(delta) != delta:
            return False
        if pred is None:
            if not delta.is_zero():
                return False
        elif p_pred.matrix.compose(delta) != delta:
            return False
    return True
