"""Exact dense linear algebra over a field descriptor.

Matrices are lists of lists of field elements; nothing here mutates its
arguments.  Only desk-scale sizes appear in this package, so plain
Gauss-Jordan elimination with exact division is the right tool: one kernel,
`_rref`, behind rank, nullspace, solve and invert.
"""

from __future__ import annotations


def mat_identity(n: int, field):
    one, zero = field.one(), field.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b, field):
    if not a or not b:
        return [[] for _ in a]
    rows, inner, cols = len(a), len(b), len(b[0])
    zero = field.zero()
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = zero
            for k in range(inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_eq(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


def is_idempotent(m, field) -> bool:
    return mat_eq(mat_mul(m, m, field), m)


def _rref(m, field):
    """Reduced row echelon form of m and its ascending pivot columns.

    Returns (rows, pivots): row i < len(pivots) has a 1 at pivots[i] and every
    other row a 0 there.  Elimination stops once every row has a pivot.
    """
    a = [row[:] for row in m]
    rows = len(a)
    pivots: list[int] = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if not field.is_zero(a[i][c])), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = field.inv(a[r][c])
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and not field.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def rank(m, field) -> int:
    return len(_rref(m, field)[1])


def nullspace(m, field, cols: int):
    """Basis of {x : m x = 0} for an r x cols matrix m (rows may be empty)."""
    a, pivots = _rref(m, field)
    one, zero = field.one(), field.zero()
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [zero] * cols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def solve(a, b, field):
    """One solution x of a x = b (a: rows x cols, b: rows), or None."""
    if not a:
        return []
    cols = len(a[0])
    aug, pivots = _rref([row + [y] for row, y in zip(a, b)], field)
    if cols in pivots:
        return None
    x = [field.zero()] * cols
    for i, pc in enumerate(pivots):
        x[pc] = aug[i][cols]
    return x


def invert(m, field):
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(m)
    aug, pivots = _rref(
        [row + ident for row, ident in zip(m, mat_identity(n, field))], field
    )
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in aug]
